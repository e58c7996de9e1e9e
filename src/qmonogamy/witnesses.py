"""Inequality witnesses for stepwise quantum processes.

A process here is an initial state pushed through a list of channels,
state i+1 = L_i(state i).  Writing Ic(r:s) for the coherent information
of state r through the composite map that carries it to state s, the
witnesses are:

* data-processing gaps DP1..DP4, differences Ic(a:b) - Ic(c:d) that are
  nonnegative for every process;
* candidate gaps DP5..DP9 with no fixed sign: random Markov processes
  drive each of them negative, so they are reported, never asserted;
* monogamy gaps, one per permutation f of 1..n over 2n states: the sum
  of coherent informations across the nested pairs (n+1-i : n+i) upper
  bounds the sum across the pairs (n+1-i : n+f(i)).  MONOGAMY names the
  permutations behind M4, M6a/b and M8a..g.  monogamy_gap writes this
  pairing once, for any two-time quantity; the classical
  (classical.cmmi_gap) and process-tensor (mqmmi_witnesses) pictures
  share it.

Every coherent information of a process is a difference of two entropies
of its purified circuit, in which each channel is replaced by an isometry
into a fresh environment register, keeping the global state pure over
(R, E_1, ..., E_m, S):

    Ic(r:s) = H(R, E_1..E_{s-1}) - H(E_r..E_{s-1}),

so a monogamy gap is a linear form in entropies of environment
intervals.  Strong subadditivity alone makes it nonnegative, for every
permutation and every process: each M4 gap of uncrossing(f) is one
conditional mutual information of environment intervals
(monogamy_certificate).  The terms add up to the gap exactly, so the
certificate is the proof, and its agreement with the witness checks the
uncrossing algebra.

The circuit is a chain joined by the d-dimensional system alone, so
H(R, E_1..E_{s-1}) = H(rho_s), and H(E_r..E_{s-1}) is the entropy of the
d^2 x d^2 joint state (id x channels r..s-1)(psi_r), psi_r purifying
rho_r (the Schumacher-Nielsen form of the coherent information).
bond_table computes every such entropy of a stack of processes, with one
stacked eigensolve per channel and no circuit built, and it is the only
chain-entropy oracle of the package.  A MarkovChainProcess caches the
table of itself (a stack of one), and the table's two readers,
BondTable.coherent_info and BondTable.certificate, serve both the
one-process functions (qdpi_witnesses, m4_witness, ...,
m8_ssa_certificates) and the survey (survey_witnesses and
survey_certificates, which experiments.random_markov_verify calls).
Each witness formula is written once, over a function that gives
Ic(r:s), so the two share it too.

Two independent references stay for the tests: purified_circuit_state
builds the circuit (within MAX_AMPLITUDES) and reads the same entropies
as register marginals, and info.chain_coherent_information propagates
Kraus maps and builds neither.

All witnesses are reported as plain gap values; a WitnessReport flags
entries below -GAP_TOLERANCE (tolerances.py) as violations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .channels import KrausChannel, apply_to_subsystem
from .info import conditional_mutual_information, mutual_information
from .linalg import apply_kraus
from .states import DensityMatrix, PureState, purify, von_neumann_stack
from .tolerances import GAP_TOLERANCE

__all__ = [
    "GAP_TOLERANCE",
    "MarkovChainProcess",
    "WitnessReport",
    "markov_process",
    "qdpi_witnesses",
    "m4_witness",
    "extra_dpi_witnesses",
    "m6_witnesses",
    "m8_witnesses",
    "MONOGAMY",
    "monogamy_gap",
    "monogamy_certificate",
    "uncrossing",
    "purified_circuit_state",
    "bond_table",
    "survey_witnesses",
    "survey_certificates",
    "m4_ssa_certificate",
    "m6_ssa_certificates",
    "m8_ssa_certificates",
    "cqmi_monotonicity_gap",
    "mi_dpi_gap",
]

@dataclass(frozen=True, eq=False)
class MarkovChainProcess:
    """Initial state plus the channel list that generates the later states."""

    initial: DensityMatrix
    channels: tuple[KrausChannel, ...]

    @property
    def n_states(self) -> int:
        return len(self.channels) + 1

    @cached_property
    def table(self) -> BondTable:
        """The BondTable of this process, built once: bond_table of a stack
        of one, with the stack axis dropped."""
        kraus = [np.array(ch.kraus)[None] for ch in self.channels]
        prefix, interval = bond_table(self.initial.mat[None], kraus)
        return BondTable(prefix[..., 0], interval[..., 0])

    def coherent_info(self, r: int, s: int) -> float:
        """Ic(r:s) = H(R, E1..E_{s-1}) - H(E_r..E_{s-1}), read from the
        process's BondTable."""
        if not 1 <= r < s:
            raise ValueError(f"need 1 <= r < s <= {self.n_states}, got r={r}, s={s}")
        _require_states(self, s, f"Ic({r}:{s})")
        return float(self.table.coherent_info(r, s))


def markov_process(initial: DensityMatrix,
                   channels: list[KrausChannel] | tuple[KrausChannel, ...],
                   ) -> MarkovChainProcess:
    """Validate the dimensions and build a process.

    Every channel must map the initial state's dimension to itself: a
    process carries one system dimension, as its BondTable does.
    """
    channels = tuple(channels)
    if not channels:
        raise ValueError("a process needs at least one channel")
    if len(initial.dims) != 1:
        initial = DensityMatrix(initial.mat, (initial.dim,))
    d = initial.dim
    for i, ch in enumerate(channels):
        if ch.d_in != d:
            raise ValueError(f"channel {i} expects dimension {ch.d_in}, chain carries {d}")
        if ch.d_out != d:
            raise ValueError(f"channel {i} maps dimension {d} to {ch.d_out}; a process "
                             f"carries one system dimension")
    return MarkovChainProcess(initial, channels)


@dataclass(frozen=True)
class WitnessReport:
    """Named gap values; entries below -GAP_TOLERANCE are violations."""

    entries: dict[str, float]

    @property
    def min_value(self) -> float:
        return min(self.entries.values())

    @property
    def violations(self) -> dict[str, float]:
        return {k: v for k, v in self.entries.items() if v < -GAP_TOLERANCE}

    @property
    def passed(self) -> bool:
        return not self.violations


def _require_states(p: MarkovChainProcess, n: int, what: str) -> None:
    if p.n_states < n:
        raise ValueError(f"{what} needs at least {n} states, process has {p.n_states}")


# ---------------------------------------------------------------------------
# four-state witnesses
# ---------------------------------------------------------------------------

def qdpi_witnesses(p: MarkovChainProcess) -> WitnessReport:
    """The four data-processing gaps of a four-state process.

    DP1 = Ic(1:2) - Ic(1:3)    DP2 = Ic(1:2) - Ic(1:4)
    DP3 = Ic(1:3) - Ic(1:4)    DP4 = Ic(2:3) - Ic(2:4)

    All four are nonnegative for every process.
    """
    _require_states(p, 4, "qdpi_witnesses")
    return WitnessReport(_dp_gaps(p.coherent_info))


def _dp_gaps(ic: Callable[[int, int], float]) -> dict[str, float]:
    i12, i13, i14 = ic(1, 2), ic(1, 3), ic(1, 4)
    i23, i24 = ic(2, 3), ic(2, 4)
    return {
        "DP1": i12 - i13,
        "DP2": i12 - i14,
        "DP3": i13 - i14,
        "DP4": i23 - i24,
    }


def extra_dpi_witnesses(p: MarkovChainProcess) -> WitnessReport:
    """Candidate gap values whose sign is not fixed by the proven inequalities.

    DP5 = Ic(2:3) - Ic(1:3)    DP6 = Ic(2:3) - Ic(1:4)
    DP7 = Ic(2:4) - Ic(1:4)    DP8 = Ic(3:4) - Ic(1:4)
    DP9 = Ic(3:4) - Ic(2:4)

    Unlike the proven gaps, which fix the starting state and extend the
    segment, each of these compares segments with different starting
    states, so a negative value is not a non-Markovianity witness: random
    Markov processes drive every one of them negative (over 400 seeded
    qubit examples DP5 reaches -0.45, DP6 -0.43, DP7 -0.72, DP8 -0.36 and
    DP9 -0.21).  The report records the raw values; callers decide what
    to make of the signs.

    A three-state process yields DP5 only.
    """
    _require_states(p, 3, "extra_dpi_witnesses")
    ic = p.coherent_info
    entries = {"DP5": ic(2, 3) - ic(1, 3)}
    if p.n_states >= 4:
        i14 = ic(1, 4)
        entries["DP6"] = ic(2, 3) - i14
        entries["DP7"] = ic(2, 4) - i14
        entries["DP8"] = ic(3, 4) - i14
        entries["DP9"] = ic(3, 4) - ic(2, 4)
    return WitnessReport(entries)


# ---------------------------------------------------------------------------
# monogamy: one permutation gap and its derived certificate
# ---------------------------------------------------------------------------

# the named witnesses of 2n-state processes, each a permutation f of 1..n:
# state n+1-i is paired with state n+f(i) instead of state n+i
MONOGAMY = {
    4: {"M4": (2, 1)},
    6: {"M6a": (2, 3, 1), "M6b": (3, 1, 2)},
    8: {"M8a": (2, 3, 4, 1), "M8b": (2, 4, 1, 3), "M8c": (3, 1, 4, 2),
        "M8d": (3, 4, 2, 1), "M8e": (4, 1, 2, 3), "M8f": (4, 3, 1, 2),
        "M8g": (4, 3, 2, 1)},
}


def _permutation(perm: tuple[int, ...]) -> tuple[int, ...]:
    """perm as a tuple of ints, refused unless it rearranges 1..n, n >= 1;
    a bool is not taken for 0 or 1."""
    n = len(perm)
    if (n < 1 or not all(isinstance(f, (int, np.integer)) and not isinstance(f, bool)
                         for f in perm)
            or sorted(perm) != list(range(1, n + 1))):
        raise ValueError(f"perm must rearrange 1..n for some n >= 1, got {tuple(perm)}")
    return tuple(map(int, perm))


def monogamy_gap(quantity: Callable[[int, int], float], perm: tuple[int, ...]) -> float:
    """Permutation gap of a two-time quantity q(r, s), r < s, over states
    1..2n, n = len(perm); q may give floats or arrays over a stack.

    The states are read as a chain rho_n -> ... -> rho_1 -> sigma_1 -> ...
    -> sigma_n, i.e. rho_i is state n+1-i and sigma_j is state n+j.  The
    gap is sum_i q(rho_i, sigma_i) - sum_i q(rho_i, sigma_perm[i]), both
    sums taken over the pairs (r, s) with r ascending.  For a process p,
    monogamy_certificate(p, perm) equals monogamy_gap(p.coherent_info, perm).
    """
    perm = _permutation(perm)
    n = len(perm)
    nested = sum(quantity(r, 2 * n + 1 - r) for r in range(1, n + 1))
    return nested - sum(quantity(r, n + perm[n - r]) for r in range(1, n + 1))


def uncrossing(perm: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """The swaps (k, i, j) that carry perm to the identity, at most n - 1.

    For i = 1..n with f(i) != i, take j = f(i) and k = f^-1(i), both
    above i, and set f(i) = i, f(k) = j.  Each swap trades the pairs
    (rho_k, sigma_i), (rho_i, sigma_j) for (rho_i, sigma_i), (rho_k, sigma_j),
    which lowers monogamy_gap by the M4 gap q(b,c) + q(a,d) - q(a,c) - q(b,d)
    of the sub-chain a, b, c, d = rho_k, rho_i, sigma_i, sigma_j.  So every
    permutation gap is a sum of such M4 gaps, and nonnegative when they are.
    """
    f = dict(enumerate(_permutation(perm), 1))
    swaps = []
    for i in range(1, len(perm) + 1):
        j = f[i]
        if j != i:
            k = next(k for k, s in f.items() if s == i)
            swaps.append((k, i, j))
            f[i], f[k] = i, j
    return swaps


def monogamy_certificate(p: MarkovChainProcess, perm: tuple[int, ...]) -> float:
    """monogamy_gap(p.coherent_info, perm) as a sum of environment CMIs,
    one per swap of uncrossing(perm) (BondTable.certificate)."""
    perm = _permutation(perm)
    _require_states(p, 2 * len(perm), f"a permutation of 1..{len(perm)}")
    return float(p.table.certificate(perm))


def m4_witness(p: MarkovChainProcess) -> float:
    """Four-state monogamy gap Ic(1:4) + Ic(2:3) - Ic(1:3) - Ic(2:4) >= 0."""
    return monogamy_gap(p.coherent_info, MONOGAMY[4]["M4"])


def m6_witnesses(p: MarkovChainProcess) -> WitnessReport:
    """The six-state monogamy gaps M6a, M6b of MONOGAMY."""
    return WitnessReport(_monogamy_gaps(p.coherent_info, 6))


def m8_witnesses(p: MarkovChainProcess) -> WitnessReport:
    """The eight-state monogamy gaps M8a..M8g of MONOGAMY."""
    return WitnessReport(_monogamy_gaps(p.coherent_info, 8))


def _monogamy_gaps(ic: Callable[[int, int], float], n_states: int) -> dict[str, float]:
    return {name: monogamy_gap(ic, f) for name, f in MONOGAMY[n_states].items()}


# ---------------------------------------------------------------------------
# the bond table: the chain-entropy oracle, its readers and its users
# ---------------------------------------------------------------------------

class BondTable(NamedTuple):
    """The chain entropies of a stack of processes on one d-dimensional
    system: prefix[s] = H(rho_s) = H(R, E_1..E_{s-1}) and
    interval[r, s] = H(E_r..E_{s-1}) of the purified circuit, each an array
    over the stack.  States are numbered from 1 (row 0 is unused), and
    interval[r, r] = 0.

    Every chain witness and certificate is read from the table by its two
    methods, for one process or a stack alike."""

    prefix: np.ndarray
    interval: np.ndarray

    def coherent_info(self, r: int, s: int) -> np.ndarray:
        """Ic(r:s) = H(R, E_1..E_{s-1}) - H(E_r..E_{s-1}) = prefix[s] - interval[r, s]."""
        return self.prefix[s] - self.interval[r, s]

    def certificate(self, perm: tuple[int, ...]) -> np.ndarray:
        """The monogamy certificate of perm over states 1..2n, n = len(perm).

        With H[i, j] = H(E_{n+1-i}..E_{n+j-1}) = interval[n+1-i, n+j], the
        gap is sum_i H[i, perm(i)] - sum_i H[i, i]: the H(R, E_1..E_{s-1})
        halves of the coherent informations cancel.  The M4 gap of a swap
        (k, i, j) of uncrossing(perm) is H[k, i] + H[i, j] - H[i, i] - H[k, j]
        = I(E_{n+1-k}..E_{n-i} : E_{n+i}..E_{n+j-1} | E_{n+1-i}..E_{n+i-1}),
        which strong subadditivity keeps nonnegative for every state.
        """
        n = len(perm)

        def h(i: int, j: int) -> np.ndarray:
            return self.interval[n + 1 - i, n + j]

        # each term is I(A:B|C) = H(AC) + H(BC) - H(ABC) - H(C)
        return sum((h(k, i) + h(i, j) - h(k, j) - h(i, i) for k, i, j in uncrossing(perm)),
                   0.0)


def bond_table(initial: np.ndarray, kraus: Sequence[np.ndarray]) -> BondTable:
    """The BondTable of the processes `initial` -> channel 1 -> ..., with
    no purified circuit built.

    `initial` is a stack of density matrices (n, d, d) and channel j a
    stack of Kraus lists (n, k_j, d, d).  The circuit is a chain joined by
    the system alone, so (R, E_1..E_{s-1}) purifies rho_s, and
    (E_r..E_{s-1}) has the entropy of the d^2 x d^2 joint state
    (id x channels r..s-1)(psi_r), psi_r purifying rho_r: the reference of
    psi_r stands in for R, E_1..E_{r-1}.  The states rho_s take one
    apply_kraus per channel and the purifications of every rho_r one
    stacked purify.  Channel j then acts on the joints of every r <= j at
    once, and their entropies are one stacked eigensolve per channel.
    """
    d = initial.shape[-1]
    states = [initial]
    for ops in kraus:
        states.append(apply_kraus(states[-1], (d,), ops, 0))
    rho = np.stack(states, axis=1)
    n, m = rho.shape[0], len(kraus)
    prefix = np.zeros((m + 2, n))
    prefix[1:] = von_neumann_stack(rho).T
    # joint[:, r - 1] = psi_r, r = 1..m, on (reference, system)
    joint = purify(DensityMatrix(rho[:, :m], (d,))).density().mat
    interval = np.zeros((m + 2, m + 2, n))
    for j, ops in enumerate(kraus, 1):
        # channel j carries rho_j to rho_{j+1}; it acts on the joints of r <= j
        joint[:, :j] = apply_kraus(joint[:, :j], (d, d), ops[:, None], 1)
        interval[1:j + 1, j + 1] = von_neumann_stack(joint[:, :j]).T
    return BondTable(prefix, interval)


def m4_ssa_certificate(p: MarkovChainProcess) -> float:
    """I(E1:E3|E2) of the purified circuit, read from the BondTable; equals
    the M4 gap."""
    return monogamy_certificate(p, MONOGAMY[4]["M4"])


def m6_ssa_certificates(p: MarkovChainProcess) -> dict[str, float]:
    """monogamy_certificate of each M6 entry; equals m6_witnesses entry for entry."""
    return {name: monogamy_certificate(p, f) for name, f in MONOGAMY[6].items()}


def m8_ssa_certificates(p: MarkovChainProcess) -> dict[str, float]:
    """monogamy_certificate of each M8 entry; equals m8_witnesses entry for entry."""
    return {name: monogamy_certificate(p, f) for name, f in MONOGAMY[8].items()}


def survey_witnesses(table: BondTable, n_states: int) -> dict[str, np.ndarray]:
    """The witnesses verify surveys on n_states-state processes, read from
    their BondTable (arrays over the stack): DP1..DP4 and M4 at 4 states,
    the MONOGAMY gaps at 6 and 8."""
    entries = _dp_gaps(table.coherent_info) if n_states == 4 else {}
    return entries | _monogamy_gaps(table.coherent_info, n_states)


def survey_certificates(table: BondTable, n_states: int) -> dict[str, np.ndarray]:
    """monogamy_certificate of each MONOGAMY entry at n_states, read from a
    BondTable as survey_witnesses."""
    return {name: table.certificate(f) for name, f in MONOGAMY[n_states].items()}


# ---------------------------------------------------------------------------
# the purified circuit, the tests' reference for the bond table
# ---------------------------------------------------------------------------

def purified_circuit_state(p: MarkovChainProcess) -> PureState:
    """Pure global state of the process with every channel dilated, the
    test reference for the BondTable, which never builds it.

    The initial state is purified by a reference R, then each channel is
    replaced by its isometry into a fresh environment register.  Registers
    of the result, by label and in order: (R, E1, ..., Em, S) with
    m = len(channels); the dimension of Ej is the Kraus count of channel j.
    A circuit over MAX_AMPLITUDES is refused.
    """
    psi = replace(purify(p.initial), labels=("R", "S"))
    for j, ch in enumerate(p.channels, 1):
        # the Kraus operators one above the other are the isometry
        # |s> -> sum_e |e> (x) K_e|s>
        iso = np.concatenate(ch.kraus)
        psi = psi.apply(iso, ("S",), out={f"E{j}": len(ch.kraus), "S": ch.d_out})
    return psi


# ---------------------------------------------------------------------------
# conditional mutual information monotonicity
# ---------------------------------------------------------------------------

def cqmi_monotonicity_gap(rho_abc: DensityMatrix, ch: KrausChannel) -> float:
    """I(A:B|C) - I(A:D|C) >= 0 for a channel B -> D on a tripartite state."""
    if len(rho_abc.dims) != 3:
        raise ValueError(f"expected three subsystems, got dims {rho_abc.dims}")
    before = conditional_mutual_information(rho_abc, (0,), (1,), (2,))
    rho_adc = apply_to_subsystem(ch, rho_abc, 1)
    after = conditional_mutual_information(rho_adc, (0,), (1,), (2,))
    return before - after


def mi_dpi_gap(rho_ab: DensityMatrix, ch: KrausChannel) -> float:
    """I(A:B) - I(A:D) >= 0 for a channel B -> D on a bipartite state."""
    if len(rho_ab.dims) != 2:
        raise ValueError(f"expected two subsystems, got dims {rho_ab.dims}")
    before = mutual_information(rho_ab, (0,), (1,))
    rho_ad = apply_to_subsystem(ch, rho_ab, 1)
    after = mutual_information(rho_ad, (0,), (1,))
    return before - after
