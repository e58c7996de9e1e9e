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
bond_table computes every such entropy of a stack of processes, with no
circuit built, and it is the only chain-entropy oracle of the package.
Each channel acts through its transfer matrix sum_k K_k (x) conj(K_k)
(linalg.transfer_matrix), built once: on vec(rho_j) for the next state,
and on the joints of every r <= j at once, which are kept in the layout
it acts on (rows (S, S'), columns (R, R')).  Each channel's joints are
kept, moved to (R S, R' S'), and all of them take one stacked eigensolve.
A MarkovChainProcess caches the table of itself (a stack of one).

A named family of witnesses or certificates is read from a table in one
fancy-index gather (_gathers, built once per state count): its index
tables come from _DP_PAIRS, from MONOGAMY through monogamy_gap's pairing
and from uncrossing's swaps, so each pairing keeps one definition, and
the gathered sums run in the order of the one-quantity forms, so their
values are bit for bit those of monogamy_gap over BondTable.coherent_info
and of BondTable.certificate.  The same gathers serve the one-process
functions (qdpi_witnesses, m4_witness, ..., m8_ssa_certificates) and the
survey (survey_witnesses and survey_certificates, which
experiments.random_markov_verify calls).  monogamy_gap stays the generic
form for any two-time quantity and any permutation.

Two independent references stay for the tests: purified_circuit_state
builds the circuit (within MAX_AMPLITUDES) and reads the same entropies
as register marginals, and info.chain_coherent_information propagates
Kraus maps and builds neither.

All witnesses are reported as plain gap values; a WitnessReport flags
entries below -GAP_TOLERANCE (tolerances.py) as violations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .channels import KrausChannel, apply_to_subsystem, kraus_stack
from .info import conditional_mutual_information, mutual_information
from .linalg import _is_int, _require_int, transfer_matrix
from .states import DensityMatrix, PureState, density_stack, purify, von_neumann_stack
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
        _require_int(r, "state r")
        _require_int(s, "state s")
        if not 1 <= r < s:
            raise ValueError(f"need 1 <= r < s <= {self.n_states}, got r={r}, s={s}")
        _require_states(self, s, f"Ic({r}:{s})")
        return float(self.table.coherent_info(r, s))


def markov_process(initial: DensityMatrix,
                   channels: list[KrausChannel] | tuple[KrausChannel, ...],
                   ) -> MarkovChainProcess:
    """Validate the state, the channels and their dimensions and build a
    process.  A process carries one system dimension, as its BondTable
    does, so every Kraus operator must be d x d.  The state is checked by
    states.density_stack and the channels by channels.kraus_stack, one
    stacked call per Kraus count.
    """
    channels = tuple(channels)
    if not channels:
        raise ValueError("a process needs at least one channel")
    if len(initial.dims) != 1:
        initial = DensityMatrix(initial.mat, (initial.dim,))
    d = initial.dim
    for i, ch in enumerate(channels):
        shapes = sorted({np.shape(k) for k in ch.kraus})
        if shapes != [(d, d)]:
            raise ValueError(f"channel {i} maps dimension {ch.d_in} to {ch.d_out} by Kraus "
                             f"operators of shapes {shapes}; a process carries one system "
                             f"dimension, {d}")
    density_stack(initial.mat[None], (d,))
    for n in {len(ch.kraus) for ch in channels}:
        kraus_stack([ch.kraus for ch in channels if len(ch.kraus) == n])
    return MarkovChainProcess(initial, channels)


@dataclass(frozen=True)
class WitnessReport:
    """Named gap values; entries below -GAP_TOLERANCE are violations.  On a
    stack an entry is an array: `min_value` is over every slice, and an
    entry with any slice below is a violation, kept whole."""

    entries: dict[str, float | np.ndarray]

    @property
    def min_value(self) -> float:
        return float(min(map(np.min, self.entries.values())))

    @property
    def violations(self) -> dict[str, float | np.ndarray]:
        return {k: v for k, v in self.entries.items() if np.any(v < -GAP_TOLERANCE)}

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
    return WitnessReport(_read(_gaps, _gathers(4).dp, p.table))


# each data-processing gap is Ic(a) - Ic(b) for its pairs a, b; the
# candidates of extra_dpi_witnesses are listed in the same form
_DP_PAIRS = {"DP1": ((1, 2), (1, 3)), "DP2": ((1, 2), (1, 4)),
             "DP3": ((1, 3), (1, 4)), "DP4": ((2, 3), (2, 4))}
_CANDIDATE_DP_PAIRS = {"DP5": ((2, 3), (1, 3)), "DP6": ((2, 3), (1, 4)),
                       "DP7": ((2, 4), (1, 4)), "DP8": ((3, 4), (1, 4)),
                       "DP9": ((3, 4), (2, 4))}


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

    A three-state process yields DP5 only: the entries whose states the
    process has are read from its BondTable in one gather.
    """
    _require_states(p, 3, "extra_dpi_witnesses")
    gather = _gap_gather({name: ([a], [b]) for name, (a, b) in _CANDIDATE_DP_PAIRS.items()
                          if max(a[1], b[1]) <= p.n_states})
    return WitnessReport(_read(_gaps, gather, p.table))


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
    if n < 1 or not all(map(_is_int, perm)) or sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm must rearrange 1..n for some n >= 1, got {tuple(perm)}")
    return tuple(map(int, perm))


def _pairing(perm: tuple[int, ...]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The nested pairs (r, 2n+1-r) and the crossed pairs (r, n+perm[n-r])
    of monogamy_gap, r ascending."""
    perm = _permutation(perm)
    n = len(perm)
    return ([(r, 2 * n + 1 - r) for r in range(1, n + 1)],
            [(r, n + perm[n - r]) for r in range(1, n + 1)])


def monogamy_gap(quantity: Callable[[int, int], float], perm: tuple[int, ...]) -> float:
    """Permutation gap of a two-time quantity q(r, s), r < s, over states
    1..2n, n = len(perm); q may give floats or arrays over a stack.

    The states are read as a chain rho_n -> ... -> rho_1 -> sigma_1 -> ...
    -> sigma_n, i.e. rho_i is state n+1-i and sigma_j is state n+j.  The
    gap is sum_i q(rho_i, sigma_i) - sum_i q(rho_i, sigma_perm[i]), both
    sums taken over the pairs (r, s) with r ascending.  For a process p,
    monogamy_certificate(p, perm) equals monogamy_gap(p.coherent_info, perm).
    """
    nested, crossed = _pairing(perm)
    return sum(quantity(r, s) for r, s in nested) - sum(quantity(r, s) for r, s in crossed)


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
    _require_states(p, 4, "m4_witness")
    return _read(_gaps, _gathers(4).monogamy, p.table)["M4"]


def m6_witnesses(p: MarkovChainProcess) -> WitnessReport:
    """The six-state monogamy gaps M6a, M6b of MONOGAMY."""
    _require_states(p, 6, "m6_witnesses")
    return WitnessReport(_read(_gaps, _gathers(6).monogamy, p.table))


def m8_witnesses(p: MarkovChainProcess) -> WitnessReport:
    """The eight-state monogamy gaps M8a..M8g of MONOGAMY."""
    _require_states(p, 8, "m8_witnesses")
    return WitnessReport(_read(_gaps, _gathers(8).monogamy, p.table))


# ---------------------------------------------------------------------------
# the bond table: the chain-entropy oracle, its readers and its users
# ---------------------------------------------------------------------------

class BondTable(NamedTuple):
    """The chain entropies of a stack of processes on one d-dimensional
    system: prefix[s] = H(rho_s) = H(R, E_1..E_{s-1}) and
    interval[r, s] = H(E_r..E_{s-1}) of the purified circuit, each an array
    over the stack.  States are numbered from 1, and interval[r, r] = 0.
    Row 0 of both is unused and zero, so that a gather reads an exact 0.0
    at index 0 (_Gather).

    Every chain witness and certificate is read from the table, for one
    process or a stack alike: coherent_info and certificate take one
    quantity, and the named families are one gather each (_gathers)."""

    prefix: np.ndarray
    interval: np.ndarray

    def coherent_info(self, r: int, s: int) -> np.ndarray:
        """Ic(r:s) = H(R, E_1..E_{s-1}) - H(E_r..E_{s-1}) = prefix[s] - interval[r, s]."""
        return self.prefix[s] - self.interval[r, s]

    def certificate(self, perm: tuple[int, ...]) -> np.ndarray:
        """The monogamy certificate of perm over states 1..2n, n = len(perm),
        an array of the stack's shape (zeros when perm needs no swap).

        With H[i, j] = H(E_{n+1-i}..E_{n+j-1}) = interval[n+1-i, n+j], the
        gap is sum_i H[i, perm(i)] - sum_i H[i, i]: the H(R, E_1..E_{s-1})
        halves of the coherent informations cancel.  The M4 gap of a swap
        (k, i, j) of uncrossing(perm) is H[k, i] + H[i, j] - H[i, i] - H[k, j]
        = I(E_{n+1-k}..E_{n-i} : E_{n+i}..E_{n+j-1} | E_{n+1-i}..E_{n+i-1}),
        which strong subadditivity keeps nonnegative for every state.
        """
        return _certificates(self, _certificate_gather({"": perm}))[0]


class _Gather(NamedTuple):
    """Named entries of a BondTable as one fancy-index gather, index arrays
    `rows` and `cols` into the table.

    A gap gather has index shape (entries, 2, terms): entry e is the sum of
    Ic(rows, cols) over its terms [e, 0] minus that over [e, 1].  A
    certificate gather has shape (entries, terms, 4): each term is the CMI
    H[0] + H[1] - H[2] - H[3] of interval[rows, cols], and entry e the sum
    of its terms.  Sums run left to right over the terms, in the order the
    one-quantity forms (monogamy_gap, BondTable.certificate) add them, so
    the values are theirs bit for bit.  Index 0 reads an exact 0.0: a
    leading (0, 0) term starts each sum as Python's sum does, and pads
    the entries with fewer swaps in front.
    """

    names: tuple[str, ...]
    rows: np.ndarray
    cols: np.ndarray


class _Gathers(NamedTuple):
    """The gathers of the named witnesses of n_states-state processes:
    the data-processing gaps (at four states), the MONOGAMY gaps and their
    certificates."""

    dp: _Gather | None
    monogamy: _Gather
    certificates: _Gather


def _gap_gather(gaps: dict[str, tuple[list[tuple[int, int]], list[tuple[int, int]]]]
                ) -> _Gather:
    """The gather of gaps given as (pairs added, pairs subtracted), every
    list of one length."""
    index = np.array([[added, subtracted] for added, subtracted in gaps.values()])
    return _Gather(tuple(gaps), index[..., 0], index[..., 1])


def _certificate_gather(perms: dict[str, tuple[int, ...]]) -> _Gather:
    """The gather of the monogamy certificates of the named permutations,
    the terms of each one swap of uncrossing (BondTable.certificate)."""
    swaps = {name: uncrossing(perm) for name, perm in perms.items()}
    width = 1 + max(map(len, swaps.values()))
    index = []
    for name, perm in perms.items():
        n = len(perm)
        # H[k, i], H[i, j], H[k, j], H[i, i] as (row, column) of interval
        terms = [[(n + 1 - k, n + i), (n + 1 - i, n + j), (n + 1 - k, n + j),
                  (n + 1 - i, n + i)] for k, i, j in swaps[name]]
        index.append([[(0, 0)] * 4] * (width - len(terms)) + terms)
    index = np.array(index, dtype=int)
    return _Gather(tuple(perms), index[..., 0], index[..., 1])


@cache
def _gathers(n_states: int) -> _Gathers:
    """The gathers at n_states, built once from _DP_PAIRS, MONOGAMY through
    monogamy_gap's pairing, and uncrossing."""
    dp = (_gap_gather({name: ([a], [b]) for name, (a, b) in _DP_PAIRS.items()})
          if n_states == 4 else None)
    monogamy = {}
    for name, perm in MONOGAMY[n_states].items():
        nested, crossed = _pairing(perm)
        monogamy[name] = ([(0, 0)] + nested, [(0, 0)] + crossed)
    return _Gathers(dp, _gap_gather(monogamy),
                    _certificate_gather(MONOGAMY[n_states]))


def _gaps(table: BondTable, gather: _Gather) -> np.ndarray:
    """The gaps of a gap gather, shape (entries, *stack)."""
    ic = table.prefix[gather.cols] - table.interval[gather.rows, gather.cols]
    sides = ic[:, :, 0]
    for t in range(1, ic.shape[2]):
        sides = sides + ic[:, :, t]
    return sides[:, 0] - sides[:, 1]


def _certificates(table: BondTable, gather: _Gather) -> np.ndarray:
    """The certificates of a certificate gather, shape (entries, *stack)."""
    h = table.interval[gather.rows, gather.cols]
    # each term is I(A:B|C) = H(AC) + H(BC) - H(ABC) - H(C)
    terms = h[:, :, 0] + h[:, :, 1] - h[:, :, 2] - h[:, :, 3]
    total = terms[:, 0]
    for t in range(1, terms.shape[1]):
        total = total + terms[:, t]
    return total


def _read(read: Callable[[BondTable, _Gather], np.ndarray], gather: _Gather,
          table: BondTable) -> dict[str, float]:
    """The entries of a gather on the table of one process, as floats."""
    return dict(zip(gather.names, read(table, gather).tolist()))


def bond_table(initial: np.ndarray, kraus: Sequence[np.ndarray]) -> BondTable:
    """The BondTable of the processes `initial` -> channel 1 -> ..., with
    no purified circuit built.

    `initial` is a stack of density matrices (n, d, d) and channel j a
    stack of Kraus lists (n, k_j, d, d).  The circuit is a chain joined by
    the system alone, so (R, E_1..E_{s-1}) purifies rho_s, and
    (E_r..E_{s-1}) has the entropy of the d^2 x d^2 joint state
    (id x channels r..s-1)(psi_r), psi_r purifying rho_r: the reference of
    psi_r stands in for R, E_1..E_{r-1}.

    Each channel's transfer matrix T_j (linalg.transfer_matrix) is built
    once and serves both steps.  The states are kept as vec(rho_s), so
    vec(rho_{j+1}) = T_j vec(rho_j).  The purifications of every rho_r are
    one stacked purify, and their joints are kept in the layout T_j acts
    on, rows (S, S') and columns (R, R'), so channel j acts on the joints
    of every r <= j in one batched matmul.  Each channel's joints are kept,
    m(m+1)/2 of them for m channels, and moved to (R S, R' S') for one
    stacked eigensolve of them all, whose entropies are scattered into
    `interval`: three eigensolves for the table (states, purifications,
    joints) at any number of channels.
    """
    n, d = initial.shape[0], initial.shape[-1]
    m = len(kraus)
    transfer = [transfer_matrix(ops) for ops in kraus]
    states = [initial.reshape(n, d * d, 1)]
    for t in transfer:
        states.append(t @ states[-1])
    rho = np.stack(states, axis=1).reshape(n, m + 1, d, d)
    prefix = np.zeros((m + 2, n))
    prefix[1:] = von_neumann_stack(rho).T
    # psi[:, r - 1] = psi_r, r = 1..m, as a matrix (system, reference), and
    # its joint |psi_r><psi_r| with rows (S, S') and columns (R, R')
    psi = purify(DensityMatrix(rho[:, :m], (d,))).vec.reshape(n, m, d, d).swapaxes(-1, -2)
    joint = psi[..., :, None, :, None] * psi[..., None, :, None, :].conj()
    joint = joint.reshape(n, m, d * d, d * d)
    # channel j's joints, of r = 1..j, are kept at kept[:, j(j-1)/2 + r - 1],
    # moved to (R S, R' S') as they are written; they give interval[r, j + 1]
    kept = np.empty((n, m * (m + 1) // 2, d * d, d * d), dtype=joint.dtype)
    kept_rs = kept.reshape(n, -1, d, d, d, d)
    for j, t in enumerate(transfer, 1):
        # channel j carries rho_j to rho_{j+1}; it acts on the joints of r <= j
        joint[:, :j] = t[:, None] @ joint[:, :j]
        # (S, S', R, R') -> (R, S, R', S')
        kept_rs[:, j * (j - 1) // 2:j * (j + 1) // 2] = joint[:, :j].reshape(
            n, j, d, d, d, d).transpose(0, 1, 4, 2, 5, 3)
    interval = np.zeros((m + 2, m + 2, n))
    interval[_kept_pairs(m)] = von_neumann_stack(kept).T
    return BondTable(prefix, interval)


@cache
def _kept_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The (r, s) of interval that bond_table's kept joints give, in their
    order: (r, j + 1) for r = 1..j, j = 1..m."""
    # s - 1 = 1..m and, for each, r - 1 = 0..s - 2
    s, r = np.tril_indices(m + 1, -1)
    return r + 1, s + 1


def m4_ssa_certificate(p: MarkovChainProcess) -> float:
    """I(E1:E3|E2) of the purified circuit, read from the BondTable; equals
    the M4 gap."""
    _require_states(p, 4, "m4_ssa_certificate")
    return _read(_certificates, _gathers(4).certificates, p.table)["M4"]


def m6_ssa_certificates(p: MarkovChainProcess) -> dict[str, float]:
    """monogamy_certificate of each M6 entry; equals m6_witnesses entry for entry."""
    _require_states(p, 6, "m6_ssa_certificates")
    return _read(_certificates, _gathers(6).certificates, p.table)


def m8_ssa_certificates(p: MarkovChainProcess) -> dict[str, float]:
    """monogamy_certificate of each M8 entry; equals m8_witnesses entry for entry."""
    _require_states(p, 8, "m8_ssa_certificates")
    return _read(_certificates, _gathers(8).certificates, p.table)


def survey_witnesses(table: BondTable, n_states: int) -> dict[str, np.ndarray]:
    """The witnesses verify surveys on n_states-state processes, read from
    their BondTable (arrays over the stack): DP1..DP4 and M4 at 4 states,
    the MONOGAMY gaps at 6 and 8.  Each family is one gather (_gathers),
    so the number of calls does not grow with the number of entries or
    states."""
    gathers = _gathers(n_states)
    families = [g for g in (gathers.dp, gathers.monogamy) if g is not None]
    gaps = np.concatenate([_gaps(table, g) for g in families])
    return dict(zip([name for g in families for name in g.names], gaps))


def survey_certificates(table: BondTable, n_states: int) -> dict[str, np.ndarray]:
    """monogamy_certificate of each MONOGAMY entry at n_states, read from a
    BondTable as survey_witnesses, in one gather."""
    gather = _gathers(n_states).certificates
    return dict(zip(gather.names, _certificates(table, gather)))


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
