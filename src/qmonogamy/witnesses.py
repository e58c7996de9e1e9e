"""Inequality witnesses for stepwise quantum processes.

A process here is an initial state pushed through a list of channels,
state i+1 = L_i(state i).  Writing Ic(r:s) for the coherent information
of state r through the composite map that carries it to state s, the
witnesses are:

* data-processing gaps DP1..DP9, differences Ic(a:b) - Ic(c:d) that are
  nonnegative for every process (DP1..DP4, DP6..DP8) or for which no
  violation is known (DP5, DP9);
* monogamy combinations M4, M6a/b, M8a..g: for 2n states, the sum of
  coherent informations across nested pairs (1:2n), (2:2n-1), ... upper
  bounds the sum across certain permuted pairings.

Everything here reads one pure state per process, its purified circuit:
each channel is replaced by an isometry into a fresh environment
register, keeping the global state pure over (R, E_1, ..., E_m, S).  On
it every coherent information is a difference of two subset entropies,

    Ic(r:s) = H(R, E_1..E_{s-1}) - H(E_r..E_{s-1}),

and each monogamy witness equals a sum of conditional mutual
informations of environment registers, which is the strong-subadditivity
certificate of the inequality.  PureState.entropy memoizes on the state,
so witnesses and certificates of one process share their eigensolves.
The independent reference is info.chain_coherent_information, which
propagates Kraus maps and never builds the circuit; tests compare the two.

All witnesses are reported as plain gap values; a WitnessReport flags
entries below -GAP_TOLERANCE (tolerances.py) as violations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .channels import KrausChannel, apply, apply_to_subsystem
from .info import conditional_mutual_information, mutual_information
from .states import DensityMatrix, PureState, purify
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
    "monogamy_conjecture_gap",
    "purified_circuit_state",
    "m4_ssa_certificate",
    "m6_ssa_certificates",
    "m8_ssa_certificates",
    "dp5_conditional_entropy",
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

    def state(self, i: int) -> DensityMatrix:
        """The i-th state of the process, 1-based."""
        if not 1 <= i <= self.n_states:
            raise ValueError(f"state index {i} outside 1..{self.n_states}")
        rho = self.initial
        for ch in self.channels[: i - 1]:
            rho = apply(ch, rho)
        return rho

    @cached_property
    def circuit(self) -> PureState:
        """The purified circuit, built once per process."""
        return purified_circuit_state(self)

    def coherent_info(self, r: int, s: int) -> float:
        """Ic(r:s) = H(R, E1..E_{s-1}) - H(E_r..E_{s-1}) on the purified
        circuit; channels from step s on leave that marginal unchanged."""
        if not 1 <= r < s <= self.n_states:
            raise ValueError(f"need 1 <= r < s <= {self.n_states}, got r={r}, s={s}")
        envs = [f"E{j}" for j in range(1, s)]
        return self.circuit.entropy(["R"] + envs) - self.circuit.entropy(envs[r - 1:])


def markov_process(initial: DensityMatrix,
                   channels: list[KrausChannel] | tuple[KrausChannel, ...],
                   ) -> MarkovChainProcess:
    """Validate adjacent dimensions and build a process."""
    channels = tuple(channels)
    if not channels:
        raise ValueError("a process needs at least one channel")
    if len(initial.dims) != 1:
        initial = DensityMatrix(initial.mat, (initial.dim,))
    d = initial.dim
    for i, ch in enumerate(channels):
        if ch.d_in != d:
            raise ValueError(f"channel {i} expects dimension {ch.d_in}, chain carries {d}")
        d = ch.d_out
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
    ic = p.coherent_info
    i12, i13, i14 = ic(1, 2), ic(1, 3), ic(1, 4)
    i23, i24 = ic(2, 3), ic(2, 4)
    entries = {
        "DP1": i12 - i13,
        "DP2": i12 - i14,
        "DP3": i13 - i14,
        "DP4": i23 - i24,
    }
    return WitnessReport(entries)


def m4_witness(p: MarkovChainProcess) -> float:
    """Four-state monogamy gap Ic(1:4) + Ic(2:3) - Ic(1:3) - Ic(2:4) >= 0."""
    _require_states(p, 4, "m4_witness")
    ic = p.coherent_info
    return ic(1, 4) + ic(2, 3) - ic(1, 3) - ic(2, 4)


def extra_dpi_witnesses(p: MarkovChainProcess) -> WitnessReport:
    """Candidate gap values whose sign is not fixed by the proven inequalities.

    DP5 = Ic(2:3) - Ic(1:3)    DP6 = Ic(2:3) - Ic(1:4)
    DP7 = Ic(2:4) - Ic(1:4)    DP8 = Ic(3:4) - Ic(1:4)
    DP9 = Ic(3:4) - Ic(2:4)

    Unlike the proven gaps, which fix the starting state and extend the
    segment, each of these compares segments with different starting
    states, so a negative value is not a non-Markovianity witness: random
    Markov processes do violate some of them (DP7 reaches -0.23 on a
    seeded qubit example).  The report records the raw values; callers
    decide what to make of the signs.

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
# six- and eight-state monogamy
# ---------------------------------------------------------------------------

# permuted pairings (i, f(i)) whose Ic sum is upper bounded by the nested sum
M6_PAIRINGS = {
    "M6a": ((1, 4), (2, 6), (3, 5)),
    "M6b": ((1, 5), (2, 4), (3, 6)),
}

M8_PAIRINGS = {
    "M8a": ((1, 5), (2, 8), (3, 7), (4, 6)),
    "M8b": ((1, 7), (2, 5), (3, 8), (4, 6)),
    "M8c": ((1, 6), (2, 8), (3, 5), (4, 7)),
    "M8d": ((1, 5), (2, 6), (3, 8), (4, 7)),
    "M8e": ((1, 7), (2, 6), (3, 5), (4, 8)),
    "M8f": ((1, 6), (2, 5), (3, 7), (4, 8)),
    "M8g": ((1, 5), (2, 6), (3, 7), (4, 8)),
}


def _monogamy_entries(p: MarkovChainProcess, n: int,
                      pairings: dict[str, tuple[tuple[int, int], ...]],
                      ) -> dict[str, float]:
    # nested pairs (i, 2n+1-i)
    ic = p.coherent_info
    lhs = sum(ic(i, 2 * n + 1 - i) for i in range(1, n + 1))
    return {name: lhs - sum(ic(r, s) for r, s in pairs)
            for name, pairs in pairings.items()}


def m6_witnesses(p: MarkovChainProcess) -> WitnessReport:
    """Six-state monogamy gaps; both entries are nonnegative for every process.

    LHS = Ic(1:6) + Ic(2:5) + Ic(3:4), minus
    M6a: Ic(1:4) + Ic(2:6) + Ic(3:5)
    M6b: Ic(1:5) + Ic(2:4) + Ic(3:6)
    """
    _require_states(p, 6, "m6_witnesses")
    return WitnessReport(_monogamy_entries(p, 3, M6_PAIRINGS))


def m8_witnesses(p: MarkovChainProcess) -> WitnessReport:
    """Eight-state monogamy gaps M8a..M8g, each nonnegative for every process.

    LHS = Ic(1:8) + Ic(2:7) + Ic(3:6) + Ic(4:5) minus the permuted pairing
    named in M8_PAIRINGS.
    """
    _require_states(p, 8, "m8_witnesses")
    return WitnessReport(_monogamy_entries(p, 4, M8_PAIRINGS))


def monogamy_conjecture_gap(p: MarkovChainProcess, perm: tuple[int, ...]) -> float:
    """General permutation gap over a 2n-state process.

    The process is read as a chain rho_n -> ... -> rho_1 -> sigma_1 -> ...
    -> sigma_n, i.e. rho_i is state n+1-i and sigma_j is state n+j.  The
    gap is sum_i Ic(rho_i : sigma_i) - sum_i Ic(rho_i : sigma_perm[i]);
    conjectured nonnegative for every permutation, proven for the n=2 swap
    and the pairings listed in M6_PAIRINGS / M8_PAIRINGS.
    """
    if p.n_states % 2:
        raise ValueError(f"needs an even number of states, got {p.n_states}")
    n = p.n_states // 2
    if n > 5:
        raise ValueError(f"n={n} exceeds the supported range (n <= 5)")
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm must rearrange 1..{n}, got {perm}")
    ic = p.coherent_info
    diag = sum(ic(n + 1 - i, n + i) for i in range(1, n + 1))
    off = sum(ic(n + 1 - i, n + perm[i - 1]) for i in range(1, n + 1))
    return diag - off


# ---------------------------------------------------------------------------
# purified circuit and strong-subadditivity certificates
# ---------------------------------------------------------------------------

def purified_circuit_state(p: MarkovChainProcess) -> PureState:
    """Pure global state of the process with every channel dilated.

    The initial state is purified by a reference R, then each channel is
    replaced by its isometry into a fresh environment register.  Registers
    of the result, by label and in order: (R, E1, ..., Em, S) with
    m = len(channels); the dimension of Ej is the Kraus count of channel j.
    """
    rho = p.initial
    if len(rho.dims) != 1:
        rho = DensityMatrix(rho.mat, (rho.dim,))
    psi = replace(purify(rho), labels=("R", "S"))
    for j, ch in enumerate(p.channels, 1):
        # stacked Kraus operators are the isometry |s> -> sum_e |e> (x) K_e|s>
        psi = psi.apply(np.vstack(ch.kraus), ("S",),
                        out={f"E{j}": len(ch.kraus), "S": ch.d_out})
    return psi


def m4_ssa_certificate(p: MarkovChainProcess) -> float:
    """I(E1:E3|E2) on the purified circuit; equals the M4 gap."""
    _require_states(p, 4, "m4_ssa_certificate")
    return conditional_mutual_information(p.circuit, ("E1",), ("E3",), ("E2",))


def m6_ssa_certificates(p: MarkovChainProcess) -> dict[str, float]:
    """Certificate sums matching m6_witnesses entry for entry.

    M6a = I(E1:E5|E2 E3 E4) + I(E1 E2:E4|E3)
    M6b = I(E1 E2:E5|E3 E4) + I(E2:E4|E3)

    Both are exact identities for the corresponding gap, checked to
    machine precision on random processes.
    """
    _require_states(p, 6, "m6_ssa_certificates")
    cmi = partial(conditional_mutual_information, p.circuit)
    return {
        "M6a": cmi(("E1",), ("E5",), ("E2", "E3", "E4")) + cmi(("E1", "E2"), ("E4",), ("E3",)),
        "M6b": cmi(("E1", "E2"), ("E5",), ("E3", "E4")) + cmi(("E2",), ("E4",), ("E3",)),
    }


def m8_ssa_certificates(p: MarkovChainProcess) -> dict[str, float]:
    """Certificate sums matching m8_witnesses entry for entry."""
    _require_states(p, 8, "m8_ssa_certificates")
    cmi = partial(conditional_mutual_information, p.circuit)
    outer = cmi(("E1",), ("E7",), ("E2", "E3", "E4", "E5", "E6"))
    return {
        "M8a": outer + cmi(("E1", "E2"), ("E6",), ("E3", "E4", "E5"))
        + cmi(("E1", "E2", "E3"), ("E5",), ("E4",)),
        "M8b": outer + cmi(("E2",), ("E6", "E7"), ("E3", "E4", "E5"))
        + cmi(("E2", "E3"), ("E5",), ("E4",)),
        "M8c": outer + cmi(("E1", "E2"), ("E6",), ("E3", "E4", "E5"))
        + cmi(("E3",), ("E5", "E6"), ("E4",)),
        "M8d": outer + cmi(("E2",), ("E6", "E7"), ("E3", "E4", "E5"))
        + cmi(("E1", "E2", "E3"), ("E5", "E6"), ("E4",)),
        "M8e": outer + cmi(("E2",), ("E6", "E7"), ("E3", "E4", "E5"))
        + cmi(("E3",), ("E5", "E6", "E7"), ("E4",)),
        "M8f": outer + cmi(("E1", "E2"), ("E6",), ("E3", "E4", "E5"))
        + cmi(("E2", "E3"), ("E5", "E6", "E7"), ("E4",)),
        "M8g": outer + cmi(("E1", "E2", "E3"), ("E5", "E6"), ("E4",))
        + cmi(("E2",), ("E6", "E7"), ("E3", "E4", "E5"))
        + cmi(("E3",), ("E7",), ("E4", "E5", "E6")),
    }


def dp5_conditional_entropy(p: MarkovChainProcess) -> float:
    """H(E1|E2) on the purified circuit.

    Equals the DP5 gap Ic(2:3) - Ic(1:3); nonnegativity of this
    conditional entropy is exactly what a DP5 violation would refute.
    """
    _require_states(p, 3, "dp5_conditional_entropy")
    return p.circuit.entropy(("E1", "E2")) - p.circuit.entropy(("E2",))


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
