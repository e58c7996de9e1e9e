"""Process tensors: multitime states of a system-environment circuit,
contraction with CP maps, the Markov factorization test, port
data-processing gaps, and the interventional monogamy witnesses.

A SystemEnvCircuit is a pure state on (R0, S, E) together with step
unitaries on S (x) E.  Its k-slot process tensor is built by, at each
intermediate time, setting the live system aside as the slot's output
port S_j and feeding in one half of a fresh maximally entangled pair
whose other half becomes the input port R_j.  The environment E is kept
as the purifying register, so the tensor is one labelled pure state on
(R0, S1, R1, S2, R2, ..., S_k, E); its marginal on the ports is the
Choi state.

Every port quantity is read from that register.  A CP map closes slot j
by the plug rule: each Kraus operator M contributes the amplitude
sqrt(d) * sum_{s,i} M[i, s] psi[S_j = s, R_j = i], so (S_j, R_j) becomes
one Kraus register K_j.  The factor sqrt(d) cancels the normalization of
the inserted pair, and the result is exactly what the circuit would
output if the maps were applied in line, which is the defining property
checked by the tests.

The interventional witnesses (kinds q1, q2, q3) instead purify the
actual reduced state at slot j, retain the purification reference, and
compare entropy combinations across slots; all three coincide for Markov
processes and detect memory in different ways when they differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .channels import KrausChannel
from .classical import JointPMF, joint_pmf
from .info import mutual_information
from .linalg import broadcast_batch, require_finite, unitarity_deviation
from .states import DensityMatrix, PureState, density, maximally_entangled, purify
from .tolerances import INVARIANT_TOL
from .witnesses import MONOGAMY, WitnessReport, monogamy_gap

__all__ = [
    "SystemEnvCircuit",
    "ProcessTensor",
    "system_env_circuit",
    "build_process_tensor",
    "contract",
    "markov_factorization_gap",
    "port_mutual_information",
    "choi_dpi_witnesses",
    "multitime_coherent_info",
    "mqmmi_witness",
    "mqmmi_witnesses",
    "fresh_env_circuit",
    "dephased_joint_pmf",
]

@dataclass(frozen=True, eq=False)
class SystemEnvCircuit:
    """Pure (R0, S, E) state evolved by unitaries on S (x) E."""

    initial: PureState
    step_unitaries: tuple[np.ndarray, ...]

    @property
    def d_ref(self) -> int:
        return self.initial.dims[0]

    @property
    def d_sys(self) -> int:
        return self.initial.dims[1]

    @property
    def d_env(self) -> int:
        return self.initial.dims[2]

    @property
    def n_slots(self) -> int:
        return len(self.step_unitaries) + 1


@dataclass(frozen=True, eq=False)
class ProcessTensor:
    """Pure state on the ports and the environment, (R0, S1, R1, ..., S_k, E)."""

    state: PureState

    @property
    def ports(self) -> tuple[str, ...]:
        return self.state.labels[:-1]

    @property
    def n_slots(self) -> int:
        return len(self.ports) // 2

    @property
    def d_sys(self) -> int:
        return self.state.dims[1]


def system_env_circuit(initial: PureState,
                       step_unitaries: Sequence[np.ndarray]) -> SystemEnvCircuit:
    """Validate register structure, finite entries and unitarity
    (INVARIANT_TOL) into a circuit.

    A step unitary may be a stack (..., d, d), which makes the circuit a
    stack of circuits on one register layout; all steps are checked in one
    stacked test, and a failure reports the worst deviation.
    """
    if len(initial.dims) != 3:
        raise ValueError(f"initial state needs registers (R0, S, E), got dims {initial.dims}")
    d_se = initial.dims[1] * initial.dims[2]
    units = tuple(np.asarray(u, dtype=complex) for u in step_unitaries)
    for i, u in enumerate(units):
        if u.shape[-2:] != (d_se, d_se):
            raise ValueError(f"unitary {i} must be {d_se} x {d_se}, got {u.shape}")
        # a NaN deviation would pass the unitarity test below
        require_finite(u, f"entries in step operator {i}")
    if units:
        batch = initial.batch
        for u in units:
            batch = broadcast_batch(batch, u.shape[:-2])
        dev = unitarity_deviation(np.stack([np.broadcast_to(u, batch + (d_se, d_se))
                                            for u in units]))
        worst = np.unravel_index(np.argmax(dev), dev.shape)
        if dev[worst] > INVARIANT_TOL:
            raise ValueError(f"step operator {worst[0]} is not unitary within "
                             f"{INVARIANT_TOL:g}: worst deviation {dev[worst]:.3e}")
    return SystemEnvCircuit(initial, units)


# ---------------------------------------------------------------------------
# building and contracting
# ---------------------------------------------------------------------------

def build_process_tensor(circuit: SystemEnvCircuit, steps: int) -> ProcessTensor:
    """The first `steps` time slots of the circuit as a process tensor.

    Needs steps - 1 step unitaries.  The k = 1 tensor is just the initial
    (R0, S1, E) state.
    """
    if steps < 1:
        raise ValueError("need at least one time slot")
    if circuit.initial.batch or any(u.ndim > 2 for u in circuit.step_unitaries):
        raise ValueError("a process tensor is built from one circuit, not a stack")
    if steps - 1 > len(circuit.step_unitaries):
        raise ValueError(
            f"{steps} slots need {steps - 1} step unitaries, "
            f"circuit has {len(circuit.step_unitaries)}")
    psi = PureState(circuit.initial.vec, circuit.initial.dims, ("R0", "S1", "E"))
    pair = maximally_entangled(circuit.d_sys)
    for j in range(1, steps):
        # S_j stays as the slot's output port; the pair's first half is the
        # input port R_j, its second half runs on to become S_{j+1}
        psi = psi.splice(pair, after=f"S{j}", labels=(f"R{j}", f"S{j + 1}"))
        psi = psi.apply(circuit.step_unitaries[j - 1], (f"S{j + 1}", "E"))
    return ProcessTensor(psi)


def _as_kraus_ops(item, d: int) -> tuple[np.ndarray, ...]:
    ops = item.kraus if isinstance(item, KrausChannel) else tuple(
        np.asarray(m, dtype=complex) for m in item)
    if not ops:
        raise ValueError("intervention needs at least one Kraus operator")
    for m in ops:
        if m.shape != (d, d):
            raise ValueError(f"intervention operator must be {d} x {d}, got {m.shape}")
    return ops


def _plug(psi: PureState, j: int, ops: tuple[np.ndarray, ...], d: int) -> PureState:
    # row M of the plug is sqrt(d) * M[i, s] over (S_j = s, R_j = i)
    rows = np.sqrt(d) * np.stack([m.T.reshape(-1) for m in ops])
    return psi.apply(rows, (f"S{j}", f"R{j}"), out={f"K{j}": len(ops)})


def contract(pt: ProcessTensor, interventions: Sequence) -> DensityMatrix | float:
    """Feed CP maps into the slots of the tensor.

    With one map per intermediate slot (k-1 of them) the result is the
    output state at the final port divided by the probability of the
    sequence; with k maps the last one is read at the final port and the
    result is the probability of the whole sequence, Tr(sum M†M rho).
    Maps may be KrausChannel objects or bare Kraus-operator sequences
    (which need not preserve trace).
    """
    k = pt.n_slots
    ops = [_as_kraus_ops(item, pt.d_sys) for item in interventions]
    if len(ops) not in (k - 1, k):
        raise ValueError(f"expected {k - 1} or {k} interventions for a {k}-slot tensor, "
                         f"got {len(ops)}")
    psi = pt.state
    for j in range(1, k):
        psi = _plug(psi, j, ops[j - 1], pt.d_sys)
    rho = psi.reduced((f"S{k}",)).mat
    if len(ops) == k - 1:
        tr = np.trace(rho).real
        if tr <= INVARIANT_TOL:
            raise ValueError(f"intervention sequence has probability {tr:.3e}; "
                             "its conditional output state is undefined")
        # the conditional state; a trace-preserving sequence divides by ~1
        return density(rho / tr, (pt.d_sys,))
    p = np.trace(sum(m.conj().T @ m for m in ops[-1]) @ rho).real
    if not -INVARIANT_TOL <= p <= 1 + INVARIANT_TOL:
        raise ValueError(f"contraction gave probability {p!r} outside [0, 1]")
    return float(p)


def markov_factorization_gap(pt: ProcessTensor) -> float:
    """Relative entropy in bits of the Choi state Y to the product of its
    step marginals Y_g on (R_g, S_{g+1}), sum_g H(Y_g) - H(Y) with H(Y) =
    H(E); zero iff Markov.  The product is a Markov tensor, so this is the
    non-Markovianity measure of Pollock et al., PRA 97, 012127 (2018)."""
    steps = sum(pt.state.entropy((f"R{g}", f"S{g + 1}")) for g in range(pt.n_slots))
    return float(steps - pt.state.entropy(("E",)))


# ---------------------------------------------------------------------------
# port data-processing gaps
# ---------------------------------------------------------------------------

def port_mutual_information(pt: ProcessTensor, y: int, x: int,
                            interventions: Sequence | None = None) -> float:
    """I(R_y : S_x) with CPTP maps at the slots strictly before x (default
    identity), the pair (S_y, R_y) left open at slot y, and everything at
    or after slot x traced out."""
    k = pt.n_slots
    if not (1 <= x <= k) or not (1 <= y <= k - 1):
        raise ValueError(f"ports R{y}, S{x} not present in a {k}-slot tensor")
    if interventions is None:
        maps = [(np.eye(pt.d_sys, dtype=complex),)] * (k - 1)
    elif len(interventions) != k - 1:
        raise ValueError(f"need {k - 1} interventions, got {len(interventions)}")
    else:
        maps = [_as_kraus_ops(item, pt.d_sys) for item in interventions]
    psi = pt.state
    for j in range(1, x):
        if j != y:
            psi = _plug(psi, j, maps[j - 1], pt.d_sys)
    tr = np.vdot(psi.vec, psi.vec).real
    if abs(tr - 1.0) > INVARIANT_TOL:
        raise ValueError(f"interventions are not trace preserving: the port state "
                         f"has trace {tr:.3e}")
    return mutual_information(psi, (f"R{y}",), (f"S{x}",))


# the seven gaps: two adjacent plus one transitive along the R1 row, the
# R2 row gap, the two final-column comparisons, and the R2/R1 column gap
CHOI_DPI_GAPS = (
    ("R1S2-R1S3", (1, 2), (1, 3)),
    ("R1S3-R1S4", (1, 3), (1, 4)),
    ("R1S2-R1S4", (1, 2), (1, 4)),
    ("R2S3-R2S4", (2, 3), (2, 4)),
    ("R2S3-R1S3", (2, 3), (1, 3)),
    ("R3S4-R2S4", (3, 4), (2, 4)),
    ("R2S4-R1S4", (2, 4), (1, 4)),
)


def choi_dpi_witnesses(pt: ProcessTensor,
                       interventions: Sequence | None = None) -> WitnessReport:
    """The seven port mutual-information gaps of a four-slot tensor.

    All are nonnegative when the underlying process is Markov, for any
    CPTP interventions.
    """
    if pt.n_slots != 4:
        raise ValueError(f"needs a 4-slot tensor, got {pt.n_slots} slots")
    cache: dict[tuple[int, int], float] = {}

    def mi(y: int, x: int) -> float:
        if (y, x) not in cache:
            cache[(y, x)] = port_mutual_information(pt, y, x, interventions)
        return cache[(y, x)]

    entries = {name: mi(*hi) - mi(*lo) for name, hi, lo in CHOI_DPI_GAPS}
    return WitnessReport(entries)


# ---------------------------------------------------------------------------
# interventional monogamy witnesses
# ---------------------------------------------------------------------------

# entropy combinations of the kinds, over the registers of _intervened_state:
# kind -> (registers of the positive term); H(S_j, R_j, S_k) is subtracted
_KIND_TERMS = {"q1": ("Sj", "Rj"), "q2": ("Sk",), "q3": ("Sj", "Sk")}


def _intervened_state(circuit: SystemEnvCircuit, j: int, k: int,
                      purifier: Callable[[DensityMatrix], PureState]) -> PureState:
    """The circuit run to slot k with a purification intervention at slot j,
    as a pure state on the registers (R0, Sj, Rj, Sk, E)."""
    psi = PureState(circuit.initial.vec, circuit.initial.dims, ("R0", "Sj", "E"))
    for u in circuit.step_unitaries[: j - 1]:
        psi = psi.apply(u, ("Sj", "E"))
    # set the live system aside and splice in the purification of its state
    pur = purifier(psi.reduced(("Sj",)))
    if pur.dims[1] != circuit.d_sys:
        raise ValueError("purifier must return (reference, system) registers")
    psi = psi.splice(pur, after="Sj", labels=("Rj", "Sk"))
    for u in circuit.step_unitaries[j - 1: k - 1]:
        psi = psi.apply(u, ("Sk", "E"))
    return psi


def _kind_value(psi: PureState, kind: str) -> float:
    return psi.entropy(_KIND_TERMS[kind]) - psi.entropy(("Sj", "Rj", "Sk"))


def _check_kind(kind: str) -> None:
    if kind not in _KIND_TERMS:
        raise ValueError(f"kind must be q1, q2 or q3, got {kind!r}")


def multitime_coherent_info(circuit: SystemEnvCircuit, kind: str, j: int, k: int,
                            purifier: Callable[[DensityMatrix], PureState] = purify,
                            ) -> float:
    """Entropic two-slot quantity with a purification intervention at slot j.

    The circuit runs to slot j; the live system is set aside as S_j, its
    reduced state is purified (by `purifier`, reference register first),
    and the purification's system half is fed forward to slot k.  With the
    global state pure over (R0, S_j, R_j, S_k, E), the kinds are

        q1 = H(S_j, R_j) - H(S_j, R_j, S_k)
        q2 = H(S_k) - H(S_j, R_j, S_k)
        q3 = H(S_j, S_k) - H(S_j, R_j, S_k)

    The value does not depend on which purification is chosen.
    """
    _check_kind(kind)
    if not (1 <= j < k <= circuit.n_slots):
        raise ValueError(f"need 1 <= j < k <= {circuit.n_slots}, got j={j}, k={k}")
    return _kind_value(_intervened_state(circuit, j, k, purifier), kind)


def mqmmi_witnesses(circuit: SystemEnvCircuit) -> WitnessReport:
    """The interventional monogamy gap I(1;4) + I(2;3) - I(1;3) - I(2;4)
    of every kind (entries q1, q2, q3), each nonnegative for every Markov
    process: witnesses.monogamy_gap of the M4 permutation over the kind's
    two-slot quantity (multitime_coherent_info).  One intervened state per
    slot pair serves all three kinds.  On a stacked circuit every entry is
    an array over the stack."""
    if circuit.n_slots < 4:
        raise ValueError("needs a circuit with at least 4 slots")
    state = cache(lambda j, k: _intervened_state(circuit, j, k, purify))
    return WitnessReport({kind: monogamy_gap(lambda j, k: _kind_value(state(j, k), kind),
                                             MONOGAMY[4]["M4"])
                          for kind in _KIND_TERMS})


def mqmmi_witness(circuit: SystemEnvCircuit, kind: str) -> float:
    """Interventional monogamy gap of one kind; see mqmmi_witnesses."""
    _check_kind(kind)
    return mqmmi_witnesses(circuit).entries[kind]


# ---------------------------------------------------------------------------
# Markov circuits and dephasing
# ---------------------------------------------------------------------------

def fresh_env_circuit(initial_rs: PureState, step_unitaries: Sequence[np.ndarray],
                      env_dim: int) -> SystemEnvCircuit:
    """Markov circuit: every step gets its own fresh |0> environment.

    `initial_rs` is the (R0, S) state; each step unitary acts on
    S (x) F_j with dim(F_j) = env_dim and is embedded into the combined
    environment E = F_1 (x) ... (x) F_m.
    """
    if len(initial_rs.dims) != 2:
        raise ValueError(f"initial state needs registers (R0, S), got {initial_rs.dims}")
    if env_dim < 1:
        raise ValueError(f"environment dimension must be at least 1, got {env_dim}")
    d_s = initial_rs.dims[1]
    m = len(step_unitaries)
    d_env = env_dim ** m
    e0 = np.zeros(d_env, dtype=complex)
    e0[0] = 1.0
    vec = np.kron(initial_rs.vec, e0)
    initial = PureState(vec, (initial_rs.dims[0], d_s, d_env))
    dims = [d_s] + [env_dim] * m
    embedded = []
    for jj, u in enumerate(step_unitaries):
        u = np.asarray(u, dtype=complex)
        if u.shape != (d_s * env_dim, d_s * env_dim):
            raise ValueError(
                f"step unitary {jj} must act on dim {d_s * env_dim}, got {u.shape}")
        big = np.kron(u, np.eye(env_dim ** (m - 1)))
        # big is ordered (S, F_jj, other F's ascending); permute to (S, F_1..F_m)
        current = [0, jj + 1] + [ax for ax in range(1, m + 1) if ax != jj + 1]
        perm = [current.index(ax) for ax in range(m + 1)]
        big = big.reshape(dims + dims).transpose(perm + [p + m + 1 for p in perm])
        embedded.append(big.reshape(d_s * d_env, d_s * d_env))
    return system_env_circuit(initial, embedded)


def dephased_joint_pmf(pt: ProcessTensor) -> JointPMF:
    """Outcome distribution of computational-basis rank-one measurements at
    every slot and the final port; classical and Markov whenever the
    underlying process is Markov."""
    d, k = pt.d_sys, pt.n_slots
    # plugging |a><a| at slot j keeps the diagonal S_j = R_j = a with weight d;
    # registers (R0, S1, R1, ..., S_k, E), so S_j and R_j share subscript j - 1
    weights = np.abs(pt.state.vec.reshape(pt.state.dims)) ** 2
    subs = [k] + [i // 2 for i in range(2 * k - 1)] + [k + 1]
    return joint_pmf(d ** (k - 1) * np.einsum(weights, subs, list(range(k))))
