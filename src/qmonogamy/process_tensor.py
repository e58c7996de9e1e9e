"""Process tensors: multitime Choi states of a system-environment circuit,
instrument contraction, the Markov factorization test, Choi-state
data-processing gaps, and the interventional monogamy witnesses.

A SystemEnvCircuit is a pure state on (R0, S, E) together with step
unitaries on S (x) E.  Its k-slot process tensor is built by, at each
intermediate time, setting the live system aside as the slot's output
port S_j and feeding in one half of a fresh maximally entangled pair
whose other half becomes the input port R_j; the environment is traced
at the end.  Port order: (R0, S1, R1, S2, R2, ..., S_k).

Contracting the tensor with CP maps at the slots reproduces exactly what
the circuit would output if those maps were applied in line, which is
the defining property checked by the tests.  Interventions enter through
the kernel d * sum_M |M|i><s|M*, the unnormalized input-side Choi of the
map; the factor d cancels the normalization of the inserted pair.

The interventional witnesses (kinds q1, q2, q3) instead purify the
actual reduced state at slot j, retain the purification reference, and
compare entropy combinations across slots; all three coincide for Markov
processes and detect memory in different ways when they differ.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channels import KrausChannel
from .classical import JointPMF, joint_pmf
from .info import mutual_information
from .linalg import is_unitary, kron
from .states import DensityMatrix, PureState, density, maximally_entangled, purify
from .tolerances import ISOMETRY_TOL, PROB_SLACK
from .witnesses import WitnessReport

__all__ = [
    "SystemEnvCircuit",
    "ProcessTensor",
    "Instrument",
    "system_env_circuit",
    "instrument",
    "dephasing_instrument",
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
    """Choi state over ports (R0, S1, R1, ..., S_k)."""

    choi: DensityMatrix
    ports: tuple[str, ...]

    @property
    def n_slots(self) -> int:
        return len(self.ports) // 2

    @property
    def d_sys(self) -> int:
        return self.choi.dims[1]


@dataclass(frozen=True, eq=False)
class Instrument:
    """Complete collection of CP maps; elements are tuples of Kraus operators."""

    elements: tuple[tuple[np.ndarray, ...], ...]


def system_env_circuit(initial: PureState,
                       step_unitaries: Sequence[np.ndarray]) -> SystemEnvCircuit:
    """Validate register structure and unitarity (ISOMETRY_TOL) into a circuit."""
    if len(initial.dims) != 3:
        raise ValueError(f"initial state needs registers (R0, S, E), got dims {initial.dims}")
    d_se = initial.dims[1] * initial.dims[2]
    units = tuple(np.asarray(u, dtype=complex) for u in step_unitaries)
    for i, u in enumerate(units):
        if u.shape != (d_se, d_se):
            raise ValueError(f"unitary {i} must be {d_se} x {d_se}, got {u.shape}")
        if not is_unitary(u):
            raise ValueError(f"step operator {i} is not unitary within {ISOMETRY_TOL:g}")
    return SystemEnvCircuit(initial, units)


def instrument(elements: Sequence[Sequence[np.ndarray]]) -> Instrument:
    """Validate completeness: the element maps must sum to a TP channel."""
    elems = tuple(tuple(np.asarray(m, dtype=complex) for m in el) for el in elements)
    if not elems or not elems[0]:
        raise ValueError("instrument needs at least one Kraus operator")
    bad = sum(np.count_nonzero(~np.isfinite(m)) for el in elems for m in el)
    if bad:
        raise ValueError(f"non-finite instrument entries: {bad} NaN or infinite")
    d = elems[0][0].shape[1]
    total = sum(m.conj().T @ m for el in elems for m in el)
    dev = np.abs(total - np.eye(d)).max()
    if dev > ISOMETRY_TOL:
        raise ValueError(f"instrument elements do not sum to a TP map: deviation {dev:.3e}")
    return Instrument(elems)


def dephasing_instrument(d: int) -> Instrument:
    """Rank-one projective measurement onto the computational basis."""
    elems = []
    for i in range(d):
        p = np.zeros((d, d), dtype=complex)
        p[i, i] = 1.0
        elems.append((p,))
    return instrument(elems)


# ---------------------------------------------------------------------------
# building and contracting
# ---------------------------------------------------------------------------

def build_process_tensor(circuit: SystemEnvCircuit, steps: int) -> ProcessTensor:
    """Choi state of the first `steps` time slots of the circuit.

    Needs steps - 1 step unitaries.  The k = 1 tensor is just the initial
    (R0, S) marginal.
    """
    if steps < 1:
        raise ValueError("need at least one time slot")
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
    ports = psi.labels[:-1]
    return ProcessTensor(psi.reduced(ports), ports)


def _as_kraus_ops(item) -> tuple[np.ndarray, ...]:
    if isinstance(item, KrausChannel):
        return item.kraus
    return tuple(np.asarray(m, dtype=complex) for m in item)


def _intervention_kernel(ops: tuple[np.ndarray, ...], d: int) -> np.ndarray:
    # kernel[s, i, s', i'] = d * sum_M M[i, s] conj(M[i', s'])
    for m in ops:
        if m.shape != (d, d):
            raise ValueError(f"intervention operator must be {d} x {d}, got {m.shape}")
    k = sum(np.einsum("is,ju->siuj", m, m.conj()) for m in ops)
    return d * np.asarray(k)


def _contract_ports(pt: ProcessTensor,
                    slot_ops: dict[int, tuple[np.ndarray, ...]],
                    keep: tuple[int, ...],
                    final_ops: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """Einsum core: apply kernels at `slot_ops` slots, trace every port not
    kept, optionally close the final port with sum M†M.  Returns the matrix
    over `keep` (port indices, in port order)."""
    n = len(pt.ports)
    dims = pt.choi.dims
    tensor = pt.choi.mat.reshape(dims + dims)
    ket = list(range(n))
    bra = [n + i for i in range(n)]
    operands = [tensor]
    indices = [ket + bra]
    busy = set(keep)
    for j, ops in slot_ops.items():
        s_ax, r_ax = 2 * j - 1, 2 * j
        kern = _intervention_kernel(ops, pt.d_sys)
        operands.append(kern)
        indices.append([ket[s_ax], ket[r_ax], bra[s_ax], bra[r_ax]])
        busy |= {s_ax, r_ax}
    if final_ops is not None:
        w = sum(m.conj().T @ m for m in final_ops)
        operands.append(np.asarray(w, dtype=complex))
        indices.append([bra[n - 1], ket[n - 1]])
        busy.add(n - 1)
    for p in range(n):
        if p not in busy:
            bra[p] = ket[p]
    indices[0] = ket + bra
    out = [ket[p] for p in keep] + [bra[p] for p in keep]
    args = []
    for op, idx in zip(operands, indices):
        args += [op, idx]
    res = np.einsum(*args, out, optimize=True)
    d_keep = math.prod(dims[p] for p in keep) if keep else 1
    return res.reshape(d_keep, d_keep)


def contract(pt: ProcessTensor, interventions: Sequence) -> DensityMatrix | float:
    """Feed CP maps into the slots of the tensor.

    With one map per intermediate slot (k-1 of them) the result is the
    output state at the final port divided by the probability of the
    sequence; with k maps the last one is read as the final-port
    instrument element and the result is the probability of the whole
    sequence.  Maps may be KrausChannel objects or bare
    Kraus-operator sequences (instrument elements need not preserve
    trace).
    """
    k = pt.n_slots
    ops = [_as_kraus_ops(item) for item in interventions]
    if len(ops) == k - 1:
        slot_ops = {j: ops[j - 1] for j in range(1, k)}
        mat = _contract_ports(pt, slot_ops, (len(pt.ports) - 1,))
        tr = np.trace(mat).real
        if tr <= PROB_SLACK:
            raise ValueError(f"intervention sequence has probability {tr:.3e}; "
                             "its conditional output state is undefined")
        # the conditional state; a trace-preserving sequence divides by ~1
        return density(mat / tr, (pt.d_sys,))
    if len(ops) == k:
        slot_ops = {j: ops[j - 1] for j in range(1, k)}
        p = _contract_ports(pt, slot_ops, (), final_ops=ops[-1])
        p = complex(p[0, 0]).real
        if not -PROB_SLACK <= p <= 1 + PROB_SLACK:
            raise ValueError(f"contraction gave probability {p!r} outside [0, 1]")
        return p
    raise ValueError(
        f"expected {k - 1} or {k} interventions for a {k}-slot tensor, got {len(ops)}")


def markov_factorization_gap(pt: ProcessTensor) -> float:
    """Max-abs distance between the Choi state and the product of its
    per-step marginals (R0,S1)(R1,S2)...(R_{k-1},S_k); zero iff Markov."""
    k = pt.n_slots
    parts = [pt.choi.reduced((2 * g, 2 * g + 1)).mat for g in range(k)]
    return float(np.abs(pt.choi.mat - kron(*parts)).max())


# ---------------------------------------------------------------------------
# Choi-state data-processing gaps
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
        eye = (np.eye(pt.d_sys, dtype=complex),)
        per_slot = {j: eye for j in range(1, k)}
    else:
        if len(interventions) != k - 1:
            raise ValueError(f"need {k - 1} interventions, got {len(interventions)}")
        per_slot = {j: _as_kraus_ops(interventions[j - 1]) for j in range(1, k)}
    slot_ops = {j: per_slot[j] for j in range(1, x) if j != y}
    r_port = 2 * y
    s_port = 2 * x - 1
    keep = tuple(sorted((r_port, s_port)))
    mat = _contract_ports(pt, slot_ops, keep)
    rho = density(mat, (pt.choi.dims[keep[0]], pt.choi.dims[keep[1]]))
    return mutual_information(rho, (0,), (1,))


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
    process.  One intervened state per slot pair serves all three kinds."""
    if circuit.n_slots < 4:
        raise ValueError("needs a circuit with at least 4 slots")
    signs = {(1, 4): 1.0, (2, 3): 1.0, (1, 3): -1.0, (2, 4): -1.0}
    states = {pair: _intervened_state(circuit, *pair, purify) for pair in signs}
    entries = {kind: sum(sign * _kind_value(states[pair], kind)
                         for pair, sign in signs.items())
               for kind in _KIND_TERMS}
    return WitnessReport(entries)


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
        big = kron(u, np.eye(env_dim ** (m - 1)))
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
    d = pt.d_sys
    k = pt.n_slots
    projs = [m[0] for m in dephasing_instrument(d).elements]
    probs = np.zeros((d,) * k)
    for outcome in itertools.product(range(d), repeat=k):
        seq = [(projs[i],) for i in outcome]
        probs[outcome] = contract(pt, seq)
    return joint_pmf(probs)
