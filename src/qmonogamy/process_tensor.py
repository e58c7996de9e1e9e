"""Process tensors: multitime states of a system-environment circuit,
contraction with CP maps, the Markov factorization test, port
data-processing gaps, and the interventional monogamy witnesses.

A SystemEnvCircuit, a pure state on (R0, S, E) with step unitaries on
S (x) E, is its own process tensor of one slot more than it has steps;
build_process_tensor cuts it to its first k slots.  Its `state`, built
and cached on the first whole-state read, sets the live system aside at
each intermediate slot as the output port S_j and feeds in one half of a
fresh maximally entangled pair whose other half is the input port R_j:
one pure state on (R0, S1, R1, ..., S_k, E), E purifying, whose marginal
on the ports is the Choi state.  Only markov_factorization_gap (H(E))
and dephased_joint_pmf (a diagonal) read it.

Every other reader runs the circuit forward within that run's own
amplitude budget, CP maps in line: a map's Kraus list, stacked into one
isometry (_isometry), acts on the live system with its output in a kept
register K_j, and the step out of the slot follows, both in one slot
step (_slot_step) that also takes the state's steps.  contract reads the
final system of such a run.  The interventional readers (_run_forward)
also splice a state in after the system set aside at a slot: the port
mutual informations I(R_y : S_x) a maximally entangled pair, read in one
info.mutual_information, and the witnesses q1, q2, q3 the purification of
the actual state at slot j, read as one two-time table (_two_time_table)
in one entropies call; all three coincide for Markov processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .channels import KrausChannel
from .classical import JointPMF, joint_pmf
from .info import mutual_information
from .linalg import _require_int, broadcast_batch, require_finite, unitarity_deviation
from .states import DensityMatrix, PureState, density, maximally_entangled, purify
from .tolerances import INVARIANT_TOL
from .witnesses import MONOGAMY, WitnessReport, _pairing, monogamy_gap

__all__ = [
    "SystemEnvCircuit",
    "system_env_circuit",
    "build_process_tensor",
    "contract",
    "markov_factorization_gap",
    "port_mutual_information",
    "choi_dpi_witnesses",
    "multitime_coherent_info",
    "mqmmi_witnesses",
    "fresh_env_circuit",
    "dephased_joint_pmf",
]

@dataclass(frozen=True, eq=False)
class SystemEnvCircuit:
    """Pure (R0, S, E) state evolved by unitaries on S (x) E; a process tensor."""

    initial: PureState
    step_unitaries: tuple[np.ndarray, ...]

    @property
    def d_sys(self) -> int:
        return self.initial.dims[1]

    @property
    def n_slots(self) -> int:
        return len(self.step_unitaries) + 1

    @property
    def ports(self) -> tuple[str, ...]:
        return ("R0",) + tuple(f"{p}{j}" for j in range(1, self.n_slots + 1) for p in "SR")[:-1]

    @cached_property
    def state(self) -> PureState:
        """The process tensor, a pure state on (R0, S1, R1, ..., S_k, E),
        built once on first read within MAX_AMPLITUDES."""
        _require_one(self)
        psi = PureState(self.initial.vec, self.initial.dims, ("R0", "S1", "E"))
        pair = maximally_entangled(self.d_sys)
        for j in range(1, self.n_slots):
            # S_j stays as the slot's output port; the pair's first half is the
            # input port R_j, its second half runs on to become S_{j+1}
            psi = psi.splice(pair, after=f"S{j}", labels=(f"R{j}", f"S{j + 1}"))
            psi = _slot_step(self, psi, j, f"S{j + 1}")
        return psi


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

def build_process_tensor(circuit: SystemEnvCircuit, steps: int) -> SystemEnvCircuit:
    """The first `steps` time slots of the circuit as a new circuit, which
    runs nothing: its tensor state is built on first read.  Needs steps - 1
    step unitaries; the k = 1 tensor is the initial (R0, S1, E) state."""
    _require_int(steps, "steps")
    if steps < 1:
        raise ValueError("need at least one time slot")
    _require_one(circuit)
    if steps - 1 > len(circuit.step_unitaries):
        raise ValueError(
            f"{steps} slots need {steps - 1} step unitaries, "
            f"circuit has {len(circuit.step_unitaries)}")
    return SystemEnvCircuit(circuit.initial, circuit.step_unitaries[:steps - 1])


def _require_one(circuit: SystemEnvCircuit) -> None:
    """Refuse a stack of circuits: the tensor readers read one circuit."""
    if circuit.initial.batch or any(u.ndim > 2 for u in circuit.step_unitaries):
        raise ValueError("a process tensor is built from one circuit, not a stack")


def _slot_step(circuit: SystemEnvCircuit, psi: PureState, j: int, live: str,
               iso: np.ndarray | None = None) -> PureState:
    """Step j of the circuit out of slot j on the live system: the slot's
    map `iso` (_isometry), if given, into a kept register Kj placed before
    it, then step unitary j on (live, E), both by the register core
    PureState._apply (the unitaries and iso were checked when made)."""
    d = circuit.d_sys
    if iso is not None:
        psi = psi._apply(iso, psi._axes((live,)), {f"K{j}": len(iso) // d, live: d})
    return psi._apply(circuit.step_unitaries[j - 1], psi._axes((live, "E")))


def _run_forward(circuit: SystemEnvCircuit, pairs: Sequence[tuple[int, int]],
                 spliced: Callable[[PureState], PureState],
                 maps: Sequence[np.ndarray] | None = None) -> list[PureState]:
    """The state that each slot pair (y, x) of `pairs` reads, in order, from
    one forward run of the circuit on (R0, Sj, E), Sj the live system.  At
    each slot j = min(y, x) that a pair needs, a branch sets the live system
    aside as Sj, splices spliced(run) after it as (Rj, Sk) and steps on to
    each later slot x asked for; a pair with x <= y reads the branch at j.
    Every step out of a slot but a branch's first is a _slot_step with the
    slot's map maps[j - 1], an isometry, if maps are given."""
    maps = maps or [None] * len(circuit.step_unitaries)
    psi = PureState(circuit.initial.vec, circuit.initial.dims, ("R0", "Sj", "E"))
    at, states = 1, {}
    for j in sorted({min(pair) for pair in pairs}):
        for s in range(at, j):
            psi = _slot_step(circuit, psi, s, "Sj", maps[s - 1])
        at = j
        states[j, j] = phi = psi.splice(spliced(psi), after="Sj", labels=("Rj", "Sk"))
        for x in range(j + 1, max(b for a, b in pairs if min(a, b) == j) + 1):
            # the splice stands in for slot j's map
            states[j, x] = phi = _slot_step(circuit, phi, x - 1, "Sk",
                                            maps[x - 2] if x > j + 1 else None)
    return [states[min(pair), pair[1]] for pair in pairs]


def _isometry(item, d: int) -> np.ndarray:
    """A slot's map, a KrausChannel or a bare Kraus list (which need not
    preserve trace), as its d x d operators stacked into one (n d, d) isometry."""
    ops = [np.asarray(m, dtype=complex)
           for m in (item.kraus if isinstance(item, KrausChannel) else item)]
    if not ops:
        raise ValueError("intervention needs at least one Kraus operator")
    for m in ops:
        if m.shape != (d, d):
            raise ValueError(f"intervention operator must be {d} x {d}, got {m.shape}")
        # a NaN trace would pass the trace check of the port reads
        require_finite(m, "entries in intervention operator")
    return np.concatenate(ops)


def contract(circuit: SystemEnvCircuit, interventions: Sequence) -> DensityMatrix | float:
    """Feed CP maps into the slots of the circuit's tensor.

    With one map per intermediate slot (k-1 of them) the result is the
    output state at the final port divided by the probability of the
    sequence; with k maps the last one is read at the final port and the
    result is the probability of the whole sequence, Tr(sum M†M rho).
    Maps may be KrausChannel objects or bare Kraus-operator sequences
    (which need not preserve trace); they act in line on a forward run of
    the circuit, (R0, K1, ..., K_{k-1}, S, E), no larger than the tensor.
    """
    _require_one(circuit)
    k, d = circuit.n_slots, circuit.d_sys
    isos = [_isometry(item, d) for item in interventions]
    if len(isos) not in (k - 1, k):
        raise ValueError(f"expected {k - 1} or {k} interventions for a {k}-slot tensor, "
                         f"got {len(isos)}")
    psi = PureState(circuit.initial.vec, circuit.initial.dims, ("R0", "S", "E"))
    for j in range(1, k):
        psi = _slot_step(circuit, psi, j, "S", isos[j - 1])
    rho = psi.reduced(("S",)).mat
    if len(isos) == k - 1:
        tr = np.trace(rho).real
        if tr <= INVARIANT_TOL:
            raise ValueError(f"intervention sequence has probability {tr:.3e}; "
                             "its conditional output state is undefined")
        # the conditional state; a trace-preserving sequence divides by ~1
        return density(rho / tr, (d,))
    # sum M†M of the last map is iso† iso of its stacked operators
    p = np.trace(isos[-1].conj().T @ isos[-1] @ rho).real
    if not -INVARIANT_TOL <= p <= 1 + INVARIANT_TOL:
        raise ValueError(f"contraction gave probability {p!r} outside [0, 1]")
    return float(p)


def markov_factorization_gap(circuit: SystemEnvCircuit) -> float:
    """Relative entropy in bits of the Choi state Y to the product of its
    step marginals Y_g on (R_g, S_{g+1}), sum_g H(Y_g) - H(Y) with H(Y) =
    H(E); zero iff Markov.  The product is a Markov tensor, so this is the
    non-Markovianity measure of Pollock et al., PRA 97, 012127 (2018).
    The k step cuts and E are one entropies call."""
    k = circuit.n_slots
    *steps, h_env = circuit.state.entropies(*((f"R{g}", f"S{g + 1}") for g in range(k)), ("E",))
    return float(sum(steps) - h_env)


# ---------------------------------------------------------------------------
# port data-processing gaps
# ---------------------------------------------------------------------------

def port_mutual_information(circuit: SystemEnvCircuit, y: int, x: int,
                            interventions: Sequence | None = None) -> float:
    """I(R_y : S_x) with CPTP maps at the slots strictly before x (default
    identity), the pair (S_y, R_y) left open at slot y, and everything at
    or after slot x traced out."""
    k = circuit.n_slots
    _require_int(y, "port slot y")
    _require_int(x, "port slot x")
    if not (1 <= x <= k) or not (1 <= y <= k - 1):
        raise ValueError(f"ports R{y}, S{x} not present in a {k}-slot tensor")
    return float(_port_mutual_informations(circuit, ((y, x),), interventions)[0])


def _port_mutual_informations(circuit: SystemEnvCircuit, pairs: Sequence[tuple[int, int]],
                              interventions: Sequence | None) -> np.ndarray:
    """port_mutual_information of every pair (y, x) in `pairs`, from one forward
    run that splices a maximally entangled pair (a causality read, x <= y,
    takes R_y against the set-aside S_x); each trace is checked before its read."""
    _require_one(circuit)
    k, d = circuit.n_slots, circuit.d_sys
    if interventions is not None and len(interventions) != k - 1:
        raise ValueError(f"need {k - 1} interventions, got {len(interventions)}")
    maps = None if interventions is None else [_isometry(m, d) for m in interventions]
    joints = []
    states = _run_forward(circuit, pairs, lambda _: maximally_entangled(d), maps)
    for (y, x), psi in zip(pairs, states):
        tr = np.vdot(psi.vec, psi.vec).real
        if abs(tr - 1.0) > INVARIANT_TOL:
            raise ValueError(f"interventions are not trace preserving: the port state "
                             f"has trace {tr:.3e}")
        joints.append(psi._marginals(psi._cut(("Rj", "Sk" if y < x else "Sj"))))
    # each joint (1, d^2, d^2) holds its two registers in register order
    return mutual_information(DensityMatrix(np.concatenate(joints), (d, d)), (0,), (1,))


CHOI_DPI_GAPS = (
    ("R1S2-R1S3", (1, 2), (1, 3)),
    ("R1S3-R1S4", (1, 3), (1, 4)),
    ("R1S2-R1S4", (1, 2), (1, 4)),
    ("R2S3-R2S4", (2, 3), (2, 4)),
)


def choi_dpi_witnesses(circuit: SystemEnvCircuit,
                       interventions: Sequence | None = None) -> WitnessReport:
    """The row gaps I(R_y : S_x) - I(R_y : S_x'), x < x', of a four-slot
    tensor (CHOI_DPI_GAPS: two adjacent and one transitive along the R1 row,
    and the R2 row gap), read from five port pairs.  Each is nonnegative on a
    Markov process for any CPTP interventions, as S_x' comes from S_x by a
    channel that leaves R_y alone.  A column gap I(R_y' : S_x) - I(R_y : S_x)
    compares two inputs, which no inequality orders (R2S3-R1S3 is 4/3 -
    log2(3) bits on a qutrit Markov circuit), and is not kept as a candidate:
    a list never asserted would be one more kind of entry that nothing reads."""
    if circuit.n_slots != 4:
        raise ValueError(f"needs a 4-slot tensor, got {circuit.n_slots} slots")
    pairs = sorted({pair for _, hi, lo in CHOI_DPI_GAPS for pair in (hi, lo)})
    mi = dict(zip(pairs, _port_mutual_informations(circuit, pairs, interventions).tolist()))
    return WitnessReport({name: mi[hi] - mi[lo] for name, hi, lo in CHOI_DPI_GAPS})


# ---------------------------------------------------------------------------
# interventional monogamy witnesses
# ---------------------------------------------------------------------------

# kind -> the registers of its positive term; H(S_j, R_j, S_k) is subtracted
_KIND_TERMS = {"q1": ("Sj", "Rj"), "q2": ("Sk",), "q3": ("Sj", "Sk")}


def _two_time_table(circuit: SystemEnvCircuit, pairs: Sequence[tuple[int, int]]) -> dict:
    """multitime_coherent_info of every kind at each pair (j, k) asked for,
    keyed by pair, then kind.  One forward run (_run_forward) purifies S_j
    once per slot j; its states on (R0, Sj, Rj, Sk, E), stacked beside the
    circuit's stack, take one entropies call.  The stack is about 200 kB for
    the sweep's 4 pairs x 101 lambdas x 32 amplitudes."""
    order = sorted(set(pairs))
    states = _run_forward(circuit, order, lambda psi: purify(psi.reduced(("Sj",))))
    stack = PureState(np.stack(np.broadcast_arrays(*(phi.vec for phi in states))),
                      states[0].dims, states[0].labels)
    *terms, joint = stack.entropies(*_KIND_TERMS.values(), ("Sj", "Rj", "Sk"))
    values = {kind: h - joint for kind, h in zip(_KIND_TERMS, terms)}
    return {pair: {kind: v[i] if v.ndim > 1 else float(v[i]) for kind, v in values.items()}
            for i, pair in enumerate(order)}


def multitime_coherent_info(circuit: SystemEnvCircuit, kind: str, j: int, k: int) -> float:
    """Entropic two-slot quantity with a purification intervention at slot j.

    The circuit runs to slot j; the live system is set aside as S_j, its
    reduced state is purified (states.purify, reference register first),
    and the purification's system half is fed forward to slot k.  With the
    global state pure over (R0, S_j, R_j, S_k, E), the kinds are

        q1 = H(S_j, R_j) - H(S_j, R_j, S_k)
        q2 = H(S_k) - H(S_j, R_j, S_k)
        q3 = H(S_j, S_k) - H(S_j, R_j, S_k)

    The value does not depend on which purification is chosen.
    """
    if kind not in _KIND_TERMS:
        raise ValueError(f"kind must be q1, q2 or q3, got {kind!r}")
    _require_int(j, "slot j")
    _require_int(k, "slot k")
    if not (1 <= j < k <= circuit.n_slots):
        raise ValueError(f"need 1 <= j < k <= {circuit.n_slots}, got j={j}, k={k}")
    return _two_time_table(circuit, [(j, k)])[j, k][kind]


def mqmmi_witnesses(circuit: SystemEnvCircuit) -> WitnessReport:
    """The interventional monogamy gap I(1;4) + I(2;3) - I(1;3) - I(2;4)
    of every kind (entries q1, q2, q3), each nonnegative for every Markov
    process: witnesses.monogamy_gap of the M4 permutation over one
    two-time table of its four pairs (multitime_coherent_info).  On a
    stacked circuit every entry is an array over the stack."""
    if circuit.n_slots < 4:
        raise ValueError("needs a circuit with at least 4 slots")
    perm = MONOGAMY[4]["M4"]
    nested, crossed = _pairing(perm)
    table = _two_time_table(circuit, nested + crossed)
    return WitnessReport({kind: monogamy_gap(lambda j, k: table[j, k][kind], perm)
                          for kind in _KIND_TERMS})


# ---------------------------------------------------------------------------
# Markov circuits and dephasing
# ---------------------------------------------------------------------------

# fresh_env_circuit's bound on D = d_s env_dim^m: its m dense D x D step operators
# grow as m D^2 while its states fit MAX_AMPLITUDES (qubits peak at 31 MB at
# D = 256, m = 7, and 141 MB at D = 512); 256 admits the 8-slot M8 circuits.
MAX_STEP_DIM = 256


def fresh_env_circuit(initial_rs: PureState, step_unitaries: Sequence[np.ndarray],
                      env_dim: int) -> SystemEnvCircuit:
    """Markov circuit: every step gets its own fresh |0> environment.

    `initial_rs` is the (R0, S) state, and the environment E = F_1 (x) ...
    (x) F_m, dim(F_j) = env_dim for m step unitaries, starts in |0...0>,
    spliced in after S.  Step j's unitary acts on S (x) F_j; its operator
    on S (x) E is the register simulator's image of the basis states
    (PureState._apply on the registers (S, F_j)), transposed: the matrix of
    an operator is its image of the basis.
    """
    if len(initial_rs.dims) != 2:
        raise ValueError(f"initial state needs registers (R0, S), got {initial_rs.dims}")
    _require_int(env_dim, "environment dimension")
    if env_dim < 1:
        raise ValueError(f"environment dimension must be at least 1, got {env_dim}")
    d_s, m = initial_rs.dims[1], len(step_unitaries)
    d_se = d_s * env_dim ** m
    if d_se > MAX_STEP_DIM:
        raise ValueError(f"{m} steps would need step operators of dimension {d_se} "
                         f"(limit MAX_STEP_DIM = {MAX_STEP_DIM})")
    dims = (d_s,) + (env_dim,) * m
    fresh = PureState(np.eye(1, env_dim ** m, dtype=complex)[0], (env_dim ** m,))
    initial = PureState(initial_rs.vec, initial_rs.dims, ("R0", "S")).splice(
        fresh, after="S", labels=("E",))
    basis = np.eye(d_se, dtype=complex)
    embedded = []
    for jj, u in enumerate(step_unitaries):
        u = np.asarray(u, dtype=complex)
        if u.shape != (d_s * env_dim, d_s * env_dim):
            raise ValueError(
                f"step unitary {jj} must act on dim {d_s * env_dim}, got {u.shape}")
        embedded.append(PureState(basis, dims)._apply(u, (0, jj + 1)).vec.T)
    return system_env_circuit(initial, embedded)


def dephased_joint_pmf(circuit: SystemEnvCircuit) -> JointPMF:
    """Outcome distribution of computational-basis rank-one measurements at
    every slot and the final port; classical and Markov whenever the
    underlying process is Markov."""
    d, k, psi = circuit.d_sys, circuit.n_slots, circuit.state
    # the projector |a><a| at slot j keeps the diagonal S_j = R_j = a with weight d;
    # registers (R0, S1, R1, ..., S_k, E), so S_j and R_j share subscript j - 1
    weights = np.abs(psi.vec.reshape(psi.dims)) ** 2
    subs = [k] + [i // 2 for i in range(2 * k - 1)] + [k + 1]
    return joint_pmf(d ** (k - 1) * np.einsum(weights, subs, list(range(k))))
