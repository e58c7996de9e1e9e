"""Process tensors: contraction against direct simulation, factorization,
causality, Choi-state DPIs, and the interventional monogamy witnesses.

The oracles below simulate the circuit as a density matrix with the CP
maps applied in line, sharing nothing with the package's pure-state
register runs except the Kraus operators themselves.  For port mutual
informations the line simulation traces the system out at slot y and
tensors a fresh maximally entangled pair onto (R_y, S) in its place.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmonogamy import process_tensor, states
from qmonogamy.channels import KrausChannel, random_channel, unitary_channel
from qmonogamy.classical import is_markov
from qmonogamy.experiments import lambda_grid, u_lambda
from qmonogamy.info import conditional_mutual_information
from qmonogamy.linalg import dagger, kron, partial_trace
from qmonogamy.process_tensor import (build_process_tensor, choi_dpi_witnesses,
                                      contract, dephased_joint_pmf, fresh_env_circuit,
                                      markov_factorization_gap, mqmmi_witnesses,
                                      multitime_coherent_info,
                                      port_mutual_information, system_env_circuit)
from qmonogamy.states import MAX_AMPLITUDES, PureState, pure_state, purify, w_state
from qmonogamy.tolerances import GAP_TOLERANCE
from qmonogamy.witnesses import MONOGAMY, m4_witness, markov_process, monogamy_gap


def _haar(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _w_circuit(lam, n_steps=3):
    return system_env_circuit(w_state(), [u_lambda(lam)] * n_steps)


def _random_markov_circuit(rng, n_steps, d=2, env_dim=None):
    env_dim = d if env_dim is None else env_dim
    vec = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    init = pure_state(vec / np.linalg.norm(vec), (d, d))
    units = [_haar(rng, d * env_dim) for _ in range(n_steps)]
    return fresh_env_circuit(init, units, env_dim)


def _proj(a, d=2):
    """The rank-one basis projector |a><a| as a one-operator Kraus list."""
    return (np.diag(np.eye(d)[a]),)


# (circuit, slots): a qubit W-state circuit with memory, qutrit systems, and
# 3- and 5-slot tensors
def _circuit_cases():
    rng = np.random.default_rng(41)
    return [
        ("w-4", _w_circuit(0.35), 4),
        ("qutrit-3", _random_markov_circuit(rng, 2, d=3, env_dim=2), 3),
        ("qutrit-4", _random_markov_circuit(rng, 3, d=3, env_dim=1), 4),
        ("qubit-5", _random_markov_circuit(rng, 4, d=2, env_dim=2), 5),
        ("qutrit-env-3", _random_markov_circuit(rng, 2, d=2, env_dim=3), 3),
    ]


CIRCUITS = _circuit_cases()


def _as_ops(item):
    return item.kraus if isinstance(item, KrausChannel) else tuple(item)


def _simulate(circuit, steps, interventions):
    """Line simulation.  Returns the (possibly unnormalized) final S matrix."""
    rho = circuit.initial.density().mat
    dims = circuit.initial.dims
    d_r, d_s, d_e = dims
    for j in range(1, steps):
        ops = _as_ops(interventions[j - 1])
        rho = sum((m_full := kron(np.eye(d_r), m, np.eye(d_e))) @ rho @ dagger(m_full)
                  for m in ops)
        u_full = kron(np.eye(d_r), circuit.step_unitaries[j - 1])
        rho = u_full @ rho @ dagger(u_full)
    return partial_trace(rho, dims, (1,))


def _line_port_state(circuit, y, x, interventions):
    """rho(R_y, S_x) by line simulation: the maps act in line at the slots
    before x except y, where S is traced out and a fresh Phi+ is tensored
    onto (R_y, S)."""
    d_r, d_s, d_e = circuit.initial.dims
    rho = circuit.initial.density().mat
    dims = (d_r, 1, d_s, d_e)  # (R0, R_y, S, E); R_y is trivial until slot y
    for j in range(1, x):
        if j == y:
            rest = partial_trace(rho, dims, (0, 3)).reshape(d_r, d_e, d_r, d_e)
            phi = np.eye(d_s).reshape(-1) / np.sqrt(d_s)
            pair = np.outer(phi, phi.conj()).reshape(d_s, d_s, d_s, d_s)
            # axes (R0, E, R0', E', R_y, S, R_y', S') -> (R0, R_y, S, E, primed)
            t = np.multiply.outer(rest, pair).transpose(0, 4, 5, 1, 2, 6, 7, 3)
            dims = (d_r, d_s, d_s, d_e)
            rho = t.reshape(np.prod(dims), np.prod(dims))
        else:
            left = np.eye(d_r * dims[1])
            rho = sum((m_full := kron(left, m, np.eye(d_e))) @ rho @ dagger(m_full)
                      for m in _as_ops(interventions[j - 1]))
        u_full = kron(np.eye(d_r * dims[1]), circuit.step_unitaries[j - 1])
        rho = u_full @ rho @ dagger(u_full)
    return partial_trace(rho, dims, (1, 2))


def _entropy(m):
    w = np.linalg.eigvalsh(m)
    w = w[w > 1e-14]
    return float(-(w * np.log2(w)).sum())


def _line_port_mi(circuit, y, x, interventions):
    rho = _line_port_state(circuit, y, x, interventions)
    d_y = rho.shape[0] // circuit.d_sys
    dims = (d_y, circuit.d_sys)
    return (_entropy(partial_trace(rho, dims, (0,))) + _entropy(partial_trace(rho, dims, (1,)))
            - _entropy(rho))


def test_contraction_matches_direct_simulation_with_identities():
    pt = build_process_tensor(_w_circuit(0.35), 4)
    eye = (np.eye(2, dtype=complex),)
    got = contract(pt, [eye, eye, eye])
    want = _simulate(_w_circuit(0.35), 4, [eye, eye, eye])
    assert np.abs(got.mat - want).max() <= 1e-10


def test_contraction_matches_direct_simulation_with_channels():
    rng = np.random.default_rng(5)
    circuit = _w_circuit(0.6)
    pt = build_process_tensor(circuit, 4)
    for s in range(4):
        maps = [random_channel(2, 2, 2, seed=10 * s + i)
                for i in range(3)]
        got = contract(pt, maps)
        want = _simulate(circuit, 4, maps)
        assert np.abs(got.mat - want).max() <= 1e-10


def test_contraction_probabilities_sum_to_one():
    """Basis projectors at every port define a normalized pmf."""
    pt = build_process_tensor(_w_circuit(0.45), 3)
    total = 0.0
    for outcome in itertools.product(range(2), repeat=3):
        seq = [_proj(i) for i in outcome]
        p = contract(pt, seq)
        assert p >= -1e-12
        total += p
    assert total == pytest.approx(1.0, abs=1e-10)


def test_contraction_probability_matches_simulation():
    circuit = _w_circuit(0.25)
    pt = build_process_tensor(circuit, 3)
    proj = _proj(0)
    got = contract(pt, [proj, proj, proj])
    rho_f = _simulate(circuit, 3, [proj, proj])
    w = sum(dagger(m) @ m for m in proj)
    want = np.trace(w @ rho_f).real
    assert got == pytest.approx(want, abs=1e-10)


def test_contract_arity_check():
    pt = build_process_tensor(_w_circuit(0.5), 3)
    eye = (np.eye(2),)
    with pytest.raises(ValueError, match="interventions"):
        contract(pt, [eye])


def test_conditional_state_renormalization():
    """A trace-decreasing element still yields a unit-trace output state."""
    pt = build_process_tensor(_w_circuit(0.5), 3)
    eye = (np.eye(2),)
    out = contract(pt, [_proj(0), eye])
    assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("loss", [4e-9, 5e-11])
def test_nearly_trace_preserving_sequences_are_renormalized(loss):
    # sqrt(1 - loss) * identity at both slots leaves the sequence probability
    # (1 - loss)**2, just below 1; its conditional state is the identity one
    pt = build_process_tensor(_random_markov_circuit(np.random.default_rng(8), 2), 3)
    eye = np.eye(2, dtype=complex)
    want = contract(pt, [(eye,), (eye,)])
    got = contract(pt, [(np.sqrt(1 - loss) * eye,), (np.sqrt(1 - loss) * eye,)])
    assert np.trace(got.mat).real == pytest.approx(1.0, abs=1e-14)
    assert np.abs(got.mat - want.mat).max() <= 1e-14


def test_zero_probability_sequence_has_no_conditional_state():
    # at lambda = 0 the dephasing outcomes 0, 0, 1 never occur in a row
    pt = build_process_tensor(_w_circuit(0.0), 4)
    with pytest.raises(ValueError, match="probability"):
        contract(pt, [_proj(0), _proj(0), _proj(1)])


@pytest.mark.parametrize("name,circuit,slots", CIRCUITS, ids=[c[0] for c in CIRCUITS])
def test_contraction_matches_direct_simulation_beyond_qubits(name, circuit, slots):
    pt = build_process_tensor(circuit, slots)
    d = circuit.d_sys
    maps = [random_channel(d, d, 2, seed=60 + i) for i in range(slots - 1)]
    for seq in ([(np.eye(d),)] * (slots - 1), maps):
        got = contract(pt, seq)
        want = _simulate(circuit, slots, seq)
        assert np.abs(got.mat - want).max() <= 1e-12
    # a probability with trace-decreasing elements at every slot and the final port
    outcome = [j % d for j in range(slots)]
    rho_f = _simulate(circuit, slots, [_proj(a, d) for a in outcome[:-1]])
    want = rho_f[outcome[-1], outcome[-1]].real
    assert contract(pt, [_proj(a, d) for a in outcome]) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("name,circuit,slots", CIRCUITS, ids=[c[0] for c in CIRCUITS])
def test_port_mutual_information_matches_a_line_simulation(name, circuit, slots):
    pt = build_process_tensor(circuit, slots)
    d = circuit.d_sys
    maps = [random_channel(d, d, 2, seed=70 + i) for i in range(slots - 1)]
    for seq in (None, maps):
        line = seq or [(np.eye(d),)] * (slots - 1)
        for y in range(1, slots):
            for x in range(y + 1, slots + 1):
                got = port_mutual_information(pt, y, x, seq)
                want = _line_port_mi(circuit, y, x, line)
                assert got == pytest.approx(want, abs=1e-12), (y, x, seq is None)


@pytest.mark.parametrize("name,circuit,slots", CIRCUITS, ids=[c[0] for c in CIRCUITS])
def test_dephased_pmf_matches_the_contracted_probabilities(name, circuit, slots):
    pt = build_process_tensor(circuit, slots)
    d = circuit.d_sys
    probs = dephased_joint_pmf(pt).probs
    assert probs.shape == (d,) * slots
    for outcome in itertools.product(range(d), repeat=slots):
        want = contract(pt, [_proj(a, d) for a in outcome])
        assert probs[outcome] == pytest.approx(want, abs=1e-12), outcome


def test_interventions_must_be_d_by_d():
    pt = build_process_tensor(_w_circuit(0.5), 3)
    eye, qutrit = (np.eye(2),), (np.eye(3),)
    for seq in ([qutrit, eye], [eye, eye, qutrit]):
        with pytest.raises(ValueError, match="must be 2 x 2"):
            contract(pt, seq)
    with pytest.raises(ValueError, match="must be 2 x 2"):
        port_mutual_information(pt, 2, 3, [qutrit, eye])


def test_port_mutual_information_guards():
    pt = build_process_tensor(_w_circuit(0.5), 4)
    for y, x in [(0, 2), (4, 4), (1, 0), (1, 5)]:
        with pytest.raises(ValueError, match="not present in a 4-slot tensor"):
            port_mutual_information(pt, y, x)
    eye = (np.eye(2),)
    for seq in ([eye, eye], [eye] * 4):
        with pytest.raises(ValueError, match="need 3 interventions"):
            port_mutual_information(pt, 1, 3, seq)
    # a trace-decreasing map before x leaves no state to take entropies of
    with pytest.raises(ValueError, match="not trace preserving"):
        port_mutual_information(pt, 2, 4, [_proj(0), eye, eye])


def test_an_empty_kraus_list_is_refused_by_name():
    pt = build_process_tensor(_w_circuit(0.5), 3)
    eye = (np.eye(2),)
    # the k - 1 map form, the k map form, and the port mutual information
    for seq in ([eye, []], [eye, [], eye]):
        with pytest.raises(ValueError, match="at least one Kraus operator"):
            contract(pt, seq)
    with pytest.raises(ValueError, match="at least one Kraus operator"):
        port_mutual_information(pt, 2, 3, [[], eye])


def test_a_kraus_list_longer_than_d_squared_is_contracted_at_slot_one():
    # the 5-slot qubit tensor fills MAX_AMPLITUDES, so a slot-1 list of more
    # than d^2 = 4 operators could not be closed on the tensor itself; the
    # forward run holds one register of 6 for it and reads what the line
    # simulation does
    circuit = CIRCUITS[3][1]
    pt = build_process_tensor(circuit, 5)
    assert pt.state.dim == MAX_AMPLITUDES
    maps = [random_channel(2, 2, 6, seed=40)] + [random_channel(2, 2, 2, seed=41 + i)
                                                 for i in range(4)]
    got = contract(pt, maps[:-1])
    assert np.abs(got.mat - _simulate(circuit, 5, maps[:-1])).max() <= 1e-12
    outcome = [j % 2 for j in range(5)]
    seq = [maps[0]] + [_proj(a) for a in outcome[1:]]
    want = _simulate(circuit, 5, seq[:-1])[outcome[-1], outcome[-1]].real
    assert contract(pt, seq) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("slot", [1, 2, 3, 4])
def test_a_long_kraus_list_is_refused_by_the_amplitude_budget(slot):
    # the forward run holds the circuit's (R0, S, E) amplitudes times one
    # register per map, so with identities at the other slots the longest
    # list that fits is the same at every slot: it is contracted, one more is
    # refused
    circuit = CIRCUITS[3][1]
    pt = build_process_tensor(circuit, 5)
    fits = MAX_AMPLITUDES // circuit.initial.dim
    seq = [(np.eye(2),)] * 4
    for n in (fits, fits + 1):
        seq[slot - 1] = [np.eye(2) / np.sqrt(n)] * n
        if n > fits:
            with pytest.raises(ValueError, match=r"amplitudes \(limit"):
                contract(pt, seq)
        else:
            want = _simulate(circuit, 5, seq)
            assert np.abs(contract(pt, seq).mat - want).max() <= 1e-12
    # the forward read of (R1, S5) holds (R0, S1, R1, S, E) times one register
    # per map: the longest list that fits reads at every slot after 1, one
    # more is refused
    if slot == 1:
        return
    fits = MAX_AMPLITUDES // (pt.state.dim // 4 ** 3)
    for n in (fits, fits + 1):
        seq[slot - 1] = [np.eye(2) / np.sqrt(n)] * n
        if n > fits:
            with pytest.raises(ValueError, match=r"amplitudes \(limit"):
                port_mutual_information(pt, 1, 5, seq)
        else:
            want = _line_port_mi(circuit, 1, 5, seq)
            assert port_mutual_information(pt, 1, 5, seq) == pytest.approx(want, abs=1e-12)


def _kron_embedded_circuit(initial_rs, step_unitaries, env_dim):
    """fresh_env_circuit built the old way, by np.kron of each step unitary
    with an identity and a hand-written permutation of the 2(m+1) axes:
    the reference for the register-simulator embedding."""
    d_s, m = initial_rs.dims[1], len(step_unitaries)
    d_env = env_dim ** m
    e0 = np.zeros(d_env, dtype=complex)
    e0[0] = 1.0
    initial = PureState(np.kron(initial_rs.vec, e0), (initial_rs.dims[0], d_s, d_env))
    dims = [d_s] + [env_dim] * m
    embedded = []
    for jj, u in enumerate(step_unitaries):
        big = np.kron(u, np.eye(env_dim ** (m - 1)))
        # big is ordered (S, F_jj, other F's ascending); permute to (S, F_1..F_m)
        current = [0, jj + 1] + [ax for ax in range(1, m + 1) if ax != jj + 1]
        perm = [current.index(ax) for ax in range(m + 1)]
        big = big.reshape(dims + dims).transpose(perm + [p + m + 1 for p in perm])
        embedded.append(big.reshape(d_s * d_env, d_s * d_env))
    return system_env_circuit(initial, embedded)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("env_dim", [1, 2, 3])
def test_fresh_env_circuits_are_the_kron_embedding_bit_for_bit(d, env_dim):
    rng = np.random.default_rng([d, env_dim])
    for m in range(1, 5):
        vec = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
        init = pure_state(vec / np.linalg.norm(vec), (d, d))
        units = [_haar(rng, d * env_dim) for _ in range(m)]
        mine = fresh_env_circuit(init, units, env_dim)
        ref = _kron_embedded_circuit(init, units, env_dim)
        assert mine.initial.dims == ref.initial.dims
        assert mine.initial.vec.tobytes() == ref.initial.vec.tobytes()
        # equal entry for entry; only the sign of some zeros differs
        for a, b in zip(mine.step_unitaries, ref.step_unitaries, strict=True):
            assert np.array_equal(a, b)
        k = m + 1
        if k >= 4:
            assert mqmmi_witnesses(mine).entries == mqmmi_witnesses(ref).entries
        # the k-slot tensor holds d^(2k) port amplitudes times E's
        if d ** (2 * k) * env_dim ** m > MAX_AMPLITUDES:
            continue
        pt, pt_ref = build_process_tensor(mine, k), build_process_tensor(ref, k)
        assert pt.state.vec.tobytes() == pt_ref.state.vec.tobytes()
        assert markov_factorization_gap(pt) == markov_factorization_gap(pt_ref)
        assert (dephased_joint_pmf(pt).probs.tobytes()
                == dephased_joint_pmf(pt_ref).probs.tobytes())
        maps = [random_channel(d, d, 2, seed=rng) for _ in range(k)]
        assert contract(pt, maps[:-1]).mat.tobytes() == contract(pt_ref, maps[:-1]).mat.tobytes()
        assert contract(pt, maps) == contract(pt_ref, maps)
        if k == 4:
            for ops in (None, maps[:-1]):
                assert (choi_dpi_witnesses(pt, ops).entries
                        == choi_dpi_witnesses(pt_ref, ops).entries)


def test_fresh_env_circuit_rejects_an_empty_environment():
    init = pure_state(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
    with pytest.raises(ValueError, match="environment dimension"):
        fresh_env_circuit(init, [np.eye(2)], env_dim=0)


def test_build_guard_rejects_oversized_circuits():
    circuit = system_env_circuit(w_state(), [u_lambda(0.5)] * 6)
    with pytest.raises(ValueError, match="amplitudes"):
        build_process_tensor(circuit, 7)


def test_markov_tensor_factorizes_and_nonmarkov_does_not():
    rng = np.random.default_rng(11)
    for _ in range(5):
        pt = build_process_tensor(_random_markov_circuit(rng, 3), 4)
        assert markov_factorization_gap(pt) <= 1e-9
    pt = build_process_tensor(_w_circuit(0.5), 4)
    assert markov_factorization_gap(pt) > 1e-3


def _choi_factorization_gaps(pt):
    """The max-abs gap as first written and the relative entropy in bits,
    both from the dense Choi matrix and its partial-traced step marginals."""
    choi = pt.state.reduced(pt.ports)
    parts = [choi.reduced((2 * g, 2 * g + 1)).mat for g in range(pt.n_slots)]
    product = kron(*parts)

    def log2m(m):
        # log2 on the support; the Choi state lies inside the product's support
        w, v = np.linalg.eigh(m)
        return (v * np.log2(np.where(w > 1e-13, w, 1.0))) @ v.conj().T

    rel = np.trace(choi.mat @ (log2m(choi.mat) - log2m(product))).real
    return float(np.abs(choi.mat - product).max()), float(rel)


@pytest.mark.parametrize("slots", [2, 3, 4])
def test_factorization_gap_equals_the_choi_partial_trace_formula(slots):
    rng = np.random.default_rng(23)
    circuits = [_w_circuit(lam) for lam in (0.0, 0.35, 0.8)]
    circuits += [_random_markov_circuit(rng, 3, env_dim=e) for e in (1, 2, 3)]
    for circuit in circuits:
        pt = build_process_tensor(circuit, slots)
        max_abs, rel = _choi_factorization_gaps(pt)
        gap = markov_factorization_gap(pt)
        assert gap == pytest.approx(rel, abs=1e-12)
        # zero exactly where the dense product form holds
        assert (gap <= 1e-9) == (max_abs <= 1e-12)


def test_causality_mutual_informations_vanish():
    """Ports R_y with y >= x carry no information about S_x on any tensor."""
    for pt in (build_process_tensor(_w_circuit(0.7), 4),
               build_process_tensor(_random_markov_circuit(
                   np.random.default_rng(3), 3), 4)):
        for y in range(1, 4):
            for x in range(1, y + 1):
                assert port_mutual_information(pt, y, x) <= 1e-9, (y, x)


def test_choi_dpi_gaps_nonnegative_on_markov_tensors():
    rng = np.random.default_rng(17)
    for _ in range(6):
        pt = build_process_tensor(_random_markov_circuit(rng, 3), 4)
        rep = choi_dpi_witnesses(pt)
        assert len(rep.entries) == 4
        assert rep.passed, rep.violations
        # arbitrary CPTP interventions keep every gap nonnegative
        maps = [random_channel(2, 2, 2, seed=rng)
                for _ in range(3)]
        assert choi_dpi_witnesses(pt, maps).passed


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_markov_circuits_pass_the_process_tensor_witnesses(env_dim, seed):
    # a qubit system with a fresh env_dim-level environment at each of 3 steps
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    init = pure_state(vec / np.linalg.norm(vec), (2, 2))
    units = [_haar(rng, 2 * env_dim) for _ in range(3)]
    pt = build_process_tensor(fresh_env_circuit(init, units, env_dim), 4)
    assert markov_factorization_gap(pt) <= 1e-9
    gaps = choi_dpi_witnesses(pt).entries
    assert len(gaps) == 4
    assert min(gaps.values()) >= -1e-9, gaps


FOUR_SLOT = [case for case in CIRCUITS if case[2] == 4]


@pytest.mark.parametrize("name,circuit,slots", FOUR_SLOT, ids=[c[0] for c in FOUR_SLOT])
def test_choi_dpi_gaps_match_a_line_simulation(name, circuit, slots):
    pt = build_process_tensor(circuit, slots)
    d = circuit.d_sys
    maps = [random_channel(d, d, 2, seed=80 + i) for i in range(slots - 1)]
    for seq in (None, maps):
        line = seq or [(np.eye(d),)] * (slots - 1)
        entries = choi_dpi_witnesses(pt, seq).entries
        assert len(entries) == 4
        for gap, value in entries.items():
            # an entry "R{y}S{x}-R{v}S{u}" is I(R_y : S_x) - I(R_v : S_u)
            hi, lo = [tuple(map(int, pair)) for pair in re.findall(r"R(\d)S(\d)", gap)]
            want = _line_port_mi(circuit, *hi, line) - _line_port_mi(circuit, *lo, line)
            assert value == pytest.approx(want, abs=1e-12), (gap, seq is None)


def _merge_or_split(turn):
    """A qutrit step on (S, F), F from |0>: F is turned by `turn` when S = 2,
    then S is shifted by F mod 3, so that |2, 0> -> sum_a turn[a, 0] |(2 + a) mod 3, a>
    and |s, 0> stays for s = 0, 1."""
    control = np.eye(9)
    control[6:, 6:] = turn
    shift = np.zeros((9, 9))
    for s, a in itertools.product(range(3), repeat=2):
        shift[3 * ((s + a) % 3) + a, 3 * s + a] = 1.0
    return shift @ control


def test_a_column_gap_goes_negative_on_a_qutrit_markov_process():
    # step 1 merges symbol 2 into 0 and step 2 splits 2 evenly onto 0 and 1:
    # R1 reaches S3 through both steps, which together only merge, and R2
    # through the split alone, which adds noise
    r = np.sqrt(0.5)
    merge = np.roll(np.eye(3), 1, axis=0)
    split = np.array([[0.0, 1.0, 0.0], [r, 0.0, r], [r, 0.0, -r]])
    init = pure_state(np.eye(3).reshape(-1) / np.sqrt(3), (3, 3))
    circuit = fresh_env_circuit(init, [_merge_or_split(merge), _merge_or_split(split)], 3)
    pt = build_process_tensor(circuit, 3)
    assert abs(markov_factorization_gap(pt)) <= GAP_TOLERANCE
    late, early = port_mutual_information(pt, 2, 3), port_mutual_information(pt, 1, 3)
    assert late == pytest.approx(4 / 3, abs=1e-12)
    assert early == pytest.approx(np.log2(3), abs=1e-12)
    # the column gap R2S3-R1S3 that choi_dpi_witnesses does not report
    assert late - early < -GAP_TOLERANCE
    assert port_mutual_information(pt, 1, 2) - early >= -GAP_TOLERANCE


def test_choi_dpi_refuses_a_trace_decreasing_map():
    pt = build_process_tensor(_w_circuit(0.5), 4)
    eye = (np.eye(2),)
    for seq in ([_proj(0), eye, eye], [eye, eye, _proj(1)]):
        with pytest.raises(ValueError, match="not trace preserving"):
            choi_dpi_witnesses(pt, seq)


def _counted(monkeypatch, module, name):
    """Record the calls to module.name, still passing them through."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("name,circuit,slots", FOUR_SLOT, ids=[c[0] for c in FOUR_SLOT])
def test_the_port_reads_take_one_forward_run_and_one_eigensolve_per_size(
        name, circuit, slots, monkeypatch):
    pt = build_process_tensor(circuit, slots)
    d = circuit.d_sys
    maps = [random_channel(d, d, 2, seed=90 + i) for i in range(slots - 1)]
    # every spectrum is one states._spectra call (qubits in closed form)
    spectra = _counted(monkeypatch, states, "_spectra")
    steps = _counted(monkeypatch, process_tensor, "_slot_step")
    for seq in (None, maps):
        spectra.clear()
        steps.clear()
        choi_dpi_witnesses(pt, seq)
        sizes = [np.shape(a)[-1] for (a, *_) in spectra]
        assert sorted(sizes) == [d, d * d]
        # the five pairs share one run: the branch at slot 1 steps out of
        # slots 1, 2, 3, the run out of slot 1, and the branch at slot 2 out
        # of slots 2, 3; a map acts at every step but a branch's first
        assert [j for _, _, j, *_ in steps] == [1, 2, 3, 1, 2, 3]
        with_map = [j for _, _, j, _, iso in steps if iso is not None]
        assert with_map == ([] if seq is None else [2, 3, 1, 3])
    # the factorization gap on a fresh tensor: its step marginals in one
    # stacked call, then H(E)
    spectra.clear()
    markov_factorization_gap(build_process_tensor(circuit, slots))
    assert len(spectra) <= 2


@pytest.mark.parametrize("name,circuit,slots", FOUR_SLOT, ids=[c[0] for c in FOUR_SLOT])
def test_the_port_reads_of_one_run_are_each_pair_read_alone_bit_for_bit(name, circuit, slots):
    # and a causality read (x <= y) is zero with maps before x too
    pt = build_process_tensor(circuit, slots)
    d = circuit.d_sys
    maps = [random_channel(d, d, 2, seed=70 + i) for i in range(slots - 1)]
    for seq in (None, maps):
        mi = {(y, x): port_mutual_information(pt, y, x, seq)
              for y, x in itertools.product(range(1, slots), range(1, slots + 1))}
        assert choi_dpi_witnesses(pt, seq).entries == {
            gap: mi[hi] - mi[lo] for gap, hi, lo in process_tensor.CHOI_DPI_GAPS}
        for (y, x), value in mi.items():
            if x <= y:
                assert abs(value) <= 1e-12, (y, x, seq is None)


@pytest.mark.parametrize("name,circuit,slots", CIRCUITS, ids=[c[0] for c in CIRCUITS])
def test_the_factorization_gap_is_the_label_cut_entropies_bit_for_bit(name, circuit, slots):
    for k in range(1, slots + 1):
        pt = build_process_tensor(circuit, k)
        *steps, h_env = pt.state.entropies(*((f"R{g}", f"S{g + 1}") for g in range(k)),
                                           ("E",))
        assert markov_factorization_gap(pt) == float(sum(steps) - h_env), k


def test_choi_dpi_needs_four_slots():
    pt = build_process_tensor(_w_circuit(0.5), 3)
    with pytest.raises(ValueError, match="4-slot"):
        choi_dpi_witnesses(pt)


def _twisted(draw):
    """A purifier whose reference register is purify's turned by the unitary
    draw(d), d the reference's dimension, drawn at every call; the tests put
    it in place of process_tensor.purify."""
    def purifier(rho):
        psi = purify(rho)
        u = draw(psi.dims[0])
        return PureState(psi.vec @ kron(u, np.eye(rho.dim)).T, psi.dims)
    return purifier


def _intervened_state(circuit, j, k, purifier=purify):
    """The per-pair reference: the circuit run from slot 1 to slot k with a
    purification intervention at slot j, on (R0, Sj, Rj, Sk, E)."""
    psi = PureState(circuit.initial.vec, circuit.initial.dims, ("R0", "Sj", "E"))
    for u in circuit.step_unitaries[: j - 1]:
        psi = psi.apply(u, ("Sj", "E"))
    psi = psi.splice(purifier(psi.reduced(("Sj",))), after="Sj", labels=("Rj", "Sk"))
    for u in circuit.step_unitaries[j - 1: k - 1]:
        psi = psi.apply(u, ("Sk", "E"))
    return psi


def _reference_values(circuit, j, k, purifier=purify):
    """The three kinds of one slot pair from its own run and entropies call."""
    psi = _intervened_state(circuit, j, k, purifier)
    *terms, joint = psi.entropies(("Sj", "Rj"), ("Sk",), ("Sj", "Sk"), ("Sj", "Rj", "Sk"))
    return {kind: h - joint for kind, h in zip(("q1", "q2", "q3"), terms)}


def _all_pairs_table(circuit):
    pairs = itertools.combinations(range(1, circuit.n_slots + 1), 2)
    return process_tensor._two_time_table(circuit, list(pairs))


def _table_cases():
    rng = np.random.default_rng(53)
    grid = lambda_grid()
    return [
        ("lambda-4", _w_circuit(grid), purify),
        ("lambda-6", _w_circuit(grid, n_steps=5), purify),
        # one step a stack, the others single unitaries
        ("mixed-stack", system_env_circuit(w_state(), [u_lambda(0.3), u_lambda(grid),
                                                       u_lambda(0.7)]), purify),
        ("fresh-qubit-env", _random_markov_circuit(rng, 3, env_dim=2), purify),
        ("fresh-qutrit-env", _random_markov_circuit(rng, 4, env_dim=3), purify),
        # one fixed turn, so that both paths purify alike
        ("twisted", _w_circuit(0.4, n_steps=4), _twisted(lambda d, u=_haar(rng, 2): u)),
    ]


TABLE_CASES = _table_cases()


@pytest.mark.parametrize("name,circuit,purifier", TABLE_CASES,
                         ids=[c[0] for c in TABLE_CASES])
def test_the_two_time_table_is_the_per_pair_run_bit_for_bit(name, circuit, purifier,
                                                             monkeypatch):
    monkeypatch.setattr(process_tensor, "purify", purifier)
    table = _all_pairs_table(circuit)
    stacked = any(u.ndim > 2 for u in circuit.step_unitaries)
    assert list(table) == list(itertools.combinations(range(1, circuit.n_slots + 1), 2))
    for pair in table:
        want = _reference_values(circuit, *pair, purifier)
        for kind in ("q1", "q2", "q3"):
            np.testing.assert_array_equal(table[pair][kind], want[kind])
            assert isinstance(table[pair][kind], np.ndarray if stacked else float)
            np.testing.assert_array_equal(
                multitime_coherent_info(circuit, kind, *pair), want[kind])
    # a pair nobody asked for is no key, so it cannot be read as a number
    table = process_tensor._two_time_table(circuit, [(2, 4), (1, 3), (2, 4)])
    assert list(table) == [(1, 3), (2, 4)]
    with pytest.raises(KeyError):
        table[1, 4]


def test_mqmmi_witnesses_purify_once_per_slot_j(monkeypatch):
    # the four pairs of M4 use slots j = 1, 2: one purification each (the
    # eigvalsh count is pinned with the other grid functions in test_experiments)
    eigh = _counted(monkeypatch, np.linalg, "eigh")
    mqmmi_witnesses(_w_circuit(lambda_grid()))
    assert len(eigh) == 2


def test_multitime_coherent_info_is_purification_invariant(monkeypatch):
    rng = np.random.default_rng(23)
    circuit = _w_circuit(0.4)
    twisted = _twisted(lambda d: _haar(rng, d))
    for kind in ("q1", "q2", "q3"):
        for j, k in [(1, 3), (2, 4), (1, 4)]:
            a = multitime_coherent_info(circuit, kind, j, k)
            with monkeypatch.context() as m:
                m.setattr(process_tensor, "purify", twisted)
                b = multitime_coherent_info(circuit, kind, j, k)
            assert a == pytest.approx(b, abs=1e-9), (kind, j, k)


def test_multitime_coherent_info_argument_checks():
    circuit = _w_circuit(0.4)
    with pytest.raises(ValueError, match="kind"):
        multitime_coherent_info(circuit, "q4", 1, 2)
    with pytest.raises(ValueError):
        multitime_coherent_info(circuit, "q1", 3, 3)


def test_slot_arguments_are_refused_by_name_unless_integers():
    # a float slot used to fail in a slice with Python's TypeError, and True
    # was read as slot 1
    circuit = _w_circuit(0.4)
    pt = build_process_tensor(circuit, 4)
    calls = {
        "slot j": lambda v: multitime_coherent_info(circuit, "q1", v, 3),
        "slot k": lambda v: multitime_coherent_info(circuit, "q1", 1, v),
        "steps": lambda v: build_process_tensor(circuit, v),
        "port slot y": lambda v: port_mutual_information(pt, v, 3),
        "port slot x": lambda v: port_mutual_information(pt, 1, v),
    }
    for name, call in calls.items():
        for bad in (1.5, 2.5, True, "2"):
            with pytest.raises(ValueError, match=re.escape(
                    f"{name} must be an integer, got {bad!r}")):
                call(bad)
    assert multitime_coherent_info(circuit, "q2", np.int64(1), np.int64(3)) == \
        multitime_coherent_info(circuit, "q2", 1, 3)
    assert build_process_tensor(circuit, np.int64(4)).n_slots == 4


def test_mqmmi_kinds_coincide_on_markov_circuits():
    rng = np.random.default_rng(29)
    for _ in range(3):
        circuit = _random_markov_circuit(rng, 3)
        vals = list(mqmmi_witnesses(circuit).entries.values())
        assert max(vals) - min(vals) <= 1e-9
        assert min(vals) >= -1e-9  # the monogamy statement itself


def test_mqmmi_matches_the_chain_witness_on_markov_circuits():
    """On a fresh-environment circuit the interventional witness reduces to
    the chain M4 of the induced channel sequence."""
    rng = np.random.default_rng(31)
    units = [_haar(rng, 4) for _ in range(3)]
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    init = pure_state(vec / np.linalg.norm(vec), (2, 2))
    circuit = fresh_env_circuit(init, units, 2)
    chain = [unitary_channel(u, 2, 2) for u in units]
    p = markov_process(init.reduced((1,)), chain)
    want = m4_witness(p)
    entries = mqmmi_witnesses(circuit).entries
    for kind in ("q1", "q2", "q3"):
        assert entries[kind] == pytest.approx(want, abs=1e-9), kind


def test_a_stacked_mqmmi_report_reads_as_its_per_lambda_reports():
    lams = [0.1, 0.5, 0.9]
    stacked = mqmmi_witnesses(system_env_circuit(w_state(), [u_lambda(lams)] * 3))
    each = [mqmmi_witnesses(system_env_circuit(w_state(), [u_lambda(lam)] * 3))
            for lam in lams]
    assert stacked.min_value == min(rep.min_value for rep in each)
    # at lambda = 0.5 q1 is positive: the stack's q1 is a violation all the same
    assert "q1" not in each[1].violations
    assert stacked.violations.keys() == set().union(*(rep.violations for rep in each))
    for kind, gaps in stacked.violations.items():
        assert gaps.tolist() == [rep.entries[kind] for rep in each], kind
    assert stacked.passed == all(rep.passed for rep in each)


def test_mqmmi_witnesses_are_the_four_pair_sum():
    """The M4 signs written out: I(1;4) + I(2;3) - I(1;3) - I(2;4) of each kind."""
    rng = np.random.default_rng(43)
    for circuit in (_w_circuit(0.4), _w_circuit([0.1, 0.5, 0.9]),
                    _random_markov_circuit(rng, 3)):
        entries = mqmmi_witnesses(circuit).entries
        for kind in ("q1", "q2", "q3"):
            i = {pair: multitime_coherent_info(circuit, kind, *pair)
                 for pair in [(1, 4), (2, 3), (1, 3), (2, 4)]}
            want = i[1, 4] + i[2, 3] - i[1, 3] - i[2, 4]
            np.testing.assert_allclose(entries[kind], want, rtol=0, atol=1e-12)


def _multitime_gap(table, kind, perm):
    return monogamy_gap(lambda j, k: table[j, k][kind], perm)


@pytest.mark.parametrize("slots", [6, 8])
def test_the_multitime_family_equals_the_chain_gaps_on_markov_circuits(slots):
    """Every M6 and M8 permutation of every kind reduces to the chain gap
    of the induced channel sequence on a fresh-environment circuit."""
    rng = np.random.default_rng(47 + slots)
    units = [_haar(rng, 4) for _ in range(slots - 1)]
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    init = pure_state(vec / np.linalg.norm(vec), (2, 2))
    circuit = fresh_env_circuit(init, units, 2)
    table = _all_pairs_table(circuit)
    p = markov_process(init.reduced((1,)), [unitary_channel(u, 2, 2) for u in units])
    for name, perm in MONOGAMY[slots].items():
        want = monogamy_gap(p.coherent_info, perm)
        assert want >= -1e-9, name
        for kind in ("q1", "q2", "q3"):
            assert _multitime_gap(table, kind, perm) == pytest.approx(
                want, abs=1e-12), (name, kind)


def test_the_six_slot_family_is_violated_on_the_whole_lambda_grid():
    table = _all_pairs_table(_w_circuit(lambda_grid(), n_steps=5))
    for name, perm in MONOGAMY[6].items():
        for kind in ("q1", "q2", "q3"):
            gaps = _multitime_gap(table, kind, perm)
            assert gaps.shape == (101,)
            assert (gaps < -GAP_TOLERANCE).all(), (name, kind)


def test_dephased_markov_tensor_gives_markov_pmf():
    rng = np.random.default_rng(37)
    pt = build_process_tensor(_random_markov_circuit(rng, 3), 4)
    pmf = dephased_joint_pmf(pt)
    assert pmf.dims == (2, 2, 2, 2)
    assert is_markov(pmf)


def test_dephased_nonmarkov_tensor_fails_markov_test():
    pt = build_process_tensor(_w_circuit(0.5), 4)
    pmf = dephased_joint_pmf(pt)
    assert not is_markov(pmf)
    # not a near miss: a conditional mutual information of the Markov test
    # exceeds 1e-6, a thousand times its tolerance
    assert max(conditional_mutual_information(pmf, (i,), tuple(range(i - 1)), (i - 1,))
               for i in range(2, pmf.n_vars)) > 1e-6


def test_a_step_unitary_stack_reports_its_worst_deviation():
    stack = u_lambda(lambda_grid(0.0, 1.0, 0.25))
    slightly, badly = stack.copy(), stack.copy()
    slightly[2] *= 1.001
    badly[4] *= 1.01
    # one stacked check over every step and every item: the worst is named
    with pytest.raises(ValueError, match="step operator 1 is not unitary within 1e-10: "
                                         "worst deviation 2.010e-02"):
        system_env_circuit(w_state(), [slightly, badly, stack])
    circuit = system_env_circuit(w_state(), [stack, u_lambda(0.5), stack])
    assert circuit.n_slots == 4
    with pytest.raises(ValueError, match=r"batch shape \(5,\) and operator batch shape "
                                         r"\(3,\)"):
        system_env_circuit(w_state(), [stack, stack[:3]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_step_operator_is_refused_by_name(bad):
    # a NaN unitarity deviation compares False against the tolerance, so a
    # NaN step used to pass, and port_mutual_information then failed in eigh
    u = u_lambda(0.5)
    u[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite entries in step operator 1"):
        system_env_circuit(w_state(), [u_lambda(0.5), u])
    stack = u_lambda(lambda_grid(0.0, 1.0, 0.25))
    stack[3, 0, 0] = bad
    with pytest.raises(ValueError, match="non-finite entries in step operator 0"):
        system_env_circuit(w_state(), [stack, u_lambda(0.5)])
    init = pure_state(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2), (2, 2))
    # embedding an infinite entry next to zeros makes NaN, which is refused too
    with pytest.raises(ValueError, match="non-finite"), np.errstate(invalid="ignore"):
        fresh_env_circuit(init, [np.eye(4), u], env_dim=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_intervention_operator_is_refused_by_name(bad):
    # a NaN trace passed the port reads' trace check and failed in eigh, and
    # contract said "probability nan" or raised a density error
    pt = build_process_tensor(_w_circuit(0.4), 4)
    broken = np.eye(2, dtype=complex)
    broken[0, 1] = bad
    eye = (np.eye(2),)
    maps = [(broken,), eye, eye]
    calls = [lambda: port_mutual_information(pt, 2, 3, maps),
             lambda: choi_dpi_witnesses(pt, maps),
             lambda: contract(pt, maps),
             lambda: contract(pt, maps + [eye])]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(
                "non-finite entries in intervention operator: 1 NaN or infinite")):
            call()


def test_a_process_tensor_is_built_from_one_circuit():
    circuit = system_env_circuit(w_state(), [u_lambda(lambda_grid(0.0, 1.0, 0.5))] * 3)
    with pytest.raises(ValueError, match="one circuit, not a stack"):
        build_process_tensor(circuit, 4)
