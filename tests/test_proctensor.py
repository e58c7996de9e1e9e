"""Process tensors: contraction against direct simulation, factorization,
causality, Choi-state DPIs, and the interventional monogamy witnesses.

The oracles below simulate the circuit as a density matrix with the CP
maps applied in line, sharing nothing with the plugged pure-state register
except the Kraus operators themselves.  For port mutual informations the
line simulation traces the system out at slot y and tensors a fresh
maximally entangled pair onto (R_y, S) in its place.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmonogamy.channels import KrausChannel, random_channel, unitary_channel
from qmonogamy.classical import is_markov
from qmonogamy.experiments import lambda_grid, u_lambda
from qmonogamy.linalg import dagger, kron, partial_trace
from qmonogamy.process_tensor import (build_process_tensor, choi_dpi_witnesses,
                                      contract, dephased_joint_pmf, fresh_env_circuit,
                                      markov_factorization_gap, mqmmi_witness,
                                      mqmmi_witnesses, multitime_coherent_info,
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


def test_a_long_kraus_list_is_refused_by_the_amplitude_budget():
    # more Kraus operators than d^2 grow the register past MAX_AMPLITUDES
    pt = build_process_tensor(CIRCUITS[3][1], 5)
    n_ops = MAX_AMPLITUDES * 4 // pt.state.dim + 1
    ops = [np.eye(2) / np.sqrt(n_ops)] * n_ops
    with pytest.raises(ValueError, match="amplitudes"):
        contract(pt, [ops] + [(np.eye(2),)] * 3)


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
        assert len(rep.entries) == 7
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
    assert len(gaps) == 7
    assert min(gaps.values()) >= -1e-9, gaps


def test_choi_dpi_needs_four_slots():
    pt = build_process_tensor(_w_circuit(0.5), 3)
    with pytest.raises(ValueError, match="4-slot"):
        choi_dpi_witnesses(pt)


def test_multitime_coherent_info_is_purification_invariant():
    rng = np.random.default_rng(23)
    circuit = _w_circuit(0.4)

    def twisted(rho):
        psi = purify(rho)
        u = _haar(rng, psi.dims[0])
        return PureState(kron(u, np.eye(rho.dim)) @ psi.vec, psi.dims)

    for kind in ("q1", "q2", "q3"):
        for j, k in [(1, 3), (2, 4), (1, 4)]:
            a = multitime_coherent_info(circuit, kind, j, k)
            b = multitime_coherent_info(circuit, kind, j, k, purifier=twisted)
            assert a == pytest.approx(b, abs=1e-9), (kind, j, k)


def test_multitime_coherent_info_argument_checks():
    circuit = _w_circuit(0.4)
    with pytest.raises(ValueError, match="kind"):
        multitime_coherent_info(circuit, "q4", 1, 2)
    with pytest.raises(ValueError):
        multitime_coherent_info(circuit, "q1", 3, 3)


def test_mqmmi_kinds_coincide_on_markov_circuits():
    rng = np.random.default_rng(29)
    for _ in range(3):
        circuit = _random_markov_circuit(rng, 3)
        vals = [mqmmi_witness(circuit, kind) for kind in ("q1", "q2", "q3")]
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
    for kind in ("q1", "q2", "q3"):
        assert mqmmi_witness(circuit, kind) == pytest.approx(want, abs=1e-9), kind


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


def _multitime_gap(circuit, kind, perm):
    return monogamy_gap(lambda j, k: multitime_coherent_info(circuit, kind, j, k), perm)


@pytest.mark.parametrize("slots", [6, 8])
def test_the_multitime_family_equals_the_chain_gaps_on_markov_circuits(slots):
    """Every M6 and M8 permutation of every kind reduces to the chain gap
    of the induced channel sequence on a fresh-environment circuit."""
    rng = np.random.default_rng(47 + slots)
    units = [_haar(rng, 4) for _ in range(slots - 1)]
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    init = pure_state(vec / np.linalg.norm(vec), (2, 2))
    circuit = fresh_env_circuit(init, units, 2)
    p = markov_process(init.reduced((1,)), [unitary_channel(u, 2, 2) for u in units])
    for name, perm in MONOGAMY[slots].items():
        want = monogamy_gap(p.coherent_info, perm)
        assert want >= -1e-9, name
        for kind in ("q1", "q2", "q3"):
            assert _multitime_gap(circuit, kind, perm) == pytest.approx(
                want, abs=1e-12), (name, kind)


def test_the_six_slot_family_is_violated_on_the_whole_lambda_grid():
    circuit = _w_circuit(lambda_grid(), n_steps=5)
    for name, perm in MONOGAMY[6].items():
        for kind in ("q1", "q2", "q3"):
            gaps = _multitime_gap(circuit, kind, perm)
            assert gaps.shape == (101,)
            assert (gaps < -GAP_TOLERANCE).all(), (name, kind)


def test_dephased_markov_tensor_gives_markov_pmf():
    rng = np.random.default_rng(37)
    pt = build_process_tensor(_random_markov_circuit(rng, 3), 4)
    pmf = dephased_joint_pmf(pt)
    assert pmf.dims == (2, 2, 2, 2)
    assert is_markov(pmf, tol=1e-9)


def test_dephased_nonmarkov_tensor_fails_markov_test():
    pt = build_process_tensor(_w_circuit(0.5), 4)
    assert not is_markov(dephased_joint_pmf(pt), tol=1e-6)


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


def test_a_process_tensor_is_built_from_one_circuit():
    circuit = system_env_circuit(w_state(), [u_lambda(lambda_grid(0.0, 1.0, 0.5))] * 3)
    with pytest.raises(ValueError, match="one circuit, not a stack"):
        build_process_tensor(circuit, 4)
