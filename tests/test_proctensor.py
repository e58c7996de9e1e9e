"""Process tensors: contraction against direct simulation, factorization,
causality, Choi-state DPIs, and the interventional monogamy witnesses.

The contraction oracle below simulates the circuit as a density matrix
with the CP maps applied in line, sharing nothing with the einsum
contraction kernel except the Kraus operators themselves.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmonogamy.channels import KrausChannel, random_channel, unitary_channel
from qmonogamy.classical import is_markov
from qmonogamy.experiments import u_lambda
from qmonogamy.linalg import dagger, kron, partial_trace
from qmonogamy.process_tensor import (build_process_tensor, choi_dpi_witnesses,
                                      contract, dephased_joint_pmf,
                                      dephasing_instrument, fresh_env_circuit,
                                      instrument, markov_factorization_gap,
                                      mqmmi_witness, multitime_coherent_info,
                                      port_mutual_information, system_env_circuit)
from qmonogamy.states import PureState, pure_state, purify, w_state
from qmonogamy.witnesses import m4_witness, markov_process


def _haar(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _w_circuit(lam, n_steps=3):
    return system_env_circuit(w_state(), [u_lambda(lam)] * n_steps)


def _random_markov_circuit(rng, n_steps, d=2):
    vec = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    init = pure_state(vec / np.linalg.norm(vec), (d, d))
    units = [_haar(rng, d * d) for _ in range(n_steps)]
    return fresh_env_circuit(init, units, d)


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
    """Dephasing instruments at every port define a normalized pmf."""
    import itertools
    pt = build_process_tensor(_w_circuit(0.45), 3)
    projs = [el for el in dephasing_instrument(2).elements]
    total = 0.0
    for outcome in itertools.product(range(2), repeat=3):
        seq = [projs[i] for i in outcome]
        p = contract(pt, seq)
        assert p >= -1e-12
        total += p
    assert total == pytest.approx(1.0, abs=1e-10)


def test_contraction_probability_matches_simulation():
    circuit = _w_circuit(0.25)
    pt = build_process_tensor(circuit, 3)
    proj = dephasing_instrument(2).elements[0]
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
    proj = dephasing_instrument(2).elements[0]
    eye = (np.eye(2),)
    out = contract(pt, [proj, eye])
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
    proj = dephasing_instrument(2).elements
    with pytest.raises(ValueError, match="probability"):
        contract(pt, [proj[0], proj[0], proj[1]])


def test_instrument_validation():
    with pytest.raises(ValueError, match="sum"):
        instrument([(np.eye(2) * 0.5,)])
    inst = dephasing_instrument(3)
    assert len(inst.elements) == 3
    with pytest.raises(ValueError, match="non-finite"):
        instrument([(np.full((2, 2), np.nan),)])
    with pytest.raises(ValueError, match="non-finite"):
        instrument([(np.diag([1.0, 0.0]),), (np.array([[0.0, np.inf], [0.0, 1.0]]),)])


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


def test_dephased_markov_tensor_gives_markov_pmf():
    rng = np.random.default_rng(37)
    pt = build_process_tensor(_random_markov_circuit(rng, 3), 4)
    pmf = dephased_joint_pmf(pt)
    assert pmf.dims == (2, 2, 2, 2)
    assert is_markov(pmf, tol=1e-9)


def test_dephased_nonmarkov_tensor_fails_markov_test():
    pt = build_process_tensor(_w_circuit(0.5), 4)
    assert not is_markov(dephased_joint_pmf(pt), tol=1e-6)
