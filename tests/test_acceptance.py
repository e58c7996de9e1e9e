"""The acceptance suite: one test per criterion, in order.

Each test prints one ACCEPTANCE line on success so a `pytest -v -s` run
reads as a checklist.  Tolerances and sample counts are fixed here on
purpose; loosening them is a contract change, not a test fix.
"""

import itertools
import time

import numpy as np

from qmonogamy import (
    KrausChannel,
    adjoint_identity_check,
    apply_to_subsystem,
    build_process_tensor,
    chain_coherent_information,
    cmmi_gap,
    contract,
    dagger,
    dephased_joint_pmf,
    extra_dpi_rows,
    fresh_env_circuit,
    is_markov,
    joint_from_chain,
    kron,
    lambda_grid,
    m4_ssa_certificate,
    m4_witness,
    markov_factorization_gap,
    mi_monotonicity_check,
    mqmmi_rows,
    mqmmi_witnesses,
    mutual_information,
    nonmarkov_witness_rows,
    partial_trace,
    port_mutual_information,
    pure_state,
    purify,
    qdpi_witnesses,
    random_chain,
    random_channel,
    random_density,
    random_markov_process,
    random_markov_verify,
    system_env_circuit,
    u_lambda,
    von_neumann,
    w_state,
)
from qmonogamy.states import PureState

TOL = 1e-9
DP_NAMES = ("DP1", "DP2", "DP3", "DP4")


def _haar(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_markov_circuit(rng, n_steps, d=2):
    vec = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    init = pure_state(vec / np.linalg.norm(vec), (d, d))
    units = [_haar(rng, d * d) for _ in range(n_steps)]
    return fresh_env_circuit(init, units, d)


def _as_ops(item):
    return item.kraus if isinstance(item, KrausChannel) else tuple(item)


def _simulate(circuit, steps, interventions):
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


def test_criterion_01_violation_regions_of_the_monogamy_sweep():
    start = time.perf_counter()
    rows = nonmarkov_witness_rows(lambda_grid())
    elapsed = time.perf_counter() - start
    assert len(rows) == 101
    # grid points strictly inside (0, 0.15) are indices 1..14; the region
    # boundary is allowed one grid cell of slack on each side (current
    # data passes even without it)
    for i in range(2, 14):
        row = rows[i]
        assert row["M4"] < -TOL, f"lambda={row['lambda']}"
        assert all(row[n] >= -TOL for n in DP_NAMES), f"lambda={row['lambda']}"
    # inside (0.85, 1): indices 86..99, same slack
    for i in range(87, 99):
        row = rows[i]
        assert row["M4"] >= -TOL, f"lambda={row['lambda']}"
        assert sum(row[n] < -TOL for n in DP_NAMES) >= 2, f"lambda={row['lambda']}"
    assert elapsed < 10.0
    print("\nACCEPTANCE 1: PASS")


def test_criterion_02_interventional_witness_regions():
    start = time.perf_counter()
    rows = mqmmi_rows(lambda_grid())
    elapsed = time.perf_counter() - start
    nonneg = [i for i, row in enumerate(rows) if row["M4_q1"] >= -TOL]
    assert nonneg == list(range(nonneg[0], nonneg[-1] + 1)), "q1 region not contiguous"
    assert nonneg[0] <= 31 and nonneg[-1] >= 54      # covers [0.31, 0.54]
    assert nonneg[0] >= 29 and nonneg[-1] <= 56      # inside [0.29, 0.56]
    for i in range(2, 99):                           # grid points in (0.01, 0.99)
        assert rows[i]["M4_q2"] < -TOL, f"lambda={rows[i]['lambda']}"
        assert rows[i]["M4_q3"] < -TOL, f"lambda={rows[i]['lambda']}"
    assert elapsed < 60.0
    print("\nACCEPTANCE 2: PASS")


def test_criterion_03_candidate_dpis_hold_on_the_example():
    start = time.perf_counter()
    rows = extra_dpi_rows(lambda_grid())
    elapsed = time.perf_counter() - start
    for row in rows:
        for name in ("DP5_markov", "DP5", "DP6", "DP7"):
            assert row[name] >= -TOL, f"lambda={row['lambda']} {name}"
    assert elapsed < 30.0
    print("\nACCEPTANCE 3: PASS")


def test_criterion_04_four_step_witnesses_on_random_processes():
    worst = np.inf
    cert_mismatch = 0.0
    for i in range(1000):
        p = random_markov_process(4, seed=i, d_env=2 + i % 3)
        entries = dict(qdpi_witnesses(p).entries)
        entries["M4"] = m4_witness(p)
        worst = min(worst, min(entries.values()))
        if i < 100:
            cert_mismatch = max(cert_mismatch,
                                abs(entries["M4"] - m4_ssa_certificate(p)))
    assert worst >= -TOL
    assert cert_mismatch <= 1e-8
    print("\nACCEPTANCE 4: PASS")


def test_criterion_05_six_and_eight_step_monogamy():
    six = random_markov_verify(6, 300, seed=0, certificate_samples=20)
    assert min(six["witness_minima"].values()) >= -TOL
    assert six["certificate_max_mismatch"] <= 1e-7
    eight = random_markov_verify(8, 100, seed=0, certificate_samples=20)
    assert min(eight["witness_minima"].values()) >= -TOL
    assert eight["certificate_max_mismatch"] <= 1e-7
    print("\nACCEPTANCE 5: PASS")


def test_criterion_06_mutual_information_contraction():
    report = mi_monotonicity_check(samples=500, seed=0)
    assert report["cqmi_monotonicity_min"] >= -TOL
    assert report["mi_monotonicity_min"] >= -TOL
    print("\nACCEPTANCE 6: PASS")


def test_criterion_07_coherent_information_identity():
    rng = np.random.default_rng(2024)
    for i in range(100):
        d = 2 + i % 2
        rho = random_density(d, seed=rng)
        ch = random_channel(d, d, 2 + i % 3, rng)
        psi = purify(rho)
        out = apply_to_subsystem(ch, psi.density(), 1)
        mi = mutual_information(out, (0,), (1,))
        ic = chain_coherent_information(rho, [ch], 1, 2)
        assert abs(mi - von_neumann(rho) - ic) <= TOL
        # the identity is purification independent: twist the reference
        u = _haar(rng, d)
        twisted = PureState(kron(u, np.eye(rho.dim)) @ psi.vec, psi.dims)
        out2 = apply_to_subsystem(ch, twisted.density(), 1)
        ic2 = mutual_information(out2, (0,), (1,)) - von_neumann(rho)
        assert abs(ic2 - ic) <= TOL
    print("\nACCEPTANCE 7: PASS")


def test_criterion_08_adjoint_channel_identities():
    report = adjoint_identity_check(samples=100, seed=0)
    assert report["identity_max_deviation"] <= 1e-12
    assert report["unitality_max_deviation"] <= 1e-10
    print("\nACCEPTANCE 8: PASS")


def test_criterion_09_process_tensor_stack():
    rng = np.random.default_rng(41)
    # Markov tensors factorize, the example tensor does not
    for _ in range(100):
        pt = build_process_tensor(_random_markov_circuit(rng, 3), 4)
        assert markov_factorization_gap(pt) <= TOL
    w_circuit = system_env_circuit(w_state(), [u_lambda(0.5)] * 3)
    assert markov_factorization_gap(build_process_tensor(w_circuit, 4)) > 1e-3
    # contraction agrees with direct simulation
    for s in range(20):
        circuit = (_random_markov_circuit(rng, 3) if s % 2 else
                   system_env_circuit(w_state(), [u_lambda(0.05 * s)] * 3))
        pt = build_process_tensor(circuit, 4)
        maps = [random_channel(2, 2, 2, rng) for _ in range(3)]
        got = contract(pt, maps)
        assert np.abs(got.mat - _simulate(circuit, 4, maps)).max() <= 1e-10
    # causality: no port R_y signals an earlier or simultaneous S_x
    for pt in (build_process_tensor(system_env_circuit(
                   w_state(), [u_lambda(0.7)] * 3), 4),
               build_process_tensor(_random_markov_circuit(rng, 3), 4)):
        for y in range(1, 4):
            for x in range(1, y + 1):
                assert port_mutual_information(pt, y, x) <= TOL
    # the three interventional witnesses coincide on Markov circuits
    for _ in range(10):
        circuit = _random_markov_circuit(rng, 3)
        vals = [mqmmi_witnesses(circuit).entries[kind] for kind in ("q1", "q2", "q3")]
        assert max(vals) - min(vals) <= TOL
    print("\nACCEPTANCE 9: PASS")


def test_criterion_10_classical_monogamy_and_dephasing():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        joint = joint_from_chain(random_chain(4, 2, rng))
        assert cmmi_gap(joint, (2, 1)) >= -1e-12
    for n in (2, 3, 4):
        for _ in range(100):
            joint = joint_from_chain(random_chain(2 * n, 2, rng))
            for perm in itertools.permutations(range(1, n + 1)):
                assert cmmi_gap(joint, perm) >= -1e-12
    for _ in range(5):
        pt = build_process_tensor(_random_markov_circuit(rng, 3), 4)
        assert is_markov(dephased_joint_pmf(pt))
    print("\nACCEPTANCE 10: PASS")
