"""Sweeps, the lambda example, and the randomized harnesses.

The numeric anchors below were frozen from a standalone entropy
computation (plain numpy, no package imports) so a regression in any
layer of the stack shows up as a mismatch here.
"""

import math

import numpy as np
import pytest

from qmonogamy import (
    adjoint_identity_check,
    classical_cmmi_check,
    conditional_mutual_information,
    chain_coherent_information,
    extra_dpi_row,
    extra_dpi_rows,
    gamma_sequence,
    joint_from_chain,
    lambda_grid,
    mi_monotonicity_check,
    markov_process,
    mqmmi_row,
    mqmmi_rows,
    nonmarkov_witness_row,
    nonmarkov_witness_rows,
    parallel_map,
    partial_trace,
    random_chain,
    random_markov_process,
    random_markov_verify,
    u_lambda,
    unitary_channel,
    von_neumann,
    w_state,
)
from qmonogamy import channels, classical, experiments, info, states
from qmonogamy.channels import adjoint_channel, apply_to_subsystem, random_channel
from qmonogamy.classical import cmmi_gap
from qmonogamy.states import DensityMatrix, density, maximally_entangled, random_density
from qmonogamy.witnesses import cqmi_monotonicity_gap, mi_dpi_gap

H_ONE_THIRD = math.log2(3) - 2 / 3  # binary entropy of 1/3


# ---------------------------------------------------------------------------
# the step unitary and the state sequence
# ---------------------------------------------------------------------------

def test_u_lambda_is_unitary_across_the_range():
    for lam in (0.0, 0.25, 0.5, 0.77, 1.0):
        u = u_lambda(lam)
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_u_lambda_endpoints_are_the_two_permutations():
    assert np.array_equal(u_lambda(0.0), np.array([
        [0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex))
    assert np.array_equal(u_lambda(1.0), np.array([
        [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]], dtype=complex))


@pytest.mark.parametrize("lam", [-0.1, 1.1])
def test_u_lambda_rejects_out_of_range(lam):
    with pytest.raises(ValueError, match="lambda"):
        u_lambda(lam)


def test_u_lambda_builds_a_grid_as_one_stack():
    grid = lambda_grid(0.0, 1.0, 0.125)
    stack = u_lambda(grid)
    assert stack.shape == (len(grid), 4, 4)
    for lam, u in zip(grid, stack):
        np.testing.assert_array_equal(u, u_lambda(lam))


@pytest.mark.parametrize("rows", [nonmarkov_witness_rows, extra_dpi_rows, mqmmi_rows])
@pytest.mark.parametrize("bad,shown", [(math.nan, "nan"), (1.25, "1.25"), (-0.5, "-0.5")])
def test_a_grid_with_a_bad_lambda_names_the_value(rows, bad, shown):
    with pytest.raises(ValueError, match=f"lambda must lie in \\[0, 1\\], got {shown}"):
        rows([0.1, 0.2, bad, 0.4])


@pytest.mark.parametrize("rows", [nonmarkov_witness_rows, extra_dpi_rows, mqmmi_rows])
@pytest.mark.parametrize("grid", [[], [[0.1, 0.2]]])
def test_an_empty_or_nested_grid_is_refused_by_name(rows, grid):
    with pytest.raises(ValueError, match="nonempty one-dimensional lambda grid"):
        rows(grid)


def test_gamma_sequence_is_four_pure_states():
    for lam in (0.13, 0.7):
        states = gamma_sequence(lam)
        assert len(states) == 4
        for g in states:
            assert g.dims == (2, 2, 2)
            assert np.trace(g.mat) == pytest.approx(1.0, abs=1e-12)
            assert np.trace(g.mat @ g.mat).real == pytest.approx(1.0, abs=1e-10)


def test_gamma_sequence_starts_at_the_w_state():
    assert np.allclose(gamma_sequence(0.4)[0].mat, w_state().density().mat,
                       atol=1e-14)


def test_first_register_marginal_never_moves():
    # the step unitary does not touch R, so its marginal stays diag(2/3, 1/3)
    for lam in (0.0, 0.31, 1.0):
        for g in gamma_sequence(lam):
            marginal = g.reduced((0,))
            assert np.allclose(marginal.mat, np.diag([2 / 3, 1 / 3]), atol=1e-12)


# ---------------------------------------------------------------------------
# witness rows, against frozen values
# ---------------------------------------------------------------------------

def test_nonmarkov_row_is_zero_at_lambda_zero():
    row = nonmarkov_witness_row(0.0)
    for name in ("DP1", "DP2", "DP3", "DP4", "M4"):
        assert row[name] == pytest.approx(0.0, abs=1e-12)


def test_nonmarkov_row_frozen_at_low_lambda():
    row = nonmarkov_witness_row(0.05)
    assert row["lambda"] == 0.05
    assert row["DP1"] == pytest.approx(0.032635133102511094, abs=1e-10)
    assert row["DP2"] == pytest.approx(0.30133562537339564, abs=1e-10)
    assert row["DP3"] == pytest.approx(0.26870049227088455, abs=1e-10)
    assert row["DP4"] == pytest.approx(0.065868114019459467, abs=1e-10)
    assert row["M4"] == pytest.approx(-0.20283237825142508, abs=1e-10)


def test_nonmarkov_row_midpoint_has_closed_forms():
    row = nonmarkov_witness_row(0.5)
    assert row["DP1"] == pytest.approx(H_ONE_THIRD, abs=1e-12)
    assert row["DP2"] == pytest.approx(H_ONE_THIRD, abs=1e-12)
    assert row["DP3"] == pytest.approx(0.0, abs=1e-12)
    assert row["DP4"] == pytest.approx(-0.34997757835164622, abs=1e-10)
    assert row["M4"] == pytest.approx(row["DP4"], abs=1e-12)


def test_rows_are_single_register_entropies():
    # every gamma_i is pure, so H(R,S,E) = 0 and H(R,S) = H(E): the M4 row's
    # entropy form [H(RSE) - H(RS)]_4 + [H(RS) - H(RSE)]_3 is H(E)_3 - H(E)_4
    for lam in (0.05, 0.5, 0.83):
        g = gamma_sequence(lam)

        def h(i, keep):
            return von_neumann(g[i - 1].reduced(keep))

        def ic(i):
            return h(i, (1,)) - h(i, (0, 1))

        row = nonmarkov_witness_row(lam)
        old_form = (von_neumann(g[3]) - h(4, (0, 1))) + (h(3, (0, 1)) - von_neumann(g[2]))
        assert row["M4"] == pytest.approx(old_form, abs=1e-12)
        assert row["M4"] == pytest.approx(h(3, (2,)) - h(4, (2,)), abs=1e-12)
        assert row["DP4"] == pytest.approx(h(3, (1,)) - h(4, (1,)), abs=1e-12)
        extra = extra_dpi_row(lam)
        assert extra["DP5"] == pytest.approx(h(3, (2,)), abs=1e-12)
        assert extra["DP6"] == pytest.approx(h(3, (1,)) - ic(4), abs=1e-12)
        assert extra["DP7"] == pytest.approx(h(4, (2,)), abs=1e-12)


def test_mqmmi_row_runs_one_simulation_per_slot_pair(monkeypatch):
    # pairs (1,4), (2,3), (1,3), (2,4) need 3 + 2 + 2 + 3 step unitaries
    calls = []
    original = states.apply_two_site

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(states, "apply_two_site", counting)
    mqmmi_row(0.4)
    assert len(calls) == 10
    # the whole grid is one stacked circuit: still one simulation per pair
    calls.clear()
    mqmmi_rows(lambda_grid())
    assert len(calls) == 10


@pytest.mark.parametrize("rows", [nonmarkov_witness_rows, extra_dpi_rows, mqmmi_rows])
def test_grid_functions_take_as_many_eigensolves_for_101_points_as_for_one(
        rows, monkeypatch):
    # one stacked eigvalsh per entropy subset, whatever the grid's length
    shapes = []
    real_eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    rows([0.4])
    one = len(shapes)
    shapes.clear()
    rows(lambda_grid())
    assert one > 0 and len(shapes) == one
    assert any(shape[:1] == (101,) for shape in shapes)


@pytest.mark.parametrize("rows", [nonmarkov_witness_rows, extra_dpi_rows, mqmmi_rows])
def test_a_grid_longer_than_a_block_is_stacked_block_by_block(rows, monkeypatch):
    grid = lambda_grid(0.0, 1.0, 0.05)
    whole = rows(grid)
    monkeypatch.setattr(experiments, "GRID_BLOCK", 8)
    blocked = rows(grid)
    assert [row["lambda"] for row in blocked] == grid
    for got, want in zip(blocked, whole):
        assert got == pytest.approx(want, abs=1e-12)


def test_grid_functions_match_dense_references_on_a_shifted_grid():
    # qmmi and dpi columns from dense gamma_sequence densities through
    # partial_trace and von_neumann; DP5_markov from Kraus propagation on
    # the Markov process built per lambda
    grid = lambda_grid(0.013, 0.987, 0.027)
    qmmi, extra = nonmarkov_witness_rows(grid), extra_dpi_rows(grid)
    assert [row["lambda"] for row in qmmi] == grid == [row["lambda"] for row in extra]
    for lam, row, xrow in zip(grid, qmmi, extra):
        g = gamma_sequence(lam)

        def h(i, keep):
            return von_neumann(partial_trace(g[i - 1].mat, (2, 2, 2), keep))

        def ic(i):
            return h(i, (1,)) - h(i, (0, 1))

        want = {"DP1": ic(2) - ic(3), "DP2": ic(2) - ic(4), "DP3": ic(3) - ic(4),
                "DP4": h(3, (1,)) - h(4, (1,)), "M4": h(3, (2,)) - h(4, (2,)),
                "DP5": h(3, (0, 1)), "DP6": h(3, (1,)) - ic(4), "DP7": h(4, (0, 1))}
        ch = unitary_channel(u_lambda(lam), 2, 2)
        proc = markov_process(density(np.eye(2) / 2), [ch, ch])

        def chain_ic(r, s):
            return chain_coherent_information(proc.initial, proc.channels, r, s)

        want["DP5_markov"] = chain_ic(2, 3) - chain_ic(1, 3)
        for name, value in want.items():
            got = row[name] if name in row else xrow[name]
            assert got == pytest.approx(value, abs=1e-12), (lam, name)


def test_extra_dpi_row_frozen_values():
    row = extra_dpi_row(0.5)
    assert set(row) == {"lambda", "DP5_markov", "DP5", "DP6", "DP7"}
    assert row["DP5"] == pytest.approx(0.65002242164835422, abs=1e-10)
    assert row["DP6"] == pytest.approx(0.65002242164835422, abs=1e-10)
    assert row["DP7"] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("lam,want", [
    (0.0, 0.0),
    (0.3, 0.33445944009623757),
    (0.5, 0.41086955972536865),
    (0.77, 0.56636913371111763),
    (1.0, 1.0),
])
def test_markov_reference_dp5_frozen_values(lam, want):
    assert extra_dpi_row(lam)["DP5_markov"] == pytest.approx(want, abs=1e-10)


def test_mqmmi_row_frozen_values():
    row = mqmmi_row(0.4)
    assert set(row) == {"lambda", "M4_q1", "M4_q2", "M4_q3"}
    assert row["M4_q1"] == pytest.approx(9.23515500510e-02, abs=1e-9)
    assert row["M4_q2"] == pytest.approx(-1.69499603197e-01, abs=1e-9)
    assert row["M4_q3"] == pytest.approx(-4.18507012038e-01, abs=1e-9)
    assert row["M4_q1"] > 0 > row["M4_q2"]


# ---------------------------------------------------------------------------
# grids and sweeps
# ---------------------------------------------------------------------------

def test_default_grid_has_101_points_with_exact_endpoints():
    grid = lambda_grid()
    assert len(grid) == 101
    assert grid[0] == 0.0
    assert grid[-1] == 1.0
    deltas = np.diff(grid)
    assert np.allclose(deltas, 0.01, atol=1e-12)


def test_custom_grid_ranges():
    assert lambda_grid(0.2, 0.35, 0.05) == pytest.approx([0.2, 0.25, 0.3, 0.35])
    # a step that does not divide the span just stops short of hi
    assert lambda_grid(0.0, 0.1, 0.03) == pytest.approx([0.0, 0.03, 0.06, 0.09])


@pytest.mark.parametrize("lo,hi,step", [(-0.1, 1.0, 0.01), (0.0, 1.2, 0.01),
                                        (0.6, 0.4, 0.01), (0.0, 1.0, 0.0),
                                        (0.0, 1.0, math.nan), (math.nan, 1.0, 0.01),
                                        (0.0, math.inf, 0.01), (0.0, 1.0, math.inf),
                                        (0.0, 1.0, 1e-300), (0.0, 1.0, 5e-324),
                                        (0.0, 1.0, 0.999e-6)])
def test_grid_rejects_bad_ranges(lo, hi, step):
    # the last three would need more than MAX_GRID_POINTS points
    with pytest.raises(ValueError):
        lambda_grid(lo, hi, step)


def test_sweep_preserves_grid_order():
    grid = [0.0, 0.6, 0.3]
    for rows_fn, row_fn in [(nonmarkov_witness_rows, nonmarkov_witness_row),
                            (extra_dpi_rows, extra_dpi_row), (mqmmi_rows, mqmmi_row)]:
        rows = rows_fn(grid)
        assert [row["lambda"] for row in rows] == grid
        for lam, row in zip(grid, rows):
            assert row == pytest.approx(row_fn(lam), abs=1e-12)


def test_rows_vary_smoothly_on_the_default_grid():
    # entropies of sqrt(lambda) amplitudes have unbounded slope at the
    # endpoints, so adjacent rows there legitimately differ by ~0.26 bits;
    # anything beyond 0.35 would mean a discontinuity, not steepness
    rows = nonmarkov_witness_rows(lambda_grid())
    names = ("DP1", "DP2", "DP3", "DP4", "M4")
    for prev, cur in zip(rows, rows[1:]):
        for name in names:
            assert abs(cur[name] - prev[name]) < 0.35


def test_parallel_map_keeps_item_order():
    assert parallel_map(lambda x: x * x, list(range(20))) == [x * x for x in range(20)]


# ---------------------------------------------------------------------------
# randomized harnesses
# ---------------------------------------------------------------------------

def test_random_markov_process_is_seed_deterministic():
    a = random_markov_process(4, seed=7)
    b = random_markov_process(4, seed=7)
    assert np.array_equal(a.initial.mat, b.initial.mat)
    for ch_a, ch_b in zip(a.channels, b.channels):
        assert all(np.array_equal(ka, kb) for ka, kb in zip(ch_a.kraus, ch_b.kraus))


def test_random_markov_process_takes_per_step_env_dims():
    p = random_markov_process(4, seed=3, d_env=[2, 3, 2])
    assert [len(ch.kraus) for ch in p.channels] == [2, 3, 2]


def test_random_markov_process_guards():
    with pytest.raises(ValueError, match="two states"):
        random_markov_process(1, seed=0)
    with pytest.raises(ValueError, match="environment dims"):
        random_markov_process(4, seed=0, d_env=[2, 2])
    with pytest.raises(ValueError, match="system dimension"):
        random_markov_process(4, seed=0, d_sys=1)
    with pytest.raises(ValueError, match="environment dimensions"):
        random_markov_process(4, seed=0, d_env=[2, 0, 2])


def test_verify_reports_clean_minima_on_markov_samples():
    report = random_markov_verify(4, samples=8, seed=11, certificate_samples=3)
    assert report["steps"] == 4
    assert report["samples"] == 8
    assert set(report["witness_minima"]) == {"DP1", "DP2", "DP3", "DP4", "M4"}
    assert min(report["witness_minima"].values()) >= -1e-9
    assert report["ssa_certificate_min"] >= -1e-12
    assert report["certificate_max_mismatch"] <= 1e-7
    assert report["counterexample_seed"] is None


def test_verify_covers_the_longer_chains():
    six = random_markov_verify(6, samples=3, seed=5, certificate_samples=1)
    assert set(six["witness_minima"]) == {"M6a", "M6b"}
    assert min(six["witness_minima"].values()) >= -1e-9
    eight = random_markov_verify(8, samples=2, seed=5, certificate_samples=1)
    assert set(eight["witness_minima"]) == {f"M8{c}" for c in "abcdefg"}
    assert min(eight["witness_minima"].values()) >= -1e-9


def test_verify_guards():
    with pytest.raises(ValueError, match="steps"):
        random_markov_verify(5, samples=1)
    with pytest.raises(ValueError, match="sample"):
        random_markov_verify(4, samples=0)
    with pytest.raises(ValueError, match="system dimension"):
        random_markov_verify(4, samples=1, dims=(1, 2))
    with pytest.raises(ValueError, match="environment dimensions"):
        random_markov_verify(4, samples=1, dims=(2, 0))
    # 2 * 5**7 * 2 amplitudes; refused before a sample is drawn
    with pytest.raises(ValueError, match="312500 amplitudes"):
        random_markov_verify(8, samples=1, dims=(2, 5))
    # no certified sample would leave the certificate minimum at infinity
    with pytest.raises(ValueError, match="at least one certificate sample"):
        random_markov_verify(4, samples=2, certificate_samples=0)


@pytest.mark.parametrize("check", [adjoint_identity_check, mi_monotonicity_check,
                                   classical_cmmi_check])
def test_side_checks_refuse_an_empty_sample(check):
    with pytest.raises(ValueError, match="at least one sample"):
        check(samples=0)


@pytest.mark.parametrize("n_pairs", [0, -1])
def test_classical_check_refuses_fewer_than_one_pair_before_drawing(monkeypatch, n_pairs):
    draws = _recorded(monkeypatch, "chain_variates")
    with pytest.raises(ValueError, match=f"at least one pair of variables, got n_pairs={n_pairs}"):
        classical_cmmi_check(samples=3, n_pairs=n_pairs)
    assert draws == []


def test_verify_takes_other_dimensions():
    report = random_markov_verify(4, samples=2, dims=(3, 1), seed=2, certificate_samples=1)
    assert min(report["witness_minima"].values()) >= -1e-9
    assert report["certificate_max_mismatch"] <= 1e-7


def test_adjoint_identity_check_is_tight():
    report = adjoint_identity_check(samples=15, seed=2)
    assert report["identity_max_deviation"] <= 1e-12
    assert report["unitality_max_deviation"] <= 1e-10


def test_mi_monotonicity_check_is_nonnegative():
    report = mi_monotonicity_check(samples=25, seed=4)
    assert report["cqmi_monotonicity_min"] >= -1e-9
    assert report["mi_monotonicity_min"] >= -1e-9
    assert report["cmi_min"] >= -1e-9


def test_classical_cmmi_check_is_nonnegative():
    assert classical_cmmi_check(samples=60, seed=9)["classical_cmmi_min"] >= -1e-12
    assert classical_cmmi_check(samples=30, seed=9,
                                n_pairs=3)["classical_cmmi_min"] >= -1e-12


# ---------------------------------------------------------------------------
# the stacked side checks against per-sample loops on the same draws
# ---------------------------------------------------------------------------

BLOCK = experiments.SAMPLE_BLOCK
CHECK_CASES = [(0, 1), (4, BLOCK - 1), (1000, BLOCK + 1), (0, 500)]


def _mi_reference(samples, seed):
    rng = np.random.default_rng(seed)
    cqmi, mi, cmi = [], [], []
    for _ in range(samples):
        rho3 = DensityMatrix(random_density(8, seed=rng).mat, (2, 2, 2))
        ch = random_channel(2, 2, int(rng.integers(2, 5)), rng)
        cqmi.append(cqmi_monotonicity_gap(rho3, ch))
        cmi.append(conditional_mutual_information(rho3, (0,), (1,), (2,)))
        rho2 = DensityMatrix(random_density(4, seed=rng).mat, (2, 2))
        mi.append(mi_dpi_gap(rho2, ch))
    return {"cqmi_monotonicity_min": min(cqmi), "mi_monotonicity_min": min(mi),
            "cmi_min": min(cmi)}


def _adjoint_reference(samples, seed):
    rng = np.random.default_rng(seed)
    id_dev = unital_dev = 0.0
    for _ in range(samples):
        d = int(rng.integers(2, 4))
        d_env = int(rng.integers(2, 5))
        ch = random_channel(d, d, d_env, rng)
        adj = adjoint_channel(ch)
        pair = maximally_entangled(d).density()
        left = apply_to_subsystem(ch, pair, 0)
        right = apply_to_subsystem(adj, pair, 1)
        id_dev = max(id_dev, float(np.abs(left.mat - right.mat).max()))
        one = sum(k @ k.conj().T for k in adj.kraus)
        unital_dev = max(unital_dev, float(np.abs(one - np.eye(d)).max()))
    return {"identity_max_deviation": id_dev, "unitality_max_deviation": unital_dev}


def _classical_reference(samples, seed, n_pairs, dim):
    rng = np.random.default_rng(seed)
    perm = tuple(range(n_pairs, 0, -1))
    return min(cmmi_gap(joint_from_chain(random_chain(2 * n_pairs, dim, rng)), perm)
               for _ in range(samples))


@pytest.mark.parametrize("seed,samples", CHECK_CASES)
def test_mi_monotonicity_check_equals_the_per_sample_gaps(seed, samples):
    got = mi_monotonicity_check(samples=samples, seed=seed)
    want = _mi_reference(samples, seed)
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == pytest.approx(want[name], abs=1e-12), name


@pytest.mark.parametrize("seed,samples", CHECK_CASES)
def test_adjoint_identity_check_equals_the_per_sample_loop(seed, samples):
    got = adjoint_identity_check(samples=samples, seed=seed)
    want = _adjoint_reference(samples, seed)
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == pytest.approx(want[name], abs=1e-12), name


@pytest.mark.parametrize("seed,samples", CHECK_CASES)
@pytest.mark.parametrize("n_pairs,dim", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_classical_cmmi_check_equals_the_per_sample_gaps(seed, samples, n_pairs, dim):
    got = classical_cmmi_check(samples=samples, seed=seed, n_pairs=n_pairs, dim=dim)
    want = _classical_reference(samples, seed, n_pairs, dim)
    assert got["classical_cmmi_min"] == pytest.approx(want, abs=1e-12)


def test_mi_monotonicity_check_takes_one_eigensolve_per_entropy_per_block(monkeypatch):
    # 8 subset entropies for the conditional gaps and 6 for the plain ones,
    # plus the positivity checks of the block's 8x8 and 4x4 draws: each one
    # stacked eigensolve per block, and no per-matrix von_neumann
    per_matrix, stacked = [], []
    real_eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        stacked.append(a.shape)
        return real_eigvalsh(a, *args, **kwargs)

    def refuse(rho):
        per_matrix.append(rho)
        raise AssertionError("per-matrix von_neumann call")

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(states, "von_neumann", refuse)
    monkeypatch.setattr(info, "von_neumann", refuse)
    mi_monotonicity_check(samples=500)
    assert per_matrix == []
    blocks = math.ceil(500 / BLOCK)
    assert len(stacked) == (14 + 2) * blocks
    assert sorted({shape[0] for shape in stacked}) == sorted({BLOCK, 500 % BLOCK})


def test_side_checks_build_no_sample_on_its_own(monkeypatch):
    # no per-sample eigh (the old positivity test), density, Kraus or chain
    # validation: every draw is built and validated with its block
    calls = []

    def count(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "eigh", count("eigh", np.linalg.eigh))
    for module, name in [(states, "density"), (experiments, "density"),
                         (channels, "kraus_channel"), (classical, "classical_chain"),
                         (classical, "joint_pmf")]:
        monkeypatch.setattr(module, name, count(name, getattr(module, name)))
    adjoint_identity_check(samples=BLOCK + 1)
    mi_monotonicity_check(samples=BLOCK + 1)
    classical_cmmi_check(samples=BLOCK + 1)
    assert calls == []


def _recorded(monkeypatch, name):
    """Every value the stacked builder experiments.<name> returns, in order."""
    out, real = [], getattr(experiments, name)

    def recording(*args):
        out.append(real(*args))
        return out[-1]

    monkeypatch.setattr(experiments, name, recording)
    return out


def _grouped(pairs):
    groups = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return [np.stack(values) for values in groups.values()]


def test_adjoint_check_builds_the_per_sample_channels_bit_for_bit(monkeypatch):
    kraus = _recorded(monkeypatch, "dilation_kraus")
    adjoint_identity_check(samples=40, seed=8)
    rng = np.random.default_rng(8)
    pairs = []
    for _ in range(40):
        d, d_env = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        pairs.append(((d, d_env), np.array(random_channel(d, d, d_env, rng).kraus)))
    want = _grouped(pairs)
    # all six (d, d_env) sizes, each group one stacked build
    assert len(kraus) == len(want) == 6
    for got, ops in zip(kraus, want):
        np.testing.assert_array_equal(got, ops)


def test_mi_check_builds_the_per_sample_states_and_channels_bit_for_bit(monkeypatch):
    states_built = _recorded(monkeypatch, "ginibre_densities")
    kraus = _recorded(monkeypatch, "dilation_kraus")
    mi_monotonicity_check(samples=40, seed=9)
    rng = np.random.default_rng(9)
    rho3, rho2, pairs = [], [], []
    for _ in range(40):
        rho3.append(random_density(8, seed=rng).mat)
        d_env = int(rng.integers(2, 5))
        pairs.append((d_env, np.array(random_channel(2, 2, d_env, rng).kraus)))
        rho2.append(random_density(4, seed=rng).mat)
    np.testing.assert_array_equal(states_built[0], np.stack(rho3))
    np.testing.assert_array_equal(states_built[1], np.stack(rho2))
    want = _grouped(pairs)
    assert len(kraus) == len(want) == 3
    for got, ops in zip(kraus, want):
        np.testing.assert_array_equal(got, ops)


@pytest.mark.parametrize("n_pairs,dim", [(2, 2), (3, 3)])
def test_classical_check_builds_the_per_sample_chains_bit_for_bit(monkeypatch, n_pairs, dim):
    chains_built = _recorded(monkeypatch, "dirichlet_chains")
    joints = _recorded(monkeypatch, "joints_from_chains")
    classical_cmmi_check(samples=40, seed=10, n_pairs=n_pairs, dim=dim)
    rng = np.random.default_rng(10)
    chains = [random_chain(2 * n_pairs, dim, rng) for _ in range(40)]
    (init, transitions), = chains_built
    np.testing.assert_array_equal(init, np.stack([c.initial for c in chains]))
    for i, t in enumerate(transitions):
        np.testing.assert_array_equal(t, np.stack([c.transitions[i] for c in chains]))
    np.testing.assert_array_equal(joints[0],
                                  np.stack([joint_from_chain(c).probs for c in chains]))
