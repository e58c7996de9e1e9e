"""Sweeps, the lambda example, and the randomized harnesses.

The numeric anchors below were frozen from a standalone entropy
computation (plain numpy, no package imports) so a regression in any
layer of the stack shows up as a mismatch here.
"""

import functools
import itertools
import json
import math

import numpy as np
import pytest

from qmonogamy import (
    adjoint_identity_check,
    chain_coherent_information,
    classical_cmmi_check,
    extra_dpi_row,
    extra_dpi_rows,
    joint_from_chain,
    lambda_grid,
    mi_monotonicity_check,
    mqmmi_row,
    mqmmi_rows,
    nonmarkov_witness_row,
    nonmarkov_witness_rows,
    partial_trace,
    random_chain,
    random_markov_process,
    random_markov_verify,
    u_lambda,
    von_neumann,
    w_state,
)
from qmonogamy import channels, classical, experiments, info, states, witnesses
from qmonogamy.channels import (adjoint_channel, apply_to_subsystem, random_channel,
                                unitary_channel)
from qmonogamy.experiments import gamma_sequence, parallel_map
from qmonogamy.info import conditional_mutual_information
from qmonogamy.classical import cmmi_gap
from qmonogamy.states import DensityMatrix, density, maximally_entangled, random_density
from qmonogamy.witnesses import (MONOGAMY, bond_table, cqmi_monotonicity_gap, mi_dpi_gap,
                                 monogamy_gap, purified_circuit_state, survey_certificates,
                                 survey_witnesses, uncrossing)

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


def test_mqmmi_row_runs_the_circuit_forward_once(monkeypatch):
    # pairs (1,3), (1,4), (2,3), (2,4) in one forward run: 3 steps from the
    # purification at slot 1, 1 step from slot 1 to 2, 2 from the one at slot 2
    calls = []
    original = states._apply_registers

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(states, "_apply_registers", counting)
    mqmmi_row(0.4)
    assert len(calls) == 6
    # the whole grid is one stacked circuit: still one forward run
    calls.clear()
    mqmmi_rows(lambda_grid())
    assert len(calls) == 6


@pytest.mark.parametrize("rows,most", [(nonmarkov_witness_rows, 3), (extra_dpi_rows, 5),
                                       (mqmmi_rows, 2)])
def test_grid_functions_take_as_many_eigensolves_for_101_points_as_for_one(
        rows, most, monkeypatch):
    # one stacked spectra call (states._spectra: closed form for qubits, one
    # eigvalsh otherwise) per matrix size of a state's cuts (and of the bond
    # table), whatever the grid's length
    shapes = []
    real_spectra = states._spectra

    def counting_spectra(a):
        shapes.append(np.shape(a))
        return real_spectra(a)

    monkeypatch.setattr(states, "_spectra", counting_spectra)
    rows([0.4])
    one = len(shapes)
    shapes.clear()
    rows(lambda_grid())
    assert 0 < one <= most and len(shapes) == one
    # a solve stacks several cuts, each over the whole grid
    assert all(shape[0] % 101 == 0 for shape in shapes)


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
    # partial_trace and von_neumann; DP5_markov from Kraus propagation of
    # the Markov process of each lambda
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

        def chain_ic(r, s):
            return chain_coherent_information(density(np.eye(2) / 2), [ch, ch], r, s)

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


def _loop_markov_process(n_states, seed, d_sys, d_env):
    """The per-channel draw loop random_markov_process replaced: one
    generator, random_density, then random_channel per channel."""
    rng = np.random.default_rng(seed)
    initial = random_density(d_sys, seed=rng)
    return initial, [random_channel(d_sys, d_sys, d_env, rng) for _ in range(n_states - 1)]


def test_random_markov_process_is_the_per_channel_loop_bit_for_bit():
    # the seed stream a reported counterexample seed (and the benchmark's
    # per-sample check) rebuilds its process from
    for n, (d_sys, d_env), seed in itertools.product(
            (2, 3, 4, 6, 8, 12), ((2, 1), (2, 2), (2, 3), (3, 2), (4, 1), (2, 4), (5, 3)),
            (0, 1, 17, 12345)):
        p = random_markov_process(n, seed, d_sys, d_env)
        initial, channels = _loop_markov_process(n, seed, d_sys, d_env)
        case = (n, d_sys, d_env, seed)
        assert p.initial.dims == initial.dims and np.array_equal(p.initial.mat, initial.mat), case
        assert len(p.channels) == len(channels) == n - 1, case
        for got, want in zip(p.channels, channels):
            assert (got.d_in, got.d_out) == (want.d_in, want.d_out), case
            assert len(got.kraus) == len(want.kraus) == d_env, case
            assert all(np.array_equal(k, w) for k, w in zip(got.kraus, want.kraus)), case


def test_random_markov_process_guards():
    with pytest.raises(ValueError, match="two states"):
        random_markov_process(1, seed=0)
    with pytest.raises(ValueError, match="system dimension"):
        random_markov_process(4, seed=0, d_sys=1)
    with pytest.raises(ValueError, match="environment dimensions"):
        random_markov_process(4, seed=0, d_env=0)
    # one environment dimension for every channel
    with pytest.raises(ValueError, match="environment dimension must be an integer"):
        random_markov_process(4, seed=0, d_env=[2, 3, 2])


@pytest.mark.parametrize("harness,kwargs,reason", [
    (random_markov_process, {"n_states": 4, "seed": 0, "d_sys": 1}, "system dimension"),
    (random_markov_process, {"n_states": 4, "seed": 0, "d_env": 0}, "environment dimensions"),
    (random_markov_process, {"n_states": 4.0, "seed": 0}, "n_states must be an integer"),
    (random_markov_process, {"n_states": 4, "seed": 0, "d_sys": 2.0},
     "system dimension must be an integer"),
    (random_markov_process, {"n_states": 4, "seed": 0, "d_env": 2.0},
     "environment dimension must be an integer"),
    (random_markov_verify, {"steps": 4, "samples": 1, "dims": (1, 2)}, "system dimension"),
    (random_markov_verify, {"steps": 4, "samples": 1, "dims": (2, 0)},
     "environment dimensions"),
    (random_markov_verify, {"steps": 4, "samples": 1, "dims": (2, 2, 2)},
     "an environment dimension, got"),
], ids=["process d_sys", "process d_env", "process float n_states", "process float d_sys",
        "process float d_env", "verify d_sys", "verify d_env", "verify three dims"])
def test_bad_dimensions_are_refused_before_a_generator_is_made(harness, kwargs, reason,
                                                               monkeypatch):
    def no_generator(*args, **kwargs):
        raise AssertionError("a generator was made before the dimensions were checked")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    with pytest.raises(ValueError, match=reason):
        harness(**kwargs)


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
    # Haar unitaries of 130**2 entries; refused before a sample is drawn
    with pytest.raises(ValueError, match="16900 entries"):
        random_markov_verify(4, samples=1, dims=(2, 65))
    # unitaries of 144 entries, but bond joints of 12**4
    with pytest.raises(ValueError, match="20736 entries"):
        random_markov_verify(4, samples=1, dims=(12, 1))
    # no certified sample would leave the certificate minimum at infinity
    with pytest.raises(ValueError, match="at least one certificate sample"):
        random_markov_verify(4, samples=2, certificate_samples=0)


@pytest.mark.parametrize("harness,kwargs,name", [
    (random_markov_verify, {"steps": 4, "samples": 1.5}, "samples"),
    (random_markov_verify, {"steps": 4, "samples": 2, "certificate_samples": 1.5},
     "certificate_samples"),
    (random_markov_verify, {"steps": 4.0, "samples": 2}, "steps"),
    (random_markov_verify, {"steps": 4, "samples": 2, "dims": (2.0, 2)}, "system dimension"),
    (random_markov_verify, {"steps": 4, "samples": 2, "dims": (2, 2.0)},
     "environment dimension"),
    (random_markov_verify, {"steps": 4, "samples": True}, "samples"),
    (adjoint_identity_check, {"samples": 2.5}, "samples"),
    (mi_monotonicity_check, {"samples": 2.5}, "samples"),
    (classical_cmmi_check, {"samples": 2.5}, "samples"),
    (classical_cmmi_check, {"samples": 3, "n_pairs": 1.5}, "n_pairs"),
    (classical_cmmi_check, {"samples": 3, "dim": 2.0}, "dim"),
    (random_markov_verify, {"steps": 4, "samples": 2, "seed": 1.5}, "seed"),
    (adjoint_identity_check, {"samples": 2, "seed": 1.5}, "seed"),
    (mi_monotonicity_check, {"samples": 2, "seed": 1.5}, "seed"),
    (classical_cmmi_check, {"samples": 2, "seed": 1.5}, "seed"),
])
def test_harnesses_refuse_a_non_integer_count_by_name(harness, kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        harness(**kwargs)


@pytest.mark.parametrize("harness,kwargs", [
    (random_markov_verify, {"steps": 4, "samples": 2}),
    (adjoint_identity_check, {"samples": 2}),
    (mi_monotonicity_check, {"samples": 2}),
    (classical_cmmi_check, {"samples": 2}),
    (random_markov_process, {"n_states": 4}),
])
def test_harnesses_refuse_a_negative_seed_by_name_before_drawing(monkeypatch, harness,
                                                                  kwargs):
    generators = []
    monkeypatch.setattr(np.random, "default_rng", lambda *args: generators.append(args))
    with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got -1$"):
        harness(seed=-1, **kwargs)
    assert generators == []


def test_harnesses_take_numpy_integers():
    report = random_markov_verify(np.int64(4), np.int64(2), seed=1,
                                  certificate_samples=np.int64(1))
    assert report["counterexample_seed"] is None
    p = random_markov_process(np.int64(4), np.int64(0), np.int64(2), np.int64(2))
    q = random_markov_process(4, 0, 2, 2)
    assert np.array_equal(p.initial.mat, q.initial.mat)
    assert all(np.array_equal(k, w) for a, b in zip(p.channels, q.channels)
               for k, w in zip(a.kraus, b.kraus))
    assert classical_cmmi_check(samples=np.int32(3), n_pairs=np.int64(2),
                                dim=np.int64(2))["classical_cmmi_min"] >= -1e-12


def test_classical_check_refuses_a_chain_without_states_before_drawing(monkeypatch):
    draws = _recorded(monkeypatch, "chain_variates")
    with pytest.raises(ValueError, match="at least one state per variable, got dim=0"):
        classical_cmmi_check(samples=3, dim=0)
    assert draws == []


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
# the stacked witness survey against the circuit and Kraus references
# ---------------------------------------------------------------------------

def _witnesses_of(ic, steps):
    """The survey's witnesses at `steps` states from Ic(r:s) = ic(r, s)."""
    entries = {}
    if steps == 4:
        entries = {"DP1": ic(1, 2) - ic(1, 3), "DP2": ic(1, 2) - ic(1, 4),
                   "DP3": ic(1, 3) - ic(1, 4), "DP4": ic(2, 3) - ic(2, 4)}
    return entries | {name: monogamy_gap(ic, f) for name, f in MONOGAMY[steps].items()}


def _circuit_reference(steps, seed, dims):
    """The survey's witnesses and certificates of random_markov_process(steps,
    seed, *dims), from register entropies of its purified circuit; each
    certificate is the sum of the conditional mutual informations of
    environment intervals that uncrossing names."""
    circuit = purified_circuit_state(random_markov_process(steps, seed, *dims))

    def envs(a, b):
        return tuple(f"E{e}" for e in range(a, b))

    def ic(r, s):
        return circuit.entropy(("R",) + envs(1, s)) - circuit.entropy(envs(r, s))

    n = steps // 2
    certs = {name: sum(conditional_mutual_information(
        circuit, envs(n + 1 - k, n + 1 - i), envs(n + i, n + j), envs(n + 1 - i, n + i))
        for k, i, j in uncrossing(f)) for name, f in MONOGAMY[steps].items()}
    return _witnesses_of(ic, steps), certs


def _chain_reference(steps, seed, dims):
    """The survey's witnesses of random_markov_process(steps, seed, *dims)
    from info.chain_coherent_information, which builds no circuit; each
    certificate equals its witness."""
    p = random_markov_process(steps, seed, *dims)

    @functools.cache
    def ic(r, s):
        return chain_coherent_information(p.initial, list(p.channels), r, s)

    return _witnesses_of(ic, steps)


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3), (3, 1), (2, 1)])
@pytest.mark.parametrize("steps", [4, 6, 8])
def test_survey_stack_matches_the_circuit_and_kraus_references_sample_by_sample(
        steps, dims):
    # both references: register entropies of the purified circuit, and Kraus
    # propagation of the states; d_sys = 3 takes the survey through a 9 x 9
    # bond joint
    seed, size = 30 + steps, 2 if dims == (2, 3) and steps == 8 else 3
    table = bond_table(*experiments._survey_draws(steps, seed, size, *dims))
    assert table.prefix.shape == (steps + 1, size)
    assert table.interval.shape == (steps + 1, steps + 1, size)
    entries = survey_witnesses(table, steps)
    certs = survey_certificates(table, steps)
    for b in range(size):
        want, want_certs = _circuit_reference(steps, seed + b, dims)
        chain = _chain_reference(steps, seed + b, dims)
        assert list(entries) == list(want) == list(chain)
        assert list(certs) == list(want_certs)
        for name, value in want.items():
            assert entries[name][b] == pytest.approx(value, abs=1e-12), (b, name)
            assert entries[name][b] == pytest.approx(chain[name], abs=1e-12), (b, name)
        for name, value in want_certs.items():
            assert certs[name][b] == pytest.approx(value, abs=1e-12), (b, name)
            assert certs[name][b] == pytest.approx(chain[name], abs=1e-12), (b, name)


def _survey_reference(steps, samples, seed, certificate_samples, dims=(2, 2)):
    """random_markov_verify's report, from each sample's purified circuit."""
    minima, cert_min, mismatch, counterexample = {}, math.inf, 0.0, None
    for i in range(samples):
        entries, certs = _circuit_reference(steps, seed + i, dims)
        for name, value in entries.items():
            minima[name] = min(minima.get(name, math.inf), value)
        if counterexample is None and min(entries.values()) < -1e-9:
            counterexample = seed + i
        if i < certificate_samples:
            cert_min = min(cert_min, min(certs.values()))
            mismatch = max(mismatch, max(abs(entries[k] - certs[k]) for k in certs))
    return {"steps": steps, "samples": samples, "seed": seed, "witness_minima": minima,
            "ssa_certificate_min": cert_min, "certificate_max_mismatch": mismatch,
            "counterexample_seed": counterexample}


def _assert_same_report(got, want):
    assert got.keys() == want.keys()
    assert (got["steps"], got["samples"], got["seed"], got["counterexample_seed"]) == (
        want["steps"], want["samples"], want["seed"], want["counterexample_seed"])
    assert list(got["witness_minima"]) == list(want["witness_minima"])
    for name, value in want["witness_minima"].items():
        assert got["witness_minima"][name] == pytest.approx(value, abs=1e-12), name
    assert got["ssa_certificate_min"] == pytest.approx(want["ssa_certificate_min"], abs=1e-12)
    assert got["certificate_max_mismatch"] <= 1e-12


def _survey_blocks_of(monkeypatch, samples, steps, dims=(2, 2)):
    """Set BLOCK_BYTES so that the survey runs blocks of `samples` samples."""
    entries = experiments._survey_entries(steps, *dims)
    monkeypatch.setattr(experiments, "BLOCK_BYTES",
                        samples * experiments.SURVEY_ENTRY_BYTES * entries)


def test_survey_in_blocks_of_four_matches_the_per_sample_report(monkeypatch):
    # blocks of 4 samples, so 10 samples end in a partial block and
    # certificates stop inside a block
    _survey_blocks_of(monkeypatch, 4, steps=4)
    cert_minima = []
    for certificate_samples in range(1, 11):
        got = random_markov_verify(4, 10, seed=70, certificate_samples=certificate_samples)
        want = _survey_reference(4, 10, 70, certificate_samples)
        _assert_same_report(got, want)
        cert_minima.append(want["ssa_certificate_min"])
    # the certified set matters: its minimum moves as it grows
    assert len(set(cert_minima)) > 1


@pytest.mark.parametrize("steps,samples", [(6, 7), (8, 5)])
def test_survey_in_partial_blocks_matches_the_per_sample_report(monkeypatch, steps, samples):
    _survey_blocks_of(monkeypatch, 3, steps)
    got = random_markov_verify(steps, samples, seed=90, certificate_samples=4)
    _assert_same_report(got, _survey_reference(steps, samples, 90, 4))


def test_survey_reports_the_first_failing_sample(monkeypatch):
    # plant a failure in sample 9 (third block of four, a larger one) and in
    # sample 6 (second block); the counterexample is the earlier sample
    _survey_blocks_of(monkeypatch, 4, steps=4)
    planted = {6: ("DP3", 2e-9), 9: ("M4", 1.0)}
    starts = iter(range(0, 12, 4))
    real = experiments.survey_witnesses

    def planting(table, steps):
        entries = {k: np.array(v) for k, v in real(table, steps).items()}
        start = next(starts)
        for i, (name, depth) in planted.items():
            if start <= i < start + table.prefix.shape[-1]:
                entries[name][i - start] = -depth
        return entries

    monkeypatch.setattr(experiments, "survey_witnesses", planting)
    report = random_markov_verify(4, 11, seed=500)
    assert report["counterexample_seed"] == 506
    assert report["witness_minima"]["M4"] == -1.0
    assert report["witness_minima"]["DP3"] == -2e-9


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("steps", [4, 6, 8])
def test_survey_reports_do_not_depend_on_the_block_size(monkeypatch, steps, dims):
    # every report number is an array reduction over exact per-sample values,
    # so blocks of 1, of 7 and the default block give the same bytes
    def report():
        return json.dumps(random_markov_verify(steps, 15, dims=dims, seed=8,
                                               certificate_samples=10))

    default = report()
    for block in (1, 7):
        _survey_blocks_of(monkeypatch, block, steps, dims)
        assert report() == default, block


def _poisoned(monkeypatch, name, planted):
    """Replace experiments.<name> (survey_witnesses or survey_certificates) by
    one that sets entry `entry` of sample `i` (counted over the whole survey)
    to NaN, for each (entry, i) in planted."""
    real, start = getattr(experiments, name), [0]

    def poisoning(table, steps):
        values = {k: np.array(v) for k, v in real(table, steps).items()}
        size = table.prefix.shape[-1]
        for entry, i in planted:
            if start[0] <= i < start[0] + size:
                values[entry][i - start[0]] = np.nan
        start[0] += size
        return values

    monkeypatch.setattr(experiments, name, poisoning)


@pytest.mark.parametrize("name,kind", [("survey_witnesses", "witness"),
                                       ("survey_certificates", "certificate")])
def test_a_nan_in_the_survey_is_refused_by_entry_and_sample_seed(monkeypatch, name, kind):
    # blocks of 4; the NaNs sit in the second block, and the earlier sample
    # is named even though its entry comes later
    _survey_blocks_of(monkeypatch, 4, steps=6)
    _poisoned(monkeypatch, name, [("M6a", 7), ("M6b", 6)])
    with pytest.raises(ValueError, match=f"^{kind} M6b is nan at sample seed 106$"):
        random_markov_verify(6, 10, seed=100)


def test_a_nan_past_the_certified_samples_is_not_read(monkeypatch):
    # certificates are read for the first certificate_samples samples only
    for certified in (5, 6):
        monkeypatch.undo()
        _survey_blocks_of(monkeypatch, 4, steps=4)
        _poisoned(monkeypatch, "survey_certificates", [("M4", 5)])
        if certified == 5:
            report = random_markov_verify(4, 8, seed=3, certificate_samples=certified)
            assert report["ssa_certificate_min"] >= 0.0
        else:
            with pytest.raises(ValueError, match="^certificate M4 is nan at sample seed 8$"):
                random_markov_verify(4, 8, seed=3, certificate_samples=certified)


def test_a_nan_in_a_side_check_is_refused_by_entry_and_sample(monkeypatch):
    # the MI check's second block (samples 64..99): a NaN H(A, C) of sample 69
    # reaches the conditional mutual information alone.  H(A, C) heads the
    # block's one stack of 4x4 marginals
    real, blocks = experiments.von_neumann_stack, []

    def poisoning(mats):
        h = real(mats)
        if mats.shape[-1] == 4:
            blocks.append(len(h[0]))
            if len(blocks) == 2:
                h[0][5] = np.nan
        return h

    monkeypatch.setattr(experiments, "von_neumann_stack", poisoning)
    with pytest.raises(ValueError, match="^MI check cmi is nan at sample 69 of seed 4$"):
        mi_monotonicity_check(samples=100, seed=4)
    assert blocks == [64, 36]


def test_a_nan_in_the_classical_check_is_refused_by_sample(monkeypatch):
    real = experiments.cmmi_gap

    def poisoning(p, perm):
        gaps = real(p, perm)
        gaps[2] = np.nan
        return gaps

    monkeypatch.setattr(experiments, "cmmi_gap", poisoning)
    with pytest.raises(ValueError,
                       match="^classical check classical_cmmi is nan at sample 2 of seed 0$"):
        classical_cmmi_check(samples=10)


def test_survey_eigensolves_do_not_grow_with_the_sample_count(monkeypatch):
    # the bond table of a whole block takes two stacked eigensolves, the
    # states' and every channel's joints at once; blocks of 40 samples of
    # 8 qubit steps make 10 and 40 samples one block each
    _survey_blocks_of(monkeypatch, 40, steps=8)
    calls = []
    real = witnesses.von_neumann_stack
    monkeypatch.setattr(witnesses, "von_neumann_stack",
                        lambda mats: calls.append(mats.shape[0]) or real(mats))
    random_markov_verify(8, 10)
    ten = len(calls)
    calls.clear()
    random_markov_verify(8, 40)
    assert ten > 0 and len(calls) == ten
    assert set(calls) == {40}


def test_the_survey_builds_no_register(monkeypatch):
    """Every survey entropy goes through the system bond: no purified
    circuit, no register marginal, no eigensolve larger than d_sys^2, and
    four eigensolves per block at every step count and environment: the
    initial states' spectra, the states' entropies, their purifications
    and the joints of every channel at once."""
    def refuse(*args, **kwargs):
        raise AssertionError("the survey built a register")

    monkeypatch.setattr(states.PureState, "reduced", refuse)
    monkeypatch.setattr(witnesses, "purified_circuit_state", refuse)
    sides = []
    # every spectrum goes through states._spectra (qubits in closed form),
    # and purify's eigenvectors through eigh
    for module, name in ((np.linalg, "eigh"), (states, "_spectra")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda m, *a, _real=real, **k: (
            sides.append(m.shape[-1]) or _real(m, *a, **k)))
    report = random_markov_verify(8, 3, dims=(2, 3))
    assert report["counterexample_seed"] is None
    assert min(report["witness_minima"].values()) >= -1e-9
    assert sides and max(sides) <= 4
    for steps in (4, 6, 8):
        for d_env in (2, 3):
            # blocks of 5 samples, so 12 samples are three blocks
            _survey_blocks_of(monkeypatch, 5, steps, (2, d_env))
            sides.clear()
            random_markov_verify(steps, 12, dims=(2, d_env))
            assert len(sides) == 3 * 4, (steps, d_env)
            assert max(sides) <= 4
    sides.clear()
    random_markov_verify(8, 3, dims=(3, 2))
    assert max(sides) == 9


# ---------------------------------------------------------------------------
# the side checks' outputs, frozen
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed,want", [
    (0, {"cqmi_monotonicity_min": 0.07293068960269333,
         "mi_monotonicity_min": 0.034132778330733915, "cmi_min": 0.23060434682754982}),
    (1000, {"cqmi_monotonicity_min": 0.07295317436186077,
            "mi_monotonicity_min": 0.02059572009718247, "cmi_min": 0.20206661668738735}),
])
def test_mi_monotonicity_check_frozen_values(seed, want):
    got = mi_monotonicity_check(seed=seed)
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert got[name] == pytest.approx(value, abs=1e-12), name


@pytest.mark.parametrize("seed,n_pairs,dim,want", [
    (0, 2, 2, 9.329706074368005e-08),
    (1000, 2, 2, 3.831139638421632e-06),
    (7, 3, 3, 0.007860656706860425),
])
def test_classical_cmmi_check_frozen_values(seed, n_pairs, dim, want):
    # the same variates as drawn one chain at a time, so the same bits
    assert classical_cmmi_check(seed=seed, n_pairs=n_pairs, dim=dim) == {
        "classical_cmmi_min": want}


# ---------------------------------------------------------------------------
# the stacked side checks against per-sample loops on the same draws
# ---------------------------------------------------------------------------

MI_BLOCK = experiments._block_size(experiments.MI_SAMPLE_BYTES)
ADJOINT_BLOCK = experiments._block_size(experiments.ADJOINT_SAMPLE_BYTES)


def _classical_block(n_pairs, dim):
    return experiments._block_size(experiments.CLASSICAL_ENTRY_BYTES * dim ** (2 * n_pairs))


def _check_cases(block):
    """One sample, one short of the check's block, one past it, and 500."""
    return [(0, 1), (4, block - 1), (1000, block + 1), (0, 500)]


CLASSICAL_SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3)]


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
    """The check's minimum read two ways, one sample at a time: cmmi_gap of
    the sample's one table, and the Markov-chain identity of cmmi_gap's
    docstring, which reads no mutual information and no pairing: a sum over
    the uncrossing swaps of I(b:c|d) - I(a:c|d) on the sub-chain a, b, c, d
    (rho_k, rho_i, sigma_i, sigma_j at axes n-k, n-i, n+i-1, n+j-1)."""
    rng = np.random.default_rng(seed)
    n = n_pairs
    perm = tuple(range(n, 0, -1))
    chains = [(n - k, n - i, n + i - 1, n + j - 1) for k, i, j in uncrossing(perm)]
    gaps, identities = [], []
    for _ in range(samples):
        p = joint_from_chain(random_chain(2 * n, dim, rng))
        gaps.append(cmmi_gap(p, perm))
        identities.append(sum(conditional_mutual_information(p, (b,), (c,), (d,))
                              - conditional_mutual_information(p, (a,), (c,), (d,))
                              for a, b, c, d in chains))
    return min(gaps), min(identities)


@pytest.mark.parametrize("seed,samples", _check_cases(MI_BLOCK))
def test_mi_monotonicity_check_equals_the_per_sample_gaps(seed, samples):
    got = mi_monotonicity_check(samples=samples, seed=seed)
    want = _mi_reference(samples, seed)
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == pytest.approx(want[name], abs=1e-12), name


@pytest.mark.parametrize("seed,samples", _check_cases(ADJOINT_BLOCK))
def test_adjoint_identity_check_equals_the_per_sample_loop(seed, samples):
    got = adjoint_identity_check(samples=samples, seed=seed)
    want = _adjoint_reference(samples, seed)
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == pytest.approx(want[name], abs=1e-12), name


@pytest.mark.parametrize("seed,samples,n_pairs,dim", [
    case + shape for shape in CLASSICAL_SHAPES for case in _check_cases(_classical_block(*shape))])
def test_classical_cmmi_check_equals_the_per_sample_gaps(seed, samples, n_pairs, dim):
    got = classical_cmmi_check(samples=samples, seed=seed, n_pairs=n_pairs, dim=dim)
    gaps, identities = _classical_reference(samples, seed, n_pairs, dim)
    assert got["classical_cmmi_min"] == pytest.approx(gaps, abs=1e-12)
    assert got["classical_cmmi_min"] == pytest.approx(identities, abs=1e-12)


def test_mi_monotonicity_check_takes_one_eigensolve_per_entropy_per_block(monkeypatch):
    # per block: the positivity checks of the 8x8 and 4x4 draws, whose spectra
    # also give H(ABC) and H(AB), then one stacked eigensolve per marginal
    # size: H(AB'C) at 8; H(AC), H(BC), H(B'C), H(AB') at 4; H(C), H(B), H(B')
    # at 2.  The entropies the channel on B leaves alone are not taken again,
    # and none through a per-matrix von_neumann.  A solve is one
    # states._spectra call (the 2x2 one in closed form), recorded as
    # (matrices, d, d)
    per_matrix, stacked = [], []
    real_spectra = states._spectra

    def counting_spectra(a):
        stacked.append((math.prod(a.shape[:-2]),) + a.shape[-2:])
        return real_spectra(a)

    def refuse(rho):
        per_matrix.append(rho)
        raise AssertionError("per-matrix von_neumann call")

    monkeypatch.setattr(states, "_spectra", counting_spectra)
    monkeypatch.setattr(states, "von_neumann", refuse)
    monkeypatch.setattr(info, "von_neumann", refuse)
    mi_monotonicity_check(samples=500)
    assert per_matrix == []
    sizes = [min(MI_BLOCK, 500 - start) for start in range(0, 500, MI_BLOCK)]
    want = [(per_sample * n, d, d) for n in sizes
            for per_sample, d in [(1, 8), (1, 4), (1, 8), (4, 4), (3, 2)]]
    assert sorted(stacked) == sorted(want)
    assert len(stacked) == 5 * len(sizes)
    assert sum(shape[0] for shape in stacked) == 10 * 500


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
    # states.density is the one binding of density the checks could reach
    for module, name in [(states, "density"), (channels, "kraus_channel"),
                         (classical, "classical_chain"), (classical, "joint_pmf")]:
        monkeypatch.setattr(module, name, count(name, getattr(module, name)))
    adjoint_identity_check(samples=ADJOINT_BLOCK + 1)
    mi_monotonicity_check(samples=MI_BLOCK + 1)
    classical_cmmi_check(samples=_classical_block(2, 2) + 1)
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
    kraus = _recorded(monkeypatch, "haar_kraus")
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
    states_built = _recorded(monkeypatch, "ginibre_spectra")
    kraus = _recorded(monkeypatch, "haar_kraus")
    mi_monotonicity_check(samples=40, seed=9)
    rng = np.random.default_rng(9)
    rho3, rho2, pairs = [], [], []
    for _ in range(40):
        rho3.append(random_density(8, seed=rng).mat)
        d_env = int(rng.integers(2, 5))
        pairs.append((d_env, np.array(random_channel(2, 2, d_env, rng).kraus)))
        rho2.append(random_density(4, seed=rng).mat)
    np.testing.assert_array_equal(states_built[0][0], np.stack(rho3))
    np.testing.assert_array_equal(states_built[1][0], np.stack(rho2))
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
