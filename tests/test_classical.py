"""Classical joint pmfs, Markov chains, and the permutation monogamy gap."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmonogamy.classical import (chain_stack, classical_chain, classical_cmi, classical_mi,
                                 cmmi_gap, is_markov, joint_from_chain, joint_pmf,
                                 joint_pmf_stack, random_chain, shannon_entropies,
                                 shannon_entropy)
from qmonogamy.witnesses import uncrossing

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _random_pmf(rng, shape):
    p = rng.exponential(size=shape)
    return joint_pmf(p / p.sum())


def test_joint_pmf_validation():
    with pytest.raises(ValueError):
        joint_pmf(np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        joint_pmf(np.array([1.5, -0.5]))
    p = joint_pmf(np.full((2, 2), 0.25))
    assert p.n_vars == 2 and p.dims == (2, 2)
    with pytest.raises(ValueError, match="non-finite"):
        joint_pmf(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        joint_pmf(np.array([1.0, np.inf, 0.0]))


@pytest.mark.parametrize("call,bad", [
    (lambda p: shannon_entropy(p, (3,)), [3]),
    (lambda p: shannon_entropy(p, (-1,)), [-1]),
    (lambda p: shannon_entropies(p.probs[None], (0, 5)), [5]),
    (lambda p: classical_mi(p, (0,), (7,)), [7]),
    (lambda p: classical_cmi(p, (0,), (1,), (9,)), [9]),
], ids=["shannon_entropy", "shannon_entropy negative", "shannon_entropies", "classical_mi",
        "classical_cmi"])
def test_an_out_of_range_variable_is_refused_by_name(call, bad):
    # the marginal over a variable the table lacks used to read as entropy 0
    p = joint_from_chain(random_chain(3, 2, seed=4))
    with pytest.raises(ValueError,
                       match=re.escape(f"variable indices {bad} out of range for 3 variables")):
        call(p)


def test_classical_chain_requires_column_stochastic_transitions():
    t = np.array([[0.9, 0.2], [0.1, 0.8]])
    c = classical_chain(np.array([0.5, 0.5]), [t])
    assert len(c.transitions) == 1
    with pytest.raises(ValueError):
        classical_chain(np.array([0.5, 0.5]), [t.T * 1.1])
    with pytest.raises(ValueError, match="non-finite"):
        classical_chain(np.full(2, np.nan), [np.full((2, 2), np.nan)])
    with pytest.raises(ValueError, match="non-finite"):
        classical_chain(np.array([np.inf, 0.5]), [t])
    with pytest.raises(ValueError, match="non-finite"):
        classical_chain(np.array([0.5, 0.5]), [t, np.array([[np.nan, 0.2], [0.1, 0.8]])])


@pytest.mark.parametrize("how,want", [("nan", "non-finite"),
                                      ("initial", "not a probability vector"),
                                      ("transition", "transition 1 is not column stochastic")])
def test_chain_stack_names_the_failed_invariant_of_one_bad_chain(how, want):
    chains = [random_chain(3, 2, seed=s) for s in range(3)]
    init = np.stack([c.initial for c in chains])
    steps = [np.stack([c.transitions[i] for c in chains]) for i in range(2)]
    chain_stack(init, steps)
    if how == "nan":
        steps[0][1, 0, 0] = np.nan
    elif how == "initial":
        init[1] *= 1.01
    else:
        steps[1][1, :, 0] = [0.7, 0.7]
    with pytest.raises(ValueError, match=want):
        chain_stack(init, steps)
    with pytest.raises(ValueError, match=want):
        classical_chain(init[1], [t[1] for t in steps])


@pytest.mark.parametrize("how,want", [("nan", "non-finite"), ("negative", "negative"),
                                      ("sum", "sum to")])
def test_joint_pmf_stack_names_the_failed_invariant_of_one_bad_table(how, want):
    tables = np.full((3, 2, 2), 0.25)
    np.testing.assert_array_equal(joint_pmf_stack(tables), tables)
    tables[1, 0, 0] = {"nan": np.nan, "negative": -0.25, "sum": 0.3}[how]
    if how == "negative":
        tables[1, 0, 1] = 0.75
    with pytest.raises(ValueError, match=want):
        joint_pmf_stack(tables)
    with pytest.raises(ValueError, match=want):
        joint_pmf(tables[1])


def test_empty_classical_input_is_refused_by_name():
    with pytest.raises(ValueError, match="empty probability table"):
        joint_pmf(np.zeros(0))
    with pytest.raises(ValueError, match="nonempty vector"):
        classical_chain(np.zeros(0), [])
    with pytest.raises(ValueError, match="transition 0 must be a nonempty matrix"):
        classical_chain(np.array([1.0]), [np.zeros((0, 1))])


def test_joint_from_chain_marginals_follow_the_recursion():
    init = np.array([0.3, 0.7])
    t = np.array([[0.9, 0.4], [0.1, 0.6]])
    p = joint_from_chain(classical_chain(init, [t, t]))
    m1 = p.probs.sum(axis=(1, 2))
    np.testing.assert_allclose(m1, init, atol=1e-12)
    m2 = p.probs.sum(axis=(0, 2))
    np.testing.assert_allclose(m2, t @ init, atol=1e-12)
    m3 = p.probs.sum(axis=(0, 1))
    np.testing.assert_allclose(m3, t @ t @ init, atol=1e-12)


@given(seeds)
def test_shannon_entropy_bounds(seed):
    rng = np.random.default_rng(seed)
    p = _random_pmf(rng, (2, 3))
    h = shannon_entropy(p)
    assert -1e-12 <= h <= np.log2(6) + 1e-12
    assert shannon_entropy(p, (0,)) <= np.log2(2) + 1e-12


def test_shannon_entropy_reference_points():
    assert shannon_entropy(joint_pmf(np.array([1.0, 0.0]))) == pytest.approx(0.0)
    assert shannon_entropy(joint_pmf(np.full(8, 0.125))) == pytest.approx(3.0)


@given(seeds)
def test_classical_mi_nonnegative_and_zero_on_products(seed):
    rng = np.random.default_rng(seed)
    p = _random_pmf(rng, (2, 2, 3))
    assert classical_mi(p, (0,), (2,)) >= -1e-12
    a = rng.exponential(size=2)
    b = rng.exponential(size=3)
    prod = joint_pmf(np.einsum("i,j->ij", a / a.sum(), b / b.sum()))
    assert classical_mi(prod, (0,), (1,)) == pytest.approx(0.0, abs=1e-12)


@given(seeds)
@settings(max_examples=60)
def test_classical_cmi_nonnegative(seed):
    rng = np.random.default_rng(seed)
    p = _random_pmf(rng, (2, 2, 2))
    assert classical_cmi(p, (0,), (2,), (1,)) >= -1e-12


def test_is_markov_accepts_chains_and_rejects_copies():
    p = joint_from_chain(random_chain(4, 2, seed=1))
    assert is_markov(p)
    # X3 is a copy of X1, skipping X2: maximally non-Markov
    probs = np.zeros((2, 2, 2))
    for x1, x2 in itertools.product(range(2), range(2)):
        probs[x1, x2, x1] = 0.25
    assert not is_markov(joint_pmf(probs))


@given(seeds)
@settings(max_examples=40)
def test_cmmi_gap_nonnegative_on_markov_chains(seed):
    rng = np.random.default_rng(seed)
    c = random_chain(4, 2, seed=rng)
    assert cmmi_gap(joint_from_chain(c), (2, 1)) >= -1e-12


def test_cmmi_gap_identity_permutation_vanishes():
    p = joint_from_chain(random_chain(6, 2, seed=2))
    assert cmmi_gap(p, (1, 2, 3)) == pytest.approx(0.0, abs=1e-12)


def test_cmmi_gap_all_permutations_small_cases():
    for n, dim in [(2, 2), (2, 3), (3, 2)]:
        p = joint_from_chain(random_chain(2 * n, dim, seed=3))
        for perm in itertools.permutations(range(1, n + 1)):
            assert cmmi_gap(p, perm) >= -1e-12, (n, dim, perm)


def test_cmmi_gap_is_a_sum_of_four_variable_gaps():
    # each uncrossing swap (k, i, j) is the classical M4 gap on the Markov
    # sub-chain rho_k, rho_i, sigma_i, sigma_j (axes n-k, n-i, n+i-1, n+j-1)
    n = 3
    for dim in (2, 3):
        p = joint_from_chain(random_chain(2 * n, dim, seed=5))
        for perm in itertools.permutations(range(1, n + 1)):
            swaps = []
            for k, i, j in uncrossing(perm):
                a, b, c, d = n - k, n - i, n + i - 1, n + j - 1
                swaps.append(classical_mi(p, (b,), (c,)) + classical_mi(p, (a,), (d,))
                             - classical_mi(p, (a,), (c,)) - classical_mi(p, (b,), (d,)))
                assert swaps[-1] >= -1e-12, (dim, perm, k, i, j)
            assert cmmi_gap(p, perm) == pytest.approx(sum(swaps), abs=1e-12), (dim, perm)


def test_cmmi_gap_rejects_odd_chains_and_bad_perms():
    p = joint_from_chain(random_chain(3, 2, seed=4))
    with pytest.raises(ValueError):
        cmmi_gap(p, (1,))
    p = joint_from_chain(random_chain(4, 2, seed=4))
    for bad in [(1, 3), (1, 2, 3), (2.0, 1.0), (np.float64(2), 1)]:
        with pytest.raises(ValueError, match="rearrange"):
            cmmi_gap(p, bad)
    # numpy integers are integers
    assert cmmi_gap(p, tuple(np.array([2, 1]))) == cmmi_gap(p, (2, 1))


def test_random_chain_rejects_empty_variables():
    with pytest.raises(ValueError, match="at least one state"):
        random_chain(2, 0)


def test_random_chain_is_seeded():
    a = joint_from_chain(random_chain(4, 3, seed=9))
    b = joint_from_chain(random_chain(4, 3, seed=9))
    np.testing.assert_array_equal(a.probs, b.probs)
