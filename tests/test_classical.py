"""Classical joint pmfs, Markov chains, and the permutation monogamy gap."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmonogamy.classical import (JointPMF, chain_stack, chain_variates, classical_chain,
                                 cmmi_gap, dirichlet_chains, is_markov, joint_from_chain,
                                 joint_pmf, joint_pmf_stack, joints_from_chains, random_chain)
from qmonogamy.info import conditional_mutual_information, mutual_information
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
    assert p.n_vars == 2 and p.dims == (2, 2) and p.batch == ()
    with pytest.raises(ValueError, match="non-finite"):
        joint_pmf(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        joint_pmf(np.array([1.0, np.inf, 0.0]))


@pytest.mark.parametrize("call,bad", [
    (lambda p: p.entropies((3,)), [3]),
    (lambda p: p.entropies((-1,)), [-1]),
    (lambda p: JointPMF(p.probs[None], 3).entropies((0, 5)), [5]),
    (lambda p: mutual_information(p, (0,), (7,)), [7]),
    (lambda p: conditional_mutual_information(p, (0,), (1,), (9,)), [9]),
], ids=["entropies", "entropies negative", "stacked entropies",
        "mutual_information", "conditional_mutual_information"])
def test_an_out_of_range_variable_is_refused_by_name(call, bad):
    # the marginal over a variable the table lacks used to read as entropy 0
    p = joint_from_chain(random_chain(3, 2, seed=4))
    with pytest.raises(ValueError,
                       match=re.escape(f"variable index {bad[0]} out of range 0..2")):
        call(p)


def test_every_slice_of_a_stacked_table_reads_as_the_one_table():
    rng = np.random.default_rng(8)
    x = rng.exponential(size=(2, 3, 2, 3, 2))
    probs = x / x.sum(axis=(2, 3, 4), keepdims=True)
    stacked = JointPMF(probs, 3)
    assert stacked.batch == (2, 3) and stacked.dims == (2, 3, 2)
    subsets = [s for k in range(4) for s in itertools.combinations(range(3), k)]
    values = stacked.entropies(*subsets)
    assert all(isinstance(h, np.ndarray) and h.shape == (2, 3) for h in values)
    np.testing.assert_array_equal(values[0], np.zeros((2, 3)))
    for i, j in itertools.product(range(2), range(3)):
        one = JointPMF(probs[i, j]).entropies(*subsets)
        assert all(type(h) is float for h in one)
        assert one[0] == 0.0
        assert [h[i, j] for h in values] == one, (i, j)


def _chain_joints(n_pairs, dim, size, seed):
    return joints_from_chains(*dirichlet_chains(*chain_variates(
        np.random.default_rng(seed), 2 * n_pairs, dim, size)))


@pytest.mark.parametrize("n_pairs,dim", [(2, 2), (3, 3)])
def test_joints_from_chains_keep_the_stack_innermost(n_pairs, dim):
    probs = _chain_joints(n_pairs, dim, 5, seed=3)
    assert probs.shape == (5,) + (dim,) * (2 * n_pairs)
    assert probs.strides[0] == probs.itemsize


@pytest.mark.parametrize("n_pairs,dim", [(2, 2), (3, 3)])
def test_stacked_entropies_do_not_depend_on_the_layout(n_pairs, dim):
    # the two layouts add each marginal in another order, so they agree to
    # round-off (measured: 1.3e-15 on 2-pair binary stacks, 2.1e-14 on
    # 3-pair ternary ones), far below any read of a wrong axis
    n_vars = 2 * n_pairs
    inner = _chain_joints(n_pairs, dim, 300, seed=4)
    outer = np.ascontiguousarray(inner)
    assert outer.strides[0] == outer[0].nbytes
    subsets = [s for k in range(n_vars + 1) for s in itertools.combinations(range(n_vars), k)]
    from_inner = JointPMF(inner, n_vars).entropies(*subsets)
    from_outer = JointPMF(outer, n_vars).entropies(*subsets)
    for h_inner, h_outer in zip(from_inner, from_outer):
        np.testing.assert_allclose(h_inner, h_outer, rtol=0, atol=1e-13)
    for k in range(0, 300, 37):
        one = JointPMF(outer[k]).entropies(*subsets)
        for stacked in (from_inner, from_outer):
            np.testing.assert_allclose([h[k] for h in stacked], one, rtol=0, atol=1e-13)

@pytest.mark.parametrize("n_vars", [4, -1, 2.0, True])
def test_a_variable_count_the_table_cannot_hold_is_refused_by_name(n_vars):
    with pytest.raises(ValueError, match="n_vars"):
        JointPMF(np.full((2, 2, 2), 0.125), n_vars)


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


def test_both_validators_clip_negative_round_off_to_zero():
    # -1e-17 is round-off, well inside INVARIANT_TOL
    np.testing.assert_array_equal(joint_pmf(np.array([-1e-17, 1.0])).probs, [0.0, 1.0])
    init, steps = chain_stack(np.array([[-1e-17, 1.0]]), [np.array([[[1.0, -1e-17],
                                                                     [0.0, 1.0]]])])
    np.testing.assert_array_equal(init, [[0.0, 1.0]])
    np.testing.assert_array_equal(steps[0], [[[1.0, 0.0], [0.0, 1.0]]])
    chain = classical_chain(np.array([-1e-17, 1.0]), [np.eye(2)])
    np.testing.assert_array_equal(chain.initial, [0.0, 1.0])


def test_both_validators_refuse_a_negative_entry_past_the_tolerance():
    # -1e-6 is a real negative entry; each table still sums to 1
    with pytest.raises(ValueError, match="negative probability"):
        joint_pmf(np.array([-1e-6, 1.0 + 1e-6]))
    with pytest.raises(ValueError, match="not a probability vector"):
        classical_chain(np.array([-1e-6, 1.0 + 1e-6]), [np.eye(2)])
    with pytest.raises(ValueError, match="transition 0 is not column stochastic"):
        classical_chain(np.array([0.5, 0.5]), [np.array([[1.0, -1e-6], [0.0, 1.0 + 1e-6]])])


@pytest.mark.parametrize("subset,odd", [
    ((0.5,), [0.5]), ((True,), [True]), ((0, np.True_), [np.True_]), ((1.0,), [1.0]),
], ids=["half", "bool", "numpy bool", "integral float"])
def test_a_non_integer_variable_index_is_refused_by_name(subset, odd):
    # 0.5 matched no axis and read as the entropy of no variable; True read as 1
    p = joint_from_chain(random_chain(3, 2, seed=4))
    with pytest.raises(ValueError, match=re.escape(
            f"variable index must be an integer, got {odd[0]!r}")):
        p.entropies(subset)
    with pytest.raises(ValueError, match="must be an integer"):
        JointPMF(p.probs[None], 3).entropies(subset)


def test_numpy_integer_variable_indices_are_accepted():
    p = joint_from_chain(random_chain(3, 2, seed=4))
    assert p.entropies((np.int64(0), np.intp(2))) == p.entropies((0, 2))


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
    h, h0 = p.entropies((0, 1), (0,))
    assert -1e-12 <= h <= np.log2(6) + 1e-12
    assert h0 <= np.log2(2) + 1e-12


def test_shannon_entropy_reference_points():
    assert joint_pmf(np.array([1.0, 0.0])).entropies((0,)) == [pytest.approx(0.0)]
    assert joint_pmf(np.full(8, 0.125)).entropies((0,)) == [pytest.approx(3.0)]


@given(seeds)
def test_classical_mi_nonnegative_and_zero_on_products(seed):
    rng = np.random.default_rng(seed)
    p = _random_pmf(rng, (2, 2, 3))
    assert mutual_information(p, (0,), (2,)) >= -1e-12
    a = rng.exponential(size=2)
    b = rng.exponential(size=3)
    prod = joint_pmf(np.einsum("i,j->ij", a / a.sum(), b / b.sum()))
    assert mutual_information(prod, (0,), (1,)) == pytest.approx(0.0, abs=1e-12)


@given(seeds)
@settings(max_examples=60)
def test_classical_cmi_nonnegative(seed):
    rng = np.random.default_rng(seed)
    p = _random_pmf(rng, (2, 2, 2))
    assert conditional_mutual_information(p, (0,), (2,), (1,)) >= -1e-12


def test_is_markov_accepts_chains_and_rejects_copies():
    p = joint_from_chain(random_chain(4, 2, seed=1))
    assert is_markov(p)
    # X3 is a copy of X1, skipping X2: maximally non-Markov
    probs = np.zeros((2, 2, 2))
    for x1, x2 in itertools.product(range(2), range(2)):
        probs[x1, x2, x1] = 0.25
    assert not is_markov(joint_pmf(probs))


def test_is_markov_refuses_a_stack_by_name():
    # a stack used to end in numpy's "truth value of an array is ambiguous"
    tables = np.stack([joint_from_chain(random_chain(3, 2, seed=s)).probs for s in range(3)])
    with pytest.raises(ValueError, match=re.escape(
            "is_markov reads one table, got a batch of shape (3,)")):
        is_markov(JointPMF(tables, 3))
    assert all(is_markov(JointPMF(t)) for t in tables)


@pytest.mark.parametrize("n", [2, 3])
def test_every_slice_of_a_stacked_cmmi_gap_is_the_one_table_gap(n):
    tables = np.stack([joint_from_chain(random_chain(2 * n, 2, seed=s)).probs
                       for s in range(6)]).reshape((2, 3) + (2,) * (2 * n))
    for perm in itertools.permutations(range(1, n + 1)):
        gaps = cmmi_gap(JointPMF(tables, 2 * n), perm)
        assert gaps.shape == (2, 3)
        for i, j in itertools.product(range(2), range(3)):
            assert gaps[i, j] == cmmi_gap(JointPMF(tables[i, j]), perm), (perm, i, j)


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
                swaps.append(mutual_information(p, (b,), (c,))
                             + mutual_information(p, (a,), (d,))
                             - mutual_information(p, (a,), (c,))
                             - mutual_information(p, (b,), (d,)))
                assert swaps[-1] >= -1e-12, (dim, perm, k, i, j)
            assert cmmi_gap(p, perm) == pytest.approx(sum(swaps), abs=1e-12), (dim, perm)


def test_cmmi_gap_rejects_odd_chains_and_bad_perms():
    p = joint_from_chain(random_chain(3, 2, seed=4))
    with pytest.raises(ValueError):
        cmmi_gap(p, (1,))
    # four axes, but a batch of two tables of three variables each
    with pytest.raises(ValueError, match="needs an even number of variables, got 3"):
        cmmi_gap(JointPMF(np.stack([p.probs, p.probs]), 3), (1,))
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


def _shannon(p, subset):
    # -sum p log2 p over the marginal, apart from JointPMF.entropies
    drop = tuple(i for i in range(p.n_vars) if i not in subset)
    w = p.probs.sum(axis=drop) if drop else p.probs
    return -(w * np.log2(w)).sum()


@pytest.mark.parametrize("shape", [(2, 3, 2), (3, 2, 2, 2)])
def test_table_mutual_informations_are_the_shannon_sums_bit_for_bit(shape):
    # the formulas of the classical copies of I(A:B) and I(A:B|C) that
    # info's one mutual_information and conditional_mutual_information replace
    p = _random_pmf(np.random.default_rng(len(shape)), shape)
    n = p.n_vars
    variables = range(n)
    for a, b in itertools.permutations([(i,) for i in variables] + [(n - 1, 0)], 2):
        if set(a) & set(b):
            continue
        want = _shannon(p, a) + _shannon(p, b) - _shannon(p, a + b)
        assert mutual_information(p, a, b) == want, (a, b)
    for a, b, c in itertools.permutations(variables, 3):
        for cond in ((c,), ()):
            want = (_shannon(p, (a,) + cond) + _shannon(p, (b,) + cond)
                    - _shannon(p, (a, b) + cond)
                    - (_shannon(p, cond) if cond else 0.0))
            assert conditional_mutual_information(p, (a,), (b,), cond) == want, (a, b, cond)
    assert p.entropies((), (0,), tuple(variables)) == [
        0.0, _shannon(p, (0,)), _shannon(p, tuple(variables))]


def test_a_table_holding_a_nan_is_refused_by_name():
    # spectrum_entropy read the NaN as a zero term: entropies [0.5, 1.5] and
    # I(A:B) = -0.689 bits.  A table is checked once, when it is built, so
    # no reader (entropies, mutual_information, is_markov) gets one
    table = np.array([[np.nan, 0.5], [0.25, 0.25]])
    with pytest.raises(ValueError, match="non-finite probabilities: 1 NaN or infinite"):
        JointPMF(table)
    # a stack of tables, as cmmi_gap's survey builds them
    with pytest.raises(ValueError, match="non-finite probabilities: 1 NaN or infinite"):
        JointPMF(table[None], 2)
    probs = joint_from_chain(random_chain(3, 2, seed=4)).probs.copy()
    probs[0, 1, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite probabilities: 1 NaN or infinite"):
        JointPMF(probs)
    probs[0, 1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite probabilities: 1 NaN or infinite"):
        JointPMF(probs)
