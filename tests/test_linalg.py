"""Property tests for the dense linear-algebra kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmonogamy.linalg import (apply_kraus, apply_two_site, dagger, hermitian_eig, kron,
                              partial_trace, unitarity_deviation)
from qmonogamy.states import DensityMatrix, purify

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
small_dims = st.sampled_from([2, 3, 4])


def _rand_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def _haar(rng, n):
    q, r = np.linalg.qr(_rand_complex(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_kron_identity_blocks():
    np.testing.assert_allclose(kron(np.eye(2), np.eye(3)), np.eye(6))


@given(seeds)
def test_kron_is_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (_rand_complex(rng, d) for d in (2, 3, 2))
    np.testing.assert_allclose(kron(kron(a, b), c), kron(a, b, c), atol=1e-12)


@given(seeds, small_dims)
def test_dagger_reverses_products(seed, d):
    rng = np.random.default_rng(seed)
    a, b = _rand_complex(rng, d), _rand_complex(rng, d)
    np.testing.assert_allclose(dagger(a @ b), dagger(b) @ dagger(a), atol=1e-10)


@given(seeds)
def test_partial_trace_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    dims = (2, 3, 2)
    m = _rand_complex(rng, 12)
    for keep in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
        np.testing.assert_allclose(np.trace(partial_trace(m, dims, keep)),
                                   np.trace(m), atol=1e-10)


@given(seeds)
def test_partial_trace_factorizes_products(seed):
    """Tracing half of a product leaves the other factor times a scalar."""
    rng = np.random.default_rng(seed)
    a, b = _rand_complex(rng, 2), _rand_complex(rng, 3)
    got = partial_trace(kron(a, b), (2, 3), (0,))
    np.testing.assert_allclose(got, a * np.trace(b), atol=1e-10)
    got = partial_trace(kron(a, b), (2, 3), (1,))
    np.testing.assert_allclose(got, b * np.trace(a), atol=1e-10)


def test_partial_trace_rejects_bad_signature():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), (2, 3), (0,))
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), (2, 3), (2,))
    with pytest.raises(ValueError):
        partial_trace(np.ones(6), (2, 3), (0,))


def test_partial_trace_takes_leading_batch_axes():
    rng = np.random.default_rng(5)
    dims = (2, 3, 2)
    stack = rng.standard_normal((3, 2, 12, 12)) + 1j * rng.standard_normal((3, 2, 12, 12))
    for keep in [(), (1,), (0, 2), (0, 1, 2)]:
        got = partial_trace(stack, dims, keep)
        for idx in np.ndindex(3, 2):
            np.testing.assert_allclose(got[idx], partial_trace(stack[idx], dims, keep),
                                       atol=1e-13)


def _kraus_ops(rng, n, d_out, d_in):
    """n random operators with sum_k K_k† K_k = 1, as an (n, d_out, d_in) array."""
    v = np.linalg.qr(_rand_complex(rng, n * d_out, d_in))[0]
    return v.reshape(n, d_out, d_in)


def test_apply_kraus_acts_one_channel_per_stack_entry():
    rng = np.random.default_rng(8)
    dims = (2, 2, 2)
    stack = np.stack([_rand_complex(rng, 8) for _ in range(5)])
    per_entry = [_kraus_ops(rng, n, 2, 2) for n in (1, 2, 3, 4, 2)]
    # zero operators pad every list to four; they add nothing
    padded = np.zeros((5, 4, 2, 2), dtype=complex)
    for b, ops in enumerate(per_entry):
        padded[b, :len(ops)] = ops
    got = apply_kraus(stack, dims, padded, 1)
    for b, ops in enumerate(per_entry):
        np.testing.assert_allclose(got[b], apply_kraus(stack[b], dims, ops, 1), atol=1e-13)
    # one Kraus list broadcast over the whole stack
    got = apply_kraus(stack, dims, per_entry[2], 1)
    for b in range(5):
        np.testing.assert_allclose(got[b], apply_kraus(stack[b], dims, per_entry[2], 1),
                                   atol=1e-13)


def _embedded(m, dims, ops, target):
    """sum_k (1 x K_k x 1) m (1 x K_k x 1)† with explicit kron embeddings."""
    before = np.eye(int(np.prod(dims[:target])))
    after = np.eye(int(np.prod(dims[target + 1:])))
    out = 0
    for k in ops:
        big = kron(before, k, after)
        out = out + big @ m @ big.conj().T
    return out


@pytest.mark.parametrize("target", [0, 1, 2])
@pytest.mark.parametrize("d_out", [2, 3, 4])
def test_apply_kraus_equals_kron_embeddings_in_both_broadcast_directions(target, d_out):
    rng = np.random.default_rng(10 + target + d_out)
    dims = (2, 3, 2)
    d_in = dims[target]
    out_dims = dims[:target] + (d_out,) + dims[target + 1:]
    ms = np.stack([_rand_complex(rng, 12) for _ in range(3)])
    lists = np.stack([_kraus_ops(rng, 3, d_out, d_in) for _ in range(3)])
    # a stack of operators under one Kraus list
    got = apply_kraus(ms, dims, lists[0], target)
    assert got.shape == (3,) + (int(np.prod(out_dims)),) * 2
    for b in range(3):
        np.testing.assert_allclose(got[b], _embedded(ms[b], dims, lists[0], target),
                                   atol=1e-13)
    # one operator under a stack of Kraus lists, and stack against stack
    got = apply_kraus(ms[0], dims, lists, target)
    paired = apply_kraus(ms, dims, lists, target)
    for b in range(3):
        want = _embedded(ms[0], dims, lists[b], target)
        np.testing.assert_allclose(got[b], want, atol=1e-13)
        np.testing.assert_allclose(paired[b], _embedded(ms[b], dims, lists[b], target),
                                   atol=1e-13)


def test_apply_kraus_rejects_mismatched_subsystems():
    ops = np.eye(2)[None]
    with pytest.raises(ValueError, match="dimension"):
        apply_kraus(np.eye(6), (2, 3), ops, 1)
    with pytest.raises(ValueError, match="out of range"):
        apply_kraus(np.eye(6), (2, 3), ops, 2)
    with pytest.raises(ValueError, match="out of range"):
        apply_kraus(np.eye(6), (2, 3), ops, -1)


@given(seeds, small_dims)
def test_hermitian_eig_reconstructs(seed, d):
    rng = np.random.default_rng(seed)
    a = _rand_complex(rng, d)
    h = a + dagger(a)
    w, v = hermitian_eig(h)
    assert np.all(np.diff(w) <= 1e-12), "eigenvalues must come out descending"
    np.testing.assert_allclose(v @ np.diag(w) @ dagger(v), h, atol=1e-10)
    np.testing.assert_allclose(dagger(v) @ v, np.eye(d), atol=1e-10)


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hermitian_eig_refuses_non_finite_input_by_name(bad):
    # (m - m†) of a NaN is NaN, which the Hermiticity test alone lets through
    m = np.eye(2) / 2
    m[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite entries: 1 NaN or infinite"):
        hermitian_eig(m)
    with pytest.raises(ValueError, match="non-finite"):
        purify(DensityMatrix(np.full((2, 2), bad), (2,)))


@given(seeds, small_dims)
def test_unitarity_deviation_on_haar_samples(seed, d):
    rng = np.random.default_rng(seed)
    u = _haar(rng, d)
    assert unitarity_deviation(u) <= 1e-12
    assert unitarity_deviation(u + 1e-3) > 1e-4
    # a stack gives one deviation per matrix
    np.testing.assert_allclose(unitarity_deviation(np.stack([u, u + 1e-3])),
                               [unitarity_deviation(u), unitarity_deviation(u + 1e-3)],
                               rtol=0, atol=1e-15)


@given(seeds)
@settings(max_examples=40)
def test_apply_two_site_matches_dense_conjugation(seed):
    """The gate primitive agrees with permuting registers and using kron."""
    rng = np.random.default_rng(seed)
    dims = (2, 3, 2)
    vec = _rand_complex(rng, 12, 1).reshape(-1)
    vec /= np.linalg.norm(vec)
    u = _haar(rng, 6)
    got = apply_two_site(vec, dims, u, (1, 2))
    want = kron(np.eye(2), u) @ vec
    np.testing.assert_allclose(got, want, atol=1e-12)
    # non-adjacent pair: move site 2 next to site 0, apply, move back
    u02 = _haar(rng, 4)
    got = apply_two_site(vec, dims, u02, (0, 2))
    perm = vec.reshape(dims).transpose(0, 2, 1).reshape(-1)
    want = (kron(u02, np.eye(3)) @ perm).reshape(2, 2, 3).transpose(0, 2, 1).reshape(-1)
    np.testing.assert_allclose(got, want, atol=1e-12)


@given(seeds)
def test_apply_two_site_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    dims = (2, 2, 3)
    vec = _rand_complex(rng, 12, 1).reshape(-1)
    vec /= np.linalg.norm(vec)
    u = _haar(rng, 6)
    out = apply_two_site(vec, dims, u, (1, 2))
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


@given(seeds)
@settings(max_examples=20)
def test_apply_two_site_broadcasts_stacks_of_states_and_unitaries(seed):
    rng = np.random.default_rng(seed)
    dims = (2, 3, 2)
    vecs = _rand_complex(rng, 4, 12)
    units = np.stack([_haar(rng, 4) for _ in range(4)])
    for sites in [(0, 2), (2, 0)]:
        both = apply_two_site(vecs, dims, units, sites)
        states = apply_two_site(vecs, dims, units[1], sites)
        ops = apply_two_site(vecs[2], dims, units, sites)
        assert both.shape == states.shape == ops.shape == (4, 12)
        for b in range(4):
            np.testing.assert_allclose(both[b], apply_two_site(vecs[b], dims, units[b], sites),
                                       atol=1e-12)
            np.testing.assert_allclose(states[b],
                                       apply_two_site(vecs[b], dims, units[1], sites),
                                       atol=1e-12)
            np.testing.assert_allclose(ops[b], apply_two_site(vecs[2], dims, units[b], sites),
                                       atol=1e-12)


def test_apply_two_site_refuses_stacks_that_do_not_broadcast():
    with pytest.raises(ValueError, match=r"state batch shape \(3,\) and operator batch "
                                         r"shape \(2,\) do not broadcast"):
        apply_two_site(np.ones((3, 4)) / 2, (2, 2), np.stack([np.eye(4)] * 2), (0, 1))
