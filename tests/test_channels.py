"""Channels as Kraus lists: validation, application, unitary dilations, adjoint."""

import numpy as np
import pytest

from qmonogamy.channels import (_haar_unitary, adjoint_channel, apply, apply_to_subsystem,
                                kraus_channel, kraus_stack, random_channel,
                                unitary_channel)
from qmonogamy.linalg import dagger, kron, partial_trace
from qmonogamy.states import DensityMatrix, maximally_entangled, random_density


def test_kraus_channel_rejects_non_tp_sets():
    with pytest.raises(ValueError, match="trace"):
        kraus_channel([np.eye(2) * 0.5])
    with pytest.raises(ValueError):
        kraus_channel([])
    with pytest.raises(ValueError, match="non-finite"):
        kraus_channel([np.full((2, 2), np.nan)])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            kraus_channel([np.array([[1.0, bad], [0.0, 1.0]])])


@pytest.mark.parametrize("how,want", [("nan", "non-finite"), ("scale", "trace preserving")])
def test_kraus_stack_names_the_failed_invariant_of_one_bad_list(how, want):
    good = np.stack([np.array(random_channel(2, 2, 2, seed=s).kraus) for s in range(3)])
    np.testing.assert_array_equal(kraus_stack(good), good)
    bad = good.copy()
    if how == "nan":
        bad[2, 1, 0, 0] = np.nan
    else:
        bad[2] *= 1.01
    with pytest.raises(ValueError, match=want):
        kraus_stack(bad)
    with pytest.raises(ValueError, match=want):
        kraus_channel(list(bad[2]))


def test_empty_kraus_input_is_refused_by_name():
    with pytest.raises(ValueError, match="empty Kraus operators"):
        kraus_channel([np.zeros((0, 0))])
    with pytest.raises(ValueError, match="empty Kraus stack"):
        kraus_stack(np.zeros((3, 0, 2, 2)))


@pytest.mark.parametrize("ops", [[np.ones(2)], [np.eye(2), np.ones(2)],
                                 [np.array(1.0)], [np.ones((1, 2, 2))]])
def test_a_kraus_operator_that_is_not_a_matrix_is_refused_by_name(ops):
    with pytest.raises(ValueError, match="Kraus operators must be matrices"):
        kraus_channel(ops)


def test_identity_and_depolarizing_fixed_points():
    rho = random_density(3, seed=1)
    np.testing.assert_allclose(apply(kraus_channel([np.eye(3)]), rho).mat, rho.mat)
    # K_ij = |i><j| / sqrt(d) maps every input to the maximally mixed state
    depolarizing = kraus_channel([np.outer(a, b) / np.sqrt(3)
                                  for a in np.eye(3) for b in np.eye(3)])
    out = apply(depolarizing, rho)
    np.testing.assert_allclose(out.mat, np.eye(3) / 3, atol=1e-12)


def test_dephasing_kills_off_diagonals():
    rho = random_density(4, seed=2)
    # the computational-basis projectors: a measurement with outcomes forgotten
    out = apply(kraus_channel([np.diag(e) for e in np.eye(4)]), rho)
    np.testing.assert_allclose(out.mat, np.diag(np.diag(rho.mat)), atol=1e-12)


def test_apply_to_subsystem_matches_kron_embedding():
    dims = (2, 3, 2)
    rho = DensityMatrix(random_density(12, seed=3).mat, dims)
    for target, d_out in [(0, 2), (1, 3), (2, 2), (1, 2), (2, 3)]:
        d_in = dims[target]
        # an environment of d_in levels lets a d_out-dimensional output dilate it
        ch = random_channel(d_in, d_out, d_in, seed=4 + target)
        got = apply_to_subsystem(ch, rho, target)
        before = np.eye(int(np.prod(dims[:target])))
        after = np.eye(int(np.prod(dims[target + 1:])))
        want = sum(kron(before, k, after) @ rho.mat @ dagger(kron(before, k, after))
                   for k in ch.kraus)
        np.testing.assert_allclose(got.mat, want, atol=1e-12)
        assert got.dims == dims[:target] + (d_out,) + dims[target + 1:]


def test_apply_to_subsystem_tracks_changed_dimension():
    rho = DensityMatrix(random_density(4, seed=5).mat, (2, 2))
    ch = random_channel(2, 3, 2, seed=6)
    out = apply_to_subsystem(ch, rho, 1)
    assert out.dims == (2, 3)
    np.testing.assert_allclose(out.reduced((0,)).mat, rho.reduced((0,)).mat,
                               atol=1e-12)


def test_unitary_channel_matches_the_dilation_formula():
    """Tr_E[U (rho x |0><0|) U†], computed densely, for square and
    dimension-changing dilations."""
    rng = np.random.default_rng(8)
    for d_in, d_out, total in [(2, 2, 4), (2, 3, 6), (3, 2, 6), (2, 2, 8)]:
        g = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
        u = np.linalg.qr(g)[0]
        anc = np.zeros((total // d_in, total // d_in))
        anc[0, 0] = 1.0
        rho = random_density(d_in, seed=rng)
        big = u @ kron(rho.mat, anc) @ dagger(u)
        want = partial_trace(big, (d_out, total // d_out), (0,))
        ch = unitary_channel(u, d_in, d_out)
        assert len(ch.kraus) == total // d_out
        np.testing.assert_allclose(apply(ch, rho).mat, want, atol=1e-12)


def test_unitary_channel_rejects_bad_dilations():
    # the ancilla-|0> columns of an all-ones matrix are not orthonormal
    with pytest.raises(ValueError, match="trace preserving"):
        unitary_channel(np.ones((4, 4)), 2, 2)
    with pytest.raises(ValueError, match="divisible"):
        unitary_channel(np.eye(4), 3, 2)
    with pytest.raises(ValueError, match="square"):
        unitary_channel(np.ones((4, 2)), 2, 2)
    with pytest.raises(ValueError, match="square"):
        unitary_channel(np.ones((0, 0)), 2, 2)


def test_adjoint_identity_on_the_entangled_pair():
    """(A x id) and (id x adjoint A) agree on the maximally entangled state."""
    for s in range(6):
        ch = random_channel(2, 2, 3, seed=30 + s)
        psi = maximally_entangled(2).density()
        left = apply_to_subsystem(ch, psi, 0).mat
        right = apply_to_subsystem(adjoint_channel(ch), psi, 1).mat
        assert np.abs(left - right).max() <= 1e-12


def test_adjoint_is_unital():
    ch = random_channel(2, 3, 2, seed=40)
    adj = adjoint_channel(ch)
    total = sum(k @ dagger(k) for k in adj.kraus)  # adj applied to identity
    np.testing.assert_allclose(total, np.eye(adj.d_out), atol=1e-10)


def test_random_channel_is_trace_preserving_and_seeded():
    a = random_channel(2, 2, 4, seed=4)
    b = random_channel(2, 2, 4, seed=4)
    for ka, kb in zip(a.kraus, b.kraus):
        np.testing.assert_array_equal(ka, kb)
    total = sum(dagger(k) @ k for k in a.kraus)
    np.testing.assert_allclose(total, np.eye(2), atol=1e-10)
    with pytest.raises(ValueError, match="ancilla"):
        random_channel(3, 2, 2)


def test_random_channel_is_its_haar_unitary_sliced():
    """The Kraus operators are the ancilla-|0> columns of the Haar unitary
    drawn from the same generator, ordered (S_out, E) by row."""
    u = _haar_unitary(6, np.random.default_rng(12))
    ch = random_channel(2, 3, 2, seed=np.random.default_rng(12))
    for e, k in enumerate(ch.kraus):
        np.testing.assert_array_equal(k, u.reshape(3, 2, 2, 3)[:, e, :, 0])


@pytest.mark.parametrize("dims", [(2, 2, 0), (0, 2, 2), (2, 0, 2)])
def test_random_channel_rejects_empty_dimensions(dims):
    with pytest.raises(ValueError, match="at least 1"):
        random_channel(*dims)
