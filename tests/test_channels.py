"""Channel representations: Kraus, Stinespring, Choi, isometry, adjoint."""

import numpy as np
import pytest

from qmonogamy.channels import (adjoint_channel, apply, apply_dilation,
                                apply_to_subsystem, choi_of, dephasing_channel,
                                depolarizing_channel, dilation_to_kraus,
                                identity_channel, kraus_channel, kraus_to_isometry,
                                random_channel, stinespring)
from qmonogamy.linalg import dagger, kron, partial_trace
from qmonogamy.states import DensityMatrix, maximally_entangled, random_density


def test_kraus_channel_rejects_non_tp_sets():
    with pytest.raises(ValueError, match="trace"):
        kraus_channel([np.eye(2) * 0.5])
    with pytest.raises(ValueError):
        kraus_channel([])


def test_identity_and_depolarizing_fixed_points():
    rho = random_density(3, seed=1)
    np.testing.assert_allclose(apply(identity_channel(3), rho).mat, rho.mat)
    out = apply(depolarizing_channel(3), rho)
    np.testing.assert_allclose(out.mat, np.eye(3) / 3, atol=1e-12)


def test_dephasing_kills_off_diagonals():
    rho = random_density(4, seed=2)
    out = apply(dephasing_channel(4), rho)
    np.testing.assert_allclose(out.mat, np.diag(np.diag(rho.mat)), atol=1e-12)


def test_apply_to_subsystem_matches_kron_embedding():
    dims = (2, 3, 2)
    rho = DensityMatrix(random_density(12, seed=3).mat, dims)
    for target, d_out in [(0, 2), (1, 3), (2, 2), (1, 2), (2, 3)]:
        d_in = dims[target]
        # an environment of d_in levels lets a d_out-dimensional output dilate it
        ch = dilation_to_kraus(random_channel(d_in, d_out, d_in, seed=4 + target))
        got = apply_to_subsystem(ch, rho, target)
        before = np.eye(int(np.prod(dims[:target])))
        after = np.eye(int(np.prod(dims[target + 1:])))
        want = sum(kron(before, k, after) @ rho.mat @ dagger(kron(before, k, after))
                   for k in ch.kraus)
        np.testing.assert_allclose(got.mat, want, atol=1e-12)
        assert got.dims == dims[:target] + (d_out,) + dims[target + 1:]


def test_apply_to_subsystem_tracks_changed_dimension():
    rho = DensityMatrix(random_density(4, seed=5).mat, (2, 2))
    ch = dilation_to_kraus(random_channel(2, 3, 2, seed=6))
    out = apply_to_subsystem(ch, rho, 1)
    assert out.dims == (2, 3)
    np.testing.assert_allclose(out.reduced((0,)).mat, rho.reduced((0,)).mat,
                               atol=1e-12)


def test_stinespring_dilation_agrees_with_its_kraus_form():
    dil = random_channel(2, 2, 4, seed=8)
    ch = dilation_to_kraus(dil)
    rho = random_density(2, seed=9)
    np.testing.assert_allclose(apply_dilation(dil, rho).mat, apply(ch, rho).mat,
                               atol=1e-12)


def test_stinespring_validates_unitarity():
    with pytest.raises(ValueError, match="unitary"):
        stinespring(np.ones((4, 4)), np.array([1.0, 0.0]), 2, 2)


def test_kraus_to_isometry_is_an_isometry_and_reproduces_the_channel():
    ch = dilation_to_kraus(random_channel(2, 3, 2, seed=10))
    v = kraus_to_isometry(ch)
    np.testing.assert_allclose(dagger(v) @ v, np.eye(2), atol=1e-12)
    rho = random_density(2, seed=11)
    big = v @ rho.mat @ dagger(v)
    # isometry output is ordered (S_out, E)
    got = partial_trace(big, (3, v.shape[0] // 3), (0,))
    np.testing.assert_allclose(got, apply(ch, rho).mat, atol=1e-12)


def test_choi_marginal_is_maximally_mixed_on_the_reference():
    ch = dilation_to_kraus(random_channel(3, 2, 3, seed=25))
    c = choi_of(ch)
    np.testing.assert_allclose(c.reduced((0,)).mat, np.eye(3) / 3, atol=1e-10)


def test_adjoint_identity_on_the_entangled_pair():
    """(A x id) and (id x adjoint A) agree on the maximally entangled state."""
    for s in range(6):
        ch = dilation_to_kraus(random_channel(2, 2, 3, seed=30 + s))
        psi = maximally_entangled(2).density()
        left = apply_to_subsystem(ch, psi, 0).mat
        right = apply_to_subsystem(adjoint_channel(ch), psi, 1).mat
        assert np.abs(left - right).max() <= 1e-12


def test_adjoint_is_unital():
    ch = dilation_to_kraus(random_channel(2, 3, 2, seed=40))
    adj = adjoint_channel(ch)
    total = sum(k @ dagger(k) for k in adj.kraus)  # adj applied to identity
    np.testing.assert_allclose(total, np.eye(adj.d_out), atol=1e-10)


def test_random_channel_is_trace_preserving_and_seeded():
    a = dilation_to_kraus(random_channel(2, 2, 4, seed=4))
    b = dilation_to_kraus(random_channel(2, 2, 4, seed=4))
    for ka, kb in zip(a.kraus, b.kraus):
        np.testing.assert_array_equal(ka, kb)
    total = sum(dagger(k) @ k for k in a.kraus)
    np.testing.assert_allclose(total, np.eye(2), atol=1e-10)
    with pytest.raises(ValueError, match="ancilla"):
        random_channel(3, 2, 2)
