"""Validated state containers, purification, the fixed example states, and
the labelled register operations."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmonogamy import states
from qmonogamy.channels import haar_unitaries
from qmonogamy.info import von_neumann
from qmonogamy.states import (MAX_AMPLITUDES, DensityMatrix, PureState, density,
                              density_stack, ginibre, ginibre_spectra, maximally_entangled,
                              pure_state, purify, random_density, spectrum_entropy,
                              von_neumann_stack, w_state)
from qmonogamy.tolerances import INVARIANT_TOL

RNG = np.random.default_rng(20240817)


def test_density_validator_names_the_failed_invariant():
    with pytest.raises(ValueError, match="Hermitian"):
        density(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        density(np.eye(2))
    with pytest.raises(ValueError, match="positive"):
        density(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="dims"):
        density(np.eye(4) / 4, (2, 3))
    with pytest.raises(ValueError, match="non-finite"):
        density(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        density(np.diag([np.inf, 0.0]))


def _spoil(m, how):
    """One way each for a valid density matrix to break an invariant."""
    m = m.copy()
    if how == "non-finite":
        m[0, 1] = np.nan
    elif how == "Hermitian":
        m[0, 1] += 1e-3
    elif how == "trace":
        m *= 1.01
    else:  # "positive": diag(1.5, -0.5) in the top corner keeps trace and Hermiticity
        m[:] = 0.0
        m[0, 0], m[1, 1] = 1.5, -0.5
    return m


@pytest.mark.parametrize("how", ["non-finite", "Hermitian", "trace", "positive"])
def test_density_stack_names_the_failed_invariant_of_one_bad_matrix(how):
    good = np.stack([random_density(4, seed=s).mat for s in range(3)])
    np.testing.assert_array_equal(density_stack(good, (2, 2))[0], good)
    bad = good.copy()
    bad[1] = _spoil(bad[1], how)
    with pytest.raises(ValueError, match=how):
        density_stack(bad, (2, 2))
    with pytest.raises(ValueError, match=how):
        density(bad[1])


@pytest.mark.parametrize("d,rank", [(2, 2), (4, 4), (8, 8), (8, 3), (4, 1)])
def test_validator_spectra_give_the_stack_entropies_bit_for_bit(d, rank):
    # the validated stack is exactly Hermitian, so its positivity spectra are
    # the ones von_neumann_stack solves for; low ranks exercise the clip
    mats, spectra = ginibre_spectra(ginibre(np.random.default_rng(d + rank), (64, d, rank)))
    np.testing.assert_array_equal(spectrum_entropy(spectra), von_neumann_stack(mats))


def _rotated(w, rng):
    # Hermitian qubit stack with spectra w (n, 2), in Haar-random bases
    u = haar_unitaries(ginibre(rng, (len(w), 2, 2)))
    return (u * w[:, None, :]) @ u.conj().swapaxes(-1, -2)


def _qubit_stacks():
    """Hermitian parts of qubit stacks of every kind: random states, pure
    states, the maximally mixed state, diagonal states, near-degenerate
    spectra (splittings 1e-16 to 1e-1) and tiny off-diagonals."""
    rng, n = np.random.default_rng(33), 512
    g = ginibre(rng, (n, 2, 2))
    v = ginibre(rng, (n, 2))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    p = rng.uniform(size=n)
    split = np.repeat(10.0 ** -np.arange(1, 17), 32)
    tiny = np.repeat(10.0 ** -np.arange(8, 24), 32) * np.exp(2j * np.pi * rng.uniform(size=n))
    diagonal = np.zeros((n, 2, 2), dtype=complex)
    diagonal[:, 0, 0], diagonal[:, 1, 1] = p, 1 - p
    off = diagonal.copy()
    off[:, 0, 1], off[:, 1, 0] = tiny, tiny.conj()
    stacks = {
        "random": ginibre_spectra(g)[0],
        "pure": v[:, :, None] * v[:, None, :].conj(),
        "maximally mixed": np.broadcast_to(np.eye(2, dtype=complex) / 2, (n, 2, 2)),
        "diagonal": diagonal,
        "near-degenerate": _rotated(np.stack([(1 - split) / 2, (1 + split) / 2], axis=-1), rng),
        "tiny off-diagonal": off,
    }
    return {kind: (m + m.conj().swapaxes(-1, -2)) / 2 for kind, m in stacks.items()}


@pytest.mark.parametrize("kind", list(_qubit_stacks()))
def test_qubit_spectra_in_closed_form_are_eigvalsh_ascending(kind):
    h = _qubit_stacks()[kind]
    w = states._spectra(h)
    assert w.shape == (len(h), 2)
    assert np.all(w[:, 0] <= w[:, 1])
    np.testing.assert_allclose(w, np.linalg.eigvalsh(h), rtol=0, atol=2e-15)


def test_qubit_spectra_keep_the_stack_shape_and_real_input():
    h = _qubit_stacks()["random"][:12].reshape(3, 4, 2, 2)
    np.testing.assert_allclose(states._spectra(h), np.linalg.eigvalsh(h), rtol=0, atol=2e-15)
    real = np.array([[0.75, 0.25], [0.25, 0.25]])
    assert states._spectra(real).shape == (2,)
    np.testing.assert_allclose(states._spectra(real), np.linalg.eigvalsh(real), atol=2e-15)


def test_density_stack_refuses_a_qubit_by_name():
    good = _qubit_stacks()["random"][:4]
    # min eigenvalue -2e-10, beyond INVARIANT_TOL, in a rotated basis
    bad = good.copy()
    bad[2] = _rotated(np.array([[-2e-10, 1 + 2e-10]]), np.random.default_rng(3))[0]
    with pytest.raises(ValueError,
                       match=r"^not positive semidefinite: min eigenvalue -2\.000e-10$"):
        density_stack(bad, (2,))
    # one within the tolerance passes, with its spectrum
    bad[2] = np.diag([-0.5 * INVARIANT_TOL, 1 + 0.5 * INVARIANT_TOL])
    assert density_stack(bad, (2,))[1][2, 0] == pytest.approx(-0.5 * INVARIANT_TOL, abs=1e-15)
    bad[2, 1, 0] = np.nan
    with pytest.raises(ValueError, match="^non-finite entries: 1 NaN or infinite$"):
        density_stack(bad, (2,))


def test_empty_density_input_is_refused_by_name():
    with pytest.raises(ValueError, match="empty density matrix"):
        density(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="empty density stack"):
        density_stack(np.zeros((0, 2, 2)), (2,))


def test_density_symmetrizes_roundoff():
    m = np.diag([0.25, 0.75]).astype(complex)
    m[0, 1] = 1e-12j  # tiny antihermitian noise survives validation
    rho = density(m, (2,))
    np.testing.assert_allclose(rho.mat, rho.mat.conj().T)


def test_pure_state_norm_check():
    with pytest.raises(ValueError, match="normalized"):
        pure_state(np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="dims"):
        pure_state(np.array([1.0, 0.0]), (3,))
    with pytest.raises(ValueError, match="non-finite"):
        pure_state(np.full(4, np.nan), (2, 2))
    with pytest.raises(ValueError, match="non-finite"):
        pure_state(np.array([1.0, np.inf]))


def test_reduced_matches_between_vector_and_matrix_forms():
    vec = RNG.standard_normal(12) + 1j * RNG.standard_normal(12)
    psi = pure_state(vec / np.linalg.norm(vec), (2, 3, 2))
    for keep in [(0,), (2,), (0, 1), (1, 2), (0, 2)]:
        np.testing.assert_allclose(psi.reduced(keep).mat,
                                   psi.density().reduced(keep).mat, atol=1e-12)


def test_purify_reference_comes_first_and_recovers_the_state():
    rho = random_density(3, seed=5)
    psi = purify(rho)
    assert psi.dims == (3, 3)
    np.testing.assert_allclose(psi.reduced((1,)).mat, rho.mat, atol=1e-10)
    # reference marginal shares the spectrum of rho
    wr = np.linalg.eigvalsh(psi.reduced((0,)).mat)
    ws = np.linalg.eigvalsh(rho.mat)
    np.testing.assert_allclose(np.sort(wr), np.sort(ws), atol=1e-10)


def test_purify_keeps_subsystem_signature():
    rho = DensityMatrix(np.eye(4) / 4, (2, 2))
    psi = purify(rho)
    assert psi.dims == (4, 2, 2)
    np.testing.assert_allclose(psi.reduced((1, 2)).mat, rho.mat, atol=1e-12)


def test_maximally_entangled_marginals_are_maximally_mixed():
    for d in (2, 3):
        psi = maximally_entangled(d)
        np.testing.assert_allclose(psi.reduced((0,)).mat, np.eye(d) / d, atol=1e-12)
        np.testing.assert_allclose(psi.reduced((1,)).mat, np.eye(d) / d, atol=1e-12)
    with pytest.raises(ValueError):
        maximally_entangled(1)


def test_random_density_is_valid_and_seeded():
    a = random_density(4, seed=11)
    b = random_density(4, seed=11)
    np.testing.assert_array_equal(a.mat, b.mat)
    w = np.linalg.eigvalsh(a.mat)
    assert abs(w.sum() - 1.0) < 1e-10
    assert w.min() > -1e-12


def test_w_state_layout():
    psi = w_state()
    assert psi.dims == (2, 2, 2)
    want = np.zeros(8)
    want[[4, 2, 1]] = 1 / np.sqrt(3)
    np.testing.assert_allclose(psi.vec, want)
    # each single-qubit marginal of the single-excitation state
    np.testing.assert_allclose(psi.reduced((1,)).mat, np.diag([2 / 3, 1 / 3]),
                               atol=1e-12)


def _random_labelled(dims, labels, rng):
    vec = rng.standard_normal(math.prod(dims)) + 1j * rng.standard_normal(math.prod(dims))
    return PureState(vec / np.linalg.norm(vec), dims, labels)


def test_entropy_is_the_same_on_both_sides_of_a_cut():
    rng = np.random.default_rng(3)
    labels = ("A", "B", "C", "D")
    for dims in [(2, 3, 2, 2), (3, 2, 4, 1), (2, 2, 2, 5)]:
        psi = _random_labelled(dims, labels, rng)
        for n in range(1, 4):
            for subset in itertools.combinations(labels, n):
                rest = tuple(x for x in labels if x not in subset)
                h = psi.entropy(subset)
                assert h == pytest.approx(psi.entropy(rest), abs=1e-12)
                assert h == pytest.approx(von_neumann(psi.reduced(subset)), abs=1e-12)
        assert psi.entropy(()) == 0.0
        assert psi.entropy(labels) == 0.0


def test_entropies_reduce_each_side_once_and_solve_each_size_once(monkeypatch):
    # a solve is one states._spectra call (qubits in closed form)
    shapes = []
    real = states._spectra
    monkeypatch.setattr(states, "_spectra", lambda a: shapes.append(a.shape) or real(a))
    labels = ("A", "B", "C", "D")
    psi = _random_labelled((2, 3, 2, 3), labels, np.random.default_rng(6))
    # a cut and its complement: one marginal, one eigensolve
    h, h_rest = psi.entropies(("B",), ("D", "C", "A"))
    assert h == h_rest and shapes == [(1, 3, 3)]
    # B and D share a size; (C, D) and (B, A) tie, and the side holding
    # register 0 is reduced for both
    shapes.clear()
    cuts = [("B",), ("D",), ("C", "D"), ("B", "A"), ("A",)]
    values = psi.entropies(*cuts)
    assert sorted(shapes) == [(1, 2, 2), (1, 6, 6), (2, 3, 3)]
    for cut, h in zip(cuts, values):
        assert h == pytest.approx(von_neumann(psi.reduced(cut)), abs=1e-12), cut
    # the empty cut and the whole register are exact zeros, with no solve
    shapes.clear()
    assert psi.entropies((), labels) == [0.0, 0.0] and shapes == []
    # nothing is kept between calls: asking twice solves twice
    psi.entropy(("B",))
    psi.entropy(("B",))
    assert shapes == [(1, 3, 3)] * 2
    # a batch: one solve per size for all its states, each slice's values
    shapes.clear()
    psi = PureState(_random_vecs(np.random.default_rng(11), (5,), 12), (2, 3, 2),
                    ("A", "B", "C"))
    cuts = [("B",), ("C", "A"), ("A",), (), ("A", "B", "C")]
    values = psi.entropies(*cuts)
    assert sorted(shapes) == [(5, 2, 2), (5, 3, 3)]
    assert all(h.shape == (5,) for h in values)
    # a cut and its complement give equal arrays that share no memory
    np.testing.assert_array_equal(values[0], values[1])
    assert not np.shares_memory(values[0], values[1])
    np.testing.assert_array_equal(values[3], np.zeros(5))
    np.testing.assert_array_equal(values[4], np.zeros(5))
    for b in range(5):
        one = PureState(psi.vec[b], psi.dims, psi.labels).entropies(*cuts)
        assert all(isinstance(h, float) for h in one)
        np.testing.assert_allclose([h[b] for h in values], one, atol=1e-12)


def test_derived_states_never_reuse_their_parents_entropies():
    rng = np.random.default_rng(7)
    labels = ("A", "B", "C")
    psi = _random_labelled((2, 2, 2), labels, rng)
    subsets = [c for n in (1, 2) for c in itertools.combinations(range(3), n)]
    for subset in subsets:
        psi.entropy(subset)  # the parent is read before its children are made

    def haar(d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return np.linalg.qr(g)[0]

    derived = {
        "apply on two registers": psi.apply(haar(4), ("A", "B")),
        "apply on three registers": psi.apply(haar(8), labels),
        "apply an isometry": psi.apply(haar(4)[:, :2], ("B",), out={"F": 2, "B": 2}),
        "splice": psi.splice(pure_state(np.array([0.6, 0.8])), "A", ("X",)),
        "replace": dataclasses.replace(psi, vec=_random_labelled((2, 2, 2), labels, rng).vec),
    }
    for how, child in derived.items():
        for subset in subsets:
            want = von_neumann(child.reduced(subset))
            assert child.entropy(subset) == pytest.approx(want, abs=1e-12), (how, subset)


def test_registers_are_named_by_label_or_position():
    psi = _random_labelled((2, 3, 2), ("A", "B", "C"), np.random.default_rng(4))
    np.testing.assert_array_equal(psi.reduced(("C", "A")).mat, psi.reduced((0, 2)).mat)
    with pytest.raises(ValueError, match="labelled"):
        psi.reduced(("Z",))
    with pytest.raises(ValueError, match="label"):
        PureState(psi.vec, psi.dims, ("A", "A", "C"))


def test_apply_and_splice_match_explicit_tensor_products():
    rng = np.random.default_rng(5)
    psi = _random_labelled((2, 3, 2), ("A", "B", "C"), rng)
    t = psi.vec.reshape(2, 3, 2)
    # a unitary on (C, A): given order, registers not adjacent
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    got = psi.apply(u, ("C", "A"))
    want = np.einsum("cadf,fbd->abc", u.reshape(2, 2, 2, 2), t)
    np.testing.assert_allclose(got.vec, want.reshape(-1), atol=1e-12)
    assert got.labels == psi.labels
    # an isometry B -> (F, B) takes the place of B
    v = np.linalg.qr(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))[0]
    got = psi.apply(v, ("B",), out={"F": 2, "B": 3})
    want = np.einsum("fxb,abc->afxc", v.reshape(2, 3, 3), t)
    assert got.labels == ("A", "F", "B", "C")
    np.testing.assert_allclose(got.vec, want.reshape(-1), atol=1e-12)
    # splicing a pair after A puts its registers between A and B
    pair = maximally_entangled(2)
    got = psi.splice(pair, after="A", labels=("X", "Y"))
    assert got.labels == ("A", "X", "Y", "B", "C") and got.dims == (2, 2, 2, 3, 2)
    want = np.einsum("abc,xy->axybc", t, pair.vec.reshape(2, 2))
    np.testing.assert_allclose(got.vec, want.reshape(-1), atol=1e-15)


def test_growing_past_the_amplitude_budget_is_refused():
    psi = PureState(np.eye(1, MAX_AMPLITUDES // 2, dtype=complex).reshape(-1),
                    (MAX_AMPLITUDES // 2,), ("A",))
    qubit = pure_state(np.array([1.0, 0.0]))
    assert psi.splice(qubit, "A", ("X",)).dim == MAX_AMPLITUDES
    with pytest.raises(ValueError, match="amplitudes"):
        psi.splice(maximally_entangled(2), "A", ("X", "Y"))


def test_apply_refuses_operators_that_do_not_fit_and_repeated_registers():
    psi = w_state()
    u = _haar(np.random.default_rng(6), 4)
    # a 4 x 4 unitary on one qubit: neither its input nor its output fits
    with pytest.raises(ValueError, match=r"shape \(4, 4\) does not act on registers \('S',\)"):
        psi.apply(u, ("S",))
    with pytest.raises(ValueError, match="does not act on registers"):
        psi.apply(u[:, :2], ("S", "E"))
    with pytest.raises(ValueError, match="does not act on registers"):
        psi.apply(u, ("S",), out={"F": 2, "S": 2})
    # the input fits, the output does not: out's registers, or the registers
    # themselves without out
    with pytest.raises(ValueError, match=r"does not output registers of dimensions \(2, 1\)"):
        psi.apply(u[:, :2], ("S",), out={"F": 2, "S": 1})
    with pytest.raises(ValueError, match=r"does not output registers of dimensions \(2,\)"):
        psi.apply(u[:, :2], ("S",))
    with pytest.raises(ValueError, match="twice"):
        psi.apply(np.eye(4), ("S", "S"))
    with pytest.raises(ValueError, match="twice"):
        psi.apply(np.eye(4), ("S", 1))
    with pytest.raises(ValueError, match="twice"):
        psi.apply(np.eye(8)[:, :4], ("E", "E"), out={"F": 2, "G": 4})


@pytest.mark.parametrize("register", [True, False, 1.0, 1.5, None])
def test_registers_are_labels_or_integer_positions(register):
    psi = w_state()
    name = "register position must be an integer"
    with pytest.raises(ValueError, match=name):
        psi.entropies((register,))
    with pytest.raises(ValueError, match=name):
        psi.reduced((register,))
    with pytest.raises(ValueError, match=name):
        psi.apply(np.eye(2), (register,))
    with pytest.raises(ValueError, match=name):
        psi.splice(pure_state(np.array([1.0, 0.0])), register, ("X",))
    # numpy integers are positions like Python ints
    assert psi.entropy((np.int64(1),)) == psi.entropy(("S",))


# ---------------------------------------------------------------------------
# the batch axis
# ---------------------------------------------------------------------------

def _haar(rng, d, batch=()):
    g = rng.standard_normal(batch + (d, d)) + 1j * rng.standard_normal(batch + (d, d))
    return np.linalg.qr(g)[0]


def _random_vecs(rng, batch, d):
    v = rng.standard_normal(batch + (d,)) + 1j * rng.standard_normal(batch + (d,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _slice(a, index, core):
    # the slice of a possibly stacked operand; `core` trailing axes per item
    return a[index] if a.ndim > core else a


@given(seed=st.integers(0, 2 ** 32 - 1), n_regs=st.integers(2, 4),
       batch=st.sampled_from([(1,), (3,), (2, 2)]), first=st.sampled_from(["state", "op"]))
@settings(max_examples=40, deadline=None)
def test_every_slice_of_a_batched_circuit_is_the_unbatched_circuit(seed, n_regs, batch, first):
    """Random labelled circuits of apply (two registers, other counts, and
    isometries with output registers) and splice: with a stacked state and
    unstacked operators, or an unstacked state and stacked operators, and
    then a mix, every slice of the batched result equals the unbatched
    computation on that slice."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(1, 4, n_regs))
    labels = tuple("ABCD"[:n_regs])
    vec = _random_vecs(rng, batch if first == "state" else (), math.prod(dims))
    psi = PureState(vec, dims, labels)
    slices = {i: PureState(_slice(vec, i, 1), dims, labels) for i in np.ndindex(batch)}
    for step in range(4):
        # the first operator is stacked exactly when the state is not
        stacked = (first == "op") if step == 0 else bool(rng.integers(2))
        op_batch = batch if stacked else ()
        kind = rng.integers(4)
        if kind == 3:
            state = PureState(_random_vecs(rng, op_batch, 2), (2,))
            at = labels[rng.integers(len(labels))]
            new = f"X{step}"
            psi = psi.splice(state, at, (new,))
            slices = {i: p.splice(PureState(_slice(state.vec, i, 1), (2,)), at, (new,))
                      for i, p in slices.items()}
            labels = psi.labels
            continue
        if kind == 2:
            # an isometry from one register into (F, that register)
            on = (labels[rng.integers(len(labels))],)
            d = psi.dims[labels.index(on[0])]
            op = _haar(rng, 2 * d, op_batch)[..., :d]
            out = {f"F{step}": 2, on[0]: d}
        else:
            n_on = 2 if kind == 0 else int(rng.integers(1, len(labels) + 1))
            on = tuple(labels[i] for i in rng.permutation(len(labels))[:n_on])
            op = _haar(rng, math.prod(psi.dims[labels.index(r)] for r in on), op_batch)
            out = None
        psi = psi.apply(op, on, out)
        slices = {i: p.apply(_slice(op, i, 2), on, out) for i, p in slices.items()}
        labels = psi.labels
    assert psi.batch == batch
    subsets = [c for n in range(len(labels) + 1) for c in itertools.combinations(labels, n)]
    for i, p in slices.items():
        assert psi.dims == p.dims and psi.labels == p.labels
        np.testing.assert_allclose(psi.vec[i], p.vec, atol=1e-12)
    for subset in subsets:
        marginal = psi.reduced(subset)
        h = psi.entropy(subset)
        assert marginal.mat.shape[:-2] == batch and h.shape == batch
        for i, p in slices.items():
            np.testing.assert_allclose(marginal.mat[i], p.reduced(subset).mat, atol=1e-12)
            assert h[i] == pytest.approx(p.entropy(subset), abs=1e-12), (i, subset)


def test_stacks_that_do_not_broadcast_are_refused_with_both_shapes():
    rng = np.random.default_rng(12)
    psi = PureState(_random_vecs(rng, (3,), 8), (2, 2, 2), ("A", "B", "C"))
    shapes = r"state batch shape \(3,\) and operator batch shape \(4,\)"
    with pytest.raises(ValueError, match=shapes):
        psi.apply(_haar(rng, 4, (4,)), ("A", "C"))            # two registers
    with pytest.raises(ValueError, match=shapes):
        psi.apply(_haar(rng, 2, (4,)), ("B",))                # one register
    with pytest.raises(ValueError, match=shapes):
        psi.apply(_haar(rng, 4, (4,))[..., :2], ("B",), out={"F": 2, "B": 2})
    with pytest.raises(ValueError, match=shapes):
        psi.splice(PureState(_random_vecs(rng, (4,), 2), (2,)), "A", ("X",))


def _permutation_matrix(dims, order):
    """P with (P @ vec) the vector over `dims` with its registers put in
    `order` (a list of register positions)."""
    d = math.prod(dims)
    return np.eye(d).reshape(tuple(dims) + (d,)).transpose(list(order) + [len(dims)]).reshape(d, d)


def _dense_apply(vec, dims, op, on, out_dims):
    """The dense reference of apply on one state: bring the `on` registers to
    the front in the order given, act with op (x) 1 on the rest, and move the
    output registers to their places, those of `on` without `out_dims` and
    the place of the first of them with it."""
    rest = [i for i in range(len(dims)) if i not in on]
    d_rest = math.prod(dims[i] for i in rest)
    t = np.kron(op, np.eye(d_rest)) @ _permutation_matrix(dims, list(on) + rest) @ vec
    if out_dims is None:
        back = list(on) + rest
        return _permutation_matrix([dims[i] for i in back], np.argsort(back)) @ t
    p = min(on)
    k = len(out_dims)
    layout = list(out_dims) + [dims[i] for i in rest]
    # from (out, rest) to (rest before p, out, rest from p on)
    order = [k + j for j in range(p)] + list(range(k)) + [k + j for j in range(p, len(rest))]
    return _permutation_matrix(layout, order) @ t


KERNEL_DIMS = (2, 3, 2, 4)


@pytest.mark.parametrize("on", [(1,), (3,),                  # one register
                                (1, 2), (2, 1), (0, 2), (3, 0),  # adjacent, reversed, apart
                                (1, 2, 3), (0, 1, 2), (3, 1, 0), (2, 0, 3)])
@pytest.mark.parametrize("isometry", [False, True])
def test_register_kernel_matches_the_dense_permuted_operator(monkeypatch, on, isometry):
    """apply on one, two and three registers, adjacent and in order, the
    same registers reversed, and registers apart, with and without output
    registers, on unstacked and stacked states with unstacked and stacked
    operators: every result is the kron-embedded operator between two
    permutations of the dense vector, and every apply reaches the register
    kernel once."""
    rng = np.random.default_rng(sum(on) + 10 * len(on) + 100 * isometry)
    labels = ("A", "B", "C", "D")
    d_in = math.prod(KERNEL_DIMS[i] for i in on)
    calls = []
    real = states._apply_registers
    monkeypatch.setattr(states, "_apply_registers",
                        lambda *args, **kw: calls.append(args) or real(*args, **kw))
    for state_batch, op_batch in [((), ()), ((5,), ()), ((), (5,)), ((5,), (5,))]:
        vec = _random_vecs(rng, state_batch, math.prod(KERNEL_DIMS))
        psi = PureState(vec, KERNEL_DIMS, labels)
        if isometry:
            out = {"F": 2, "G": d_in}
            op = _haar(rng, 2 * d_in, op_batch)[..., :d_in]
        else:
            out = None
            op = _haar(rng, d_in, op_batch)
        calls.clear()
        got = psi.apply(op, tuple(labels[i] for i in on), out)
        assert len(calls) == 1
        batch = state_batch or op_batch
        assert got.batch == batch
        out_dims = None if out is None else tuple(out.values())
        for i in np.ndindex(batch):
            want = _dense_apply(_slice(vec, i, 1), KERNEL_DIMS, _slice(op, i, 2), on, out_dims)
            np.testing.assert_allclose(got.vec[i], want, rtol=0, atol=1e-13)
        if out is None:
            assert got.dims == KERNEL_DIMS and got.labels == labels
        else:
            p = min(on)
            kept = [r for r in range(4) if r not in on]
            assert got.labels == tuple(labels[r] for r in kept[:p]) + ("F", "G") + tuple(
                labels[r] for r in kept[p:])
            assert got.dims == tuple(KERNEL_DIMS[r] for r in kept[:p]) + (2, d_in) + tuple(
                KERNEL_DIMS[r] for r in kept[p:])


@pytest.mark.parametrize("after", ["A", "B", "C", "D"])
def test_splice_matches_kron_and_permute(after):
    rng = np.random.default_rng(ord(after))
    labels = ("A", "B", "C", "D")
    a = labels.index(after)
    n = len(KERNEL_DIMS)
    for state_batch, spliced_batch in [((), ()), ((5,), ()), ((), (5,)), ((5,), (5,))]:
        vec = _random_vecs(rng, state_batch, math.prod(KERNEL_DIMS))
        pair = _random_vecs(rng, spliced_batch, 6)
        got = PureState(vec, KERNEL_DIMS, labels).splice(PureState(pair, (2, 3)), after,
                                                         ("X", "Y"))
        assert got.labels == labels[:a + 1] + ("X", "Y") + labels[a + 1:]
        assert got.dims == KERNEL_DIMS[:a + 1] + (2, 3) + KERNEL_DIMS[a + 1:]
        batch = state_batch or spliced_batch
        assert got.batch == batch
        # np.kron puts the spliced registers last; move them after `after`
        order = [*range(a + 1), n, n + 1, *range(a + 1, n)]
        for i in np.ndindex(batch):
            want = _permutation_matrix(KERNEL_DIMS + (2, 3), order) @ np.kron(
                _slice(vec, i, 1), _slice(pair, i, 1))
            np.testing.assert_allclose(got.vec[i], want, rtol=0, atol=1e-13)


def test_stacked_density_matrices_and_purifications():
    rhos = np.stack([random_density(4, seed=s).mat for s in range(3)])
    stack = DensityMatrix(rhos, (2, 2))
    assert stack.dim == 4
    pur = purify(stack)
    assert pur.batch == (3,) and pur.dims == (4, 2, 2)
    for b in range(3):
        one = purify(DensityMatrix(rhos[b], (2, 2)))
        np.testing.assert_array_equal(pur.vec[b], one.vec)
        np.testing.assert_allclose(pur.reduced((1, 2)).mat[b], rhos[b], atol=1e-12)
        np.testing.assert_allclose(pur.density().mat[b], one.density().mat, atol=1e-15)


def _entropy_reference(rho, subset):
    # the per-subset reading the mutual informations used before
    # DensityMatrix.entropies: one von_neumann per subset
    if not subset:
        return 0.0
    return von_neumann(rho if len(subset) == len(rho.dims) else rho.reduced(subset))


DM_SUBSETS = [(), (0,), (2,), (1,), (0, 1), (1, 2), (0, 2), (2, 0), (0, 1, 2), (2, 1, 0)]


def test_density_matrix_entropies_are_the_one_subset_readings_bit_for_bit(monkeypatch):
    rho = DensityMatrix(random_density(12, seed=8).mat, (2, 3, 2))
    shapes = []
    real = states._spectra
    monkeypatch.setattr(states, "_spectra", lambda a: shapes.append(a.shape) or real(a))
    values = rho.entropies(*DM_SUBSETS)
    # each distinct subset reduced once, every marginal of one size in one
    # eigensolve, the whole register read from the matrix itself
    assert sorted(shapes) == [(1, 3, 3), (1, 4, 4), (1, 12, 12), (2, 2, 2), (2, 6, 6)]
    assert all(isinstance(h, float) for h in values)
    assert values[0] == 0.0
    for subset, h in zip(DM_SUBSETS, values):
        assert h == _entropy_reference(rho, subset), subset
    assert values[-2] == von_neumann(rho)


def test_every_slice_of_stacked_density_matrix_entropies_is_the_one_matrix_reading():
    mats = np.stack([random_density(12, seed=s).mat for s in range(6)]).reshape(2, 3, 12, 12)
    values = DensityMatrix(mats, (2, 3, 2)).entropies(*DM_SUBSETS)
    assert all(h.shape == (2, 3) for h in values)
    np.testing.assert_array_equal(values[0], np.zeros((2, 3)))
    for i, j in itertools.product(range(2), range(3)):
        one = DensityMatrix(mats[i, j], (2, 3, 2)).entropies(*DM_SUBSETS)
        assert [h[i, j] for h in values] == one, (i, j)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_matrix_entropies_refuse_non_finite_input_by_name(bad):
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = bad
    for rho in (DensityMatrix(m, (2, 2)), DensityMatrix(np.stack([np.eye(4) / 4, m]), (2, 2))):
        with pytest.raises(ValueError, match="non-finite entries: 1 NaN or infinite"):
            rho.entropies((0,))


def test_density_matrix_cuts_are_checked_under_their_own_name():
    # an out-of-range subsystem used to be reported as partial_trace's "keep indices"
    rho = DensityMatrix(np.eye(4) / 4, (2, 2))
    for call in (lambda: rho.entropies((5,)), lambda: rho.reduced((0, 5))):
        with pytest.raises(ValueError, match=r"subsystem 5 out of range 0\.\.1"):
            call()
    with pytest.raises(ValueError, match="subsystem must be an integer, got 1.0"):
        rho.entropies((1.0,))
    assert rho.entropies((np.int64(1),)) == rho.entropies((1,)) == [1.0]
