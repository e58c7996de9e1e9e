"""Validated state containers, purification, the fixed example states, and
the labelled register operations."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qmonogamy.states as states_module
from qmonogamy.info import von_neumann
from qmonogamy.states import (MAX_AMPLITUDES, DensityMatrix, PureState, density,
                              density_stack, ginibre, ginibre_spectra, maximally_entangled,
                              pure_state, purify, random_density, spectrum_entropy,
                              von_neumann_stack, w_state)

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
    a = random_density(4, rank=2, seed=11)
    b = random_density(4, rank=2, seed=11)
    np.testing.assert_array_equal(a.mat, b.mat)
    w = np.linalg.eigvalsh(a.mat)
    assert abs(w.sum() - 1.0) < 1e-10
    assert w.min() > -1e-12
    assert (w > 1e-10).sum() == 2  # rank control
    with pytest.raises(ValueError):
        random_density(2, rank=3)


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
                # a fresh state on the same vector, since the memo keys a set
                # and its complement to one entry
                fresh = PureState(psi.vec, psi.dims, labels)
                assert h == pytest.approx(fresh.entropy(rest), abs=1e-12)
                assert h == pytest.approx(von_neumann(psi.reduced(subset)), abs=1e-12)
        assert psi.entropy(()) == 0.0
        assert psi.entropy(labels) == 0.0


def test_entropy_memo_is_shared_by_a_cut_and_its_complement(monkeypatch):
    calls = []
    real = states_module.von_neumann_stack
    monkeypatch.setattr(states_module, "von_neumann_stack",
                        lambda mats: calls.append(mats.shape[-1]) or real(mats))
    psi = _random_labelled((2, 3, 2, 3), ("A", "B", "C", "D"), np.random.default_rng(6))
    h = psi.entropy(("B",))
    assert psi.entropy(("D", "C", "A")) == h and psi.entropy((1,)) == h
    assert calls == [3]
    # equal sides: the one holding register 0 is reduced, whichever is asked
    h = psi.entropy(("C", "D"))
    assert psi.entropy(("B", "A")) == h
    assert calls == [3, 6]


def test_derived_states_never_reuse_their_parents_entropies():
    rng = np.random.default_rng(7)
    labels = ("A", "B", "C")
    psi = _random_labelled((2, 2, 2), labels, rng)
    subsets = [c for n in (1, 2) for c in itertools.combinations(range(3), n)]
    for subset in subsets:
        psi.entropy(subset)  # fill the parent's memo

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


def test_a_batched_entropy_memo_returns_one_read_only_array():
    rng = np.random.default_rng(11)
    psi = PureState(_random_vecs(rng, (5,), 12), (2, 3, 2), ("A", "B", "C"))
    h = psi.entropy(("B",))
    assert isinstance(h, np.ndarray) and h.shape == (5,)
    assert psi.entropy(("C", "A")) is h and psi.entropy((1,)) is h
    assert not h.flags.writeable
    with pytest.raises(ValueError):
        h[0] = 0.0
    for b in range(5):
        one = PureState(psi.vec[b], psi.dims, psi.labels).entropy(("B",))
        assert isinstance(one, float) and h[b] == pytest.approx(one, abs=1e-12)
    np.testing.assert_array_equal(psi.entropy(()), np.zeros(5))
    np.testing.assert_array_equal(psi.entropy(("A", "B", "C")), np.zeros(5))


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
