"""Entropies, mutual informations, and coherent information.

The inequality tests in this file (nonnegativity of mutual information,
strong subadditivity, data processing for coherent information) are the
load-bearing ones: every witness downstream reduces to them.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmonogamy.channels import apply, apply_to_subsystem, kraus_channel, random_channel
from qmonogamy.classical import joint_pmf
from qmonogamy.info import (chain_coherent_information, conditional_mutual_information,
                            mutual_information, von_neumann)
from qmonogamy.states import (DensityMatrix, maximally_entangled, purify, random_density,
                              von_neumann_stack, w_state)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _multi_state(seed, dims):
    d = int(np.prod(dims))
    return DensityMatrix(random_density(d, seed=seed).mat, tuple(dims))


def test_entropy_reference_points():
    assert von_neumann(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    assert von_neumann(np.eye(8) / 8) == pytest.approx(3.0, abs=1e-12)
    # h(1/3) in bits
    assert von_neumann(np.diag([2 / 3, 1 / 3])) == pytest.approx(0.9182958340544896,
                                                                 abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_von_neumann_refuses_non_finite_input_by_name(bad):
    # a NaN eigenvalue fails the clip's w > ENTROPY_CLIP test and used to read as 0 bits
    m = np.eye(2) / 2
    m[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite entries: 1 NaN or infinite"):
        von_neumann(m)
    with pytest.raises(ValueError, match="non-finite"):
        von_neumann(DensityMatrix(np.full((2, 2), bad), (2,)))


@pytest.mark.parametrize("m,message", [
    (np.array([[1.0, 1.0], [0.0, 0.0]]), "not Hermitian"),  # read as -0.328 bits
    (np.diag([0.9, 0.3]), "not unit trace"),                 # read as 0.658 bits
    (np.eye(2), "not unit trace"),                           # read as -0.0 bits
    (np.array([1.0]), "must be square"),                     # numpy's bare AxisError
])
def test_von_neumann_refuses_a_raw_array_that_is_no_density_matrix(m, message):
    with pytest.raises(ValueError, match=message):
        von_neumann(m)


def test_von_neumann_reads_a_validated_raw_array_as_the_unchecked_stack():
    rng = np.random.default_rng(31)
    for d in range(1, 9):
        for _ in range(20):
            env = int(rng.integers(1, 2 * d + 1))
            m = _multi_state(int(rng.integers(2 ** 32)), (d, env)).reduced((0,)).mat
            assert von_neumann(m) == float(von_neumann_stack(m)), d


@given(seeds, st.sampled_from([2, 3, 4, 6]))
def test_entropy_bounds(seed, d):
    rho = random_density(d, seed=seed)
    h = von_neumann(rho)
    assert -1e-12 <= h <= np.log2(d) + 1e-12


def test_stacked_entropies_match_known_spectra():
    # rotated diagonal states with small and zero eigenvalues: the entropy is
    # -sum p log2 p over the nonzero p, whatever the clip below 1e-3 drops
    rng = np.random.default_rng(12)
    spectra = [[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [0.997, 1e-3, 1e-3, 1e-3],
               [0.4, 0.3, 0.2, 0.1], [0.25] * 4, [0.999, 1e-3, 0.0, 0.0]]
    mats = []
    for p in spectra:
        q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        mats.append(q @ np.diag(p) @ q.conj().T)
    got = von_neumann_stack(np.stack(mats).reshape(2, 3, 4, 4))
    assert got.shape == (2, 3)
    for value, p, m in zip(got.reshape(-1), spectra, mats):
        want = -sum(x * np.log2(x) for x in p if x > 0)
        assert value == pytest.approx(want, abs=1e-12)
        assert von_neumann(m) == pytest.approx(value, abs=1e-14)


@given(seeds)
def test_entropy_additive_on_products(seed):
    a = random_density(2, seed=seed)
    b = random_density(3, seed=seed + 1)
    joint = DensityMatrix(np.kron(a.mat, b.mat), (2, 3))
    assert von_neumann(joint) == pytest.approx(von_neumann(a) + von_neumann(b),
                                               abs=1e-10)


@given(seeds)
def test_mutual_information_nonnegative_and_zero_on_products(seed):
    rho = _multi_state(seed, (2, 3))
    assert mutual_information(rho, (0,), (1,)) >= -1e-10
    a = random_density(2, seed=seed)
    b = random_density(3, seed=seed + 1)
    prod = DensityMatrix(np.kron(a.mat, b.mat), (2, 3))
    assert mutual_information(prod, (0,), (1,)) == pytest.approx(0.0, abs=1e-10)


def test_mutual_information_of_the_entangled_pair():
    rho = maximally_entangled(3).density()
    assert mutual_information(rho, (0,), (1,)) == pytest.approx(2 * np.log2(3),
                                                                abs=1e-10)


def test_a_labelled_register_mixed_with_positions_reads_the_position_form():
    # W state on (R, S, E): a label and a position name registers alike
    w = w_state()
    mi = mutual_information(w, ("R",), (1,))
    assert mi == mutual_information(w, (0,), (1,)) == 0.9182958340544893
    assert mutual_information(w, (1,), ("R",)) == mutual_information(w, (1,), (0,))
    assert (conditional_mutual_information(w, ("R",), (1,), ("E",))
            == conditional_mutual_information(w, (0,), (1,), (2,)))
    assert (conditional_mutual_information(w, ("R",), ("S",), (2,))
            == conditional_mutual_information(w, (0,), (1,), (2,)))


@pytest.mark.parametrize("call", [
    lambda w: mutual_information(w, ("R",), (0,)),
    lambda w: mutual_information(w, ("S", 2), ("E",)),
    lambda w: conditional_mutual_information(w, ("R",), (1,), (0,)),
    lambda w: conditional_mutual_information(w, (0,), ("S",), (1, "E")),
], ids=["mi", "mi-two-sided", "cmi-a-c", "cmi-b-c"])
def test_a_register_named_by_label_and_by_position_is_an_overlap(call):
    with pytest.raises(ValueError, match="subsystem sets overlap"):
        call(w_state())


@pytest.mark.parametrize("kind,make", [
    ("subsystem", lambda n: DensityMatrix(np.eye(2 ** n) / 2 ** n, (2,) * n)),
    ("variable index", lambda n: joint_pmf(np.full((2,) * n, 0.5 ** n))),
], ids=["density matrix", "table"])
def test_a_non_integer_position_is_refused_by_name_before_the_sort(kind, make):
    # these kinds name subsystems by position only; a label beside a position
    # used to fail in the sort of the cuts with a bare TypeError
    for odd, call in [
            (["A"], lambda: mutual_information(make(2), ("A",), (1,))),
            ([1.0], lambda: mutual_information(make(2), (0,), (1.0,))),
            (["A"], lambda: conditional_mutual_information(make(3), ("A",), (1,), (2,))),
            ([True], lambda: conditional_mutual_information(make(3), (0,), (1,), (True,)))]:
        with pytest.raises(ValueError, match=re.escape(
                f"{kind} must be an integer, got {odd[0]!r}")):
            call()


@given(seeds)
@settings(max_examples=60)
def test_strong_subadditivity(seed):
    """Conditional mutual information is nonnegative for every state."""
    rho = _multi_state(seed, (2, 2, 2))
    assert conditional_mutual_information(rho, (0,), (2,), (1,)) >= -1e-10


def _coherent_information(rho: DensityMatrix, ch) -> float:
    """I_c(rho; L) = H(L(rho)) - H((id x L)(psi)), written out with psi = purify(rho)."""
    joint = apply_to_subsystem(ch, purify(rho).density(), 1)
    return von_neumann(apply(ch, rho)) - von_neumann(joint)


def test_coherent_information_of_the_identity_is_the_entropy():
    rho = random_density(3, seed=13)
    ic = chain_coherent_information(rho, [kraus_channel([np.eye(3)])], 1, 2)
    assert ic == pytest.approx(von_neumann(rho), abs=1e-10)


def test_coherent_information_can_be_negative():
    """Full depolarization decouples the reference: Ic = -H(rho)."""
    # K_ij = |i><j| / sqrt(2) maps every input to 1/2
    depolarizing = kraus_channel([np.outer(a, b) / np.sqrt(2)
                                  for a in np.eye(2) for b in np.eye(2)])
    rho = random_density(2, seed=14)
    ic = chain_coherent_information(rho, [depolarizing], 1, 2)
    assert ic == pytest.approx(-von_neumann(rho), abs=1e-10)
    assert ic < -0.1


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_coherent_information_triangle_bound(seed):
    """|Ic| <= H(rho): the reference entropy caps the R-B entropy difference."""
    rng = np.random.default_rng(seed)
    rho = random_density(2, seed=rng)
    ch = random_channel(2, 2, 2, seed=rng)
    ic = chain_coherent_information(rho, [ch], 1, 2)
    assert abs(ic) <= von_neumann(rho) + 1e-10


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_chain_coherent_information_data_processing(seed):
    """Ic(r:s) never increases as the segment is extended to the right."""
    rng = np.random.default_rng(seed)
    rho = random_density(2, seed=rng)
    chain = [random_channel(2, 2, 2, seed=rng) for _ in range(3)]
    vals = [chain_coherent_information(rho, chain, 1, s) for s in (2, 3, 4)]
    assert vals[0] >= vals[1] - 1e-10
    assert vals[1] >= vals[2] - 1e-10


def test_chain_segment_of_length_one_is_plain_coherent_information():
    rho = random_density(2, seed=15)
    chain = [random_channel(2, 2, 2, seed=s) for s in (1, 2, 3)]
    got = chain_coherent_information(rho, chain, 1, 2)
    assert got == pytest.approx(_coherent_information(rho, chain[0]), abs=1e-12)
    # starting point r > 1 pushes the state through the first channels
    rho2 = apply(chain[0], rho)
    got = chain_coherent_information(rho, chain, 2, 3)
    assert got == pytest.approx(_coherent_information(rho2, chain[1]), abs=1e-12)


def test_chain_of_unitaries_preserves_coherent_information():
    rho = random_density(2, seed=16)
    h = von_neumann(rho)
    u = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    chain = [kraus_channel([u]), kraus_channel([u])]
    for r, s in [(1, 2), (1, 3), (2, 3)]:
        assert chain_coherent_information(rho, chain, r, s) == pytest.approx(h, abs=1e-10)


def test_chain_index_validation():
    rho = random_density(2, seed=17)
    chain = [kraus_channel([np.eye(2)])]
    with pytest.raises(ValueError):
        chain_coherent_information(rho, chain, 2, 2)
    with pytest.raises(ValueError):
        chain_coherent_information(rho, chain, 1, 3)
