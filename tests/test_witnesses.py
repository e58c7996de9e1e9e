"""Gap witnesses on Markov chain processes and their entropy certificates.

Strategy: witnesses and certificates both read one BondTable per
process (witnesses.bond_table), so their agreement checks the uncrossing
algebra and nothing more.  The table's entropies are checked against two
references computed apart from it: the purified circuit
(purified_circuit_state), whose register marginals give
H(R, E_1..E_{s-1}) and H(E_r..E_{s-1}) directly, and
info.chain_coherent_information, which pushes density matrices through
the channels one pair (r, s) at a time and builds no circuit (as
benchmarks/reference.py does with its own numpy recomputation).  The
hand-typed certificates are conditional mutual informations of the
circuit's registers.  Agreement with both references, plus the
certificate identities, pins the table down.
"""

import functools
import itertools
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmonogamy import experiments, linalg, witnesses as witnesses_module
from qmonogamy.channels import KrausChannel, kraus_channel, random_channel
from qmonogamy.experiments import random_markov_process
from qmonogamy.info import chain_coherent_information, conditional_mutual_information
from qmonogamy.states import DensityMatrix, random_density
from qmonogamy.tolerances import GAP_TOLERANCE
from qmonogamy.witnesses import (MONOGAMY, WitnessReport, cqmi_monotonicity_gap,
                                 extra_dpi_witnesses, m4_ssa_certificate, m4_witness,
                                 m6_ssa_certificates, m6_witnesses,
                                 m8_ssa_certificates, m8_witnesses, markov_process,
                                 mi_dpi_gap, monogamy_certificate, monogamy_gap,
                                 purified_circuit_state, qdpi_witnesses, survey_certificates,
                                 survey_witnesses, uncrossing)

TOL = 1e-9


def test_markov_process_validates_adjacency():
    rho = random_density(2, seed=0)
    good = random_channel(2, 2, 2, seed=1)
    bad = random_channel(3, 3, 3, seed=2)
    with pytest.raises(ValueError):
        markov_process(rho, [good, bad])
    p = markov_process(rho, [good])
    assert p.n_states == 2
    np.testing.assert_allclose(p.initial.mat, rho.mat)


def test_markov_process_refuses_a_channel_that_changes_the_dimension():
    # a qubit-to-qutrit isometry: a valid channel, but the bond table has one
    # system dimension
    widen = kraus_channel([np.eye(3, 2)])
    with pytest.raises(ValueError, match="a process carries one system dimension"):
        markov_process(random_density(2, seed=0), [widen])
    with pytest.raises(ValueError, match="channel 1 maps dimension 2 to 3"):
        markov_process(random_density(2, seed=0), [random_channel(2, 2, 2, seed=1), widen])


def test_markov_process_refuses_an_initial_state_that_is_no_density_matrix():
    # trace 1 and Hermitian, but not positive: its M4 read 0.035 with no error
    ch = random_channel(2, 2, 2, seed=1)
    negative = DensityMatrix(np.diag([1.5, -0.5]).astype(complex), (2,))
    with pytest.raises(ValueError, match="not positive semidefinite: min eigenvalue "
                                         "-5.000e-01"):
        markov_process(negative, [ch] * 3)
    with pytest.raises(ValueError, match="not unit trace"):
        markov_process(DensityMatrix(np.eye(2, dtype=complex), (2,)), [ch] * 3)
    nan = np.eye(2, dtype=complex) / 2
    nan[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        markov_process(DensityMatrix(nan, (2,)), [ch] * 3)


def test_markov_process_refuses_a_map_that_is_no_channel():
    # doubling the state gave DP1 = -12 and DP2 = -60, false violations
    rho = random_density(2, seed=0)
    good = random_channel(2, 2, 2, seed=1)
    doubling = KrausChannel((2 * np.eye(2, dtype=complex),), 2, 2)
    with pytest.raises(ValueError, match="not trace preserving: max deviation 3.000e\\+00"):
        markov_process(rho, [doubling] * 3)
    # channels of different Kraus counts are each checked, in their own stack
    leaky = KrausChannel(tuple(0.9 * k for k in good.kraus), 2, 2)
    for chain in ([random_channel(2, 2, 3, seed=2), leaky, good],
                  [leaky, random_channel(2, 2, 3, seed=2)]):
        with pytest.raises(ValueError, match="not trace preserving"):
            markov_process(rho, chain)
    # operators of the wrong size, and none at all, are refused by channel
    wide = KrausChannel((np.eye(3, dtype=complex),), 2, 2)
    with pytest.raises(ValueError, match=r"channel 1 maps dimension 2 to 2 by Kraus "
                                         r"operators of shapes \[\(3, 3\)\]"):
        markov_process(rho, [good, wide])
    with pytest.raises(ValueError, match=r"channel 0 .* of shapes \[\]"):
        markov_process(rho, [KrausChannel((), 2, 2)])


def test_witness_report_violation_bookkeeping():
    rep = WitnessReport({"a": 0.2, "b": -1e-12, "c": -0.5})
    assert rep.min_value == -0.5
    assert rep.violations == {"c": -0.5}
    assert not rep.passed
    assert WitnessReport({"a": 0.0}).passed
    # a stack: each property used to raise numpy's "truth value ... is ambiguous"
    rep = WitnessReport({"a": np.array([0.2, 0.0]), "b": np.array([0.1, -1e-12]),
                         "c": np.array([0.3, -0.5])})
    assert rep.min_value == -0.5 and isinstance(rep.min_value, float)
    assert list(rep.violations) == ["c"] and rep.violations["c"] is rep.entries["c"]
    assert not rep.passed
    assert WitnessReport({"a": np.array([0.0, 0.2])}).passed


def test_qdpi_gaps_match_their_definitions():
    p = random_markov_process(4, seed=3)
    rep = qdpi_witnesses(p)
    ic = p.coherent_info
    assert rep.entries["DP1"] == pytest.approx(ic(1, 2) - ic(1, 3), abs=1e-12)
    assert rep.entries["DP2"] == pytest.approx(ic(1, 2) - ic(1, 4), abs=1e-12)
    assert rep.entries["DP3"] == pytest.approx(ic(1, 3) - ic(1, 4), abs=1e-12)
    assert rep.entries["DP4"] == pytest.approx(ic(2, 3) - ic(2, 4), abs=1e-12)
    assert m4_witness(p) == pytest.approx(
        ic(1, 4) + ic(2, 3) - ic(1, 3) - ic(2, 4), abs=1e-12)


def test_four_step_witnesses_are_nonnegative():
    for seed in range(40):
        p = random_markov_process(4, seed=seed)
        rep = qdpi_witnesses(p)
        assert rep.passed, f"seed {seed}: {rep.violations}"
        assert m4_witness(p) >= -TOL, f"seed {seed}"


def test_m4_matches_its_ssa_certificate():
    for seed in range(25):
        p = random_markov_process(4, seed=seed, d_env=3)
        cert = m4_ssa_certificate(p)
        assert cert >= -1e-12  # a CMI, so nonnegative on its own
        assert m4_witness(p) == pytest.approx(cert, abs=1e-8), f"seed {seed}"


def _kraus_reference(p, r, s):
    return chain_coherent_information(p.initial, list(p.channels), r, s)


def _envs(a, b):
    """The labels E_a..E_{b-1} of the purified circuit."""
    return tuple(f"E{e}" for e in range(a, b))


def _circuit_reference(circuit, r, s):
    """Ic(r:s) = H(R, E_1..E_{s-1}) - H(E_r..E_{s-1}) from the circuit's registers."""
    return circuit.entropy(("R",) + _envs(1, s)) - circuit.entropy(_envs(r, s))


def test_purified_circuit_reproduces_chain_coherent_information():
    """Ic(r:s) read from the purified circuit's registers equals the
    Kraus-propagation value and the bond table's for every pair."""
    assert purified_circuit_state(random_markov_process(4, seed=11)).labels == \
        ("R", "E1", "E2", "E3", "S")
    for n, d_env in itertools.product((4, 6, 8), (2, 3)):
        p = random_markov_process(n, seed=11 + n, d_env=d_env)
        circuit = purified_circuit_state(p)
        for r, s in itertools.combinations(range(1, n + 1), 2):
            want = _kraus_reference(p, r, s)
            assert _circuit_reference(circuit, r, s) == pytest.approx(want, abs=1e-12), \
                (n, d_env, r, s)
            assert p.coherent_info(r, s) == pytest.approx(want, abs=1e-12), (n, d_env, r, s)
    with pytest.raises(ValueError, match="r < s"):
        p.coherent_info(3, 3)


@pytest.mark.parametrize("seed", [0, 1])
def test_gap_tolerance_covers_the_largest_circuit(seed):
    """The reason for the -GAP_TOLERANCE floor: at the largest circuit the
    reference builds (--dims 2 3 --steps 8) and at the widest shapes verify
    allows (--dims 2 64, 11 1 and 11 11 at 8 steps), the bond table, the
    Kraus propagation and, where it is built, the circuit's registers, and
    the M8 witnesses and their certificates, agree far inside it."""
    for dims in [(2, 3), (2, 64), (11, 1), (11, 11)]:
        p = random_markov_process(8, seed, *dims)
        ic = functools.cache(functools.partial(_kraus_reference, p))
        if dims == (2, 3):
            circuit = purified_circuit_state(p)
            assert circuit.dim == 2 * 3 ** 7 * 2 == 8748
            for r, s in itertools.combinations(range(1, 9), 2):
                assert abs(_circuit_reference(circuit, r, s) - ic(r, s)) <= 1e-12, (r, s)
        for r, s in itertools.combinations(range(1, 9), 2):
            assert abs(p.coherent_info(r, s) - ic(r, s)) <= 1e-12, (dims, r, s)
        witnesses = m8_witnesses(p).entries
        certificates = m8_ssa_certificates(p)
        assert witnesses.keys() == certificates.keys() == MONOGAMY[8].keys()
        for name, perm in MONOGAMY[8].items():
            assert abs(witnesses[name] - certificates[name]) <= 1e-12, (dims, name)
            assert abs(witnesses[name] - monogamy_gap(ic, perm)) <= 1e-12, (dims, name)


def test_chain_coherent_info_through_the_process_wrapper():
    p = random_markov_process(4, seed=25)
    want = chain_coherent_information(p.initial, list(p.channels), 2, 4)
    assert p.coherent_info(2, 4) == pytest.approx(want, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(1, 5), st.integers(3, 6),
       st.integers(0, 2 ** 32 - 1),
       st.lists(st.integers(1, 5), min_size=2, max_size=5, unique=True))
def test_bond_oracle_matches_the_kraus_reference(d_sys, d_env, n, seed, kraus_counts):
    # no amplitude budget applies: the bond table's joints are d_sys^2 x d_sys^2
    p = random_markov_process(n, seed, d_sys, d_env)
    for r, s in itertools.combinations(range(1, n + 1), 2):
        assert p.coherent_info(r, s) == pytest.approx(
            _kraus_reference(p, r, s), abs=1e-12), (r, s)
    # channels whose Kraus counts differ, so each transfer matrix is built
    # from a list of its own length
    rng = np.random.default_rng(seed)
    mixed = markov_process(random_density(d_sys, seed=rng),
                           [random_channel(d_sys, d_sys, k, rng) for k in kraus_counts])
    for r, s in itertools.combinations(range(1, mixed.n_states + 1), 2):
        assert mixed.coherent_info(r, s) == pytest.approx(
            _kraus_reference(mixed, r, s), abs=1e-12), (kraus_counts, r, s)
    if n >= 4:
        assert qdpi_witnesses(p).passed
        assert m4_witness(p) == pytest.approx(m4_ssa_certificate(p), abs=1e-9)
        assert m4_ssa_certificate(p) >= -TOL
    if n == 6:
        rep, certs = m6_witnesses(p), m6_ssa_certificates(p)
        assert rep.passed
        for name in ("M6a", "M6b"):
            assert rep.entries[name] == pytest.approx(certs[name], abs=1e-9), name


def test_eight_state_witnesses_and_certificates_share_one_bond_table(monkeypatch):
    # one BondTable per process: the 16 distinct coherent informations and the
    # 7 certificate sums read 2 stacked eigensolves (the states, then the
    # joints of every channel at once), none larger than the d^2 x d^2 joint
    calls = []
    real = witnesses_module.von_neumann_stack
    monkeypatch.setattr(witnesses_module, "von_neumann_stack",
                        lambda mats: calls.append(mats.shape[-1]) or real(mats))
    p = random_markov_process(8, seed=0)
    m8_witnesses(p)
    m8_ssa_certificates(p)
    assert calls == [2, 4]
    m8_witnesses(p)
    assert calls == [2, 4]


def test_the_bond_table_builds_each_transfer_matrix_once(monkeypatch):
    # each channel's transfer matrix serves both the state step and the joint
    # step: 7 builds for 7 channels, all by bond_table itself, none by an
    # apply_kraus call
    callers = []
    real = linalg.transfer_matrix

    def counting(kraus):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return real(kraus)

    monkeypatch.setattr(linalg, "transfer_matrix", counting)
    monkeypatch.setattr(witnesses_module, "transfer_matrix", counting)
    p = random_markov_process(8, seed=0, d_env=3)
    m8_witnesses(p)
    assert callers == ["bond_table"] * 7


def test_a_process_past_the_circuit_budget_gets_its_m8_witnesses():
    # R, seven 4-dimensional environments and S: 2 * 4**7 * 2 = 65536
    # amplitudes; the circuit reference is refused, the bond table is not
    p = random_markov_process(8, 0, 2, 4)
    with pytest.raises(ValueError, match="amplitudes"):
        purified_circuit_state(p)
    ic = functools.cache(functools.partial(_kraus_reference, p))
    witnesses = m8_witnesses(p).entries
    certificates = m8_ssa_certificates(p)
    assert witnesses.keys() == certificates.keys() == MONOGAMY[8].keys()
    for name, perm in MONOGAMY[8].items():
        want = monogamy_gap(ic, perm)
        assert abs(witnesses[name] - want) <= 1e-12, name
        assert abs(certificates[name] - want) <= 1e-12, name


def test_six_step_monogamy_and_certificates():
    for seed in range(12):
        p = random_markov_process(6, seed=seed)
        rep = m6_witnesses(p)
        assert rep.passed, f"seed {seed}: {rep.violations}"
        certs = m6_ssa_certificates(p)
        for name in ("M6a", "M6b"):
            assert rep.entries[name] == pytest.approx(certs[name], abs=1e-7), \
                f"seed {seed} {name}"


def test_eight_step_monogamy_and_certificates():
    for seed in range(6):
        p = random_markov_process(8, seed=seed)
        rep = m8_witnesses(p)
        assert rep.passed, f"seed {seed}: {rep.violations}"
        certs = m8_ssa_certificates(p)
        assert set(certs) == {f"M8{x}" for x in "abcdefg"}
        for name, val in certs.items():
            assert rep.entries[name] == pytest.approx(val, abs=1e-7), \
                f"seed {seed} {name}"


def test_extra_dpi_gaps_are_reported_without_sign_claims():
    # none of DP5..DP9 is a proven inequality, so the report carries the
    # raw values and nothing more; each one goes negative on some random
    # Markov process, which pins down that these must stay unasserted
    for seed in range(25):
        entries = extra_dpi_witnesses(random_markov_process(4, seed=seed + 100)).entries
        assert set(entries) == {"DP5", "DP6", "DP7", "DP8", "DP9"}
        for value in entries.values():
            assert np.isfinite(value)
    counterexample = extra_dpi_witnesses(random_markov_process(4, seed=102)).entries
    assert counterexample["DP7"] == pytest.approx(-0.22743440215, abs=1e-8)
    for name, seed, value in [("DP5", 73, -0.44518182109), ("DP6", 73, -0.43413429739),
                              ("DP7", 73, -0.71631871433), ("DP8", 149, -0.35607231392),
                              ("DP9", 244, -0.21276621078)]:
        entries = extra_dpi_witnesses(random_markov_process(4, seed=seed)).entries
        assert entries[name] == pytest.approx(value, abs=1e-8), (name, seed)


def test_extra_dpi_gaps_are_the_hand_written_differences():
    # each candidate gap is one gathered Ic(a) - Ic(b), the same float
    # subtraction as the hand-written form, so the values are equal
    for n_states in (3, 4, 8):
        p = random_markov_process(n_states, seed=n_states)
        ic = p.coherent_info
        hand = {"DP5": ic(2, 3) - ic(1, 3)}
        if n_states >= 4:
            hand.update(DP6=ic(2, 3) - ic(1, 4), DP7=ic(2, 4) - ic(1, 4),
                        DP8=ic(3, 4) - ic(1, 4), DP9=ic(3, 4) - ic(2, 4))
        assert extra_dpi_witnesses(p).entries == hand


def test_dp5_equals_an_environment_conditional_entropy():
    # DP5 = Ic(2:3) - Ic(1:3) = H(E1|E2) of the purified circuit: a DP5
    # violation would refute the nonnegativity of that conditional entropy
    for seed in range(10):
        p = random_markov_process(4, seed=seed)
        circuit = purified_circuit_state(p)
        h = circuit.entropy(("E1", "E2")) - circuit.entropy(("E2",))
        assert extra_dpi_witnesses(p).entries["DP5"] == pytest.approx(h, abs=1e-12)
        assert h == pytest.approx(_kraus_reference(p, 2, 3) - _kraus_reference(p, 1, 3),
                                  abs=1e-12)


def test_monogamy_gap_swap_is_m4():
    p = random_markov_process(4, seed=21)
    gap = monogamy_gap(p.coherent_info, (2, 1))
    assert gap == pytest.approx(m4_witness(p), abs=1e-12)
    assert monogamy_gap(p.coherent_info, (1, 2)) == pytest.approx(0.0, abs=1e-12)


def test_monogamy_gap_all_three_pair_permutations():
    p = random_markov_process(6, seed=22)
    for perm in itertools.permutations((1, 2, 3)):
        gap = monogamy_gap(p.coherent_info, perm)
        assert gap >= -TOL, perm
        assert monogamy_certificate(p, perm) == pytest.approx(gap, abs=1e-12), perm


def test_monogamy_gap_guards():
    p = random_markov_process(4, seed=23)
    for bad in [(1, 1), (), (0, 1), (2, 3), (2.0, 1.0), (np.float64(2), 1), (True, 2),
                (2, True)]:
        with pytest.raises(ValueError, match="rearrange"):
            monogamy_gap(p.coherent_info, bad)
        with pytest.raises(ValueError, match="rearrange"):
            monogamy_certificate(p, bad)
        with pytest.raises(ValueError, match="rearrange"):
            uncrossing(bad)
    # numpy integers are integers
    perm = tuple(np.array([2, 1]))
    assert monogamy_gap(p.coherent_info, perm) == m4_witness(p)
    assert monogamy_certificate(p, perm) == m4_ssa_certificate(p)
    # the state count is checked by the quantity, Ic(1:6) here
    with pytest.raises(ValueError, match="at least 6 states"):
        monogamy_gap(p.coherent_info, (1, 2, 3))
    with pytest.raises(ValueError, match="at least 6 states"):
        monogamy_certificate(p, (1, 2, 3))


# ---------------------------------------------------------------------------
# the gathered families against the one-quantity forms, bit for bit
# ---------------------------------------------------------------------------

def _uncrossing_sum(table, perm):
    """The certificate of perm on a BondTable, summed over uncrossing(perm)."""
    n = len(perm)

    def h(i, j):
        return table.interval[n + 1 - i, n + j]

    return sum((h(k, i) + h(i, j) - h(k, j) - h(i, i) for k, i, j in uncrossing(perm)), 0.0)


@pytest.mark.parametrize("size", [1, 9])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("steps", [4, 6, 8])
def test_the_gathers_equal_the_one_quantity_forms_bit_for_bit(steps, dims, size):
    seed = 60 + steps + size
    table = witnesses_module.bond_table(*experiments._survey_draws(steps, seed, size, *dims))
    ic = table.coherent_info
    gaps = survey_witnesses(table, steps)
    certs = survey_certificates(table, steps)
    assert list(certs) == list(MONOGAMY[steps])
    for name, perm in MONOGAMY[steps].items():
        assert gaps[name].shape == certs[name].shape == (size,), name
        assert gaps[name].tobytes() == monogamy_gap(ic, perm).tobytes(), name
        assert certs[name].tobytes() == _uncrossing_sum(table, perm).tobytes(), name
        assert table.certificate(perm).tobytes() == certs[name].tobytes(), name
    if steps == 4:
        for name, want in [("DP1", ic(1, 2) - ic(1, 3)), ("DP2", ic(1, 2) - ic(1, 4)),
                           ("DP3", ic(1, 3) - ic(1, 4)), ("DP4", ic(2, 3) - ic(2, 4))]:
            assert gaps[name].tobytes() == want.tobytes(), name
    # the one-process forms read the same gathers on the table of one process
    p = random_markov_process(steps, seed, *dims)
    witnesses = ({"M4": m4_witness(p)} if steps == 4 else
                 (m6_witnesses if steps == 6 else m8_witnesses)(p).entries)
    certificates = ({"M4": m4_ssa_certificate(p)} if steps == 4 else
                    (m6_ssa_certificates if steps == 6 else m8_ssa_certificates)(p))
    if steps == 4:
        witnesses |= qdpi_witnesses(p).entries
    for name, value in witnesses.items():
        assert type(value) is float, name
        assert value == gaps[name][0], name
        if name in MONOGAMY[steps]:
            assert value == monogamy_gap(p.coherent_info, MONOGAMY[steps][name]), name
    for name, value in certificates.items():
        assert type(value) is float, name
        assert value == certs[name][0] == monogamy_certificate(p, MONOGAMY[steps][name]), name


def test_a_certificate_without_swaps_has_the_stack_shape():
    table = witnesses_module.bond_table(*experiments._survey_draws(4, 3, 5, 2, 2))
    for perm in [(1,), (1, 2)]:
        assert uncrossing(perm) == []
        cert = table.certificate(perm)
        assert cert.shape == (5,) and not cert.any()
        assert np.array_equal(cert, monogamy_gap(table.coherent_info, perm))
    p = random_markov_process(4, seed=3)
    assert p.table.certificate((1, 2)).shape == ()
    assert monogamy_certificate(p, (1, 2)) == 0.0


# ---------------------------------------------------------------------------
# the derived certificates against hand-typed references
# ---------------------------------------------------------------------------

# the named witnesses as pair lists (r, s): nested sum minus Ic over these;
# pair (r, s) of a 2n-state witness means perm(n + 1 - r) = s - n in MONOGAMY
PAIRINGS = {
    "M4": ((1, 3), (2, 4)),
    "M6a": ((1, 4), (2, 6), (3, 5)),
    "M6b": ((1, 5), (2, 4), (3, 6)),
    "M8a": ((1, 5), (2, 8), (3, 7), (4, 6)),
    "M8b": ((1, 7), (2, 5), (3, 8), (4, 6)),
    "M8c": ((1, 6), (2, 8), (3, 5), (4, 7)),
    "M8d": ((1, 5), (2, 6), (3, 8), (4, 7)),
    "M8e": ((1, 7), (2, 6), (3, 5), (4, 8)),
    "M8f": ((1, 6), (2, 5), (3, 7), (4, 8)),
    "M8g": ((1, 5), (2, 6), (3, 7), (4, 8)),
}


def _hand_certificates(p):
    """The strong-subadditivity sums typed out by hand, one per named witness,
    on the registers of the purified circuit."""
    circuit = purified_circuit_state(p)

    def cmi(a, b, c):
        def envs(idx):
            return tuple(f"E{e}" for e in idx)
        return conditional_mutual_information(circuit, envs(a), envs(b), envs(c))

    certs = {"M4": cmi((1,), (3,), (2,))}
    if p.n_states >= 6:
        certs["M6a"] = cmi((1,), (5,), (2, 3, 4)) + cmi((1, 2), (4,), (3,))
        certs["M6b"] = cmi((1, 2), (5,), (3, 4)) + cmi((2,), (4,), (3,))
    if p.n_states >= 8:
        outer = cmi((1,), (7,), (2, 3, 4, 5, 6))
        certs["M8a"] = outer + cmi((1, 2), (6,), (3, 4, 5)) + cmi((1, 2, 3), (5,), (4,))
        certs["M8b"] = outer + cmi((2,), (6, 7), (3, 4, 5)) + cmi((2, 3), (5,), (4,))
        certs["M8c"] = outer + cmi((1, 2), (6,), (3, 4, 5)) + cmi((3,), (5, 6), (4,))
        certs["M8d"] = outer + cmi((2,), (6, 7), (3, 4, 5)) + cmi((1, 2, 3), (5, 6), (4,))
        certs["M8e"] = outer + cmi((2,), (6, 7), (3, 4, 5)) + cmi((3,), (5, 6, 7), (4,))
        certs["M8f"] = outer + cmi((1, 2), (6,), (3, 4, 5)) + cmi((2, 3), (5, 6, 7), (4,))
        certs["M8g"] = (outer + cmi((1, 2, 3), (5, 6), (4,)) + cmi((2,), (6, 7), (3, 4, 5))
                        + cmi((3,), (7,), (4, 5, 6)))
    return certs


@pytest.mark.parametrize("steps", [4, 6, 8])
def test_named_witnesses_keep_the_pair_sums_and_the_hand_certificates(steps):
    for seed in range(3):
        p = random_markov_process(steps, seed=seed + 40, d_env=2 if steps == 8 else 3)
        ic = p.coherent_info
        nested = sum(ic(r, steps + 1 - r) for r in range(1, steps // 2 + 1))
        witnesses = ({"M4": m4_witness(p)} if steps == 4 else
                     (m6_witnesses if steps == 6 else m8_witnesses)(p).entries)
        certificates = ({"M4": m4_ssa_certificate(p)} if steps == 4 else
                        (m6_ssa_certificates if steps == 6 else m8_ssa_certificates)(p))
        hand = _hand_certificates(p)
        assert witnesses.keys() == certificates.keys() == MONOGAMY[steps].keys()
        for name, value in witnesses.items():
            # the same sums in the same order, so the same bits
            assert value == nested - sum(ic(r, s) for r, s in PAIRINGS[name]), name
            assert certificates[name] == pytest.approx(hand[name], abs=1e-12), name
            assert certificates[name] == pytest.approx(value, abs=1e-12), name


def _interval(n, i, j):
    """The environment registers of H[i, j] = H(E_{n+1-i}..E_{n+j-1})."""
    return frozenset(range(n + 1 - i, n + j))


@pytest.mark.parametrize("n", range(2, 7))
def test_uncrossing_terms_add_up_to_the_gap_symbolically(n):
    """For every permutation, the interval-entropy coefficients of the
    certificate's CMI terms equal the gap's linear form exactly."""
    for perm in itertools.permutations(range(1, n + 1)):
        gap = Counter()
        for i, f in enumerate(perm, 1):
            gap[_interval(n, i, f)] += 1
            gap[_interval(n, i, i)] -= 1
        swaps = uncrossing(perm)
        assert len(swaps) <= n - 1
        terms = Counter()
        for k, i, j in swaps:
            assert k > i and j > i, (perm, k, i, j)
            # I(A:C|B) = H(AB) + H(BC) - H(B) - H(ABC) on the certificate's intervals
            a = frozenset(range(n + 1 - k, n - i + 1))
            c = frozenset(range(n + i, n + j))
            b = frozenset(range(n + 1 - i, n + i))
            assert a and b and c
            terms.update({a | b: 1, b | c: 1})
            terms.subtract({b: 1, a | b | c: 1})
        assert +gap == +terms and -gap == -terms, perm


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.permutations(range(1, n + 1))),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_every_permutation_gap_equals_its_certificate(perm, d_env, seed):
    n = len(perm)
    p = random_markov_process(2 * n, seed, 2, d_env)
    certificate = monogamy_certificate(p, perm)
    assert certificate >= -GAP_TOLERANCE
    assert certificate == pytest.approx(monogamy_gap(p.coherent_info, perm), abs=1e-12)


def test_the_reversal_gap_of_a_twelve_state_process():
    p = random_markov_process(12, seed=5)
    perm = (6, 5, 4, 3, 2, 1)
    ref = [[_kraus_reference(p, 7 - i, 6 + j) for j in range(1, 7)] for i in range(1, 7)]
    want = sum(ref[i][i] for i in range(6)) - sum(ref[i][perm[i] - 1] for i in range(6))
    gap = monogamy_gap(p.coherent_info, perm)
    assert gap == pytest.approx(want, abs=1e-12)
    assert gap >= -GAP_TOLERANCE
    assert monogamy_certificate(p, perm) == pytest.approx(gap, abs=1e-12)


def test_a_longer_process_gives_the_gap_of_its_prefix():
    p = random_markov_process(7, seed=6)
    prefix = markov_process(p.initial, p.channels[:5])
    for perm in [(2, 3, 1), (3, 2, 1)]:
        assert monogamy_gap(p.coherent_info, perm) == pytest.approx(
            monogamy_gap(prefix.coherent_info, perm), abs=1e-12)
        assert monogamy_certificate(p, perm) == pytest.approx(
            monogamy_certificate(prefix, perm), abs=1e-12)


def test_witness_state_count_guards():
    p = random_markov_process(4, seed=24)
    with pytest.raises(ValueError):
        m6_witnesses(p)
    with pytest.raises(ValueError):
        m8_witnesses(p)


def test_cqmi_and_mi_gaps_are_nonnegative():
    rng = np.random.default_rng(7)
    for _ in range(30):
        rho3 = DensityMatrix(random_density(8, seed=rng).mat, (2, 2, 2))
        ch = random_channel(2, 2, 2, seed=rng)
        assert cqmi_monotonicity_gap(rho3, ch) >= -TOL
        rho2 = DensityMatrix(random_density(4, seed=rng).mat, (2, 2))
        assert mi_dpi_gap(rho2, ch) >= -TOL
