"""The lambda-parameterized example circuit, its witness sweeps, and the
randomized verification harnesses.

The example: a three-qubit register (R, S, E) starts in the pure state
with amplitude 1/sqrt(3) on |100>, |010>, |001>, and the same two-qubit
unitary u_lambda acts on (S, E) three times, giving four global states
gamma_1..gamma_4.  A sweep runs the whole lambda grid as one stacked
register: u_lambda builds the grid's unitaries as one stack, every
register operation carries the grid as a leading batch axis, and every
entropy is one stacked eigensolve over the grid.  So each grid function
(nonmarkov_witness_rows, extra_dpi_rows, mqmmi_rows) costs the same
number of simulation steps and eigensolver calls for one lambda as for a
hundred; the *_row functions are their one-lambda forms.  Witness rows
are entropies of named registers of those states.  Every gamma_i is pure, so
H(R,S,E) = 0 and H(R,S) = H(E) at each step, and the rows reduce to
single-register entropies.  In particular the M4 row, written in the
entropy form [H(R,S,E) - H(R,S)] at gamma_4 plus [H(R,S) - H(R,S,E)] at
gamma_3, equals H(E) at gamma_3 minus H(E) at gamma_4.

Randomized harnesses draw Markov processes from Haar dilations and
report worst-case witness values, certificate mismatches, adjoint-map
deviations, mutual-information monotonicity gaps, and the classical
monogamy gap.  Every harness is deterministic given its seed; sample i
uses seed + i so a reported counterexample can be rebuilt in isolation.

The three side checks (adjoint identity, mutual-information monotonicity,
classical monogamy) draw the raw variates of their samples one sample at
a time, from one generator in the order a per-sample loop of
random_density, random_channel and random_chain would draw them.  A
block of SAMPLE_BLOCK samples is then built and validated in one stacked
call per kind of draw (ginibre_densities, haar_unitaries with
dilation_kraus, dirichlet_chains with joints_from_chains), each channel
acts on the whole stack in one call, and each entropy of the block is
one stacked eigensolve (or marginal sum).  The per-sample functions
(cqmi_monotonicity_gap, mi_dpi_gap, conditional_mutual_information, and
cmmi_gap, whose pairing witnesses.monogamy_gap the classical check
shares) are the reference the tests compare the stacked checks with.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .channels import dilation_kraus, haar_unitaries, random_channel
from .classical import (chain_variates, dirichlet_chains, joints_from_chains,
                        shannon_entropies)
from .linalg import apply_kraus, partial_trace
from .process_tensor import mqmmi_witnesses, system_env_circuit
from .states import (MAX_AMPLITUDES, DensityMatrix, PureState, density, ginibre,
                     ginibre_densities, maximally_entangled, purify, random_density,
                     von_neumann_stack, w_state)
from .tolerances import GAP_TOLERANCE, GRID_SLACK
from .witnesses import (MarkovChainProcess, m4_ssa_certificate, m4_witness,
                        m6_ssa_certificates, m6_witnesses, m8_ssa_certificates,
                        m8_witnesses, markov_process, monogamy_gap, qdpi_witnesses)

__all__ = [
    "u_lambda",
    "gamma_sequence",
    "nonmarkov_witness_row",
    "nonmarkov_witness_rows",
    "extra_dpi_row",
    "extra_dpi_rows",
    "mqmmi_row",
    "mqmmi_rows",
    "lambda_grid",
    "parallel_map",
    "random_markov_process",
    "random_markov_verify",
    "adjoint_identity_check",
    "mi_monotonicity_check",
    "classical_cmmi_check",
]


def u_lambda(lam: float | Sequence[float] | np.ndarray) -> np.ndarray:
    """The example's two-qubit step unitary, interpolating two permutations.

    Acts on (S, E) in the computational basis |00>, |01>, |10>, |11>.  An
    array of lambdas gives the stack of their unitaries, shape (..., 4, 4).
    """
    lam = np.asarray(lam, dtype=float)
    bad = ~((lam >= 0.0) & (lam <= 1.0))
    if bad.any():
        raise ValueError(f"lambda must lie in [0, 1], got {lam[bad].flat[0]}")
    s, c = np.sqrt(lam), np.sqrt(1.0 - lam)
    u = np.zeros(lam.shape + (4, 4), dtype=complex)
    u[..., 1, 0] = u[..., 2, 3] = 1.0
    u[..., 0, 1], u[..., 0, 2] = -c, s
    u[..., 3, 1], u[..., 3, 2] = s, c
    return u


def _gamma_registers(lam: float | np.ndarray) -> list[PureState]:
    """gamma_1..gamma_4 as pure states on the labelled registers (R, S, E),
    stacked over the lambdas after gamma_1 (which does not depend on them)."""
    states = [w_state()]
    u = u_lambda(lam)
    for _ in range(3):
        states.append(states[-1].apply(u, ("S", "E")))
    return states


def gamma_sequence(lam: float) -> list[DensityMatrix]:
    """gamma_1 = |psi><psi|, gamma_{i+1} = (1_R x U) gamma_i (1_R x U)†."""
    return [g.density() for g in _gamma_registers(lam)]


def _ic(g: PureState) -> float | np.ndarray:
    return g.entropy(("S",)) - g.entropy(("R", "S"))


# a grid is stacked this many points at a time, which bounds the memory of
# a long grid; the default 101-point grid is one block
GRID_BLOCK = 1024


def _sweep(columns: Callable[[np.ndarray], dict[str, np.ndarray]],
           grid: Sequence[float]) -> list[dict[str, float]]:
    """Rows of the lambda and the named columns, in grid order; `columns`
    gives each column's values over a block of lambdas."""
    lams = np.asarray(grid, dtype=float)
    if lams.ndim != 1 or lams.size == 0:
        raise ValueError(f"need a nonempty one-dimensional lambda grid, got shape {lams.shape}")
    rows = []
    for start in range(0, lams.size, GRID_BLOCK):
        block = lams[start:start + GRID_BLOCK]
        cols = {"lambda": block.tolist(), **{k: v.tolist() for k, v in columns(block).items()}}
        rows += [dict(zip(cols, values)) for values in zip(*cols.values())]
    return rows


def nonmarkov_witness_rows(grid: Sequence[float]) -> list[dict[str, float]]:
    """DP1..DP4 and M4 of the example at every lambda of the grid, from
    register entropies, rows in grid order.

    With ic_i = H(S) - H(R,S) at gamma_i: DP1..DP3 are differences of
    ic_2, ic_3, ic_4, DP4 = H(S) at gamma_3 minus H(S) at gamma_4, and
    M4 = H(E) at gamma_3 minus H(E) at gamma_4.
    """
    return _sweep(_nonmarkov_columns, grid)


def _nonmarkov_columns(lams: np.ndarray) -> dict[str, np.ndarray]:
    _, g2, g3, g4 = _gamma_registers(lams)
    ic2, ic3, ic4 = _ic(g2), _ic(g3), _ic(g4)
    return {
        "DP1": ic2 - ic3,
        "DP2": ic2 - ic4,
        "DP3": ic3 - ic4,
        "DP4": g3.entropy(("S",)) - g4.entropy(("S",)),
        "M4": g3.entropy(("E",)) - g4.entropy(("E",)),
    }


def nonmarkov_witness_row(lam: float) -> dict[str, float]:
    """nonmarkov_witness_rows of the one-point grid [lam]."""
    return nonmarkov_witness_rows([lam])[0]


def extra_dpi_rows(grid: Sequence[float]) -> list[dict[str, float]]:
    """DP5..DP7 on the example plus DP5 on a genuinely Markov reference, at
    every lambda of the grid, rows in grid order.

    On the example DP5 = H(R,S) at gamma_3, DP6 = H(S) at gamma_3 minus
    ic_4 (see nonmarkov_witness_rows) and DP7 = H(R,S) at gamma_4.  The
    reference runs the same u_lambda twice, but from a maximally
    entangled (R, S) pair with a fresh |0> ancilla per step, so the
    process is Markov by construction.
    """
    return _sweep(_extra_dpi_columns, grid)


def _extra_dpi_columns(lams: np.ndarray) -> dict[str, np.ndarray]:
    _, _, g3, g4 = _gamma_registers(lams)
    return {
        "DP5_markov": _markov_reference_dp5(lams),
        "DP5": g3.entropy(("R", "S")),
        "DP6": g3.entropy(("S",)) - _ic(g4),
        "DP7": g4.entropy(("R", "S")),
    }


def extra_dpi_row(lam: float) -> dict[str, float]:
    """extra_dpi_rows of the one-point grid [lam]."""
    return extra_dpi_rows([lam])[0]


def _markov_reference_dp5(lams: np.ndarray) -> np.ndarray:
    """DP5 = Ic(2:3) - Ic(1:3) of markov_process(density(1/2), [ch, ch]),
    ch = unitary_channel(u_lambda(lam), 2, 2), at every lambda.

    That process's purified circuit (witnesses.purified_circuit_state) is
    the one purification of 1/2 with the lambdas' stacked dilation
    isometries applied twice, so no process object is built per lambda.
    """
    # stacked Kraus operators are the isometry |s> -> sum_e |e> (x) K_e|s>
    iso = dilation_kraus(u_lambda(lams), 2, 2).reshape(len(lams), 4, 2)
    psi = replace(purify(density(np.eye(2) / 2)), labels=("R", "S"))
    for j in (1, 2):
        psi = psi.apply(iso, ("S",), out={f"E{j}": 2, "S": 2})

    def ic(r: int) -> np.ndarray:
        # Ic(r:3) = H(R, E1, E2) - H(E_r..E2), as MarkovChainProcess.coherent_info
        envs = ("E1", "E2")
        return psi.entropy(("R",) + envs) - psi.entropy(envs[r - 1:])

    return ic(2) - ic(1)


def mqmmi_rows(grid: Sequence[float]) -> list[dict[str, float]]:
    """The three interventional monogamy witnesses on the example circuit
    at every lambda of the grid, rows in grid order: one stacked circuit,
    one intervened state per slot pair."""
    return _sweep(_mqmmi_columns, grid)


def _mqmmi_columns(lams: np.ndarray) -> dict[str, np.ndarray]:
    circuit = system_env_circuit(w_state(), [u_lambda(lams)] * 3)
    gaps = mqmmi_witnesses(circuit).entries
    return {f"M4_{kind}": gaps[kind] for kind in ("q1", "q2", "q3")}


def mqmmi_row(lam: float) -> dict[str, float]:
    """mqmmi_rows of the one-point grid [lam]."""
    return mqmmi_rows([lam])[0]


# ---------------------------------------------------------------------------
# sweep plumbing
# ---------------------------------------------------------------------------

# a longer grid than this is taken for a mistyped step
MAX_GRID_POINTS = 10 ** 6


def lambda_grid(lo: float = 0.0, hi: float = 1.0, step: float = 0.01) -> list[float]:
    """Inclusive grid lo, lo+step, ..., capped at hi (GRID_SLACK at the end)."""
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(f"grid bounds and step must be finite, got lo={lo}, hi={hi}, "
                         f"step={step}")
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError(f"grid must satisfy 0 <= lo <= hi <= 1, got [{lo}, {hi}]")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    span = (hi - lo) / step + GRID_SLACK
    if span >= MAX_GRID_POINTS:
        raise ValueError(f"step {step} gives more than {MAX_GRID_POINTS} grid points")
    n = int(math.floor(span))
    return [min(lo + k * step, hi) for k in range(n + 1)]


def parallel_map(fn: Callable, items: Sequence) -> list:
    """fn over items, in order, in the calling thread.

    Each task is a few small numpy calls that hold the interpreter lock,
    so threads would add overhead and no speed.  The witness survey fans
    out through this one function; the sweeps stack their grid instead.
    """
    return [fn(x) for x in items]


# ---------------------------------------------------------------------------
# randomized verification
# ---------------------------------------------------------------------------

def random_markov_process(n_states: int, seed: int,
                          d_sys: int = 2,
                          d_env: int | Sequence[int] = 2) -> MarkovChainProcess:
    """Process with a random initial state and Haar-dilation channels.

    `d_env` may be a single environment dimension or one per channel.
    """
    if n_states < 2:
        raise ValueError("a process needs at least two states")
    if d_sys < 2:
        raise ValueError(f"system dimension must be at least 2, got {d_sys}")
    rng = np.random.default_rng(seed)
    envs = [d_env] * (n_states - 1) if isinstance(d_env, int) else list(d_env)
    if len(envs) != n_states - 1:
        raise ValueError(f"need {n_states - 1} environment dims, got {len(envs)}")
    if min(envs) < 1:
        raise ValueError(f"environment dimensions must be at least 1, got {envs}")
    initial = random_density(d_sys, seed=rng)
    channels = [random_channel(d_sys, d_sys, e, rng) for e in envs]
    return markov_process(initial, channels)


def _require_samples(samples: int, what: str = "sample") -> None:
    # an empty survey or check would report a vacuous pass or an infinite minimum
    if samples < 1:
        raise ValueError(f"need at least one {what}, got {samples}")


def _witness_entries(p: MarkovChainProcess, steps: int) -> dict[str, float]:
    if steps == 4:
        entries = dict(qdpi_witnesses(p).entries)
        entries["M4"] = m4_witness(p)
        return entries
    if steps == 6:
        return dict(m6_witnesses(p).entries)
    return dict(m8_witnesses(p).entries)


def _certificates(p: MarkovChainProcess, steps: int) -> dict[str, float]:
    if steps == 4:
        return {"M4": m4_ssa_certificate(p)}
    if steps == 6:
        return m6_ssa_certificates(p)
    return m8_ssa_certificates(p)


def random_markov_verify(steps: int, samples: int, dims: tuple[int, int] = (2, 2),
                         seed: int = 0, certificate_samples: int = 20) -> dict:
    """Worst-case witness survey over `samples` random Markov processes.

    Sample i is built from seed + i.  The first `certificate_samples`
    processes additionally get their strong-subadditivity certificate
    evaluated; the certificate values are themselves nonnegative sums of
    conditional mutual informations, so their minimum is reported along
    with the worst witness-to-certificate mismatch.  The first sample with
    an entry below -GAP_TOLERANCE is the reported counterexample.
    """
    if steps not in (4, 6, 8):
        raise ValueError(f"steps must be 4, 6 or 8, got {steps}")
    _require_samples(samples)
    _require_samples(certificate_samples, "certificate sample")
    d_sys, d_env = dims
    # registers R, E1..E_{steps-1}, S of the purified circuit; refused here,
    # before a sample of that size is drawn (random_markov_process rejects
    # dimensions below 2 and 1 before it draws anything)
    amplitudes = d_sys * d_env ** (steps - 1) * d_sys
    if amplitudes > MAX_AMPLITUDES:
        raise ValueError(f"dims {tuple(dims)} at {steps} steps need a purified circuit of "
                         f"{amplitudes} amplitudes (limit {MAX_AMPLITUDES})")

    def one(i: int) -> tuple[dict[str, float], dict[str, float] | None]:
        p = random_markov_process(steps, seed + i, d_sys, d_env)
        entries = _witness_entries(p, steps)
        certs = _certificates(p, steps) if i < certificate_samples else None
        return entries, certs

    results = parallel_map(one, list(range(samples)))
    minima: dict[str, float] = {}
    cert_min = math.inf
    cert_mismatch = 0.0
    counterexample = None
    for i, (entries, certs) in enumerate(results):
        for name, value in entries.items():
            minima[name] = min(minima.get(name, math.inf), value)
        if counterexample is None and min(entries.values()) < -GAP_TOLERANCE:
            counterexample = seed + i
        if certs is not None:
            cert_min = min(cert_min, min(certs.values()))
            cert_mismatch = max(cert_mismatch,
                                max(abs(entries[k] - certs[k]) for k in certs))
    return {
        "steps": steps,
        "samples": samples,
        "seed": seed,
        "witness_minima": minima,
        "ssa_certificate_min": cert_min,
        "certificate_max_mismatch": cert_mismatch,
        "counterexample_seed": counterexample,
    }


# each sample's raw variates are drawn in turn, but the samples are built,
# validated and measured in stacks of this many; one stack of a whole
# 500-sample check costs megabytes of peak memory
SAMPLE_BLOCK = 64

# the checks draw environments of 2 to MAX_KRAUS levels; the MI check zero-pads
# every Kraus list to MAX_KRAUS operators (zero operators leave a channel
# unchanged), so one stack holds all the channels of a block
MAX_KRAUS = 4


def _blocks(samples: int) -> list[int]:
    """Sizes of the consecutive blocks that cover `samples` samples."""
    return [min(SAMPLE_BLOCK, samples - start) for start in range(0, samples, SAMPLE_BLOCK)]


def _subset_entropy(mats: np.ndarray, dims: tuple[int, ...],
                    keep: tuple[int, ...]) -> np.ndarray:
    if len(keep) < len(dims):
        mats = partial_trace(mats, dims, keep)
    return von_neumann_stack(mats)


def _mi_stack(mats: np.ndarray) -> np.ndarray:
    """I(A:B) of every two-qubit state in a stack, as info.mutual_information."""
    def h(*keep: int) -> np.ndarray:
        return _subset_entropy(mats, (2, 2), keep)
    return h(0) + h(1) - h(0, 1)


def _cmi_stack(mats: np.ndarray) -> np.ndarray:
    """I(A:B|C) of every three-qubit state in a stack, as
    info.conditional_mutual_information."""
    def h(*keep: int) -> np.ndarray:
        return _subset_entropy(mats, (2, 2, 2), keep)
    return h(0, 2) + h(1, 2) - h(0, 1, 2) - h(2)


def adjoint_identity_check(samples: int = 100, seed: int = 0) -> dict[str, float]:
    """Max deviation of (A x id)(Psi+) = (id x A~)(Psi+) and of unitality
    of A~ over random channels of mixed dimensions."""
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    id_dev = 0.0
    unital_dev = 0.0
    for size in _blocks(samples):
        # the Gaussians of random_channel(d, d, d_env) per sample, grouped by (d, d_env)
        draws: dict[tuple[int, int], list[np.ndarray]] = {}
        for _ in range(size):
            d = int(rng.integers(2, 4))
            d_env = int(rng.integers(2, MAX_KRAUS + 1))
            draws.setdefault((d, d_env), []).append(ginibre(rng, (d * d_env, d * d_env)))
        for (d, _), gaussians in draws.items():
            kraus = dilation_kraus(haar_unitaries(np.stack(gaussians)), d, d)
            # adjoint_channel's operators: the transposed Kraus operators
            adj = kraus.swapaxes(-1, -2)
            pair = maximally_entangled(d).density().mat
            left = apply_kraus(pair, (d, d), kraus, 0)
            right = apply_kraus(pair, (d, d), adj, 1)
            id_dev = max(id_dev, float(np.abs(left - right).max()))
            one = np.einsum("bkij,bklj->bil", adj, adj.conj())
            unital_dev = max(unital_dev, float(np.abs(one - np.eye(d)).max()))
    return {"identity_max_deviation": id_dev, "unitality_max_deviation": unital_dev}


def mi_monotonicity_check(samples: int = 500, seed: int = 0) -> dict[str, float]:
    """Minimum of the conditional and plain mutual-information contraction
    gaps, plus the minimum raw conditional mutual information, over random
    states and channels.

    Sample by sample this is the minimum of cqmi_monotonicity_gap,
    conditional_mutual_information and mi_dpi_gap, with the channel acting
    on the middle qubit of a three-qubit state and the second of two.
    """
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    cqmi_min = math.inf
    mi_min = math.inf
    cmi_min = math.inf
    first = min(samples, SAMPLE_BLOCK)
    g3 = np.empty((first, 8, 8), dtype=complex)
    g2 = np.empty((first, 4, 4), dtype=complex)
    for size in _blocks(samples):
        # the Gaussians of random_density(8), random_channel(2, 2, d_env) and
        # random_density(4) per sample; the channel ones grouped by d_env,
        # each with its sample's place in the block
        draws: dict[int, tuple[list[int], list[np.ndarray]]] = {}
        for b in range(size):
            g3[b] = ginibre(rng, (8, 8))
            d_env = int(rng.integers(2, MAX_KRAUS + 1))
            where, gaussians = draws.setdefault(d_env, ([], []))
            where.append(b)
            gaussians.append(ginibre(rng, (2 * d_env, 2 * d_env)))
            g2[b] = ginibre(rng, (4, 4))
        r3, r2 = ginibre_densities(g3[:size]), ginibre_densities(g2[:size])
        k = np.zeros((size, MAX_KRAUS, 2, 2), dtype=complex)
        for d_env, (where, gaussians) in draws.items():
            k[where, :d_env] = dilation_kraus(haar_unitaries(np.stack(gaussians)), 2, 2)
        cmi = _cmi_stack(r3)
        cqmi = cmi - _cmi_stack(apply_kraus(r3, (2, 2, 2), k, 1))
        mi = _mi_stack(r2) - _mi_stack(apply_kraus(r2, (2, 2), k, 1))
        cqmi_min = min(cqmi_min, float(cqmi.min()))
        cmi_min = min(cmi_min, float(cmi.min()))
        mi_min = min(mi_min, float(mi.min()))
    return {"cqmi_monotonicity_min": cqmi_min, "mi_monotonicity_min": mi_min,
            "cmi_min": cmi_min}


def classical_cmmi_check(samples: int = 1000, seed: int = 0,
                         n_pairs: int = 2, dim: int = 2) -> dict[str, float]:
    """Minimum classical monogamy gap over random Markov chains.

    Uses the full swap permutation; with n_pairs = 2 this is the classical
    four-variable monogamy combination.
    """
    _require_samples(samples)
    if n_pairs < 1:
        raise ValueError(f"need at least one pair of variables, got n_pairs={n_pairs}")
    rng = np.random.default_rng(seed)
    perm = tuple(range(n_pairs, 0, -1))
    worst = math.inf
    first = min(samples, SAMPLE_BLOCK)
    init = np.empty((first, dim))
    steps = np.empty((first, 2 * n_pairs - 1, dim, dim))
    for size in _blocks(samples):
        # the exponential variates of random_chain per sample
        for b in range(size):
            init[b], steps[b] = chain_variates(rng, 2 * n_pairs, dim)
        probs = joints_from_chains(*dirichlet_chains(init[:size], steps[:size]))
        # I(X_r : X_s) of every joint in the block, axes as in classical.cmmi_gap
        h = partial(shannon_entropies, probs)
        gaps = monogamy_gap(lambda r, s: h((r - 1,)) + h((s - 1,)) - h((r - 1, s - 1)), perm)
        worst = min(worst, float(gaps.min()))
    return {"classical_cmmi_min": worst}
