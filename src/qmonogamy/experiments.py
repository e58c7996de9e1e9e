"""The lambda-parameterized example circuit, its witness sweeps, and the
randomized verification harnesses.

The example: a three-qubit register (R, S, E) starts in the pure state
with amplitude 1/sqrt(3) on |100>, |010>, |001>, and the same two-qubit
unitary u_lambda acts on (S, E) three times, giving four global states
gamma_1..gamma_4.  A sweep runs the whole lambda grid as one stacked
register: u_lambda builds the grid's unitaries as one stack, every
register operation carries the grid as a leading batch axis, and the
cuts of a state are one PureState.entropies call.  So each grid function
(nonmarkov_witness_rows, extra_dpi_rows, mqmmi_rows) costs the same
number of simulation steps and eigensolver calls for one lambda as for a
hundred; the *_row functions are their one-lambda forms.  Witness rows
are entropies of named registers of those states.  Every gamma_i is pure, so
H(R,S,E) = 0 and H(R,S) = H(E) at each step, and the rows reduce to
single-register entropies.  In particular the M4 row, written in the
entropy form [H(R,S,E) - H(R,S)] at gamma_4 plus [H(R,S) - H(R,S,E)] at
gamma_3, equals H(E) at gamma_3 minus H(E) at gamma_4.  The sweep's
Markov reference (DP5_markov) is a chain witness, read like every other
from witnesses.bond_table, with the grid as its stack of processes.

Randomized harnesses draw Markov processes from Haar dilations and
report worst-case witness values, certificate mismatches, adjoint-map
deviations, mutual-information monotonicity gaps, and the classical
monogamy gap.  Every harness is deterministic given its seed.

The witness survey (random_markov_verify) gives sample i its own
generator, default_rng(seed + i), so a reported counterexample can be
rebuilt alone with random_markov_process(steps, seed + i), the one-sample
form of the survey's sampler (_survey_draws).  Each sample's Gaussians are
drawn in one call, in the order a per-channel loop of random_density and
random_channel would draw them (the tests keep that loop as the
reference); a block of samples (about BLOCK_BYTES, by the side checks'
rule below) is then built and validated with one stacked call per kind
of draw (ginibre_spectra, haar_unitaries, dilation_kraus).  Every entropy
a witness or certificate reads is that of a state rho_s or of a d_sys^2 x
d_sys^2 joint state (witnesses.bond_table), one stacked eigensolve per
channel for the whole block.  survey_witnesses and survey_certificates read them with the
BondTable readers that the one-process witnesses use on a table of one
process; the tests compare both with the purified circuit
(witnesses.purified_circuit_state) and with Kraus propagation
(info.chain_coherent_information).

The three side checks (adjoint identity, mutual-information monotonicity,
classical monogamy) draw the raw variates of their samples one sample at
a time, from one generator in the order a per-sample loop of
random_density, random_channel and random_chain would draw them.  A
block of samples is then built and validated in one stacked call per kind
of draw (ginibre_spectra, haar_unitaries with dilation_kraus,
dirichlet_chains with joints_from_chains), and each channel acts on the
whole stack in one call.  Every block takes about BLOCK_BYTES: a check
runs BLOCK_BYTES // (bytes one of its samples takes) samples per block,
64 for the MI check, 256 for the adjoint check and 2048 for the classical
check on 16-entry tables.  The MI check solves each spectrum once per
block: the positivity spectra of the 8x8 and 4x4 draws are H(ABC) and
H(AB), the entropies a channel on B leaves alone (H(AC), H(C), H(A)) are
not taken again after it, and the other marginals share one stacked
eigensolve per matrix size (states._von_neumann_stacks, which the
process-tensor port reads share).  The per-sample functions
(cqmi_monotonicity_gap, mi_dpi_gap, conditional_mutual_information, and
cmmi_gap, whose pairing witnesses.monogamy_gap the classical check
shares) are the reference the tests compare the stacked checks with.

Counts, dimensions and seeds given to a harness must be integers, and seeds
nonnegative; anything else is refused with a ValueError that names the
argument, before anything is drawn.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .channels import KrausChannel, dilation_kraus, haar_unitaries
from .classical import (chain_variates, dirichlet_chains, joints_from_chains,
                        shannon_entropies)
from .linalg import apply_kraus, partial_trace
from .process_tensor import mqmmi_witnesses, system_env_circuit
from .states import (MAX_AMPLITUDES, DensityMatrix, PureState, _von_neumann_stacks,
                     ginibre, ginibre_spectra, maximally_entangled, spectrum_entropy,
                     w_state)
from .tolerances import GAP_TOLERANCE, GRID_SLACK
from .witnesses import (MONOGAMY, MarkovChainProcess, bond_table, markov_process,
                        monogamy_gap, survey_certificates, survey_witnesses)

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
    s2, rs2 = g2.entropies(("S",), ("R", "S"))
    s3, rs3, e3 = g3.entropies(("S",), ("R", "S"), ("E",))
    s4, rs4, e4 = g4.entropies(("S",), ("R", "S"), ("E",))
    ic2, ic3, ic4 = s2 - rs2, s3 - rs3, s4 - rs4
    return {
        "DP1": ic2 - ic3,
        "DP2": ic2 - ic4,
        "DP3": ic3 - ic4,
        "DP4": s3 - s4,
        "M4": e3 - e4,
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
    s3, rs3 = g3.entropies(("S",), ("R", "S"))
    s4, rs4 = g4.entropies(("S",), ("R", "S"))
    return {
        "DP5_markov": _markov_reference_dp5(lams),
        "DP5": rs3,
        "DP6": s3 - (s4 - rs4),
        "DP7": rs4,
    }


def extra_dpi_row(lam: float) -> dict[str, float]:
    """extra_dpi_rows of the one-point grid [lam]."""
    return extra_dpi_rows([lam])[0]


def _markov_reference_dp5(lams: np.ndarray) -> np.ndarray:
    """DP5 = Ic(2:3) - Ic(1:3) of markov_process(density(1/2), [ch, ch]),
    ch = unitary_channel(u_lambda(lam), 2, 2), at every lambda.

    The processes of the grid are one stack for witnesses.bond_table, so no
    process object is built per lambda.  The prefix H(rho_3) is common to
    both coherent informations, so DP5 = H(E1, E2) - H(E2).
    """
    kraus = dilation_kraus(u_lambda(lams), 2, 2)
    table = bond_table(np.broadcast_to(np.eye(2) / 2, (len(lams), 2, 2)), [kraus, kraus])
    return table.interval[1, 3] - table.interval[2, 3]


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

    Nothing in the package calls it any more: the sweeps stack their grid
    and the witness survey its samples.  It stays while the benchmark's
    span tracer (benchmarks/spans.py) still wraps it.
    """
    return [fn(x) for x in items]


# ---------------------------------------------------------------------------
# randomized verification
# ---------------------------------------------------------------------------

def random_markov_process(n_states: int, seed: int, d_sys: int = 2,
                          d_env: int = 2) -> MarkovChainProcess:
    """Process with a random initial state and Haar-dilation channels: the
    one-sample form of _survey_draws, as random_density is of ginibre_spectra."""
    _require_process(n_states, seed, d_sys, d_env)
    initial, kraus = _survey_draws(n_states, seed, 1, d_sys, d_env)
    return markov_process(DensityMatrix(initial[0], (d_sys,)),
                          [KrausChannel(tuple(k[0]), d_sys, d_sys) for k in kraus])


def _require_int(value: int, name: str) -> None:
    # a float count or dimension would otherwise reach range() or a draw's
    # size and fail there with Python's TypeError (a bool is refused too)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_seed(seed: int) -> None:
    # numpy would refuse a negative seed only as "expected non-negative integer"
    _require_int(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")


def _require_process(n_states: int, seed: int, d_sys: int, d_env: int) -> None:
    # shared by random_markov_process and random_markov_verify, before any draw
    _require_int(n_states, "n_states")
    _require_int(d_sys, "system dimension")
    _require_int(d_env, "environment dimension")
    _require_seed(seed)
    if n_states < 2:
        raise ValueError("a process needs at least two states")
    if d_sys < 2:
        raise ValueError(f"system dimension must be at least 2, got {d_sys}")
    if d_env < 1:
        raise ValueError(f"environment dimensions must be at least 1, got {d_env}")


def _require_samples(samples: int, what: str = "sample", name: str = "samples") -> None:
    # an empty survey or check would report a vacuous pass or an infinite minimum
    _require_int(samples, name)
    if samples < 1:
        raise ValueError(f"need at least one {what}, got {samples}")


def random_markov_verify(steps: int, samples: int, dims: tuple[int, int] = (2, 2),
                         seed: int = 0, certificate_samples: int = 20) -> dict:
    """Worst-case witness survey over `samples` random Markov processes.

    Sample i is the process random_markov_process(steps, seed + i, *dims).
    The first `certificate_samples` processes additionally get their
    strong-subadditivity certificate evaluated; the certificate values are
    themselves nonnegative sums of conditional mutual informations, so
    their minimum is reported along with the worst witness-to-certificate
    mismatch.  The first sample with an entry below -GAP_TOLERANCE is the
    reported counterexample.

    The samples are drawn a block at a time (_survey_draws) and measured
    through the system bond (witnesses.bond_table), without a purified
    circuit: every entropy is of a d_sys x d_sys state or a d_sys^2 x
    d_sys^2 joint, one stacked eigensolve per channel for the whole block.
    A block holds BLOCK_BYTES // (SURVEY_ENTRY_BYTES * _survey_entries)
    samples.  MAX_AMPLITUDES bounds the largest matrix a sample holds, a
    (d_sys d_env) x (d_sys d_env) Haar unitary or a joint of d_sys^4
    entries; a reported counterexample is checked against Kraus
    propagation (info.chain_coherent_information), which has no such cap.
    """
    _require_int(steps, "steps")
    if steps not in MONOGAMY:
        raise ValueError(f"steps must be one of {', '.join(map(str, MONOGAMY))}, "
                         f"got {steps}")
    _require_samples(samples)
    _require_samples(certificate_samples, "certificate sample", "certificate_samples")
    if np.shape(dims) != (2,):
        raise ValueError(f"dims must be a system and an environment dimension, got {dims!r}")
    d_sys, d_env = dims
    _require_process(steps, seed, d_sys, d_env)
    # refused here, before a sample of that size is drawn
    entries = max((d_sys * d_env) ** 2, d_sys ** 4)
    if entries > MAX_AMPLITUDES:
        raise ValueError(f"dims ({d_sys}, {d_env}) give a sample a matrix of {entries} entries "
                         f"(limit {MAX_AMPLITUDES})")
    minima: dict[str, float] = {}
    cert_min = math.inf
    cert_mismatch = 0.0
    counterexample = None
    block = _block_size(SURVEY_ENTRY_BYTES * _survey_entries(steps, d_sys, d_env))
    for start in range(0, samples, block):
        size = min(block, samples - start)
        table = bond_table(*_survey_draws(steps, seed + start, size, d_sys, d_env))
        entries = survey_witnesses(table, steps)
        for name, values in entries.items():
            minima[name] = min(minima.get(name, math.inf), float(values.min()))
        failing = np.flatnonzero(np.min(list(entries.values()), axis=0) < -GAP_TOLERANCE)
        if counterexample is None and failing.size:
            counterexample = seed + start + int(failing[0])
        certified = min(size, certificate_samples - start)
        if certified > 0:
            certs = survey_certificates(table, steps)
            for name, values in certs.items():
                cert_min = min(cert_min, float(values[:certified].min()))
                gap = np.abs(entries[name][:certified] - values[:certified])
                cert_mismatch = max(cert_mismatch, float(gap.max()))
    return {
        "steps": steps,
        "samples": samples,
        "seed": seed,
        "witness_minima": minima,
        "ssa_certificate_min": cert_min,
        "certificate_max_mismatch": cert_mismatch,
        "counterexample_seed": counterexample,
    }


def _survey_draws(n_states: int, seed: int, size: int, d_sys: int,
                  d_env: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The initial states (size, d_sys, d_sys) and, per channel, the Kraus
    lists (size, d_env, d_sys, d_sys) of `size` random n_states-state
    processes, sample b drawn from default_rng(seed + b); the arguments are
    validated by the callers (_require_process).

    Sample b draws its Gaussians in one call, in the order random_density
    and then random_channel per channel would draw them (the initial
    Ginibre matrix, then one dilation per channel, each as ginibre's real
    then imaginary parts), so sample b is that loop's process bit for bit.
    Each kind of draw is then built and validated for the whole stack in
    one call.
    """
    d, total, channels = d_sys, d_sys * d_env, n_states - 1
    x = np.stack([np.random.default_rng(seed + b).normal(
        size=2 * d * d + channels * 2 * total * total) for b in range(size)])
    initial = ginibre_spectra(_ginibres(x[:, :2 * d * d], d))[0]
    u = _ginibres(x[:, 2 * d * d:].reshape(size * channels, -1), total)
    kraus = dilation_kraus(haar_unitaries(u), d, d)
    kraus = kraus.reshape(size, channels, d_env, d, d)
    return initial, [kraus[:, j] for j in range(channels)]


def _survey_entries(steps: int, d_sys: int, d_env: int) -> int:
    """Complex entries one survey sample holds at once: its Haar unitaries
    and Kraus lists, then its d_sys^2 x d_sys^2 joint states."""
    return (steps - 1) * ((d_sys * d_env) ** 2 + d_sys ** 4)


# each sample's raw variates are drawn in turn, but the samples are built,
# validated and measured in blocks of BLOCK_BYTES // (bytes one sample of
# the check takes), so that every check's block holds about as much memory.
# A sample's bytes are the tracemalloc peak of a block per sample, rounded
# up to a power of two: 10-11 kB for the MI check (64-sample blocks; with
# 256, the peak resident memory of verify at 4, 6 and 8 steps rose from 39
# to 41 MB), 3.5-4.3 kB for the adjoint check (256), and 17-36 B per entry
# of the classical check's joint tables (2048 at the default 16 entries).
# The witness survey's sample holds _survey_entries complex entries; its
# peak per entry read 44-83 B over 12 shapes from 4 steps at (2, 2) to 4
# steps at (11, 1), median 51 B, rounded up to 64 B (73 samples per block
# at 8 qubit steps, 45 at 8 steps with qutrit environments).
BLOCK_BYTES = 2 ** 20
MI_SAMPLE_BYTES = 2 ** 14
ADJOINT_SAMPLE_BYTES = 2 ** 12
CLASSICAL_ENTRY_BYTES = 32
SURVEY_ENTRY_BYTES = 64

# the checks draw environments of 2 to MAX_KRAUS levels; the MI check zero-pads
# every Kraus list to MAX_KRAUS operators (zero operators leave a channel
# unchanged), so one stack holds all the channels of a block
MAX_KRAUS = 4


def _block_size(sample_bytes: int) -> int:
    """Samples per block of a check whose one sample takes `sample_bytes`."""
    return max(1, BLOCK_BYTES // sample_bytes)


def _blocks(samples: int, sample_bytes: int) -> list[int]:
    """Sizes of the consecutive blocks that cover `samples` samples of
    `sample_bytes` bytes each."""
    block = _block_size(sample_bytes)
    return [min(block, samples - start) for start in range(0, samples, block)]


def _ginibres(x: np.ndarray, d: int) -> np.ndarray:
    """The complex d x d matrices of normals x (..., 2 d d) as states.ginibre
    builds them: the first half real parts, the second imaginary."""
    x = x.reshape(x.shape[:-1] + (2, d, d))
    return x[..., 0, :, :] + 1j * x[..., 1, :, :]


def adjoint_identity_check(samples: int = 100, seed: int = 0) -> dict[str, float]:
    """Max deviation of (A x id)(Psi+) = (id x A~)(Psi+) and of unitality
    of A~ over random channels of mixed dimensions."""
    _require_samples(samples)
    _require_seed(seed)
    rng = np.random.default_rng(seed)
    id_dev = 0.0
    unital_dev = 0.0
    for size in _blocks(samples, ADJOINT_SAMPLE_BYTES):
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
    _require_seed(seed)
    rng = np.random.default_rng(seed)
    cqmi_min = math.inf
    mi_min = math.inf
    cmi_min = math.inf
    sizes = _blocks(samples, MI_SAMPLE_BYTES)
    x3 = np.empty((sizes[0], 2 * 8 * 8))
    x2 = np.empty((sizes[0], 2 * 4 * 4))
    for size in sizes:
        # the Gaussians of random_density(8), then of random_channel(2, 2, d_env)
        # and random_density(4), per sample, in one normal call on each side of
        # its d_env draw; the channel ones grouped by d_env, each with its
        # sample's place in the block
        draws: dict[int, tuple[list[int], list[np.ndarray]]] = {}
        for b in range(size):
            x3[b] = rng.normal(size=x3.shape[1])
            d_env = int(rng.integers(2, MAX_KRAUS + 1))
            x = rng.normal(size=2 * (2 * d_env) ** 2 + x2.shape[1])
            where, normals = draws.setdefault(d_env, ([], []))
            where.append(b)
            normals.append(x[:-x2.shape[1]])
            x2[b] = x[-x2.shape[1]:]
        # the positivity test's spectra of the 8x8 and 4x4 draws give H(ABC), H(AB)
        r3, w3 = ginibre_spectra(_ginibres(x3[:size], 8))
        r2, w2 = ginibre_spectra(_ginibres(x2[:size], 4))
        k = np.zeros((size, MAX_KRAUS, 2, 2), dtype=complex)
        for d_env, (where, normals) in draws.items():
            u = haar_unitaries(_ginibres(np.stack(normals), 2 * d_env))
            k[where, :d_env] = dilation_kraus(u, 2, 2)
        out3 = apply_kraus(r3, (2, 2, 2), k, 1)
        out2 = apply_kraus(r2, (2, 2), k, 1)
        # the channel acts on B alone, so H(AC), H(C) and H(A) are the same
        # before and after it: they cancel from both gaps, and H(A) is never taken
        h_ac, h_bc, h_c, h_abc_out, h_bc_out, h_b, h_ab_out, h_b_out = _von_neumann_stacks(
            partial_trace(r3, (2, 2, 2), (0, 2)), partial_trace(r3, (2, 2, 2), (1, 2)),
            partial_trace(r3, (2, 2, 2), (2,)), out3, partial_trace(out3, (2, 2, 2), (1, 2)),
            partial_trace(r2, (2, 2), (1,)), out2, partial_trace(out2, (2, 2), (1,)))
        h_abc, h_ab = spectrum_entropy(w3), spectrum_entropy(w2)
        cmi = h_ac + h_bc - h_abc - h_c
        cqmi = (h_bc - h_abc) - (h_bc_out - h_abc_out)
        mi = (h_b - h_ab) - (h_b_out - h_ab_out)
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
    _require_seed(seed)
    _require_int(n_pairs, "n_pairs")
    _require_int(dim, "dim")
    if n_pairs < 1:
        raise ValueError(f"need at least one pair of variables, got n_pairs={n_pairs}")
    if dim < 1:
        raise ValueError(f"need at least one state per variable, got dim={dim}")
    rng = np.random.default_rng(seed)
    perm = tuple(range(n_pairs, 0, -1))
    worst = math.inf
    for size in _blocks(samples, CLASSICAL_ENTRY_BYTES * dim ** (2 * n_pairs)):
        # the exponential variates of random_chain per sample, in one call
        probs = joints_from_chains(*dirichlet_chains(*chain_variates(rng, 2 * n_pairs, dim,
                                                                     size)))
        # I(X_r : X_s) of every joint in the block, axes as in classical.cmmi_gap
        h = partial(shannon_entropies, probs)
        gaps = monogamy_gap(lambda r, s: h((r - 1,)) + h((s - 1,)) - h((r - 1, s - 1)), perm)
        worst = min(worst, float(gaps.min()))
    return {"classical_cmmi_min": worst}
