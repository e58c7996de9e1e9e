"""CPTP maps in Kraus, Stinespring, and Choi representations.

The Kraus and Stinespring forms convert both ways, and the Choi state
is computed from the Kraus form:

* Kraus: rho -> sum_k K_k rho K_k†, with sum_k K_k† K_k = 1.
* Stinespring: rho -> Tr_E[U (rho x phi) U†] for a unitary U on
  system (x) fresh ancilla and a pure ancilla state phi.
* Choi: the normalized state C(L) = (id x L)(|Psi+><Psi+|), whose
  marginal over the output leg is 1/d_in.

Also here: the adjoint-channel identity
(A x id)(Psi+) = (id x A~)(Psi+) where A~ has the transposed Kraus
operators of A and is completely positive and unital.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import apply_kraus, dagger, is_unitary, kron, partial_trace
from .states import DensityMatrix, maximally_entangled

__all__ = [
    "KrausChannel",
    "StinespringDilation",
    "kraus_channel",
    "identity_channel",
    "depolarizing_channel",
    "dephasing_channel",
    "apply",
    "apply_to_subsystem",
    "stinespring",
    "dilation_to_kraus",
    "apply_dilation",
    "kraus_to_isometry",
    "choi_of",
    "adjoint_channel",
    "random_channel",
]

TP_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Trace-preserving channel as a tuple of d_out x d_in Kraus operators."""

    kraus: tuple[np.ndarray, ...]
    d_in: int
    d_out: int


@dataclass(frozen=True, eq=False)
class StinespringDilation:
    """Unitary dilation: U maps S_in (x) F to S_out (x) E, phi is the F state."""

    unitary: np.ndarray
    ancilla: np.ndarray
    d_in: int
    d_f: int
    d_out: int
    d_env: int


def kraus_channel(ops: list[np.ndarray] | tuple[np.ndarray, ...]) -> KrausChannel:
    """Validate a Kraus list (trace preservation within 1e-10) into a channel."""
    ops = tuple(np.asarray(k, dtype=complex) for k in ops)
    if not ops:
        raise ValueError("channel needs at least one Kraus operator")
    d_out, d_in = ops[0].shape
    for k in ops:
        if k.shape != (d_out, d_in):
            raise ValueError(f"inconsistent Kraus shapes: {k.shape} vs {(d_out, d_in)}")
    tp = sum(dagger(k) @ k for k in ops)
    dev = np.abs(tp - np.eye(d_in)).max()
    if dev > TP_TOL:
        raise ValueError(f"not trace preserving: max deviation {dev:.3e}")
    return KrausChannel(ops, d_in, d_out)


def identity_channel(d: int) -> KrausChannel:
    return kraus_channel([np.eye(d)])


def depolarizing_channel(d: int) -> KrausChannel:
    """The channel mapping every input to the maximally mixed state 1/d."""
    ops = [np.zeros((d, d), dtype=complex) for _ in range(d * d)]
    for i in range(d):
        for j in range(d):
            ops[i * d + j][i, j] = 1.0 / np.sqrt(d)
    return kraus_channel(ops)


def dephasing_channel(d: int) -> KrausChannel:
    """Projective measurement in the computational basis, outcomes forgotten."""
    ops = []
    for i in range(d):
        p = np.zeros((d, d), dtype=complex)
        p[i, i] = 1.0
        ops.append(p)
    return kraus_channel(ops)


def apply(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Act the channel on a state: sum_k K rho K†."""
    if rho.dim != ch.d_in:
        raise ValueError(f"channel expects dimension {ch.d_in}, state is {rho.dim}")
    out = sum(k @ rho.mat @ dagger(k) for k in ch.kraus)
    return DensityMatrix(out, (ch.d_out,))


def apply_to_subsystem(ch: KrausChannel, rho: DensityMatrix, target: int) -> DensityMatrix:
    """Act the channel on one subsystem, identity on the rest."""
    out = apply_kraus(rho.mat, rho.dims, np.array(ch.kraus), target)
    dims = rho.dims[:target] + (ch.d_out,) + rho.dims[target + 1:]
    return DensityMatrix(out, dims)


# ---------------------------------------------------------------------------
# Stinespring dilations
# ---------------------------------------------------------------------------

def stinespring(unitary: np.ndarray, ancilla: np.ndarray,
                d_in: int, d_out: int) -> StinespringDilation:
    """Validate a unitary dilation of a channel.

    `unitary` acts on S_in (x) F and is read as mapping to S_out (x) E,
    with F the ancilla register holding the pure state `ancilla`.
    """
    unitary = np.asarray(unitary, dtype=complex)
    ancilla = np.asarray(ancilla, dtype=complex).reshape(-1)
    d_f = ancilla.shape[0]
    d_total = d_in * d_f
    if unitary.shape != (d_total, d_total):
        raise ValueError(f"unitary must be {d_total} x {d_total}, got {unitary.shape}")
    if d_total % d_out:
        raise ValueError(f"output dimension {d_out} does not divide {d_total}")
    if not is_unitary(unitary, 1e-10):
        raise ValueError("dilation operator is not unitary within 1e-10")
    if abs(np.linalg.norm(ancilla) - 1.0) > 1e-12:
        raise ValueError("ancilla state is not normalized")
    return StinespringDilation(unitary, ancilla, d_in, d_f, d_out, d_total // d_out)


def dilation_to_kraus(dil: StinespringDilation) -> KrausChannel:
    """Kraus operators K_e = (1 x <e|_E) U (1 x |phi>_F)."""
    u = dil.unitary.reshape(dil.d_out, dil.d_env, dil.d_in, dil.d_f)
    ops = [np.tensordot(u[:, e], dil.ancilla, axes=[[2], [0]]) for e in range(dil.d_env)]
    return kraus_channel(ops)


def apply_dilation(dil: StinespringDilation, rho: DensityMatrix) -> DensityMatrix:
    """Direct dilation action Tr_E[U (rho x phi) U†]."""
    if rho.dim != dil.d_in:
        raise ValueError(f"dilation expects dimension {dil.d_in}, state is {rho.dim}")
    phi = np.outer(dil.ancilla, dil.ancilla.conj())
    joint = dil.unitary @ kron(rho.mat, phi) @ dagger(dil.unitary)
    out = partial_trace(joint, (dil.d_out, dil.d_env), (0,))
    return DensityMatrix(out, (dil.d_out,))


def kraus_to_isometry(ch: KrausChannel) -> np.ndarray:
    """Isometry V: S_in -> S_out (x) E with V|s> = sum_e K_e|s> (x) |e>.

    The environment dimension equals the number of Kraus operators; V†V = 1.
    """
    n_env = len(ch.kraus)
    v = np.zeros((ch.d_out * n_env, ch.d_in), dtype=complex)
    for e, k in enumerate(ch.kraus):
        v.reshape(ch.d_out, n_env, ch.d_in)[:, e, :] = k
    return v


# ---------------------------------------------------------------------------
# Choi states
# ---------------------------------------------------------------------------

def choi_of(ch: KrausChannel) -> DensityMatrix:
    """Normalized Choi state (id x L)(|Psi+><Psi+|) over (R, S_out)."""
    psi = maximally_entangled(ch.d_in)
    return apply_to_subsystem(ch, psi.density(), 1)


def adjoint_channel(ch: KrausChannel) -> KrausChannel:
    """The CP unital map with transposed Kraus operators.

    Characterized by (A x id)(Psi+) = (id x A~)(Psi+) in the computational
    basis; unitality of A~ follows from trace preservation of A.  The
    result is returned as a bare KrausChannel-shaped object: it is unital,
    and trace preserving only when A is unital, so no TP validation applies.
    """
    ops = tuple(k.T for k in ch.kraus)
    return KrausChannel(ops, ch.d_out, ch.d_in)


# ---------------------------------------------------------------------------
# Random channels
# ---------------------------------------------------------------------------

def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_channel(d_in: int, d_out: int, d_env: int,
                   seed: int | np.random.Generator = 0) -> StinespringDilation:
    """Random dilation with a Haar unitary on S_out (x) E and ancilla |0>.

    The ancilla dimension is the minimal d_f with d_in * d_f = d_out * d_env;
    dims that leave no integer d_f are rejected.
    """
    total = d_out * d_env
    if total % d_in:
        raise ValueError(
            f"no ancilla dimension satisfies {d_in} * d_f = {d_out} * {d_env}")
    d_f = total // d_in
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    u = _haar_unitary(total, rng)
    phi = np.zeros(d_f, dtype=complex)
    phi[0] = 1.0
    return stinespring(u, phi, d_in, d_out)
