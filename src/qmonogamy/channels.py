"""CPTP maps as lists of Kraus operators.

A channel is its Kraus list: rho -> sum_k K_k rho K_k†, validated to
sum_k K_k† K_k = 1.  A channel given as a unitary dilation,
rho -> Tr_E[U (rho x |0><0|) U†], is read into that form by
unitary_channel, whose Kraus operators are the ancilla-|0> columns of U;
random channels are drawn that way from Haar unitaries.  Validation,
dilation slicing and Haar sampling are stacked (kraus_stack,
dilation_kraus, haar_unitaries); kraus_channel, unitary_channel and
random_channel are their one-channel forms.  The chain witnesses apply
the Kraus lists as they are, to states and to d^2 x d^2 joint states
(witnesses.bond_table); only the tests' reference circuit
(witnesses.purified_circuit_state) dilates each channel again, stacking
its Kraus operators into one isometry.

Also here: the adjoint-channel identity
(A x id)(Psi+) = (id x A~)(Psi+) where A~ has the transposed Kraus
operators of A and is completely positive and unital.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import apply_kraus, dagger, require_finite
from .states import DensityMatrix, ginibre
from .tolerances import INVARIANT_TOL

__all__ = [
    "KrausChannel",
    "kraus_channel",
    "kraus_stack",
    "apply",
    "apply_to_subsystem",
    "unitary_channel",
    "dilation_kraus",
    "adjoint_channel",
    "random_channel",
    "haar_unitaries",
]


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Trace-preserving channel as a tuple of d_out x d_in Kraus operators."""

    kraus: tuple[np.ndarray, ...]
    d_in: int
    d_out: int


def kraus_channel(ops: list[np.ndarray] | tuple[np.ndarray, ...]) -> KrausChannel:
    """Validate a finite, trace-preserving Kraus list into a channel.

    The one-list form of kraus_stack.
    """
    ops = tuple(np.asarray(k, dtype=complex) for k in ops)
    if not ops:
        raise ValueError("channel needs at least one Kraus operator")
    for k in ops:
        if k.ndim != 2:
            raise ValueError(f"Kraus operators must be matrices, got shape {k.shape}")
    d_out, d_in = ops[0].shape
    for k in ops:
        if k.shape != (d_out, d_in):
            raise ValueError(f"inconsistent Kraus shapes: {k.shape} vs {(d_out, d_in)}")
    kraus_stack(np.stack(ops)[None])
    return KrausChannel(ops, d_in, d_out)


def kraus_stack(ops: np.ndarray) -> np.ndarray:
    """Validate a stack (n, n_kraus, d_out, d_in) of Kraus lists: finite
    entries and sum_k K_k† K_k = 1 within INVARIANT_TOL for every list.

    A failure reports the worst deviation in the stack.  Returns the stack.
    """
    ops = np.asarray(ops, dtype=complex)
    if ops.ndim != 4:
        raise ValueError(f"Kraus stack must have shape (n, n_kraus, d_out, d_in), "
                         f"got {ops.shape}")
    if ops.shape[0] == 0 or ops.shape[1] == 0:
        raise ValueError("empty Kraus stack: no operators to validate")
    if ops.shape[2] == 0 or ops.shape[3] == 0:
        raise ValueError(f"empty Kraus operators: shape {ops.shape[2:]}")
    require_finite(ops, "Kraus entries")
    tp = np.einsum("nkoi,nkoj->nij", ops.conj(), ops)
    dev = np.abs(tp - np.eye(ops.shape[3])).max()
    if dev > INVARIANT_TOL:
        raise ValueError(f"not trace preserving: max deviation {dev:.3e}")
    return ops


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


def unitary_channel(u: np.ndarray, d_in: int, d_out: int) -> KrausChannel:
    """The channel rho -> Tr_E[U (rho x |0><0|_F) U†] of a unitary dilation.

    `u` acts on S_in (x) F and is read as mapping to S_out (x) E, so its
    dimension must be a multiple of both d_in and d_out.  The Kraus
    operators K_e = (1 x <e|_E) U (1 x |0>_F) are the ancilla-|0> columns
    of U; kraus_stack checks that those columns are orthonormal, which is
    all the channel needs of U.  The one-unitary form of dilation_kraus.
    """
    return KrausChannel(tuple(dilation_kraus(np.asarray(u)[None], d_in, d_out)[0]),
                        d_in, d_out)


def dilation_kraus(u: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Kraus lists (n, total // d_out, d_out, d_in) of a stack (n, total, total)
    of unitary dilations, validated by kraus_stack; see unitary_channel."""
    u = np.asarray(u, dtype=complex)
    total = u.shape[-1] if u.ndim == 3 else 0
    if u.shape[1:] != (total, total) or min(d_in, d_out, total) < 1 or total % d_in \
            or total % d_out:
        raise ValueError(f"dilation must be square with a dimension divisible by "
                         f"{d_in} and {d_out}, got {u.shape[1:]}")
    # rows (S_out, E), columns (S_in, F); F = 0 is every (total // d_in)-th column
    v = u[..., ::total // d_in].reshape(len(u), d_out, total // d_out, d_in)
    return kraus_stack(np.ascontiguousarray(v.swapaxes(1, 2)))


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
    return haar_unitaries(ginibre(rng, (d, d))[None])[0]


def haar_unitaries(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack (n, d, d) of complex Gaussian matrices:
    the Q of each QR decomposition with the phases of R's diagonal."""
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    return q * ph[:, None, :]


def random_channel(d_in: int, d_out: int, d_env: int,
                   seed: int | np.random.Generator = 0) -> KrausChannel:
    """Channel of a Haar unitary on S_out (x) E with ancilla |0>.

    The ancilla dimension is the minimal d_f with d_in * d_f = d_out * d_env;
    dims that leave no integer d_f are rejected.
    """
    if min(d_in, d_out, d_env) < 1:
        raise ValueError(f"channel dimensions must be at least 1, got d_in={d_in}, "
                         f"d_out={d_out}, d_env={d_env}")
    total = d_out * d_env
    if total % d_in:
        raise ValueError(
            f"no ancilla dimension satisfies {d_in} * d_f = {d_out} * {d_env}")
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    return unitary_channel(_haar_unitary(total, rng), d_in, d_out)
