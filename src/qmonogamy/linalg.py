"""Dense complex linear algebra over multipartite Hilbert spaces.

Everything downstream (states, channels, entropies, process tensors) is
built on the handful of primitives in this module: tensor products,
partial traces over labelled subsystems, Kraus maps acting on one
subsystem, and Hermitian eigendecomposition.  Partial traces and Kraus
maps also take stacks of operators, with leading batch axes before the
last two (matrix) axes; apply_two_site takes stacks of state vectors and
of unitaries, whose batch axes broadcast (broadcast_batch names the two
shapes when they do not).

Subsystem ordering convention: the leftmost tensor factor is the most
significant in the computational-basis index (big-endian).  A basis ket
|1,0,0> of three qubits is therefore the flat index 4 of an 8-dimensional
space.  A list of subsystem dimensions ("dims") annotates every
multipartite operator; the product of the dims must equal the matrix
dimension.
"""

from __future__ import annotations

import math

import numpy as np

from .tolerances import INVARIANT_TOL

__all__ = [
    "kron",
    "dagger",
    "partial_trace",
    "apply_kraus",
    "hermitian_eig",
    "require_finite",
    "unitarity_deviation",
    "broadcast_batch",
    "apply_two_site",
]


def kron(*ops: np.ndarray) -> np.ndarray:
    """Tensor product of one or more operators, leftmost factor most significant."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def _check_signature(m: np.ndarray, dims: tuple[int, ...]) -> None:
    d = math.prod(dims)
    if m.ndim < 2 or m.shape[-2:] != (d, d):
        raise ValueError(f"dims {dims} imply dimension {d}, matrix is {m.shape}")


def partial_trace(m: np.ndarray, dims: tuple[int, ...] | list[int],
                  keep: tuple[int, ...] | list[int]) -> np.ndarray:
    """Trace out all subsystems not listed in `keep`.

    Parameters
    ----------
    m : square operator over the tensor product of the subsystems in `dims`,
        or a stack of them with leading batch axes.
    dims : subsystem dimensions, leftmost factor most significant.
    keep : indices of the subsystems to retain, in their original order.

    Returns
    -------
    The reduced operator over the kept subsystems, with `m`'s batch axes.
    """
    m = np.asarray(m, dtype=complex)
    dims = tuple(int(d) for d in dims)
    _check_signature(m, dims)
    keep = sorted(set(int(k) for k in keep))
    n = len(dims)
    if keep and (keep[0] < 0 or keep[-1] >= n):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    batch = m.shape[:-2]
    t = m.reshape(batch + dims + dims)
    # pair bra and ket axes of every traced subsystem in a single einsum
    ket = list(range(n))
    bra = list(range(n, 2 * n))
    for ax in range(n):
        if ax not in keep:
            bra[ax] = ket[ax]
    out_axes = [ket[a] for a in keep] + [bra[a] for a in keep]
    d_keep = math.prod(dims[a] for a in keep) if keep else 1
    out = np.einsum(t, [Ellipsis] + ket + bra, [Ellipsis] + out_axes)
    return out.reshape(batch + (d_keep, d_keep))


def apply_kraus(m: np.ndarray, dims: tuple[int, ...] | list[int], kraus: np.ndarray,
                target: int) -> np.ndarray:
    """sum_k K_k m K_k† with every K_k acting on subsystem `target` alone.

    `m` is an operator over the subsystems in `dims` or a stack of them;
    `kraus` is an array (..., n_kraus, d_out, d_in) whose leading batch axes
    broadcast against `m`'s, so one call can act a different channel on
    every operator of a stack.  Zero operators may pad a Kraus list, since
    they add nothing.  The result keeps the subsystem layout, with
    `dims[target]` replaced by d_out.  The list acts through its transfer
    matrix sum_k K_k (x) conj(K_k), one batched matmul on the target's
    (ket, bra) index pair.
    """
    m = np.asarray(m, dtype=complex)
    kraus = np.asarray(kraus, dtype=complex)
    dims = tuple(int(d) for d in dims)
    _check_signature(m, dims)
    if not 0 <= target < len(dims):
        raise ValueError(f"target {target} out of range for {len(dims)} subsystems")
    d_out, d_in = kraus.shape[-2:]
    if dims[target] != d_in:
        raise ValueError(f"Kraus operators expect dimension {d_in}, "
                         f"subsystem {target} is {dims[target]}")
    before = math.prod(dims[:target])
    after = math.prod(dims[target + 1:])
    # T[(o, p), (i, j)] = sum_k K_k[o, i] conj(K_k[p, j]); the target's ket
    # and bra axes go in front of the rest, as the rows T acts on
    transfer = np.einsum("...koi,...kpj->...opij", kraus, kraus.conj())
    transfer = transfer.reshape(transfer.shape[:-4] + (d_out * d_out, d_in * d_in))
    nb = m.ndim - 2
    t = m.reshape(m.shape[:-2] + (before, d_in, after) * 2)
    t = np.moveaxis(t, (nb + 1, nb + 4), (nb, nb + 1))
    t = transfer @ t.reshape(m.shape[:-2] + (d_in * d_in, -1))
    nb = t.ndim - 2
    t = t.reshape(t.shape[:-2] + (d_out, d_out, before, after, before, after))
    t = np.moveaxis(t, (nb, nb + 1), (nb + 1, nb + 4))
    d = before * d_out * after
    return t.reshape(t.shape[:-6] + (d, d))


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input is symmetrized to (m + m†)/2 before decomposition to suppress
    round-off; a NaN or infinite entry, or a deviation from Hermiticity
    beyond INVARIANT_TOL, is an error, not something to silently average
    away.  A stack (..., d, d) is decomposed matrix by matrix in one call.

    Returns
    -------
    (eigenvalues, eigenvectors) with eigenvalues sorted descending and the
    matching eigenvectors as columns of a unitary matrix.
    """
    m = np.asarray(m, dtype=complex)
    require_finite(m)
    m_dag = m.conj().swapaxes(-1, -2)
    dev = np.abs(m - m_dag).max()
    if dev > INVARIANT_TOL:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    w, v = np.linalg.eigh((m + m_dag) / 2)
    return w[..., ::-1].copy(), v[..., ::-1].copy()


def require_finite(a: np.ndarray, what: str = "entries") -> None:
    """Refuse an array holding NaN or inf with a ValueError that names the
    "non-finite <what>" and counts them."""
    bad = np.count_nonzero(~np.isfinite(a))
    if bad:
        raise ValueError(f"non-finite {what}: {bad} NaN or infinite")


def unitarity_deviation(m: np.ndarray) -> np.ndarray:
    """||m† m - 1||_max of every square matrix in a stack (..., d, d)."""
    m = np.asarray(m, dtype=complex)
    return np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])).max(axis=(-2, -1))


def broadcast_batch(state: tuple[int, ...], op: tuple[int, ...]) -> tuple[int, ...]:
    """The batch shape of an operation on a state stack with batch shape
    `state` by an operator stack with batch shape `op` (numpy broadcasting);
    shapes that do not broadcast are refused with both named."""
    try:
        return np.broadcast_shapes(state, op)
    except ValueError:
        raise ValueError(f"state batch shape {state} and operator batch shape {op} "
                         "do not broadcast") from None


def apply_two_site(vec: np.ndarray, dims: tuple[int, ...], u: np.ndarray,
                   sites: tuple[int, int]) -> np.ndarray:
    """Apply a two-subsystem unitary to a flat state vector.

    `u` acts on the ordered pair of subsystems `sites` = (a, b); the result
    is returned flat with the original subsystem layout.  `vec` may be a
    stack (..., D) and `u` a stack (..., d, d); their batch axes broadcast,
    so one call runs a whole stack of circuits.  This is the only gate
    primitive circuit simulations need.
    """
    a, b = sites
    dims = tuple(int(d) for d in dims)
    vec = np.asarray(vec, dtype=complex)
    u = np.asarray(u, dtype=complex)
    batch = broadcast_batch(vec.shape[:-1], u.shape[:-2])
    n, nb = len(dims), vec.ndim - 1
    # the pair's axes go in front of the rest, as the rows u acts on
    t = np.moveaxis(vec.reshape(vec.shape[:-1] + dims), (nb + a, nb + b), (nb, nb + 1))
    t = u @ t.reshape(vec.shape[:-1] + (dims[a] * dims[b], -1))
    rest = tuple(dims[i] for i in range(n) if i not in (a, b))
    t = t.reshape(batch + (dims[a], dims[b]) + rest)
    nb = len(batch)
    t = np.moveaxis(t, (nb, nb + 1), (nb + a, nb + b))
    return t.reshape(batch + (-1,))
