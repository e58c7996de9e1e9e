"""Dense complex linear algebra over multipartite Hilbert spaces.

Everything downstream (states, channels, entropies, process tensors) is
built on the handful of primitives in this module: tensor products,
partial traces over labelled subsystems, Kraus maps acting on one
subsystem through their transfer matrices, and Hermitian
eigendecomposition.  Partial traces and Kraus maps also take stacks of
operators, with leading batch axes before the last two (matrix) axes;
apply_two_site takes stacks of state vectors and of unitaries, whose
batch axes broadcast (broadcast_batch names the two shapes when they do
not).

Register operators act on flat state vectors through one kernel,
_apply_registers, called by apply_two_site and states.PureState._apply.
Registers that are adjacent and in order are a contiguous block (before,
d_in, after) of the flat vector, and the operator acts on that block in
place: one reshape and one batched matmul, no axis moved.  Registers out
of order or apart take one transpose into a block, and one back when they
keep their places.

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
    "transfer_matrix",
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
    keep : positions of the subsystems to retain, in their original order.

    Returns
    -------
    The reduced operator over the kept subsystems, with `m`'s batch axes.
    """
    m = np.asarray(m, dtype=complex)
    dims = _dims(dims)
    _check_signature(m, dims)
    n = len(dims)
    keep = _positions(keep, n, "keep index")
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


def transfer_matrix(kraus: np.ndarray) -> np.ndarray:
    """T = sum_k K_k (x) conj(K_k) of a Kraus list (..., n_kraus, d_out, d_in),
    shape (..., d_out^2, d_in^2): the channel as a matrix on row-major
    vectorized operators, vec(sum_k K_k X K_k†) = T vec(X).

    Row (o, p) and column (i, j) hold sum_k K_k[o, i] conj(K_k[p, j]); the
    leading batch axes are the Kraus lists'.
    """
    kraus = np.asarray(kraus, dtype=complex)
    d_out, d_in = kraus.shape[-2:]
    t = np.einsum("...koi,...kpj->...opij", kraus, kraus.conj())
    return t.reshape(t.shape[:-4] + (d_out * d_out, d_in * d_in))


def apply_kraus(m: np.ndarray, dims: tuple[int, ...] | list[int], kraus: np.ndarray,
                target: int) -> np.ndarray:
    """sum_k K_k m K_k† with every K_k acting on subsystem `target` alone.

    `m` is an operator over the subsystems in `dims` or a stack of them;
    `kraus` is an array (..., n_kraus, d_out, d_in) whose leading batch axes
    broadcast against `m`'s, so one call can act a different channel on
    every operator of a stack.  Zero operators may pad a Kraus list, since
    they add nothing.  The result keeps the subsystem layout, with
    `dims[target]` replaced by d_out.  The list acts through its
    transfer_matrix, one batched matmul on the target's (ket, bra) index
    pair.
    """
    m = np.asarray(m, dtype=complex)
    kraus = np.asarray(kraus, dtype=complex)
    dims = _dims(dims)
    _check_signature(m, dims)
    (target,) = _positions((target,), len(dims), "target")
    d_out, d_in = kraus.shape[-2:]
    if dims[target] != d_in:
        raise ValueError(f"Kraus operators expect dimension {d_in}, "
                         f"subsystem {target} is {dims[target]}")
    return _apply_transfer(m, dims, transfer_matrix(kraus), target)


def _apply_transfer(m: np.ndarray, dims: tuple[int, ...], transfer: np.ndarray,
                    target: int) -> np.ndarray:
    """apply_kraus with the Kraus lists' transfer matrices (..., d_out^2,
    d_in^2) given, for a complex stack `m` and a target that fit them: a
    caller that acts one stack of channels on several stacks of operators
    builds the matrices once (experiments.mi_monotonicity_check)."""
    d_in = dims[target]
    d_out = math.isqrt(transfer.shape[-2])
    before = math.prod(dims[:target])
    after = math.prod(dims[target + 1:])
    # the target's ket and bra axes go in front of the rest, as the rows the
    # transfer matrix acts on (a transpose: np.moveaxis costs more than the
    # matmul's setup on a small stack)
    nb = m.ndim - 2
    t = m.reshape(m.shape[:-2] + (before, d_in, after) * 2)
    t = t.transpose(*range(nb), nb + 1, nb + 4, nb, nb + 2, nb + 3, nb + 5)
    t = transfer @ t.reshape(m.shape[:-2] + (d_in * d_in, -1))
    nb = t.ndim - 2
    t = t.reshape(t.shape[:-2] + (d_out, d_out, before, after, before, after))
    t = t.transpose(*range(nb), nb + 2, nb, nb + 3, nb + 4, nb + 1, nb + 5)
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


def _is_int(value) -> bool:
    """Whether `value` is a Python or numpy integer; a bool, which Python
    counts as an int, is not.  The package's one integer test."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_int(value: int, name: str) -> None:
    # a float would fail later in range() or a slice with a bare TypeError, or
    # be truncated by int(); a bool would be read as 0 or 1
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _positions(items, n: int, what: str) -> tuple[int, ...]:
    """`items` as sorted distinct int positions, each refused by name (as a
    `what`) unless an integer in 0..n-1: the one place a position is checked."""
    positions = set()
    for i in items:
        _require_int(i, what)
        if not 0 <= i < n:
            raise ValueError(f"{what} {i!r} out of range 0..{n - 1}")
        positions.add(int(i))
    return tuple(sorted(positions))


def _dims(dims) -> tuple[int, ...]:
    """Subsystem dimensions as ints, each refused by name unless an integer
    (int() would truncate 2.5 to 2): the one place dimensions are read."""
    for d in dims:
        _require_int(d, "subsystem dimension")
    return tuple(int(d) for d in dims)


def unitarity_deviation(m: np.ndarray) -> np.ndarray:
    """||m† m - 1||_max of every square matrix in a stack (..., d, d)."""
    m = np.asarray(m, dtype=complex)
    return np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])).max(axis=(-2, -1))


def broadcast_batch(state: tuple[int, ...], op: tuple[int, ...]) -> tuple[int, ...]:
    """The batch shape of an operation on a state stack with batch shape
    `state` by an operator stack with batch shape `op` (numpy broadcasting);
    shapes that do not broadcast are refused with both named."""
    if not op or state == op:
        return state
    if not state:
        return op
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
    so one call runs a whole stack of circuits.  The array form of
    PureState.apply on two registers; no package code calls it.  An
    adjacent pair in order (b = a + 1) is a contiguous block of the flat
    vector, which `u` acts on in place: one reshape and one batched matmul
    (_apply_registers).  Any other pair is transposed into such a block
    and back.
    """
    return _apply_registers(np.asarray(vec, dtype=complex), _dims(dims),
                            np.asarray(u, dtype=complex), tuple(sites), in_place=True)


def _apply_registers(vec: np.ndarray, dims: tuple[int, ...], op: np.ndarray,
                     axes: tuple[int, ...] | list[int], in_place: bool) -> np.ndarray:
    """op (..., d_out, d_in) on the distinct registers `axes` of the flat
    complex state stack `vec` (..., D) over `dims`, taken in the order
    given; the two batches broadcast.  The one register kernel:
    apply_two_site and PureState._apply both act through it.

    The `axes` registers are gathered into one block at the place of the
    first of them (the lowest index), so that the vector reads (before,
    d_in, after) and op acts on its middle axis in one batched matmul.
    Registers that already form that block, adjacent and in order, are not
    moved: the only copies are the matmul's output and, for a block at the
    end, its transpose (_block_matmul).  Others take one transpose into the
    block.  The result holds op's output in the
    block's place; with `in_place` (op maps the registers to themselves)
    one more transpose puts moved registers back in their own places.
    """
    nb = vec.ndim - 1
    batch = broadcast_batch(vec.shape[:-1], op.shape[:-2])
    p, k = min(axes), len(axes)
    order = [*range(p), *axes, *(i for i in range(p, len(dims)) if i not in axes)]
    moved = order[p:p + k] != list(range(p, p + k))
    if moved:
        vec = vec.reshape(vec.shape[:-1] + dims).transpose(
            [*range(nb), *(nb + i for i in order)])
    shape = [dims[i] for i in order]
    t = _block_matmul(vec.reshape(vec.shape[:nb] + (math.prod(shape[:p]),
                                                    math.prod(shape[p:p + k]),
                                                    math.prod(shape[p + k:]))), op)
    if moved and in_place:
        nb = len(batch)
        t = t.reshape(batch + tuple(shape)).transpose(
            [*range(nb), *(nb + order.index(i) for i in range(len(dims)))])
    return t.reshape(batch + (-1,))


def _block_matmul(t: np.ndarray, op: np.ndarray) -> np.ndarray:
    # op (..., d_out, d_in) on the middle axis of t (..., before, d_in, after),
    # (..., before, d_out, after) out, in one batched matmul.  A block at the
    # end (after = 1) is the matrix t[..., 0] (before, d_in); op then acts on
    # its transpose, a view: one BLAS matrix product per state, not one
    # matrix-vector product per row, and the same product, bit for bit, as
    # on the registers moved in front of the rest.  Its (d_out, before)
    # result is transposed back as the caller reshapes it
    if t.shape[-1] == 1:
        return (op @ t[..., 0].swapaxes(-1, -2)).swapaxes(-1, -2)[..., None]
    return op[..., None, :, :] @ t
