"""Validated density matrices, pure states, and purification.

A DensityMatrix carries its subsystem-dimension signature alongside the
matrix, so partial traces and entropies downstream never need dimension
bookkeeping at the call site.  Every invariant (Hermiticity, unit trace,
positivity, a vector's unit norm) is checked to the one INVARIANT_TOL of
tolerances.py, and the entropy clip is ENTROPY_CLIP there; NaN or
infinite input is refused by name.  The validation itself is
density_stack, which checks a whole stack of matrices in one pass (one
stacked eigensolve for positivity) and returns that eigensolve's spectra
with the stack, so a caller can take the stack's entropies from them
(spectrum_entropy) instead of solving again.  density() is its one-matrix
form, and ginibre_spectra builds and validates a stack of random states.

A PureState may also carry register labels, which makes it the package's
one circuit simulator: unitaries and isometries are applied to named
registers, fresh pure states are spliced in next to them, and entropies
of named registers come straight from the vector.  Every purified
circuit, process tensor and intervened state is built this way, and
MAX_AMPLITUDES bounds all of them.

A PureState's vector may carry leading batch axes, `vec` of shape
(..., D): a stack of states on one register layout.  `apply` and
`splice` broadcast a state stack against a stack of operators or of
spliced states in either direction, `reduced` returns the stack of
marginals, and `entropy` is one stacked eigensolve per side of a cut,
returning an array over the batch (a float when there is none).  The
unbatched state is the same code with an empty batch shape.  A
DensityMatrix may likewise hold a stack (..., d, d); `purify` purifies
every matrix of it in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .linalg import (apply_two_site, broadcast_batch, hermitian_eig, partial_trace,
                     require_finite)
from .tolerances import ENTROPY_CLIP, INVARIANT_TOL

__all__ = [
    "DensityMatrix",
    "PureState",
    "MAX_AMPLITUDES",
    "von_neumann",
    "von_neumann_stack",
    "spectrum_entropy",
    "density",
    "density_stack",
    "pure_state",
    "purify",
    "maximally_entangled",
    "random_density",
    "ginibre",
    "ginibre_spectra",
    "w_state",
]

# register simulations refuse to grow a state past this many amplitudes
MAX_AMPLITUDES = 2 ** 14

Register = str | int


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD unit-trace operator with a subsystem signature; `mat`
    may be a stack (..., d, d) of such operators on the same subsystems."""

    mat: np.ndarray
    dims: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]

    def reduced(self, keep: tuple[int, ...] | list[int]) -> "DensityMatrix":
        """Partial trace down to the subsystems in `keep` (original order)."""
        keep = sorted(set(keep))
        sub = partial_trace(self.mat, self.dims, keep)
        return DensityMatrix(sub, tuple(self.dims[k] for k in keep))


def von_neumann(rho: DensityMatrix | np.ndarray) -> float:
    """Entropy -sum(w log2 w) over eigenvalues above ENTROPY_CLIP.

    A NaN or infinite entry is refused by name; von_neumann_stack, which
    only internal callers reach, takes its input unchecked.
    """
    m = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho)
    require_finite(m)
    return float(von_neumann_stack(m))


def von_neumann_stack(mats: np.ndarray) -> np.ndarray:
    """von_neumann of every matrix in a stack (..., d, d): one eigensolve call.

    Returns the entropies with the stack's leading shape.
    """
    m = np.asarray(mats)
    return spectrum_entropy(np.linalg.eigvalsh((m + m.conj().swapaxes(-1, -2)) / 2.0))


def spectrum_entropy(w: np.ndarray) -> np.ndarray:
    """-sum(w log2 w) in bits over the last axis of a stack of spectra (or
    probability vectors), leaving out weights at or below ENTROPY_CLIP.

    The one entropy sum of the package: von_neumann_stack, the spectra of
    density_stack and classical.shannon_entropies all go through it.
    """
    # a clipped weight becomes 1, whose term 1 * log2(1) is exactly 0
    w = np.where(w > ENTROPY_CLIP, w, 1.0)
    return -(w * np.log2(w)).sum(axis=-1)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm state vector with a subsystem signature.

    `vec` has shape (..., D): any leading axes are a batch of states on the
    same registers, `batch` is their shape, and `dims` describes one state.
    With `labels` the registers have names.  Every method that takes
    registers accepts each one by label or by position (an int).

    `entropy` memoizes its values on the state (read-only arrays for a
    batch).  That is sound because no code writes into a PureState's
    `vec`: every operation returns a new state, and a new state (from
    `apply`, `splice` or `replace`) starts with an empty memo.
    """

    vec: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...] | None = None
    # entropy by the frozenset of axes of the side of the cut reduced
    _entropies: dict[frozenset[int], float | np.ndarray] = field(
        default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.labels is not None and (len(self.labels) != len(self.dims)
                                        or len(set(self.labels)) != len(self.labels)):
            raise ValueError(f"need one distinct label per register, got {self.labels} "
                             f"for dims {self.dims}")

    @property
    def dim(self) -> int:
        return self.vec.shape[-1]

    @property
    def batch(self) -> tuple[int, ...]:
        return self.vec.shape[:-1]

    def density(self) -> DensityMatrix:
        return DensityMatrix(self.vec[..., :, None] * self.vec[..., None, :].conj(), self.dims)

    def _axes(self, registers: Sequence[Register]) -> list[int]:
        axes = []
        for r in registers:
            if isinstance(r, str):
                if self.labels is None or r not in self.labels:
                    raise ValueError(f"no register labelled {r!r} in {self.labels}")
                axes.append(self.labels.index(r))
            elif 0 <= r < len(self.dims):
                axes.append(int(r))
            else:
                raise ValueError(f"register {r} out of range for {len(self.dims)} registers")
        return axes

    def reduced(self, keep: Sequence[Register]) -> DensityMatrix:
        """Marginal on the registers in `keep`, in register order."""
        # contract from the vector; never materializes the full outer product
        keep = sorted(set(self._axes(keep)))
        traced = [i for i in range(len(self.dims)) if i not in keep]
        nb = len(self.batch)
        t = self.vec.reshape(self.batch + self.dims)
        t = t.transpose(list(range(nb)) + [nb + i for i in keep + traced])
        d = math.prod(self.dims[k] for k in keep)
        m = t.reshape(self.batch + (d, -1))
        return DensityMatrix(m @ m.conj().swapaxes(-1, -2), tuple(self.dims[k] for k in keep))

    def entropy(self, registers: Sequence[Register]) -> float | np.ndarray:
        """von Neumann entropy (bits) of the marginal on `registers`.

        The two sides of a bipartition of a pure state share their nonzero
        spectrum, so the side of smaller dimension is the one reduced (on
        a tie, the side holding register 0); the empty set and the whole
        register both give 0.  One von_neumann_stack call covers the whole
        batch: the result is a float for an unbatched state and an array of
        the batch shape otherwise.  Values are memoized by the side reduced,
        so a set and its complement cost one eigensolve between them.
        """
        keep = frozenset(self._axes(registers))
        rest = frozenset(range(len(self.dims))) - keep
        if not keep or not rest:
            return np.zeros(self.batch) if self.batch else 0.0
        d_keep = math.prod(self.dims[i] for i in keep)
        d_rest = self.dim // d_keep
        side = keep if (d_keep, 0 not in keep) < (d_rest, 0 not in rest) else rest
        if side not in self._entropies:
            h = von_neumann_stack(self.reduced(side).mat)
            if self.batch:
                h.flags.writeable = False
            self._entropies[side] = h if self.batch else float(h)
        return self._entropies[side]

    def apply(self, op: np.ndarray, on: Sequence[Register],
              out: dict[str, int] | None = None) -> PureState:
        """Apply a unitary or an isometry `op` to the registers `on`.

        `op` acts on the product of the `on` registers in the order given;
        a stack of operators (..., d_out, d_in) broadcasts against the
        state's batch.  Without `out` the registers keep their labels,
        dimensions and places (two registers go through `apply_two_site`).
        With `out`, a mapping of output labels to dimensions in `op`'s
        output order, the output registers replace the `on` registers at
        the place of the first of them.  A result whose states exceed
        MAX_AMPLITUDES is refused before it is built, here and in `splice`.
        """
        axes = self._axes(on)
        if out is None and len(axes) == 2:
            return replace(self, vec=apply_two_site(self.vec, self.dims, op, tuple(axes)))
        op = np.asarray(op, dtype=complex)
        batch = broadcast_batch(self.batch, op.shape[:-2])
        rest = [i for i in range(len(self.dims)) if i not in axes]
        if out is None:
            new_dims, dest, labels = tuple(self.dims[a] for a in axes), axes, self.labels
        else:
            if self.labels is None:
                raise ValueError("output registers need a labelled state")
            p = min(axes)
            new_dims, dest = tuple(out.values()), list(range(p, p + len(out)))
            kept = [self.labels[i] for i in rest]
            labels = tuple(kept[:p]) + tuple(out) + tuple(kept[p:])
        rest_dims = tuple(self.dims[i] for i in rest)
        _check_budget(math.prod(new_dims) * math.prod(rest_dims))
        nb = len(self.batch)
        t = np.moveaxis(self.vec.reshape(self.batch + self.dims), [nb + a for a in axes],
                        range(nb, nb + len(axes)))
        t = op @ t.reshape(self.batch + (op.shape[-1], -1))
        t = t.reshape(batch + new_dims + rest_dims)
        nb = len(batch)
        t = np.moveaxis(t, range(nb, nb + len(new_dims)), [nb + i for i in dest])
        return PureState(t.reshape(batch + (-1,)), t.shape[nb:], labels)

    def splice(self, state: PureState, after: Register,
               labels: Sequence[str]) -> PureState:
        """Tensor in the registers of the pure `state`, labelled `labels`,
        right after the register `after`; the two batches broadcast."""
        if self.labels is None or len(labels) != len(state.dims):
            raise ValueError(f"splicing needs a labelled state and one label per spliced "
                             f"register, got {labels} for dims {state.dims}")
        (a,) = self._axes((after,))
        batch = broadcast_batch(self.batch, state.batch)
        _check_budget(self.dim * state.dim)
        m, n = len(self.dims), len(state.dims)
        # pad each factor with unit axes for the other's registers; the
        # batch axes in front then broadcast against each other
        t = (self.vec.reshape(self.batch + self.dims + (1,) * n)
             * state.vec.reshape(state.batch + (1,) * m + state.dims))
        nb = len(batch)
        t = np.moveaxis(t, range(nb + m, nb + m + n), range(nb + a + 1, nb + a + 1 + n))
        new_labels = self.labels[:a + 1] + tuple(labels) + self.labels[a + 1:]
        return PureState(t.reshape(batch + (-1,)), t.shape[nb:], new_labels)


def _check_budget(size: int) -> None:
    # the one amplitude check, made by both operations that grow a state; it
    # bounds one state of a batch, whose size is the caller's choice
    if size > MAX_AMPLITUDES:
        raise ValueError(f"state would need {size} amplitudes (limit {MAX_AMPLITUDES})")


def pure_state(vec: np.ndarray, dims: tuple[int, ...] | None = None) -> PureState:
    """Validate a vector (finite, unit norm within INVARIANT_TOL) into a PureState."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    require_finite(vec, "amplitudes")
    if dims is None:
        dims = (vec.shape[0],)
    dims = tuple(int(d) for d in dims)
    if math.prod(dims) != vec.shape[0]:
        raise ValueError(f"dims {dims} do not match vector length {vec.shape[0]}")
    nrm = np.linalg.norm(vec)
    if abs(nrm - 1.0) > INVARIANT_TOL:
        raise ValueError(f"vector is not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
    return PureState(vec, dims)


def density(m: np.ndarray, dims: tuple[int, ...] | None = None) -> DensityMatrix:
    """Validate a matrix into a DensityMatrix, reporting the failed invariant.

    The one-matrix form of density_stack: raises ValueError naming the
    violated property (finite entries, Hermiticity, unit trace, or
    positivity) together with the measured deviation.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {m.shape}")
    dims = (m.shape[0],) if dims is None else tuple(int(d) for d in dims)
    return DensityMatrix(density_stack(m[None], dims)[0][0], dims)


def density_stack(mats: np.ndarray,
                  dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Validate every matrix of a stack (n, d, d) as a density matrix.

    The checks of density(), each made on the whole stack at once (the
    positivity test is one stacked eigvalsh); a failure reports the worst
    deviation in the stack.  Returns the symmetrized stack (m + m†) / 2 and
    its eigenvalues (n, d), ascending.  The stack is exactly Hermitian, so
    von_neumann_stack of it solves the same matrices again: spectrum_entropy
    of the returned eigenvalues is the same entropy, bit for bit.
    """
    m = np.asarray(mats, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"density stack must have shape (n, d, d), got {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("empty density stack: no matrices to validate")
    if m.shape[1] == 0:
        raise ValueError("empty density matrix: dimension 0")
    require_finite(m)
    if math.prod(dims) != m.shape[1]:
        raise ValueError(f"dims {dims} do not match matrix dimension {m.shape[1]}")
    m_dag = m.conj().swapaxes(-1, -2)
    herm_dev = np.abs(m - m_dag).max()
    if herm_dev > INVARIANT_TOL:
        raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e}")
    tr = np.trace(m, axis1=-2, axis2=-1)
    trace_dev = (np.abs(tr.real - 1.0) + np.abs(tr.imag)).max()
    if trace_dev > INVARIANT_TOL:
        raise ValueError(f"not unit trace: deviation {trace_dev:.3e}")
    sym = (m + m_dag) / 2
    w = np.linalg.eigvalsh(sym)
    w_min = w[:, 0].min()
    if w_min < -INVARIANT_TOL:
        raise ValueError(f"not positive semidefinite: min eigenvalue {w_min:.3e}")
    return sym, w


def purify(rho: DensityMatrix) -> PureState:
    """Purify `rho` with a reference register of the full dimension d.

    The output lives on reference (x) system with the reference as the first
    (most significant) subsystem: |psi> = sum_i sqrt(p_i) |i>_R |v_i>_S,
    pairing Schmidt coefficients sqrt(p_i) with the eigenvectors of rho.
    Tracing out the reference reproduces rho.  A stack of matrices gives
    the stack of their purifications, from one stacked eigensolve.
    """
    w, v = hermitian_eig(rho.mat)
    w = np.clip(w, 0.0, None)
    d = rho.dim
    # vec[..., i, :] = sqrt(p_i) v_i, flattened big-endian over (R, S)
    vec = np.sqrt(w)[..., :, None] * v.swapaxes(-1, -2)
    return PureState(vec.reshape(vec.shape[:-2] + (-1,)), (d,) + rho.dims)


def maximally_entangled(d: int) -> PureState:
    """|Psi+> = d^{-1/2} sum_i |ii> over two d-dimensional registers."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    vec = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    return PureState(vec, (d, d))


def random_density(d: int, rank: int | None = None,
                   seed: int | np.random.Generator = 0) -> DensityMatrix:
    """Random density matrix rho = G G† / Tr(G G†), G complex Gaussian d x rank."""
    rank = d if rank is None else int(rank)
    if not 1 <= rank <= d:
        raise ValueError(f"rank must be in [1, {d}], got {rank}")
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    return DensityMatrix(ginibre_spectra(ginibre(rng, (d, rank))[None])[0][0], (d,))


def ginibre(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Complex Gaussian matrix: real parts drawn first, then imaginary parts."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def ginibre_spectra(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G G† / Tr(G G†) for every G of a stack (n, d, rank) and their
    eigenvalues, as density_stack validates and returns them;
    random_density is the one-matrix form."""
    m = g @ g.conj().swapaxes(-1, -2)
    tr = np.trace(m, axis1=-2, axis2=-1).real
    return density_stack(m / tr[:, None, None], (m.shape[-1],))


def w_state() -> PureState:
    """Equal-amplitude single-excitation state of three qubits (R, S, E).

    (|100> + |010> + |001>)/sqrt(3): every pair of registers is classically
    and quantum correlated, which is what makes it useful as an initially
    correlated reference-system-environment state.
    """
    vec = np.zeros(8, dtype=complex)
    vec[[4, 2, 1]] = 1.0 / np.sqrt(3.0)
    return PureState(vec, (2, 2, 2), ("R", "S", "E"))
