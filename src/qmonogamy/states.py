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
(spectrum_entropy) instead of solving again.  density() is its
one-matrix form, and ginibre_spectra builds and validates a stack of
random states.  Every Hermitian spectrum, density_stack's and
von_neumann_stack's, comes from one helper, _spectra: qubits in closed
form, any other size one stacked eigvalsh.

A PureState may also carry register labels, which makes it the package's
one circuit simulator: unitaries and isometries are applied to named
registers, fresh pure states are spliced in next to them, and entropies
of named registers come straight from the vector.  Every purified
circuit, process tensor and intervened state is built this way, and
MAX_AMPLITUDES bounds all of them.  Every step, isometry and embedding
goes through PureState._apply, which alone checks the budget,
calls the kernel linalg._apply_registers and lays out the registers.
Registers that are adjacent and in order are one contiguous block
(before, d, after) of the flat vector: an operator acts on them in place,
as one reshape and one batched matmul, and a splice is one broadcast
product.  Every register operation on the package's hot paths is of
that kind; registers out of order or apart take one transpose first.

A PureState's vector may carry leading batch axes, `vec` of shape
(..., D): a stack of states on one register layout.  `apply` and
`splice` broadcast a state stack against a stack of operators or of
spliced states in either direction, `reduced` returns the stack of
marginals, and `entropies` reads any number of cuts over the whole batch
at once, an array per cut (a float when there is no batch).  The
unbatched state is the same code with an empty batch shape.  A
DensityMatrix may likewise hold a stack (..., d, d); `purify` purifies
every matrix of it in one call, and its `entropies` reads subsets the
way PureState.entropies reads cuts, through the same private tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import (_apply_registers, _dims, _positions, _require_int, broadcast_batch,
                     hermitian_eig, partial_trace, require_finite)
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
        keep = self._cut(keep)
        sub = partial_trace(self.mat, self.dims, keep)
        return DensityMatrix(sub, tuple(self.dims[k] for k in keep))

    def entropies(self, *subsets: Sequence[int]) -> list[float | np.ndarray]:
        """von Neumann entropy (bits) of the marginal on each subset, in order:
        PureState.entropies of a mixed state, whose whole register is the
        matrix itself.  Subsystems are named by position only.  A NaN or
        infinite entry is refused by name."""
        return self._entropies(*map(self._cut, subsets))

    def _cut(self, cut: Sequence[int]) -> tuple[int, ...]:
        # a cut as sorted distinct positions, each checked by linalg._positions
        return _positions(cut, len(self.dims), "subsystem")

    def _entropies(self, *subsets: tuple[int, ...]) -> list[float | np.ndarray]:
        # the positional core of entropies, for subsets resolved by _cut
        # (info's mutual informations pass theirs this way)
        require_finite(self.mat)
        whole, m = tuple(range(len(self.dims))), self.mat.reshape(-1, self.dim, self.dim)
        return _side_entropies([s or None for s in subsets], lambda keep: m if keep == whole
                               else partial_trace(m, self.dims, keep), self.mat.shape[:-2])


def von_neumann(rho: DensityMatrix | np.ndarray) -> float:
    """Entropy -sum(w log2 w) over eigenvalues above ENTROPY_CLIP.

    A raw array is validated by density() first; a NaN or infinite entry
    is refused by name for either kind.  von_neumann_stack, which only
    internal callers reach, takes its input unchecked.
    """
    if not isinstance(rho, DensityMatrix):
        rho = density(rho)
    require_finite(rho.mat)
    return float(von_neumann_stack(rho.mat))


def von_neumann_stack(mats: np.ndarray) -> np.ndarray:
    """von_neumann of every matrix in a stack (..., d, d): one spectra call
    (_spectra: closed form for qubits, one stacked eigvalsh otherwise).

    Returns the entropies with the stack's leading shape.
    """
    m = np.asarray(mats)
    # the Hermitian part (m + m^dagger) / 2, formed in one array beside m
    # (a second would raise the peak memory of the bond table's one stack
    # of joints), in C order (eigvalsh is slower on a transposed layout)
    h = np.conjugate(m.swapaxes(-1, -2), order="C", dtype=np.result_type(m, 1.0))
    h += m
    h /= 2.0
    return spectrum_entropy(_spectra(h))


def _spectra(h: np.ndarray) -> np.ndarray:
    """Eigenvalues (..., d), ascending, of every matrix of a Hermitian stack
    (..., d, d): the one Hermitian spectrum of von_neumann_stack and
    density_stack.  A 2 x 2 stack is solved in closed form, (a + d) / 2 -/+
    hypot((a - d) / 2, |b|) for diagonal a, d and off-diagonal b (LAPACK
    takes about 0.7 us a qubit, the closed form a tenth of that); any other
    size is one stacked eigvalsh."""
    if h.shape[-1] != 2:
        return np.linalg.eigvalsh(h)
    a, d = h[..., 0, 0].real, h[..., 1, 1].real
    mean, radius = (a + d) / 2, np.hypot((a - d) / 2, np.abs(h[..., 0, 1]))
    w = np.empty(mean.shape + (2,))
    np.subtract(mean, radius, out=w[..., 0])
    np.add(mean, radius, out=w[..., 1])
    return w


def _von_neumann_stacks(*stacks: np.ndarray) -> list[np.ndarray]:
    """von_neumann_stack of each of equally long stacks (n, d, d), with one
    eigensolve call for all the stacks of one size d.  The entropies
    readers of both state kinds (_side_entropies) take their entropies
    through it."""
    out = {}
    for d in {m.shape[-1] for m in stacks}:
        same = [i for i, m in enumerate(stacks) if m.shape[-1] == d]
        h = von_neumann_stack(stacks[same[0]] if len(same) == 1
                              else np.concatenate([stacks[i] for i in same]))
        out.update(zip(same, h.reshape(len(same), -1)))
    return [out[i] for i in range(len(stacks))]


def _side_entropies(sides: list, marginals: Callable[[tuple], np.ndarray],
                    batch: tuple[int, ...]) -> list[float | np.ndarray]:
    """The tail of both entropies readers: each distinct side's marginals
    (n, d, d) over the flat batch, one eigensolve per size, 0 for a None
    side, and a float per side without a batch, else a batch-shaped array."""
    distinct = list(dict.fromkeys(s for s in sides if s is not None))
    h = dict(zip(distinct, _von_neumann_stacks(*map(marginals, distinct))))
    values = [np.zeros(math.prod(batch)) if s is None else h[s] for s in sides]
    # a copy each, so that a cut and its complement never share an array
    return [v.reshape(batch).copy() if batch else float(v[0]) for v in values]


def spectrum_entropy(w: np.ndarray) -> np.ndarray:
    """-sum(w log2 w) in bits over the last axis of a stack of spectra (or
    probability vectors), leaving out weights at or below ENTROPY_CLIP.

    The one entropy sum of the package: von_neumann_stack, the spectra of
    density_stack and classical.JointPMF._entropies all go through it.
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
    registers accepts each one by label or by position (an int), resolved
    in one place, `_axes`, which checks positions with linalg._positions,
    as every state kind does.  `_cut` gives a cut's sorted positions, and
    `entropies` and `apply` are resolving shells over positional cores
    (`_entropies`, `_apply`), which info and the process-tensor readers
    and builders call on positions they resolved once.

    `entropies` is the one subset-entropy reader: a reader that needs
    several cuts of one state names them all in one call, which reduces
    each distinct side once and solves every side of one size in one
    stacked eigensolve.  Nothing is kept on the state between calls.
    """

    vec: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...] | None = None

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
            else:
                axes += _positions((r,), len(self.dims), "register position")
        return axes

    def _cut(self, cut: Sequence[Register]) -> tuple[int, ...]:
        # a cut as sorted distinct positions, its labels resolved by _axes
        return tuple(sorted(set(self._axes(cut))))

    def reduced(self, keep: Sequence[Register]) -> DensityMatrix:
        """Marginal on the registers in `keep`, in register order."""
        keep = self._cut(keep)
        m = self._marginals(keep)
        return DensityMatrix(m.reshape(self.batch + m.shape[1:]), tuple(self.dims[k] for k in keep))

    def _marginals(self, keep: Sequence[int]) -> np.ndarray:
        # the marginals on the sorted axes `keep` as a stack (n, d, d) over the
        # flattened batch, contracted from the vector (no full outer product)
        traced = [i for i in range(len(self.dims)) if i not in keep]
        t = self.vec.reshape((-1,) + self.dims).transpose([0] + [1 + i for i in [*keep, *traced]])
        m = t.reshape(t.shape[0], math.prod([self.dims[k] for k in keep]), -1)
        return m @ m.conj().swapaxes(-1, -2)

    def entropy(self, registers: Sequence[Register]) -> float | np.ndarray:
        """von Neumann entropy (bits) of the marginal on `registers`; the
        one-cut form of `entropies`."""
        return self.entropies(registers)[0]

    def entropies(self, *cuts: Sequence[Register]) -> list[float | np.ndarray]:
        """von Neumann entropy (bits) of the marginal on each cut, in order.

        The two sides of a bipartition of a pure state share their nonzero
        spectrum, so the side of smaller dimension is the one reduced (on
        a tie, the side holding register 0); the empty set and the whole
        register both give exactly 0.  Each distinct side is reduced once,
        so a cut and its complement cost one marginal, and the marginals of
        one size share one eigensolve over the whole batch
        (_von_neumann_stacks).  Each value is a float for an unbatched
        state and an array of the batch shape otherwise.
        """
        return self._entropies(*map(self._cut, cuts))

    def _entropies(self, *cuts: tuple[int, ...]) -> list[float | np.ndarray]:
        # the positional core of entropies, for cuts resolved by _cut into
        # sorted distinct positions (info and the process-tensor readers
        # resolve theirs once and call it directly)
        n = len(self.dims)
        sides = []
        for keep in cuts:
            if 0 < len(keep) < n:
                d_keep = math.prod([self.dims[i] for i in keep])
                # the complement if it is smaller, or as small and holds register 0
                if (d_keep, keep[0] != 0) > (self.dim // d_keep, keep[0] == 0):
                    keep = tuple(i for i in range(n) if i not in keep)
            sides.append(keep if 0 < len(keep) < n else None)
        return _side_entropies(sides, self._marginals, self.batch)

    def apply(self, op: np.ndarray, on: Sequence[Register],
              out: dict[str, int] | None = None) -> PureState:
        """Apply a unitary or an isometry `op` to the registers `on`.

        `op` acts on the product of the `on` registers in the order given;
        a stack of operators (..., d_out, d_in) broadcasts against the
        state's batch.  Without `out` the registers keep their labels,
        dimensions and places.  With `out`, a mapping of output labels to
        dimensions in `op`'s output order, the output registers replace the
        `on` registers at the place of the first of them.  An `op` whose
        input or output dimension does not match the registers, and a
        register named twice, are refused; the positional core `_apply`
        then acts.  Registers that are adjacent and in order act in place, as
        one reshape and one batched matmul; others are transposed into such
        a block first.  A result whose states exceed MAX_AMPLITUDES is
        refused before it is built, in `_apply` and in `splice`.
        """
        axes = self._axes(on)
        if len(set(axes)) != len(axes):
            raise ValueError(f"registers {tuple(on)} name a register twice")
        op = np.asarray(op, dtype=complex)
        d_in = math.prod([self.dims[a] for a in axes])
        if op.ndim < 2 or op.shape[-1] != d_in:
            raise ValueError(f"operator of shape {op.shape} does not act on registers "
                             f"{tuple(on)} of dimension {d_in}")
        if out is None:
            new_dims = tuple([self.dims[a] for a in axes])
        elif self.labels is None:
            raise ValueError("output registers need a labelled state")
        else:
            new_dims = tuple(out.values())
        if op.shape[-2] != math.prod(new_dims):
            raise ValueError(f"operator of shape {op.shape} does not output registers "
                             f"of dimensions {new_dims}")
        return self._apply(op, axes, out)

    def _apply(self, op: np.ndarray, axes: Sequence[int],
               out: dict[str, int] | None = None) -> PureState:
        # the positional core of apply, the one register operation, for
        # distinct positions and a complex op that fits them (process_tensor
        # calls it on positions it resolved once); `out` goes in at min(axes)
        _check_budget(op.shape[-2] * (self.dim // math.prod([self.dims[a] for a in axes])))
        vec = _apply_registers(self.vec, self.dims, op, axes, in_place=out is None)
        if out is None:
            return PureState(vec, self.dims, self.labels)
        p = min(axes)
        rest = [i for i in range(p, len(self.dims)) if i not in axes]
        return PureState(vec, (*self.dims[:p], *out.values(), *[self.dims[i] for i in rest]),
                         (*self.labels[:p], *out, *[self.labels[i] for i in rest]))

    def splice(self, state: PureState, after: Register,
               labels: Sequence[str]) -> PureState:
        """Tensor in the registers of the pure `state`, labelled `labels`,
        right after the register `after`; the two batches broadcast.

        The registers up to `after` and those past it are each one block of
        the flat vector, so the splice is one broadcast product of the
        vector as (before, 1, rest) with the spliced state as (1, D, 1).
        """
        if self.labels is None or len(labels) != len(state.dims):
            raise ValueError(f"splicing needs a labelled state and one label per spliced "
                             f"register, got {labels} for dims {state.dims}")
        (a,) = self._axes((after,))
        batch = broadcast_batch(self.batch, state.batch)
        _check_budget(self.dim * state.dim)
        before = math.prod(self.dims[:a + 1])
        t = (self.vec.reshape(self.batch + (before, 1, self.dim // before))
             * state.vec.reshape(state.batch + (1, state.dim, 1)))
        new_labels = self.labels[:a + 1] + tuple(labels) + self.labels[a + 1:]
        return PureState(t.reshape(batch + (-1,)),
                         self.dims[:a + 1] + state.dims + self.dims[a + 1:], new_labels)


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
    dims = _dims(dims)
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
    dims = (m.shape[0],) if dims is None else _dims(dims)
    return DensityMatrix(density_stack(m[None], dims)[0][0], dims)


def density_stack(mats: np.ndarray,
                  dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Validate every matrix of a stack (n, d, d) as a density matrix.

    The checks of density(), each made on the whole stack at once (the
    positivity test is one _spectra call, closed form for qubits); a failure
    reports the worst deviation in the stack.  Returns the symmetrized stack
    (m + m†) / 2 and its eigenvalues (n, d), ascending.  The stack is exactly
    Hermitian, so von_neumann_stack of it solves the same matrices again
    through the same _spectra: spectrum_entropy of the returned eigenvalues
    is the same entropy, bit for bit.
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
    w = _spectra(sym)
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


def random_density(d: int, seed: int | np.random.Generator = 0) -> DensityMatrix:
    """Random density matrix rho = G G† / Tr(G G†), G complex Gaussian d x d."""
    _require_int(d, "d")
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    return DensityMatrix(ginibre_spectra(ginibre(rng, (d, d))[None])[0][0], (d,))


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
