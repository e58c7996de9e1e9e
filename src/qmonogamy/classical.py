"""Classical counterparts: joint distributions, Markov chains, and the
monogamy gap for Shannon mutual information.

Probabilities are stored as dense arrays, one axis per variable.  A chain
is an initial distribution plus column-stochastic transition matrices
T[next, prev]; its joint distribution factorizes step by step, which is
what `is_markov` checks on an arbitrary joint via vanishing conditional
mutual information between each variable and its pre-predecessors.  A
JointPMF holds a table or a stack (variables on the trailing axes) and
the `_cut`/`_entropies` pair of every state kind; `_entropies` is the
package's one Shannon reader, so info's one I(A:B) and I(A:B|C), and
cmmi_gap through them, read either.
Validation and chain products are stacked (joint_pmf_stack, chain_stack,
joints_from_chains, dirichlet_chains); joint_pmf, classical_chain,
joint_from_chain and random_chain are their one-item forms.
The stacks these build keep the stack as the innermost, contiguous axis
behind their (n, ...) shape: a marginal of a stack laid out table by
table runs one tiny inner loop per table, where on this layout each sum
adds whole rows over the stack.  Any layout reads the same values, up
to the order a marginal adds its entries in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .info import conditional_mutual_information
from .linalg import _is_int, _positions, _require_int, require_finite
from .states import spectrum_entropy
from .tolerances import GAP_TOLERANCE, INVARIANT_TOL
from .witnesses import monogamy_gap

__all__ = [
    "JointPMF",
    "ClassicalChain",
    "joint_pmf",
    "joint_pmf_stack",
    "classical_chain",
    "chain_stack",
    "joint_from_chain",
    "joints_from_chains",
    "is_markov",
    "cmmi_gap",
    "random_chain",
    "chain_variates",
    "dirichlet_chains",
]

@dataclass(frozen=True, eq=False)
class JointPMF:
    """A joint distribution, or a stack of them: the last `n_vars` axes of
    `probs` are the variables (`dims`), any before them a batch of tables
    (`batch`), as DensityMatrix and PureState take one.  `n_vars` defaults
    to probs.ndim, one table.  A NaN or infinite probability, which the
    entropy sum would read as 0, is refused by name once, when built."""

    probs: np.ndarray
    n_vars: int | None = None

    def __post_init__(self) -> None:
        n = self.probs.ndim if self.n_vars is None else self.n_vars
        if not (_is_int(n) and 0 <= n <= self.probs.ndim):
            raise ValueError(f"n_vars must be an integer in 0..{self.probs.ndim}, got {n!r}")
        require_finite(self.probs, "probabilities")
        object.__setattr__(self, "n_vars", n)

    @property
    def batch(self) -> tuple[int, ...]:
        return self.probs.shape[:self.probs.ndim - self.n_vars]

    @property
    def dims(self) -> tuple[int, ...]:
        return self.probs.shape[self.probs.ndim - self.n_vars:]

    def entropies(self, *subsets: tuple[int, ...]) -> list[float | np.ndarray]:
        """Shannon entropy (bits) of each subset's marginal, in order: the
        package's one Shannon reader (states.spectrum_entropy's sum), exactly
        0 for the empty set, a float without a batch, else a batch-shaped
        array.  A non-integer (bool, float) or out-of-range index is
        refused by name."""
        return self._entropies(*map(self._cut, subsets))

    def _cut(self, cut: tuple[int, ...]) -> tuple[int, ...]:
        # a cut as sorted distinct positions, each checked by linalg._positions
        return _positions(cut, self.n_vars, "variable index")

    def _entropies(self, *cuts: tuple[int, ...]) -> list[float | np.ndarray]:
        # the positional core of entropies, for cuts resolved by _cut
        values = []
        for cut in cuts:
            drop = tuple(len(self.batch) + i for i in range(self.n_vars) if i not in cut)
            h = (spectrum_entropy(self.probs.sum(axis=drop).reshape(self.batch + (-1,)))
                 if cut else np.zeros(self.batch))
            values.append(h if self.batch else float(h))
        return values


@dataclass(frozen=True, eq=False)
class ClassicalChain:
    """Initial distribution plus column-stochastic transitions T[next, prev]."""

    initial: np.ndarray
    transitions: tuple[np.ndarray, ...]

    @property
    def n_vars(self) -> int:
        return len(self.transitions) + 1


def joint_pmf(probs: np.ndarray) -> JointPMF:
    """Validate a finite array (sum 1, entries >= -INVARIANT_TOL, clipped to 0).

    The one-table form of joint_pmf_stack.
    """
    return JointPMF(joint_pmf_stack(np.asarray(probs, dtype=float)[None])[0])


def joint_pmf_stack(probs: np.ndarray) -> np.ndarray:
    """Validate a stack of joint tables (one per index of the leading axis)
    as joint_pmf does, each check on the whole stack at once.

    A failure reports the worst value in the stack.  Returns the stack
    with its negative round-off clipped to 0.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.size == 0:
        raise ValueError(f"empty probability table: shape {probs.shape[1:]}")
    require_finite(probs, "probabilities")
    if probs.min() < -INVARIANT_TOL:
        raise ValueError(f"negative probability {probs.min():.3e}")
    totals = probs.sum(axis=tuple(range(1, probs.ndim)))
    total = totals[np.abs(totals - 1.0).argmax()]
    if abs(total - 1.0) > INVARIANT_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return np.clip(probs, 0.0, None)


def classical_chain(initial: np.ndarray,
                    transitions: list[np.ndarray] | tuple[np.ndarray, ...],
                    ) -> ClassicalChain:
    """Validate finiteness and stochasticity (INVARIANT_TOL, entries
    >= -INVARIANT_TOL clipped to 0) into a chain.

    The one-chain form of chain_stack.
    """
    initial, transitions = chain_stack(np.asarray(initial, dtype=float)[None],
                                       [np.asarray(t, dtype=float)[None] for t in transitions])
    return ClassicalChain(initial[0], tuple(t[0] for t in transitions))


def chain_stack(initial: np.ndarray, transitions: list[np.ndarray] | tuple[np.ndarray, ...],
                ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Validate a stack of chains as classical_chain does: initial
    distributions (n, d_1) and transition stacks (n, d_{i+1}, d_i).

    Negative entries down to -INVARIANT_TOL are round-off, as in
    joint_pmf_stack: returns the stacks with them clipped to 0.
    """
    require_finite(np.concatenate([a.ravel(order="K") for a in (initial, *transitions)]),
                   "chain entries")
    if initial.ndim != 2 or initial.size == 0:
        raise ValueError(f"initial distribution must be a nonempty vector, "
                         f"got shape {initial.shape[1:]}")
    if (initial.min() < -INVARIANT_TOL
            or np.abs(initial.sum(axis=-1) - 1.0).max() > INVARIANT_TOL):
        raise ValueError("initial distribution is not a probability vector")
    d = initial.shape[-1]
    for i, t in enumerate(transitions):
        if t.ndim != 3 or t.size == 0:
            raise ValueError(f"transition {i} must be a nonempty matrix, "
                             f"got shape {t.shape[1:]}")
        if t.shape[-1] != d:
            raise ValueError(f"transition {i} expects {t.shape[-1]} inputs, chain carries {d}")
        if t.min() < -INVARIANT_TOL or np.abs(t.sum(axis=-2) - 1.0).max() > INVARIANT_TOL:
            raise ValueError(f"transition {i} is not column stochastic")
        d = t.shape[-2]
    return np.clip(initial, 0.0, None), [np.clip(t, 0.0, None) for t in transitions]


def joint_from_chain(c: ClassicalChain) -> JointPMF:
    """p(x1..xn) = p(x1) T1[x2,x1] T2[x3,x2] ..."""
    return JointPMF(joints_from_chains(c.initial[None], [t[None] for t in c.transitions])[0])


def joints_from_chains(initial: np.ndarray,
                       transitions: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """joint_from_chain for a stack of chains (as chain_stack takes them):
    the stack of joints (n, x1, ..., xk), validated by joint_pmf_stack.

    The stack is the innermost, contiguous axis (strides[0] == itemsize):
    the products fill an (x1, ..., xk, n) buffer, returned through a view
    that moves its last axis first.  A marginal of a table-contiguous
    stack runs one inner loop of a few entries per table; on this layout
    it adds whole rows of n entries.
    """
    arr = np.ascontiguousarray(initial.T)
    for t in transitions:
        # T[next, prev] of each chain as (prev, next, n), against the last variable
        arr = np.multiply(arr[..., None, :], t.transpose(2, 1, 0), order="C")
    return joint_pmf_stack(np.moveaxis(arr, -1, 0))


def is_markov(p: JointPMF) -> bool:
    """Whether each variable of one table is independent of the deeper past
    given its predecessor: I(X_i : X_1..X_{i-2} | X_{i-1}) <= GAP_TOLERANCE
    for every i >= 3.  A stack of tables is refused by name."""
    if p.batch:
        raise ValueError(f"is_markov reads one table, got a batch of shape {p.batch}")
    for i in range(2, p.n_vars):
        past = tuple(range(i - 1))
        if conditional_mutual_information(p, (i,), past, (i - 1,)) > GAP_TOLERANCE:
            return False
    return True


def cmmi_gap(p: JointPMF, perm: tuple[int, ...]) -> float | np.ndarray:
    """Permutation gap of Shannon mutual information over a 2n-variable joint.

    witnesses.monogamy_gap of I(X_r : X_s), variable r at axis r - 1, so
    rho_i sits at axis n-i and sigma_j at axis n+j-1.  The gap is
    nonnegative for Markov joints and every permutation: it is a sum of
    four-variable gaps I(b:c) + I(a:d) - I(a:c) - I(b:d), one per swap of
    witnesses.uncrossing(perm), and on a Markov chain a, b, c, d each one
    equals I(b:c|d) - I(a:c|d), which data processing keeps nonnegative.
    Every variable is in one nested and one crossed pair, so the singleton
    entropies cancel: the gap is monogamy_gap of -H(X_r, X_s).
    """
    if p.n_vars % 2:
        raise ValueError(f"needs an even number of variables, got {p.n_vars}")
    n = p.n_vars // 2
    if len(perm) != n:
        raise ValueError(f"perm must rearrange 1..{n}, got {perm}")
    return monogamy_gap(lambda r, s: -p.entropies((r - 1, s - 1))[0], perm)


def random_chain(n_vars: int, dim: int, seed: int | np.random.Generator = 0) -> ClassicalChain:
    """Chain with flat-Dirichlet initial distribution and transition columns."""
    _require_int(n_vars, "n_vars")
    _require_int(dim, "dim")
    if n_vars < 2:
        raise ValueError("a chain needs at least two variables")
    if dim < 1:
        raise ValueError(f"a chain needs at least one state per variable, got {dim}")
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    init, steps = chain_variates(rng, n_vars, dim)
    init, steps = dirichlet_chains(init[None], steps[None])
    return ClassicalChain(init[0], tuple(t[0] for t in steps))


def chain_variates(rng: np.random.Generator, n_vars: int, dim: int,
                   size: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The exponential variates of one random_chain draw, in its order:
    dim for the initial distribution, then (n_vars - 1, dim, dim).

    With `size`, those of `size` draws in turn, as stacks (size, dim) and
    (size, n_vars - 1, dim, dim).  Either way one exponential call draws
    them all, which leaves the stream unchanged.
    """
    lead = () if size is None else (size,)
    x = rng.exponential(size=lead + (dim + (n_vars - 1) * dim * dim,))
    return x[..., :dim], x[..., dim:].reshape(lead + (n_vars - 1, dim, dim))


def dirichlet_chains(init: np.ndarray,
                     steps: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Normalize stacks of chain_variates, initial (n, dim) and transitions
    (n, n_vars - 1, dim, dim), into chains validated by chain_stack.

    The transitions are normalized and returned with the stack innermost,
    as joints_from_chains lays its joints out; their column sums add the
    same entries in the same order, so the chains are those of one draw
    at a time bit for bit.
    """
    # each initial sum stays on its own row: numpy adds a contiguous row of
    # eight or more entries pairwise, which a sum over the stack would not
    init = init / init.sum(axis=-1, keepdims=True)
    steps = np.moveaxis(steps, 0, -1).copy()
    steps /= steps.sum(axis=1, keepdims=True)
    return chain_stack(init, list(np.moveaxis(steps, -1, 1)))
