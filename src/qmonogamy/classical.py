"""Classical counterparts: joint distributions, Markov chains, and the
monogamy gap for Shannon mutual information.

Probabilities are stored as dense arrays, one axis per variable.  A chain
is an initial distribution plus column-stochastic transition matrices
T[next, prev]; its joint distribution factorizes step by step, which is
what `is_markov` checks on an arbitrary joint via vanishing conditional
mutual information between each variable and its pre-predecessors.
Validation and chain products are stacked (joint_pmf_stack, chain_stack,
joints_from_chains, dirichlet_chains); joint_pmf, classical_chain,
joint_from_chain and random_chain are their one-item forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import require_finite
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
    "shannon_entropy",
    "shannon_entropies",
    "classical_mi",
    "classical_cmi",
    "is_markov",
    "cmmi_gap",
    "random_chain",
    "chain_variates",
    "dirichlet_chains",
]

@dataclass(frozen=True, eq=False)
class JointPMF:
    """Joint distribution; probs.shape gives one dimension per variable."""

    probs: np.ndarray

    @property
    def n_vars(self) -> int:
        return self.probs.ndim

    @property
    def dims(self) -> tuple[int, ...]:
        return self.probs.shape


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
    totals = probs.reshape(len(probs), -1).sum(axis=1)
    total = totals[np.abs(totals - 1.0).argmax()]
    if abs(total - 1.0) > INVARIANT_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return np.clip(probs, 0.0, None)


def classical_chain(initial: np.ndarray,
                    transitions: list[np.ndarray] | tuple[np.ndarray, ...],
                    ) -> ClassicalChain:
    """Validate finiteness and stochasticity (INVARIANT_TOL) into a chain.

    The one-chain form of chain_stack.
    """
    initial = np.asarray(initial, dtype=float)
    transitions = tuple(np.asarray(t, dtype=float) for t in transitions)
    chain_stack(initial[None], [t[None] for t in transitions])
    return ClassicalChain(initial, transitions)


def chain_stack(initial: np.ndarray,
                transitions: list[np.ndarray] | tuple[np.ndarray, ...]) -> None:
    """Validate a stack of chains as classical_chain does: initial
    distributions (n, d_1) and transition stacks (n, d_{i+1}, d_i)."""
    bad = sum(np.count_nonzero(~np.isfinite(a)) for a in (initial, *transitions))
    if bad:
        raise ValueError(f"non-finite chain entries: {bad} NaN or infinite")
    if initial.ndim != 2 or initial.size == 0:
        raise ValueError(f"initial distribution must be a nonempty vector, "
                         f"got shape {initial.shape[1:]}")
    if initial.min() < 0 or np.abs(initial.sum(axis=-1) - 1.0).max() > INVARIANT_TOL:
        raise ValueError("initial distribution is not a probability vector")
    d = initial.shape[-1]
    for i, t in enumerate(transitions):
        if t.ndim != 3 or t.size == 0:
            raise ValueError(f"transition {i} must be a nonempty matrix, "
                             f"got shape {t.shape[1:]}")
        if t.shape[-1] != d:
            raise ValueError(f"transition {i} expects {t.shape[-1]} inputs, chain carries {d}")
        if t.min() < 0 or np.abs(t.sum(axis=-2) - 1.0).max() > INVARIANT_TOL:
            raise ValueError(f"transition {i} is not column stochastic")
        d = t.shape[-2]


def joint_from_chain(c: ClassicalChain) -> JointPMF:
    """p(x1..xn) = p(x1) T1[x2,x1] T2[x3,x2] ..."""
    return JointPMF(joints_from_chains(c.initial[None], [t[None] for t in c.transitions])[0])


def joints_from_chains(initial: np.ndarray,
                       transitions: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """joint_from_chain for a stack of chains (as chain_stack takes them):
    the stack of joints, validated by joint_pmf_stack."""
    arr = initial
    for t in transitions:
        # T[next, prev] of each chain, laid against the last axis of its joint
        step = t.swapaxes(-1, -2).reshape((len(t),) + (1,) * (arr.ndim - 2) + t.shape[:0:-1])
        arr = arr[..., None] * step
    return joint_pmf_stack(arr)


def shannon_entropy(p: JointPMF, subset: tuple[int, ...] | None = None) -> float:
    """H of the marginal over `subset` (all variables when omitted), in bits."""
    subset = tuple(range(p.n_vars)) if subset is None else subset
    return float(shannon_entropies(p.probs[None], subset)[0])


def shannon_entropies(probs: np.ndarray, subset: tuple[int, ...]) -> np.ndarray:
    """shannon_entropy of the marginal over `subset` for a stack of joints.

    `probs` holds one joint per index of its leading axis, then one axis
    per variable; the sum is states.spectrum_entropy's, which leaves out
    entries at or below ENTROPY_CLIP.  A variable index outside the table
    is refused by name.
    """
    subset = set(subset)
    n = probs.ndim - 1
    bad = sorted(i for i in subset if not 0 <= i < n)
    if bad:
        raise ValueError(f"variable indices {bad} out of range for {n} variables")
    drop = tuple(1 + i for i in range(n) if i not in subset)
    w = (probs.sum(axis=drop) if drop else probs).reshape(len(probs), -1)
    return spectrum_entropy(w)


def classical_mi(p: JointPMF, a: tuple[int, ...], b: tuple[int, ...]) -> float:
    """I(A:B) = H(A) + H(B) - H(AB)."""
    a, b = tuple(a), tuple(b)
    if set(a) & set(b):
        raise ValueError("variable sets overlap")
    return shannon_entropy(p, a) + shannon_entropy(p, b) - shannon_entropy(p, a + b)


def classical_cmi(p: JointPMF, a: tuple[int, ...], b: tuple[int, ...],
                  c: tuple[int, ...]) -> float:
    """I(A:B|C) = H(AC) + H(BC) - H(ABC) - H(C)."""
    a, b, c = tuple(a), tuple(b), tuple(c)
    if set(a) & set(b) or set(a) & set(c) or set(b) & set(c):
        raise ValueError("variable sets overlap")
    hc = shannon_entropy(p, c) if c else 0.0
    return (shannon_entropy(p, a + c) + shannon_entropy(p, b + c)
            - shannon_entropy(p, a + b + c) - hc)


def is_markov(p: JointPMF, tol: float = GAP_TOLERANCE) -> bool:
    """Whether each variable is independent of the deeper past given its
    predecessor: I(X_i : X_1..X_{i-2} | X_{i-1}) <= tol for every i >= 3."""
    for i in range(2, p.n_vars):
        past = tuple(range(i - 1))
        if classical_cmi(p, (i,), past, (i - 1,)) > tol:
            return False
    return True


def cmmi_gap(p: JointPMF, perm: tuple[int, ...]) -> float:
    """Permutation gap of Shannon mutual information over a 2n-variable joint.

    witnesses.monogamy_gap of I(X_r : X_s), variable r at axis r - 1, so
    rho_i sits at axis n-i and sigma_j at axis n+j-1.  The gap is
    nonnegative for Markov joints and every permutation: it is a sum of
    four-variable gaps I(b:c) + I(a:d) - I(a:c) - I(b:d), one per swap of
    witnesses.uncrossing(perm), and on a Markov chain a, b, c, d each one
    equals I(b:c|d) - I(a:c|d), which data processing keeps nonnegative.
    """
    if p.n_vars % 2:
        raise ValueError(f"needs an even number of variables, got {p.n_vars}")
    n = p.n_vars // 2
    if len(perm) != n:
        raise ValueError(f"perm must rearrange 1..{n}, got {perm}")
    return monogamy_gap(lambda r, s: classical_mi(p, (r - 1,), (s - 1,)), perm)


def random_chain(n_vars: int, dim: int, seed: int | np.random.Generator = 0) -> ClassicalChain:
    """Chain with flat-Dirichlet initial distribution and transition columns."""
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
    (n, n_vars - 1, dim, dim), into chains validated by chain_stack."""
    init = init / init.sum(axis=-1, keepdims=True)
    steps = steps / steps.sum(axis=-2, keepdims=True)
    transitions = list(steps.swapaxes(0, 1))
    chain_stack(init, transitions)
    return init, transitions
