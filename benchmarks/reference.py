"""Independent numpy computations that the benchmark checks the program against.

Nothing in this module imports qmonogamy.  Every quantity is computed from
plain state vectors and Kraus operators along a different route from the
program's: entropies of pure states come from Schmidt spectra (singular
values of a reshaped vector) instead of eigensolves of reduced density
matrices, channels act as isometries that append an environment axis
instead of ``kron(eye, K, eye)`` embeddings, and process-tensor quantities
come from simulating the circuit in line instead of contracting a Choi
state.  Entropies are in bits.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

EIG_CLIP = 1e-12

# pairings (r, s) of the monogamy witnesses, as stated in the paper: the
# nested sum over (i, 2n+1-i) minus the sum over the permuted pairing
M6_PAIRINGS = {
    "M6a": ((1, 4), (2, 6), (3, 5)),
    "M6b": ((1, 5), (2, 4), (3, 6)),
}
M8_PAIRINGS = {
    "M8a": ((1, 5), (2, 8), (3, 7), (4, 6)),
    "M8b": ((1, 7), (2, 5), (3, 8), (4, 6)),
    "M8c": ((1, 6), (2, 8), (3, 5), (4, 7)),
    "M8d": ((1, 5), (2, 6), (3, 8), (4, 7)),
    "M8e": ((1, 7), (2, 6), (3, 5), (4, 8)),
    "M8f": ((1, 6), (2, 5), (3, 7), (4, 8)),
    "M8g": ((1, 5), (2, 6), (3, 7), (4, 8)),
}


def shannon_bits(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float).reshape(-1)
    p = p[p > EIG_CLIP]
    return float(-np.sum(p * np.log2(p)))


def schmidt_entropy(vec: np.ndarray, dims: tuple[int, ...], subset: tuple[int, ...]) -> float:
    """Entropy of the marginal on `subset` of a pure state, via its Schmidt spectrum."""
    subset = tuple(sorted(subset))
    if not subset or len(subset) == len(dims):
        return 0.0
    rest = tuple(i for i in range(len(dims)) if i not in subset)
    t = np.asarray(vec).reshape(dims).transpose(subset + rest)
    d_sub = math.prod(dims[i] for i in subset)
    sv = np.linalg.svd(t.reshape(d_sub, -1), compute_uv=False)
    return shannon_bits(sv ** 2)


def apply_unitary(vec: np.ndarray, dims: tuple[int, ...], u: np.ndarray,
                  sites: tuple[int, int]) -> np.ndarray:
    """Apply a two-register unitary to a flat state vector."""
    a, b = sites
    t = np.asarray(vec).reshape(dims)
    u4 = np.asarray(u).reshape(dims[a], dims[b], dims[a], dims[b])
    t = np.tensordot(u4, t, axes=[[2, 3], [a, b]])
    return np.moveaxis(t, [0, 1], [a, b]).reshape(-1)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unit_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_kraus(d: int, n_ops: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Kraus operators of a random CPTP map on dimension d: blocks of a Haar isometry."""
    v = haar_unitary(d * n_ops, rng)[:, :d]
    return [v[i * d:(i + 1) * d] for i in range(n_ops)]


# ---------------------------------------------------------------------------
# the lambda example
# ---------------------------------------------------------------------------

def u_lambda(lam: float) -> np.ndarray:
    """The example's step unitary on (S, E), basis |00>, |01>, |10>, |11>."""
    s, c = math.sqrt(lam), math.sqrt(1.0 - lam)
    return np.array([[0, -c, s, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, s, c, 0]],
                    dtype=complex)


def w_vector() -> np.ndarray:
    """(|100> + |010> + |001>)/sqrt(3) over (R, S, E)."""
    vec = np.zeros(8, dtype=complex)
    vec[[4, 2, 1]] = 1.0 / math.sqrt(3.0)
    return vec


def qmmi_row(lam: float) -> dict[str, float]:
    """DP1..DP4 and M4 of the example from Schmidt spectra of the gamma vectors.

    The gamma states are pure over (R, S, E), so H(R,S,E) = 0 and every
    marginal entropy is the entropy of a Schmidt spectrum.
    """
    dims = (2, 2, 2)
    u = u_lambda(lam)
    vec = w_vector()
    h_s, h_rs = [], []
    for _ in range(3):
        vec = apply_unitary(vec, dims, u, (1, 2))
        h_s.append(schmidt_entropy(vec, dims, (1,)))
        h_rs.append(schmidt_entropy(vec, dims, (0, 1)))
    ic2, ic3, ic4 = (h_s[i] - h_rs[i] for i in range(3))
    return {
        "lambda": lam,
        "DP1": ic2 - ic3,
        "DP2": ic2 - ic4,
        "DP3": ic3 - ic4,
        "DP4": h_s[1] - h_s[2],
        "M4": h_rs[1] - h_rs[2],
    }


# ---------------------------------------------------------------------------
# the chain picture
# ---------------------------------------------------------------------------

def chain_coherent_information(initial: np.ndarray, kraus: list[list[np.ndarray]],
                               r: int, s: int) -> float:
    """Ic(r:s) of a channel chain, from a purification pushed through isometries.

    State r is purified by a reference R; each channel from r to s-1 then
    acts as the isometry |x> -> sum_e K_e|x> (x) |e>, which appends an
    environment axis.  The final vector is pure over (R, E_r..E_{s-1}, S),
    so Ic = H(S) - H(R,S) comes from two Schmidt spectra.
    """
    rho = np.asarray(initial, dtype=complex)
    for ops in kraus[: r - 1]:
        rho = sum(k @ rho @ k.conj().T for k in ops)
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    t = np.sqrt(np.clip(w, 0.0, None))[:, None] * v.T  # axes (R, S)
    for ops in kraus[r - 1: s - 1]:
        stack = np.stack(ops)  # (env, out, in)
        t = np.einsum("eoi,...i->...eo", stack, t)
    dims = t.shape
    n = len(dims)
    return schmidt_entropy(t.reshape(-1), dims, (n - 1,)) - schmidt_entropy(
        t.reshape(-1), dims, (0, n - 1))


def chain_witnesses(initial: np.ndarray, kraus: list[list[np.ndarray]],
                    steps: int) -> dict[str, float]:
    """The proven witnesses that `verify --steps` audits, for one process."""
    cache: dict[tuple[int, int], float] = {}

    def ic(r: int, s: int) -> float:
        if (r, s) not in cache:
            cache[(r, s)] = chain_coherent_information(initial, kraus, r, s)
        return cache[(r, s)]

    if steps == 4:
        return {
            "DP1": ic(1, 2) - ic(1, 3),
            "DP2": ic(1, 2) - ic(1, 4),
            "DP3": ic(1, 3) - ic(1, 4),
            "DP4": ic(2, 3) - ic(2, 4),
            "M4": ic(1, 4) + ic(2, 3) - ic(1, 3) - ic(2, 4),
        }
    n = steps // 2
    pairings = M6_PAIRINGS if steps == 6 else M8_PAIRINGS
    nested = sum(ic(i, 2 * n + 1 - i) for i in range(1, n + 1))
    return {name: nested - sum(ic(r, s) for r, s in pairs)
            for name, pairs in pairings.items()}


# ---------------------------------------------------------------------------
# in-line simulation of system-environment circuits
# ---------------------------------------------------------------------------

class Circuit:
    """Pure initial vector over (R0, S, environment registers...) and step
    unitaries, each acting on S (axis 1) and one environment axis."""

    def __init__(self, vec: np.ndarray, dims: tuple[int, ...],
                 steps: list[tuple[np.ndarray, int]]):
        self.vec = np.asarray(vec, dtype=complex)
        self.dims = tuple(dims)
        self.steps = steps

    def outcome_probabilities(self) -> np.ndarray:
        """p(o_1..o_k) for computational-basis measurements of S at every slot."""
        d = self.dims[1]
        k = len(self.steps) + 1
        probs = np.zeros((d,) * k)
        for outcome in itertools.product(range(d), repeat=k):
            t = self.vec.reshape(self.dims)
            for j, o in enumerate(outcome):
                t = _project_axis(t, 1, o)
                if j < len(self.steps):
                    u, env_axis = self.steps[j]
                    t = apply_unitary(t.reshape(-1), self.dims, u, (1, env_axis)).reshape(self.dims)
            probs[outcome] = float(np.vdot(t, t).real)
        return probs

    def output_state(self, maps: list[list[np.ndarray]]) -> np.ndarray:
        """Final S state with the CPTP map maps[j] applied to S before step j."""
        n = len(self.dims)
        rho = np.tensordot(self.vec.reshape(self.dims), self.vec.conj().reshape(self.dims),
                           axes=0)  # axes: kets then bras
        for ops, (u, env_axis) in zip(maps, self.steps):
            rho = sum(_sandwich(rho, n, k, (1,)) for k in ops)
            rho = _sandwich(rho, n, u.reshape((self.dims[1], self.dims[env_axis]) * 2),
                            (1, env_axis))
        # trace every register but S: bra labels repeat the ket labels
        return np.einsum(rho, list(range(n)) + [n + 1 if a == 1 else a for a in range(n)],
                         [1, n + 1])


def _project_axis(t: np.ndarray, axis: int, o: int) -> np.ndarray:
    out = np.zeros_like(t)
    idx = [slice(None)] * t.ndim
    idx[axis] = o
    out[tuple(idx)] = t[tuple(idx)]
    return out


def _sandwich(rho: np.ndarray, n: int, op: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """op rho op^dagger, `op` shaped (out axes..., in axes...) on the given registers."""
    m = len(axes)
    rho = np.tensordot(op, rho, axes=[list(range(m, 2 * m)), list(axes)])
    rho = np.moveaxis(rho, list(range(m)), list(axes))
    bra_axes = [n + a for a in axes]
    rho = np.tensordot(rho, op.conj(), axes=[bra_axes, list(range(m, 2 * m))])
    return np.moveaxis(rho, list(range(2 * n - m, 2 * n)), bra_axes)
