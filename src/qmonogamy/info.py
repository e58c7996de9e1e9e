"""Entropic quantities: von Neumann entropy, mutual informations, and
coherent information, all in bits (log base 2).

Coherent information of a state through a channel is computed from the
entropy-difference form

    I_c(rho; L) = H(L(rho)) - H((id_R x L)(psi))

with psi any purification of rho; the value does not depend on the
purification chosen.  For a state rho_1 pushed through channels
L_1, ..., L_n, ``chain_coherent_information(rho_1, chain, r, s)`` is the
coherent information of the r-th state through the composite map that
carries it to the s-th; one channel L is the chain [L] from 1 to 2,
``chain_coherent_information(rho, [L], 1, 2)``.  It propagates density
matrices with the Kraus maps, one pair (r, s) and one channel at a time,
and builds no purified circuit.  The chain witnesses read every Ic(r:s) of a process
(or a stack of them) at once from witnesses.bond_table instead, so this
function is one of the two references the tests compare that table with;
the other is the purified circuit (witnesses.purified_circuit_state).

von_neumann is defined in states, as the one-matrix form of
von_neumann_stack (which every entropies reader reaches), and exported
from here with the package's one I(A:B) and I(A:B|C).  Those two take
any state kind with the same private pair: `_cut` resolves each
subsystem set to sorted positions once (a PureState's labels through
PureState._axes, every position through linalg._positions), overlap is
tested on the positions, and `_entropies`, the kind's positional core,
reads every cut the formula needs in one call.
"""

from __future__ import annotations

import numpy as np

from .channels import KrausChannel, apply, apply_to_subsystem, kraus_stack
from .linalg import _require_int
from .states import DensityMatrix, PureState, purify, von_neumann

__all__ = [
    "von_neumann",
    "mutual_information",
    "conditional_mutual_information",
    "chain_coherent_information",
]


def mutual_information(rho: DensityMatrix | PureState, a: tuple, b: tuple) -> float:
    """I(A:B) = H(A) + H(B) - H(AB) over disjoint subsystem sets of a
    DensityMatrix, a PureState (registers also named by label) or a
    classical.JointPMF, from one entropies call (an array on a stack).
    The sets are resolved to positions first, so a register named twice,
    by label and by position, is an overlap.
    """
    a, b = rho._cut(a), rho._cut(b)
    if set(a) & set(b):
        raise ValueError("subsystem sets overlap")
    ha, hb, hab = rho._entropies(a, b, tuple(sorted(a + b)))
    return ha + hb - hab


def conditional_mutual_information(rho: DensityMatrix | PureState, a: tuple,
                                   b: tuple, c: tuple) -> float:
    """I(A:B|C) = H(AC) + H(BC) - H(ABC) - H(C); nonnegative by strong
    subadditivity.  Subsystems are named and resolved as in
    mutual_information."""
    a, b, c = rho._cut(a), rho._cut(b), rho._cut(c)
    if set(a) & set(b) or set(a) & set(c) or set(b) & set(c):
        raise ValueError("subsystem sets overlap")
    hac, hbc, habc, hc = rho._entropies(
        tuple(sorted(a + c)), tuple(sorted(b + c)), tuple(sorted(a + b + c)), c)
    return hac + hbc - habc - hc


def chain_coherent_information(rho1: DensityMatrix, chain: list[KrausChannel],
                               r: int, s: int) -> float:
    """Coherent information between positions r and s of a channel chain.

    Positions are 1-based: state 1 is `rho1`, state i+1 is state i pushed
    through chain[i-1].  Requires 1 <= r < s <= len(chain) + 1 and channels
    that kraus_stack passes, one call per Kraus-list shape (count and dims).
    """
    n = len(chain)
    _require_int(r, "state r")
    _require_int(s, "state s")
    if not (1 <= r < s <= n + 1):
        raise ValueError(f"need 1 <= r < s <= {n + 1}, got r={r}, s={s}")
    for shape in {np.shape(ch.kraus) for ch in chain}:
        kraus_stack([ch.kraus for ch in chain if np.shape(ch.kraus) == shape])
    rho = rho1
    for i in range(r - 1):
        rho = apply(chain[i], rho)
    if len(rho.dims) != 1:
        rho = DensityMatrix(rho.mat, (rho.dim,))
    # push the purified joint through the segment channel by channel; this
    # avoids the multiplicative Kraus growth of an explicit composition
    joint = purify(rho).density()
    for i in range(r - 1, s - 1):
        joint = apply_to_subsystem(chain[i], joint, 1)
    h_s, h_rs = joint.entropies((1,), (0, 1))
    return h_s - h_rs
