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
von_neumann_stack (which PureState.entropy calls), and exported from
here with the other entropic quantities.
"""

from __future__ import annotations

from .channels import KrausChannel, apply, apply_to_subsystem
from .states import DensityMatrix, PureState, purify, von_neumann

__all__ = [
    "von_neumann",
    "mutual_information",
    "conditional_mutual_information",
    "chain_coherent_information",
]


def _entropy_of_subset(rho: DensityMatrix | PureState, subset: tuple) -> float:
    if isinstance(rho, PureState):
        return rho.entropy(subset)
    if len(subset) == len(rho.dims):
        return von_neumann(rho)
    return von_neumann(rho.reduced(subset))


def mutual_information(rho: DensityMatrix | PureState, a: tuple, b: tuple) -> float:
    """I(A:B) = H(A) + H(B) - H(AB) over disjoint subsystem sets.

    Subsystems are indices; a PureState's registers may also be named by
    label, and its entropies come from PureState.entropy.
    """
    a, b = tuple(a), tuple(b)
    if set(a) & set(b):
        raise ValueError("subsystem sets overlap")
    hab = _entropy_of_subset(rho, tuple(sorted(a + b)))
    return _entropy_of_subset(rho, a) + _entropy_of_subset(rho, b) - hab


def conditional_mutual_information(rho: DensityMatrix | PureState, a: tuple,
                                   b: tuple, c: tuple) -> float:
    """I(A:B|C) = H(AC) + H(BC) - H(ABC) - H(C); nonnegative by strong
    subadditivity.  Subsystems are named as in mutual_information."""
    a, b, c = tuple(a), tuple(b), tuple(c)
    if set(a) & set(b) or set(a) & set(c) or set(b) & set(c):
        raise ValueError("subsystem sets overlap")
    hac = _entropy_of_subset(rho, tuple(sorted(a + c)))
    hbc = _entropy_of_subset(rho, tuple(sorted(b + c)))
    habc = _entropy_of_subset(rho, tuple(sorted(a + b + c)))
    hc = _entropy_of_subset(rho, c) if c else 0.0
    return hac + hbc - habc - hc


def chain_coherent_information(rho1: DensityMatrix, chain: list[KrausChannel],
                               r: int, s: int) -> float:
    """Coherent information between positions r and s of a channel chain.

    Positions are 1-based: state 1 is `rho1`, state i+1 is state i pushed
    through chain[i-1].  Requires 1 <= r < s <= len(chain) + 1.
    """
    n = len(chain)
    if not (1 <= r < s <= n + 1):
        raise ValueError(f"need 1 <= r < s <= {n + 1}, got r={r}, s={s}")
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
    return von_neumann(joint.reduced((1,))) - von_neumann(joint)
