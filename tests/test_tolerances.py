"""The one invariant tolerance at its boundary.

Every validator that checks an exact invariant up to round-off reads
INVARIANT_TOL: an input that misses its invariant by half of it is
accepted, and one that misses by twice it is refused, naming the
invariant.
"""

import numpy as np
import pytest

from qmonogamy.channels import kraus_channel
from qmonogamy.classical import classical_chain, joint_pmf
from qmonogamy.linalg import hermitian_eig
from qmonogamy.states import density, pure_state
from qmonogamy.tolerances import INVARIANT_TOL


def _off_hermitian(eps: float) -> np.ndarray:
    # |m - m†| = eps in one entry
    m = np.diag([0.5, 0.5]).astype(complex)
    m[0, 1] = eps
    return m


# validator name -> (input missing its invariant by eps -> call, refusal message)
CASES = {
    "pure_state norm": (lambda eps: pure_state(np.array([1.0 + eps, 0.0])), "normalized"),
    "joint_pmf sum": (lambda eps: joint_pmf(np.array([0.5, 0.5 + eps])), "sum to"),
    "joint_pmf negative entry": (lambda eps: joint_pmf(np.array([-eps, 0.5, 0.5 + eps])),
                                 "negative probability"),
    "classical_chain sum": (lambda eps: classical_chain(np.array([0.5, 0.5 + eps]),
                                                        [np.eye(2)]),
                            "not a probability vector"),
    "hermitian_eig": (lambda eps: hermitian_eig(_off_hermitian(eps)), "not Hermitian"),
    "density Hermitian": (lambda eps: density(_off_hermitian(eps)), "not Hermitian"),
    "density trace": (lambda eps: density(np.diag([0.5, 0.5 + eps])), "not unit trace"),
    "density positivity": (lambda eps: density(np.diag([1.0 + eps, -eps])),
                           "not positive semidefinite"),
    "kraus_channel": (lambda eps: kraus_channel([np.sqrt(1.0 + eps) * np.eye(2)]),
                      "not trace preserving"),
}


@pytest.mark.parametrize("name", CASES)
def test_half_the_tolerance_is_accepted_and_twice_it_refused(name):
    call, message = CASES[name]
    call(0.5 * INVARIANT_TOL)
    with pytest.raises(ValueError, match=message):
        call(2 * INVARIANT_TOL)


def test_an_accepted_negative_probability_is_clipped_to_zero():
    p = joint_pmf(np.array([-0.5 * INVARIANT_TOL, 0.5, 0.5 + 0.5 * INVARIANT_TOL]))
    assert p.probs[0] == 0.0
