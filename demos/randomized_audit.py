#!/usr/bin/env python3
"""Worst-case audit of every proven inequality on random Markov processes.

Draws seeded Haar-dilation processes of 4, 6 and 8 steps, random
channel pairs, and random classical chains, then prints the minimum of
each witness family.  Everything should sit at or above -GAP_TOLERANCE; the
proven gaps cannot go negative on genuinely Markov inputs.
"""

import sys

from qmonogamy import (adjoint_identity_check, classical_cmmi_check,
                       mi_monotonicity_check, random_markov_verify)


def main() -> None:
    samples = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    for steps in (4, 6, 8):
        survey = random_markov_verify(steps, samples)
        for name, value in sorted(survey["witness_minima"].items()):
            print(f"{steps}-step  min {name:<4} = {value:+.3e}")
        print(f"{steps}-step  certificate mismatch <= "
              f"{survey['certificate_max_mismatch']:.3e}")
    mono = mi_monotonicity_check(samples)
    print(f"channel  min CQMI gap = {mono['cqmi_monotonicity_min']:+.3e}")
    print(f"channel  min MI gap   = {mono['mi_monotonicity_min']:+.3e}")
    adjoint = adjoint_identity_check(samples)
    print(f"adjoint  identity dev = {adjoint['identity_max_deviation']:.3e}")
    classical = classical_cmmi_check(samples)
    print(f"classic  min gap      = {classical['classical_cmmi_min']:+.3e}")


if __name__ == "__main__":
    main()
