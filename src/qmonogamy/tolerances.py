"""Every threshold that accepts, rejects or clips a number, with a line of reason.

One tolerance, INVARIANT_TOL, decides whether an input meets its exact
invariant up to round-off, whatever the input is: a unit vector is a
rank-one density matrix, a probability table is the diagonal of one (a
negative entry is a negative eigenvalue of that diagonal), a Kraus list
or a step unitary is an isometry, and a probability is a trace.  Inputs
the validators accept in the tests, `verify` and the sweeps miss their
invariants by at most 2.1e-15.  Budgets (MAX_AMPLITUDES, MAX_GRID_POINTS,
BLOCK_BYTES, MAX_KRAUS) are sizes and stay with their code.  This module
imports nothing.
"""

# an exact invariant met up to round-off, by every validator: |m - m†|, |Tr m - 1| and
# -min eigenvalue of a density matrix (density_stack, hermitian_eig), | |vec| - 1 |
# (pure_state), |sum - 1| and -min entry of a probability table (joint_pmf_stack and
# chain_stack, which clip what they accept to 0), |V†V - 1| of Kraus lists, step
# unitaries and verify's adjoint unitality, how far contract's probabilities may leave
# [0, 1] and port_mutual_information's port state its unit trace.  Accepted inputs miss by
# at most 2.1e-15, and hermitian_eig's inputs (purify over verify at 4/6/8 steps with
# 2000 samples, at 8 steps with --dims 2 3 and 3 2 and 500 samples, and the three
# default sweeps) by at most 1.7e-16; 1e-10 is over 4e4 times either, and far below
# any real violation
INVARIANT_TOL = 1e-10

# entropy sums skip weights at or below this (round-off zeros); one adds 4e-11 bits
ENTROPY_CLIP = 1e-12

# gaps below -GAP_TOLERANCE are violations, and so is a verify certificate that
# misses its witness by more; is_markov counts a CMI at or below it as zero.  Every
# chain gap and certificate is a sum over one
# witnesses.bond_table; its coherent informations are at most 1.3e-15 from the purified
# circuit and 1.1e-15 from Kraus propagation at the largest circuit verify allows,
# 8748 amplitudes (tests/test_witnesses.py::test_gap_tolerance_covers_the_largest_circuit),
# and its survey gaps and certificates at most 4.2e-15 from the circuit and 3.1e-15
# from Kraus propagation
# (test_experiments.py::test_survey_stack_matches_the_circuit_and_kraus_references...).
# Witness and certificate are two sums over the same entries: their worst mismatch
# read 4.4e-16, 8.9e-16 and 1.3e-15 at 4, 6 and 8 steps over 2000 certified samples
# (seed 0), 1.6e-15 at 8 steps with --dims 2 3 and 2.0e-15 with 3 2 (500 samples).
GAP_TOLERANCE = 1e-9
# verify: adjoint identity; both sides apply the same numbers transposed (0.0 seen)
ADJOINT_IDENTITY_CEIL = 1e-12
# verify: classical gap floor.  On chains of independent variables (equal transition
# columns, every gap exactly 0) the stacked gap's round-off read at most 1.8e-15 over
# 8000 chains at (n_pairs, dim) = (2, 2), (2, 3), (3, 2) and (2, 4); -1e-12 keeps
# 500x that margin while a Shannon gap, free of eigensolver error, is held tighter
# than the quantum gaps' -GAP_TOLERANCE (lowest gap seen on random chains: 1.5e-8)
CLASSICAL_FLOOR = -1e-12

# lambda_grid(): keeps a last point round-off puts just short ((0.3 - 0.1) / 0.1 < 2)
GRID_SLACK = 1e-9
# --svg: a narrower range is drawn flat instead of divided by; any tiny value would do
SVG_FLAT_RANGE = 1e-12
