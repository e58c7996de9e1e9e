"""Every threshold that accepts, rejects or clips a number, with a line of reason.

Inputs the validators accept in the tests, `verify` and the sweeps miss
their invariants by at most 2.1e-15.  Budgets (MAX_AMPLITUDES,
MAX_GRID_POINTS, BLOCK_BYTES, SURVEY_AMPLITUDES, MAX_KRAUS) are sizes
and stay with their code.  This module imports nothing.
"""

# density(): largest |m - m†|, |Tr m - 1| and -min eigenvalue; far above round-off
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
# hermitian_eig(): |m - m†| symmetrized away; no reason to exceed HERM_TOL is recorded
EIG_HERM_TOL = 1e-8
# |V†V - 1|: sum K†K of channels, step unitaries, adjoint unitality
ISOMETRY_TOL = 1e-10
# pure_state(): | |vec| - 1 |; why it is tighter than TRACE_TOL is not recorded
NORM_TOL = 1e-12
# joint_pmf(), classical_chain(): |sum - 1|; why tighter than TRACE_TOL is not recorded
PROB_SUM_TOL = 1e-12
# joint_pmf(): negative round-off this small is clipped to 0; the value is unexplained
NEG_PROB_TOL = 1e-15

# entropy sums skip weights at or below this (round-off zeros); one adds 4e-11 bits
ENTROPY_CLIP = 1e-12
# contract(): round-off a probability may leave [0, 1] by; at or below it, impossible
PROB_SLACK = 1e-10

# gaps below -GAP_TOLERANCE are violations; at 8748 amplitudes round-off is 1.8e-15
# (tests/test_witnesses.py::test_gap_tolerance_covers_the_largest_circuit)
GAP_TOLERANCE = 1e-9
# is_markov(): default CMI counted as zero; GAP_TOLERANCE's value, no own reason
MARKOV_CMI_TOL = 1e-9
# verify: certificate mismatch (1.1e-15 seen); why above GAP_TOLERANCE is unrecorded
CERT_MISMATCH_CEIL = 1e-7
# verify: adjoint identity; both sides apply the same numbers transposed (0.0 seen)
ADJOINT_IDENTITY_CEIL = 1e-12
# verify: classical gap (1.5e-8 lowest seen); why stricter than the gap floor is unrecorded
CLASSICAL_FLOOR = -1e-12

# lambda_grid(): keeps a last point round-off puts just short ((0.3 - 0.1) / 0.1 < 2)
GRID_SLACK = 1e-9
# --svg: a narrower range is drawn flat instead of divided by; any tiny value would do
SVG_FLAT_RANGE = 1e-12
