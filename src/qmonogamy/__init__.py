"""Witnesses for quantum data-processing and monogamy inequalities.

The package computes coherent information along finite quantum Markov
processes, evaluates the data-processing and monogamy gap witnesses
(4, 6 and 8 step forms together with their conditional-mutual-information
certificates), and carries the same witnesses over to process tensors,
where interventions at intermediate times are allowed.  A classical
counterpart works directly on joint probability tables.

Everything is exact linear algebra on small dense matrices; no sampling
enters except where a function explicitly takes a seed.
"""

from .channels import KrausChannel, apply_to_subsystem, random_channel
from .classical import cmmi_gap, is_markov, joint_from_chain, random_chain
from .experiments import (adjoint_identity_check, classical_cmmi_check, extra_dpi_row,
                          extra_dpi_rows, lambda_grid, mi_monotonicity_check, mqmmi_row,
                          mqmmi_rows, nonmarkov_witness_row, nonmarkov_witness_rows,
                          random_markov_process, random_markov_verify, u_lambda)
from .info import chain_coherent_information, mutual_information, von_neumann
from .linalg import dagger, kron, partial_trace
from .process_tensor import (build_process_tensor, choi_dpi_witnesses, contract,
                             dephased_joint_pmf, fresh_env_circuit,
                             markov_factorization_gap, mqmmi_witnesses,
                             port_mutual_information, system_env_circuit)
from .states import pure_state, purify, random_density, w_state
from .tolerances import GAP_TOLERANCE
from .witnesses import (cqmi_monotonicity_gap, m4_ssa_certificate, m4_witness,
                        m6_witnesses, m8_witnesses, mi_dpi_gap, purified_circuit_state,
                        qdpi_witnesses)

__version__ = "0.1.0"

# what the CLI, the demos, the acceptance suite and the benchmark's workloads
# reach, plus the independent references the tests compare the package with
# (tests/test_source.py keeps this list equal to that set); every other name
# is imported from its module
__all__ = [
    "GAP_TOLERANCE", "KrausChannel", "adjoint_identity_check", "apply_to_subsystem",
    "build_process_tensor", "chain_coherent_information", "choi_dpi_witnesses",
    "classical_cmmi_check", "cmmi_gap", "contract", "cqmi_monotonicity_gap", "dagger",
    "dephased_joint_pmf", "extra_dpi_row", "extra_dpi_rows", "fresh_env_circuit",
    "is_markov", "joint_from_chain", "kron", "lambda_grid", "m4_ssa_certificate",
    "m4_witness", "m6_witnesses", "m8_witnesses", "markov_factorization_gap",
    "mi_dpi_gap", "mi_monotonicity_check", "mqmmi_row", "mqmmi_rows", "mqmmi_witnesses",
    "mutual_information", "nonmarkov_witness_row", "nonmarkov_witness_rows",
    "partial_trace", "port_mutual_information", "pure_state", "purified_circuit_state",
    "purify", "qdpi_witnesses", "random_chain", "random_channel", "random_density",
    "random_markov_process", "random_markov_verify", "system_env_circuit", "u_lambda",
    "von_neumann", "w_state",
]
