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

from .channels import (KrausChannel, adjoint_channel, apply, apply_to_subsystem,
                       dephasing_channel, depolarizing_channel, identity_channel,
                       kraus_channel, random_channel, unitary_channel)
from .classical import (ClassicalChain, JointPMF, classical_chain, classical_cmi,
                        classical_mi, cmmi_gap, is_markov, joint_from_chain,
                        joint_pmf, random_chain, shannon_entropy)
from .experiments import (adjoint_identity_check, classical_cmmi_check,
                          extra_dpi_row, extra_dpi_rows, gamma_sequence, lambda_grid,
                          mi_monotonicity_check, mqmmi_row, mqmmi_rows,
                          nonmarkov_witness_row, nonmarkov_witness_rows,
                          parallel_map, random_markov_process,
                          random_markov_verify, u_lambda)
from .info import (chain_coherent_information, coherent_information,
                   conditional_mutual_information, mutual_information,
                   von_neumann)
from .linalg import dagger, hermitian_eig, kron, partial_trace
from .process_tensor import (CHOI_DPI_GAPS, ProcessTensor, SystemEnvCircuit,
                             build_process_tensor, choi_dpi_witnesses, contract,
                             dephased_joint_pmf, fresh_env_circuit,
                             markov_factorization_gap, mqmmi_witness,
                             mqmmi_witnesses, multitime_coherent_info,
                             port_mutual_information, system_env_circuit)
from .states import (DensityMatrix, PureState, maximally_entangled, pure_state,
                     purify, random_density, w_state)
from .tolerances import GAP_TOLERANCE
from .witnesses import (MarkovChainProcess, WitnessReport,
                        cqmi_monotonicity_gap, extra_dpi_witnesses,
                        m4_ssa_certificate, m4_witness,
                        m6_ssa_certificates, m6_witnesses, m8_ssa_certificates,
                        m8_witnesses, markov_process, mi_dpi_gap,
                        monogamy_certificate, monogamy_gap,
                        purified_circuit_state, qdpi_witnesses)

__version__ = "0.1.0"

__all__ = [
    "CHOI_DPI_GAPS", "ClassicalChain", "DensityMatrix", "GAP_TOLERANCE",
    "JointPMF", "KrausChannel", "MarkovChainProcess",
    "ProcessTensor", "PureState", "SystemEnvCircuit",
    "WitnessReport", "adjoint_channel", "adjoint_identity_check", "apply",
    "apply_to_subsystem", "build_process_tensor",
    "chain_coherent_information", "choi_dpi_witnesses",
    "classical_chain", "classical_cmi", "classical_cmmi_check",
    "classical_mi", "cmmi_gap", "coherent_information", "contract",
    "conditional_mutual_information", "cqmi_monotonicity_gap", "dagger",
    "dephased_joint_pmf", "dephasing_channel",
    "depolarizing_channel",
    "extra_dpi_row", "extra_dpi_rows", "extra_dpi_witnesses", "fresh_env_circuit",
    "gamma_sequence", "hermitian_eig", "identity_channel",
    "is_markov", "joint_from_chain", "joint_pmf", "kron",
    "kraus_channel", "lambda_grid",
    "m4_ssa_certificate", "m4_witness", "m6_ssa_certificates", "m6_witnesses",
    "m8_ssa_certificates", "m8_witnesses", "markov_factorization_gap",
    "markov_process", "maximally_entangled", "mi_dpi_gap",
    "mi_monotonicity_check", "monogamy_certificate", "monogamy_gap", "mqmmi_row",
    "mqmmi_rows", "mqmmi_witness", "mqmmi_witnesses", "multitime_coherent_info",
    "mutual_information",
    "nonmarkov_witness_row", "nonmarkov_witness_rows", "parallel_map", "partial_trace",
    "port_mutual_information",
    "pure_state", "purified_circuit_state", "purify", "qdpi_witnesses",
    "random_chain", "random_channel", "random_density", "random_markov_process",
    "random_markov_verify", "shannon_entropy",
    "system_env_circuit", "u_lambda", "unitary_channel", "von_neumann", "w_state",
]
