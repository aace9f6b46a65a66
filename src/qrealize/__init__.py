"""Certification toolkit for quantum realizability problems.

Checks whether candidate reduced states, spectra, or torus weight data can
come from a single joint quantum state, producing sound violation
certificates at each finite level; the supporting machinery (labeled tensor
spaces, partition combinatorics, symmetrizer wirings, divergences,
estimation distributions, and capacities) is exported here.
"""

from .capacity import (CapacityResult, HullResult, OccasionalityTable,
                       TorusRep, capacity, fixed_subspace_projector,
                       hull_membership, kempf_ness, moment_map,
                       occasionality_probe, torus_rep)
from .config import BUDGET, TOL, Budgets, ResourceBudgetError, Tolerances
from .divergence import (DiagonalizingFrame, RatioBound, SanovCheck,
                         discrimination_constant, discrimination_ratio_bound,
                         discrimination_sequence, gen_power, keyl_divergence,
                         kl_divergence, leading_principal_minors,
                         multinomial_mass, quantum_relative_entropy,
                         sanov_bounds_check, spectrum_of)
from .estimation import (DensityCurve, ToyXZBounds, TypeDistribution,
                         born_ratio, compositions, density_curve,
                         density_degenerate, density_nondegenerate,
                         density_qubit_pair, multinomial_type_dist,
                         spectral_dist, toy_xz_exact_bounds,
                         toy_xz_exact_fractions, toy_xz_simulate)
from .jsonio import (dumps, format_float, loads, operator_from_json,
                     operator_to_json, read_json, state_from_json,
                     state_to_json, write_json)
from .partitions import (Partition, all_cycle_types, approx_partition,
                         conjugacy_class_size, coset_cardinality,
                         coset_representative, cumulative, cycle_type,
                         double_cosets, finite_difference,
                         littlewood_richardson, mn_character, partitions_of,
                         schur_polynomial, specht_dim, weyl_dim)
from .qmp import (VERDICT_CONSISTENT, VERDICT_VIOLATED, BipartiteResult,
                  LRRow, MarginalScenario, MProductState,
                  RealizabilityCertificate, bipartite_check, hierarchy_check,
                  is_k_uniform, lr_inequality_check, marginals_of,
                  ortho_bound_check, scenario, subspace_hierarchy_check,
                  three_qubit_witness)
from .symmetrizer import (SlotLayout, SymmetrizerHandle, WiringOperator,
                          WiringSum, antisym_projector, bibiriffle_lower_bound,
                          biriffle_bruteforce, biriffle_value,
                          isotypic_band_weight, isotypic_projector,
                          scenario_layout, sym_projector, symmetrize_operator,
                          traced_permutation, traced_permutation_sum,
                          traced_symmetrizer, uniform_sym_state)
from .tensor import (DensityOperator, LabeledSpace, Operator, PureState,
                     apply_slot_permutation, gershgorin_upper_bound,
                     haar_random_density, haar_random_pure,
                     haar_random_pure_on, identity, kron, min_eigenvalue,
                     min_eigenvalue_matrix_free, min_eigenvalue_vector,
                     partial_trace, permutation_operator, power_space,
                     qubits, space, trace_with_permutation)

__version__ = "0.1.0"
