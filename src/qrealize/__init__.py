"""Certification toolkit for quantum realizability problems.

Checks whether candidate reduced states, spectra, or torus weight data can
come from a single joint quantum state, producing sound violation
certificates at each finite level; the supporting machinery (labeled tensor
spaces, partition combinatorics, symmetrizer wirings, divergences,
estimation distributions, and capacities) is exported here.

``import qrealize`` loads no submodule: each exported name, and each
submodule, is imported on first access (PEP 562), so a process pays only for
the layers it uses.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "capacity": (
        "CapacityResult", "HullResult", "OccasionalityTable", "TorusRep", "capacity",
        "fixed_subspace_projector", "hull_membership", "kempf_ness", "moment_map",
        "occasionality_probe", "torus_rep"),
    "config": ("BUDGET", "TOL", "Budgets", "ResourceBudgetError", "Tolerances"),
    "divergence": (
        "DiagonalizingFrame", "RatioBound", "SanovCheck", "discrimination_constant",
        "discrimination_ratio_bound", "discrimination_sequence", "gen_power",
        "keyl_divergence", "kl_divergence", "leading_principal_minors",
        "multinomial_mass", "quantum_relative_entropy", "sanov_bounds_check",
        "spectrum_of"),
    "estimation": (
        "DensityCurve", "TypeDistribution", "born_ratio", "compositions",
        "density_curve", "density_degenerate", "density_nondegenerate",
        "density_qubit_pair", "multinomial_type_dist", "spectral_dist",
        "toy_xz_simulate"),
    "jsonio": ("dumps", "format_float", "loads", "operator_from_json"),
    "partitions": (
        "Partition", "all_cycle_types", "approx_partition", "conjugacy_class_size",
        "coset_cardinality", "coset_representative", "cumulative", "cycle_type",
        "double_cosets", "finite_difference", "littlewood_richardson", "mn_character",
        "partitions_of", "schur_polynomial", "specht_dim", "weyl_dim"),
    "qmp": (
        "VERDICT_CONSISTENT", "VERDICT_VIOLATED", "BipartiteResult", "LRRow",
        "MarginalScenario", "MProductState", "RealizabilityCertificate",
        "bipartite_check", "hierarchy_check", "lr_inequality_check", "marginals_of",
        "ortho_bound_check", "scenario", "subspace_hierarchy_check",
        "three_qubit_witness"),
    "symmetrizer": (
        "SlotLayout", "WiringOperator", "WiringSum", "bibiriffle_lower_bound",
        "biriffle_bruteforce", "biriffle_value", "isotypic_band_weight",
        "isotypic_projector", "scenario_layout", "sym_projector", "symmetrize_operator",
        "traced_permutation", "traced_permutation_sum", "traced_symmetrizer",
        "uniform_sym_state"),
    "tensor": (
        "DensityOperator", "LabeledSpace", "Operator", "PureState",
        "apply_slot_permutation", "haar_random_density", "haar_random_pure",
        "haar_random_pure_on", "identity", "kron", "partial_trace", "power_space",
        "qubits", "space", "trace_with_permutation"),
    "toy_xz": ("ToyXZBounds", "toy_xz_exact_bounds", "toy_xz_exact_fractions"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCE) | set(_EXPORTS))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Importing the submodule ``capacity`` binds it on this package; the
        # exported function of that name keeps the attribute, as it did when
        # every name was imported here eagerly.
        if not (name in _SOURCE and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
