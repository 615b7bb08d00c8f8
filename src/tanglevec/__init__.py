"""Three-qubit entanglement through its invariant vectors.

States are length-8 complex numpy arrays (index 4i + 2j + k). The library
computes the invariant vectors A, B, C and every tangle measure, evolves
states in both the Hilbert-space and the dual orthogonal-rotation picture,
and synthesizes the analytic control sequences (arbitrary diagonal coupling
from three CZ-class gates, W to GHZ conversion, three-tangle maximization)
plus the quaternionic subsystem with its canonical reduction.

Each name loads on first use (PEP 562): ``import tanglevec`` imports no
submodule and no numpy, and ``tanglevec.X`` imports only the module that
defines X, with what that module imports, then keeps X here. A submodule
such as ``tanglevec.so6`` resolves the same way.
"""
from importlib import import_module

__version__ = "0.1.0"

#: each public name, under the module that defines it
_EXPORTS = {
    "errors": ("DegenerateInput", "GaugeUndefined", "IndexOutOfRange", "InvariantViolation",
               "NotNormalized", "NotRepresentable", "ParseError", "TangleVecError",
               "UnknownGate", "UnknownGenerator", "ZeroState"),
    "gates": ("CouplingStep", "LocalStep", "PhaseStep", "apply", "coupling_axis_step",
              "coupling_unitary", "local_unitary", "named_gate", "sequence_from_json",
              "sequence_to_json", "sequence_unitary"),
    "quaternionic": ("AcinParams", "QuaternionicState", "abc_quaternionic", "balance_chi",
                     "is_quaternionic", "quat_conj", "quat_inv", "quat_mul", "quat_to_matrix",
                     "quat_transpose", "reduce_to_acin", "tangles_quaternionic", "to_state",
                     "usp_generators"),
    "so6": ("CommutatorReport", "So6Action", "So6Generator", "evolve_q", "generator_map",
            "lambda_generator", "so3_image", "so6_image", "su_generator", "verify_commutators"),
    "states": ("EPS_NORM", "fidelity_up_to_phase", "make_acin", "make_asymmetric_w", "make_ghz",
               "matricize", "normalize", "random_state", "state_from_json", "state_to_json"),
    "synthesis": ("FubiniStudyResult", "SynthesisResult", "TangleAscentResult", "align_canonical",
                  "extremum_residual", "fubini_study_angle", "fubini_study_search",
                  "maximize_three_tangle", "min_phase_distance", "synthesize_coupling_core",
                  "tangle_ascent_oracle", "tangle_ascent_search", "w_to_ghz_sequence"),
    "tangles": ("TangleSet", "bipartite_tangle_from_density", "bipartite_tangles", "ckw_residual",
                "tangle_set", "three_tangle", "two_tangles"),
    "vectors": ("EPS_INV", "AbcVectors", "GaugeInfo", "SixVector", "abc_vectors", "apply_gauge",
                "gauge_phase", "plucker_residual", "q_vector"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
#: the library's modules, which resolve as attributes without an import of their own
_SUBMODULES = frozenset((*_EXPORTS, "_kernels"))

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
