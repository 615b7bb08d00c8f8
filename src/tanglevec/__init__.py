"""Three-qubit entanglement through its invariant vectors.

States are length-8 complex numpy arrays (index 4i + 2j + k). The library
computes the invariant vectors A, B, C and every tangle measure, evolves
states in both the Hilbert-space and the dual orthogonal-rotation picture,
and synthesizes the analytic control sequences (arbitrary diagonal coupling
from three CZ-class gates, W to GHZ conversion, three-tangle maximization)
plus the quaternionic subsystem with its canonical reduction.
"""
from .errors import (DegenerateInput, GaugeUndefined, IndexOutOfRange,
                     InvariantViolation, NotNormalized, NotRepresentable,
                     ParseError, TangleVecError, UnknownGate,
                     UnknownGenerator, ZeroState)
from .gates import (CouplingStep, LocalStep, PhaseStep, apply,
                    coupling_axis_step, coupling_unitary, local_unitary,
                    named_gate, sequence_from_json, sequence_to_json,
                    sequence_unitary)
from .quaternionic import (AcinParams, QuaternionicState, abc_quaternionic,
                           balance_chi, is_quaternionic, quat_conj, quat_inv,
                           quat_mul, quat_to_matrix, quat_transpose,
                           reduce_to_acin, tangles_quaternionic, to_state,
                           usp_generators)
from .so6 import (CommutatorReport, So6Action, So6Generator, evolve_q,
                  generator_map, lambda_generator, so3_image, so6_image,
                  su_generator, verify_commutators)
from .states import (EPS_NORM, fidelity_up_to_phase, make_acin,
                     make_asymmetric_w, make_ghz, matricize, normalize,
                     random_state, state_from_json, state_to_json)
from .synthesis import (FubiniStudyResult, SynthesisResult, TangleAscentResult,
                        align_canonical, extremum_residual, fubini_study_angle,
                        fubini_study_search, maximize_three_tangle,
                        min_phase_distance, synthesize_coupling_core,
                        tangle_ascent_oracle, tangle_ascent_search,
                        w_to_ghz_sequence)
from .tangles import (TangleSet, bipartite_tangle_from_density,
                      bipartite_tangles, ckw_residual, tangle_set,
                      three_tangle, two_tangles)
from .vectors import (EPS_INV, AbcVectors, GaugeInfo, SixVector, abc_vectors,
                      apply_gauge, gauge_phase, plucker_residual, q_vector)

__version__ = "0.1.0"
