"""The package namespace: every public name loads on first use.

A bare ``import tanglevec`` loads no submodule and no numpy; ``tanglevec.X``
imports the module that defines X and gives that module's object; a
submodule resolves as an attribute; any other name is an AttributeError.
"""
import json
import subprocess
import sys

import pytest

import tanglevec
from conftest import child_env

#: the public names, each with the module that defines it
PUBLIC = {
    "errors": ["DegenerateInput", "GaugeUndefined", "IndexOutOfRange", "InvariantViolation",
               "NotNormalized", "NotRepresentable", "ParseError", "TangleVecError",
               "UnknownGate", "UnknownGenerator", "ZeroState"],
    "gates": ["CouplingStep", "LocalStep", "PhaseStep", "apply", "coupling_axis_step",
              "coupling_unitary", "local_unitary", "named_gate", "sequence_from_json",
              "sequence_to_json", "sequence_unitary"],
    "quaternionic": ["AcinParams", "QuaternionicState", "abc_quaternionic", "balance_chi",
                     "is_quaternionic", "quat_conj", "quat_inv", "quat_mul", "quat_to_matrix",
                     "quat_transpose", "reduce_to_acin", "tangles_quaternionic", "to_state",
                     "usp_generators"],
    "so6": ["CommutatorReport", "So6Action", "So6Generator", "evolve_q", "generator_map",
            "lambda_generator", "so3_image", "so6_image", "su_generator", "verify_commutators"],
    "states": ["EPS_NORM", "fidelity_up_to_phase", "make_acin", "make_asymmetric_w", "make_ghz",
               "matricize", "normalize", "random_state", "state_from_json", "state_to_json"],
    "synthesis": ["FubiniStudyResult", "SynthesisResult", "TangleAscentResult", "align_canonical",
                  "extremum_residual", "fubini_study_angle", "fubini_study_search",
                  "maximize_three_tangle", "min_phase_distance", "synthesize_coupling_core",
                  "tangle_ascent_oracle", "tangle_ascent_search", "w_to_ghz_sequence"],
    "tangles": ["TangleSet", "bipartite_tangle_from_density", "bipartite_tangles",
                "ckw_residual", "tangle_set", "three_tangle", "two_tangles"],
    "vectors": ["EPS_INV", "AbcVectors", "GaugeInfo", "SixVector", "abc_vectors", "apply_gauge",
                "gauge_phase", "plucker_residual", "q_vector"],
}


def fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports the package from this checkout."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=60)


def test_a_bare_import_loads_no_submodule_and_no_numpy():
    run = fresh("import json, sys\n"
                "import tanglevec\n"
                "print(json.dumps(sorted(m for m in sys.modules\n"
                "                        if m.startswith(('tanglevec', 'numpy')))))\n")
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == ["tanglevec"]


def test_a_name_loads_only_its_module_and_what_that_imports():
    run = fresh("import json, sys\n"
                "import tanglevec\n"
                "tanglevec.make_ghz\n"
                "print(json.dumps(sorted(m for m in sys.modules if m.startswith('tanglevec'))))\n")
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == ["tanglevec", "tanglevec.errors", "tanglevec.states"]


def test_all_holds_the_public_names():
    names = sorted(n for names in PUBLIC.values() for n in names)
    assert len(names) == 85
    assert sorted(tanglevec.__all__) == names
    assert set(names) <= set(dir(tanglevec))


@pytest.mark.parametrize("module", PUBLIC)
def test_each_name_is_its_modules_object(module):
    mod = getattr(tanglevec, module)
    assert mod is sys.modules[f"tanglevec.{module}"]
    for name in PUBLIC[module]:
        assert getattr(tanglevec, name) is getattr(mod, name), name


def test_a_submodule_resolves_after_a_bare_import():
    run = fresh("import tanglevec\n"
                "print(tanglevec.so6.__name__, tanglevec.so6.evolve_q is tanglevec.evolve_q)\n")
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["tanglevec.so6", "True"]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="BACKEND"):
        tanglevec.BACKEND
    assert getattr(tanglevec, "BACKEND", None) is None
    assert not hasattr(tanglevec, "not_a_name")
