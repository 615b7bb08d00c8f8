import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tanglevec import (make_asymmetric_w, make_ghz, normalize, random_state,
                       state_to_json, to_state, QuaternionicState,
                       sequence_to_json, named_gate, apply, ckw_residual,
                       plucker_residual, maximize_three_tangle, tangle_ascent_search,
                       bipartite_tangle_from_density, CommutatorReport, EPS_INV)
from tanglevec import cli
from tanglevec.cli import _emit, main
from conftest import checked_tangle_set, child_env, count_calls, count_evaluations


@pytest.fixture
def ghz_file(tmp_path):
    p = tmp_path / "ghz.json"
    p.write_text(state_to_json(make_ghz()))
    return str(p)


@pytest.fixture
def s7_file(tmp_path):
    p = tmp_path / "s7.json"
    p.write_text(state_to_json(random_state(7)))
    return str(p)


@pytest.fixture
def zero_file(tmp_path):
    s = np.zeros(8)
    s[0] = 1.0
    p = tmp_path / "zero.json"
    p.write_text(state_to_json(s))
    return str(p)


def _not_json(token):
    raise ValueError(f"not strict JSON: {token}")


def strict_json(text):
    """The document in text, refusing NaN, Infinity and -Infinity, which JSON does not have."""
    return json.loads(text, parse_constant=_not_json)


def run_cli(capsys, *argv):
    # every command's stdout is strict JSON or empty
    code = main(list(argv))
    out = capsys.readouterr()
    payload = strict_json(out.out) if out.out.strip() else None
    return code, payload, out.err


def test_the_module_runs_in_its_own_process(ghz_file, tmp_path):
    # exit codes and streams end to end, as a shell sees them
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"amplitudes": [[1, 0]] * 7}))
    src = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, src))}
    runs = [subprocess.run([sys.executable, "-m", "tanglevec.cli", "analyze", "--state", path],
                           capture_output=True, text=True, env=env, timeout=60)
            for path in (ghz_file, str(short))]
    assert runs[0].returncode == 0 and runs[0].stderr == ""
    assert strict_json(runs[0].stdout)["command"] == "analyze"
    assert runs[1].returncode == 1 and runs[1].stdout == ""
    assert runs[1].stderr.startswith("error: ")


#: every subcommand: (argv, report name, the input files it digests, the
#: fields besides command, input_digest and result); "{s7}", "{ghz}" and
#: "{seq}" stand for the files
ENVELOPES = {
    "analyze": (["analyze", "--state", "{s7}"], "analyze", ["{s7}"],
                {"tolerances": {"eps_inv": EPS_INV}}),
    "evolve": (["evolve", "--state", "{s7}", "--sequence", "{seq}"], "evolve",
               ["{s7}", "{seq}"], {}),
    "coupling-core": (["synthesize", "coupling-core", "--alpha", "0.4,-0.9,1.7"],
                      "synthesize coupling-core", [], {}),
    "w-to-ghz": (["synthesize", "w-to-ghz", "--theta", "0.6", "--phi", "0.3"],
                 "synthesize w-to-ghz", [], {}),
    "maximize-tangle": (["maximize-tangle", "--state", "{s7}"], "maximize-tangle", ["{s7}"], {}),
    "fs-angle": (["fs-angle", "--state1", "{s7}", "--state2", "{ghz}", "--seed", "3",
                  "--restarts", "2"], "fs-angle", ["{s7}", "{ghz}"], {"seed": 3}),
    "ascent": (["ascent", "--state", "{s7}", "--restarts", "2"], "ascent", ["{s7}"], {"seed": 0}),
    "quat reduce": (["quat", "reduce", "--x", "0.5,0,0,0", "--y", "0,0.5,0,0"], "quat reduce",
                    [], {}),
    "quat check": (["quat", "check", "--state", "{ghz}"], "quat check", ["{ghz}"], {}),
    "verify-map": (["verify-map"], "verify-map", [], {}),
    "verify": (["verify", "-N", "5", "--seed", "4"], "verify --suite default", [], {"seed": 4}),
    "verify quaternionic": (["verify", "--suite", "quaternionic", "-N", "5"],
                            "verify --suite quaternionic", [], {"seed": 0}),
}


@pytest.mark.parametrize("argv, command, inputs, extra", ENVELOPES.values(), ids=ENVELOPES)
def test_every_report_has_the_one_envelope(argv, command, inputs, extra, s7_file, ghz_file,
                                           tmp_path, capsys):
    # the digest is one string per input file, a list of them for two
    seqf = tmp_path / "seq.json"
    seqf.write_text(sequence_to_json(named_gate("CNOT", "ab")))
    files = {"{s7}": s7_file, "{ghz}": ghz_file, "{seq}": str(seqf)}
    code, doc, err = run_cli(capsys, *(files.get(a, a) for a in argv))
    digests = [hashlib.sha256(Path(files[f]).read_bytes()).hexdigest()[:16] for f in inputs]
    assert code == 0 and err == ""
    assert list(doc) == ["command", "input_digest", "result", *extra]
    assert doc["command"] == command
    assert doc["input_digest"] == (digests if len(digests) > 1 else (digests or [None])[0])
    assert {k: doc[k] for k in extra} == extra


#: the tanglevec modules a fresh process loads for each command of ENVELOPES
#: and for analyze refusing a 7-amplitude state, beyond the package and the
#: five that the parser, the report and analyze need (FRONT)
FRONT = ("cli", "errors", "states", "vectors", "tangles")
_DUAL = ("gates", "so6")
_QUATERNIONIC = (*_DUAL, "quaternionic")
_EVERY = (*_QUATERNIONIC, "synthesis", "_kernels")
LOADS = {"analyze": (), "analyze refused": (), "evolve": _DUAL, "coupling-core": _EVERY,
         "w-to-ghz": _EVERY, "maximize-tangle": _EVERY, "fs-angle": _EVERY, "ascent": _EVERY,
         "quat reduce": _QUATERNIONIC, "quat check": _QUATERNIONIC, "verify-map": _DUAL,
         "verify": _DUAL, "verify quaternionic": _QUATERNIONIC}
#: runs main on its arguments as the console script does, then prints the
#: tanglevec modules loaded, as the last line of stdout
_PROBE = ("import json, sys\n"
          "from tanglevec.cli import main\n"
          "code = main(sys.argv[1:])\n"
          "print(json.dumps(sorted(m for m in sys.modules if m.startswith('tanglevec'))))\n"
          "sys.exit(code)\n")


@pytest.mark.parametrize("name", LOADS)
def test_a_fresh_process_loads_only_what_its_command_uses(name, s7_file, ghz_file, tmp_path):
    # a stray top-level import in cli would slow every command; here it fails a test
    seqf = tmp_path / "seq.json"
    seqf.write_text(sequence_to_json(named_gate("CNOT", "ab")))
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"amplitudes": [[1, 0]] * 7}))
    files = {"{s7}": s7_file, "{ghz}": ghz_file, "{seq}": str(seqf)}
    if name == "analyze refused":
        argv, exit_code = ["analyze", "--state", str(short)], 1
    else:
        argv, exit_code = [files.get(a, a) for a in ENVELOPES[name][0]], 0
    run = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True,
                         env=child_env(), timeout=120)
    assert run.returncode == exit_code, run.stderr
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert loaded == sorted(["tanglevec", *(f"tanglevec.{m}" for m in FRONT + LOADS[name])])


@pytest.mark.parametrize("pretty", [[], ["--pretty"]], ids=["plain", "pretty"])
def test_a_report_holding_nan_is_an_error_line(pretty, ghz_file, capsys, monkeypatch):
    # strict JSON has no NaN: the report is refused before anything is
    # written, with an error line and exit 1, not a traceback
    monkeypatch.setattr(cli, "plucker_residual", lambda s: float("nan"))
    code, doc, err = run_cli(capsys, *pretty, "analyze", "--state", ghz_file)
    assert code == 1 and doc is None
    assert err.startswith("error: ") and err.count("\n") == 1 and "JSON" in err


@pytest.mark.parametrize("argv", [["verify-map"], ["verify", "-N", "3"]], ids=["verify-map",
                                                                           "verify"])
def test_a_failed_verdict_exits_2_with_its_report(argv, capsys, monkeypatch):
    monkeypatch.setattr("tanglevec.so6.verify_commutators", lambda: CommutatorReport(105, 1))
    code, doc, err = run_cli(capsys, *argv)
    assert code == 2 and err == ""
    assert doc["result"].get("ok", doc["result"].get("pass")) is False


def test_analyze_ghz(ghz_file, capsys):
    code, doc, _ = run_cli(capsys, "analyze", "--state", ghz_file)
    assert code == 0
    res = doc["result"]
    assert abs(res["tangles"]["tau_abc"] - 1) < 1e-12
    assert abs(res["vectors"]["a"][2][0] - 0.5) < 1e-12
    assert res["plucker_residual"] < 1e-12
    assert res["tangles"] == checked_tangle_set(normalize(make_ghz())).as_dict()


def test_analyze_evaluates_once(tmp_path, capsys, monkeypatch):
    p = tmp_path / "s.json"
    p.write_text(state_to_json(random_state(7)))
    calls = count_evaluations(monkeypatch)
    code, doc, _ = run_cli(capsys, "analyze", "--state", str(p))
    assert code == 0 and len(calls) == 1
    assert doc["result"]["tangles"] == checked_tangle_set(normalize(random_state(7))).as_dict()


def test_analyze_product_state(zero_file, capsys):
    code, doc, _ = run_cli(capsys, "analyze", "--state", zero_file)
    assert code == 0
    assert max(abs(v) for v in doc["result"]["tangles"].values()) < 1e-13
    assert doc["result"]["tangles"] == checked_tangle_set(np.eye(8)[0]).as_dict()


def test_analyze_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{broken")
    code, doc, err = run_cli(capsys, "analyze", "--state", str(p))
    assert code == 1 and "error" in err


def test_analyze_wrong_length(tmp_path, capsys):
    p = tmp_path / "short.json"
    p.write_text(json.dumps({"amplitudes": [[1, 0]] * 5}))
    code, _, err = run_cli(capsys, "analyze", "--state", str(p))
    assert code == 1


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_a_state_path_that_cannot_be_read_is_an_error(kind, tmp_path, capsys):
    # an error line and exit 1, not a traceback
    (tmp_path / "latin1.json").write_bytes(b'{"amplitudes": "\xff\xfe"}')
    path = {"missing": tmp_path / "missing.json", "directory": tmp_path,
            "not-utf8": tmp_path / "latin1.json"}[kind]
    code, doc, err = run_cli(capsys, "analyze", "--state", str(path))
    assert code == 1 and doc is None and err.startswith("error: ")


#: couplings on both orders of the non-adjacent pair (a, c) and a local on
#: every qubit: partition 2 carries the pair (c, a), partition 3 neither
MIXED_SEQUENCE = [
    {"kind": "coupling", "target": "ca", "params": [0.3, -1.1, 0.4, 0.9, 0.2, -0.7, 1.3, 0.5, -0.2]},
    {"kind": "local", "target": "a", "params": [0.4, -0.3, 1.2]},
    {"kind": "local", "target": "b", "params": [-0.8, 0.6, 0.1]},
    {"kind": "local", "target": "c", "params": [1.1, 0.2, -0.5]},
    {"kind": "coupling", "target": "ac", "params": [-0.6, 0.8, 0.1, 0.3, -1.4, 0.7, 0.2, 0.9, -0.3]},
    {"kind": "phase", "target": "", "params": [0.7]}]
#: a permuted diagonal at 1e300 and a general coupling at about 1e20, on both
#: spellings of partition 2's pair: the two pictures agree at any scale
LARGE_ANGLE_SEQUENCE = [
    {"kind": "coupling", "target": "ca",
     "params": [0.0, 1e300, 0.0, 0.0, 0.0, 0.2, -0.7, 0.0, 0.0]},
    {"kind": "local", "target": "b", "params": [-0.8, 0.6, 0.1]},
    {"kind": "coupling", "target": "ac",
     "params": [-6e19, 8e19, 1e19, 3e19, -1.4e20, 7e19, 2e19, 9e19, -3e19]}]


def test_evolve_dual_residual(ghz_file, s7_file, tmp_path, capsys):
    for state, sequence, partition in ((ghz_file, sequence_to_json(named_gate("CZ", "ab")), "3"),
                                       (s7_file, json.dumps(MIXED_SEQUENCE), "2"),
                                       (s7_file, json.dumps(LARGE_ANGLE_SEQUENCE), "2")):
        seqf = tmp_path / "seq.json"
        seqf.write_text(sequence)
        code, doc, _ = run_cli(capsys, "evolve", "--state", state,
                               "--sequence", str(seqf), "--partition", partition)
        assert code == 0
        assert doc["result"]["dual_residual"] < 1e-10


def test_evolve_unrepresentable_warns(ghz_file, s7_file, tmp_path, capsys):
    for state, sequence in ((ghz_file, sequence_to_json(named_gate("CZ", "bc"))),
                            (s7_file, json.dumps(MIXED_SEQUENCE))):
        seqf = tmp_path / "seq.json"
        seqf.write_text(sequence)
        code, doc, err = run_cli(capsys, "evolve", "--state", state,
                                 "--sequence", str(seqf), "--partition", "3")
        assert code == 0
        assert doc["result"]["q_vector"] is None and doc["result"]["dual_residual"] is None
        assert "warning" in err
        assert doc["result"]["state"]["amplitudes"]


def test_evolve_empty_sequence_echoes(ghz_file, tmp_path, capsys):
    seqf = tmp_path / "empty.json"
    seqf.write_text("[]")
    code, doc, _ = run_cli(capsys, "evolve", "--state", ghz_file,
                           "--sequence", str(seqf))
    assert code == 0
    amps = np.array([complex(re, im) for re, im in
                     doc["result"]["state"]["amplitudes"]])
    assert np.abs(amps - make_ghz()).max() < 1e-12


def test_evolve_nan_param_refused(ghz_file, tmp_path, capsys):
    seqf = tmp_path / "seq.json"
    seqf.write_text('[{"kind": "local", "target": "a", "params": [NaN, 0, 0]}]')
    code = main(["evolve", "--state", ghz_file, "--sequence", str(seqf)])
    assert code == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("step, message", [
    ({"kind": "local", "target": "a", "params": [0.1, 0.2]}, "step 1: local step angles"),
    ({"kind": "coupling", "target": "ab", "params": [0.1] * 8}, "step 1: coupling coefficients"),
    ({"kind": "coupling", "target": "zz", "params": [0.1] * 9}, "step 1: bad qubit pair"),
    ({"kind": "phase", "target": "", "params": ["x"]}, "step 1: phase angle"),
], ids=["two-angle-local", "short-coupling", "bad-pair", "text-phase"])
def test_evolve_refuses_a_bad_step(ghz_file, tmp_path, capsys, step, message):
    # the step's constructor refuses it, named by its index in the file
    seqf = tmp_path / "seq.json"
    seqf.write_text(json.dumps([{"kind": "phase", "target": "", "params": [0.1]}, step]))
    code, doc, err = run_cli(capsys, "evolve", "--state", ghz_file, "--sequence", str(seqf))
    assert code == 1 and doc is None
    assert err.startswith("error: ") and message in err


def test_analyze_nan_amplitude_refused(tmp_path, capsys):
    p = tmp_path / "nan.json"
    p.write_text(json.dumps({"amplitudes": [[float("nan"), 0]] + [[0, 0]] * 7}))
    code = main(["analyze", "--state", str(p)])
    assert code == 1
    assert capsys.readouterr().out == ""


def test_emit_refuses_nan(capsys):
    with pytest.raises(ValueError):
        _emit({"result": {"x": float("nan")}}, False)
    assert capsys.readouterr().out == ""


def test_synthesize_coupling_core(capsys):
    code, doc, _ = run_cli(capsys, "synthesize", "coupling-core",
                           "--alpha", "0.4,-0.9,1.7")
    assert code == 0
    assert doc["result"]["achieved_distance"] < 1e-10
    assert doc["result"]["coupling_steps"] == 3


def test_synthesize_coupling_core_degrees(capsys):
    code, doc, _ = run_cli(capsys, "synthesize", "coupling-core",
                           "--alpha", "90,0,0", "--degrees")
    assert code == 0
    assert abs(doc["result"]["alpha"][0] - np.pi / 2) < 1e-12


@pytest.mark.parametrize("alpha, message", [
    ("0.4,-0.9", "expected 3"),
    ("0.4,-0.9,1.7,0.1", "expected 3"),
    ("0.4,nan,1.7", "must be finite"),
    ("0.4,inf,1.7", "must be finite"),
    ("0.4,1j,1.7", "expected 3"),
    ("a,b,c", "expected 3"),
], ids=["short", "long", "nan", "inf", "complex", "text"])
def test_synthesize_coupling_core_refuses_bad_alpha(alpha, message, capsys):
    code, doc, err = run_cli(capsys, "synthesize", "coupling-core", f"--alpha={alpha}")
    assert code == 1 and doc is None
    assert err.startswith("error: --alpha") and message in err


def test_synthesize_w_to_ghz(capsys):
    code, doc, _ = run_cli(capsys, "synthesize", "w-to-ghz",
                           "--theta", "0.9553166181245093", "--phi", "0.7853981633974483")
    assert code == 0
    assert doc["result"]["achieved_fidelity"] >= 1 - 1e-10


def test_synthesize_at_large_angles(capsys):
    # the designs stay exact at a large angle, and the reports say so
    code, doc, _ = run_cli(capsys, "synthesize", "coupling-core", "--alpha", "0.3,0.2,1e17")
    assert code == 0 and doc["result"]["achieved_distance"] <= 1e-14
    code, doc, _ = run_cli(capsys, "synthesize", "w-to-ghz", "--theta", "1e17", "--phi", "0.5")
    assert code == 0 and doc["result"]["achieved_fidelity"] >= 1 - 1e-15


def test_maximize_tangle(tmp_path, capsys, monkeypatch):
    p = tmp_path / "s.json"
    p.write_text(state_to_json(random_state(3)))
    calls = count_calls(monkeypatch, normalize)
    code, doc, _ = run_cli(capsys, "maximize-tangle", "--state", str(p),
                           "--pair", "ab")
    # once in maximize_three_tangle and once in its certifying apply
    assert code == 0 and len(calls) == 2
    assert abs(doc["result"]["achieved"] - doc["result"]["bound"]) < 1e-9
    assert abs(doc["result"]["bound"] - checked_tangle_set(random_state(3)).tau_c_ab) < 1e-12


def test_maximize_tangle_takes_every_pair_spelling(tmp_path, capsys):
    # the pair and the variant are checked once, by maximize_three_tangle;
    # the maximizer turns each pair qubit by at most one local step
    p = tmp_path / "s.json"
    for seed, pair in ((3, "ba"), (7, "cb")):
        p.write_text(state_to_json(random_state(seed)))
        code, doc, _ = run_cli(capsys, "maximize-tangle", "--state", str(p), "--pair", pair)
        res = maximize_three_tangle(random_state(seed), pair)
        assert code == 0 and doc["result"] == {
            "sequence": json.loads(sequence_to_json(res.sequence)), "achieved": res.achieved,
            **res.meta}
        qubits = [st["target"] for st in doc["result"]["sequence"] if st["kind"] == "local"]
        assert len(qubits) == len(set(qubits)) and set(qubits) <= set(pair), qubits
    for option, value, what in (("--pair", "zz", "qubit pair"), ("--variant", "double", "variant")):
        code, doc, err = run_cli(capsys, "maximize-tangle", "--state", str(p), option, value)
        assert code == 1 and doc is None
        assert err == f"error: bad {what} '{value}'\n", err


def test_fs_angle_command(ghz_file, tmp_path, capsys):
    p = tmp_path / "w.json"
    p.write_text(state_to_json(make_asymmetric_w(np.arccos(1 / np.sqrt(3)), np.pi / 4)))
    code, doc, _ = run_cli(capsys, "fs-angle", "--state1", str(p),
                           "--state2", ghz_file, "--seed", "5")
    assert code == 0
    assert abs(doc["result"]["angle_degrees"] - 30.0) < 1e-6
    res = doc["result"]
    assert res["restarts"] == res["converged"] == 32 and res["capped"] is False
    assert res["sweeps"] >= 1 and res["polish_iterations"] >= 0
    assert 0.0 <= res["overlap_spread"] < 1.0


def test_fs_angle_refuses_zero_restarts(ghz_file, capsys):
    code, doc, err = run_cli(capsys, "fs-angle", "--state1", ghz_file,
                             "--state2", ghz_file, "--restarts", "0")
    assert code == 1 and doc is None and "restarts" in err


def test_fs_angle_seed_reproducible(ghz_file, tmp_path, capsys):
    p = tmp_path / "s.json"
    from tanglevec import random_state
    p.write_text(state_to_json(random_state(8)))
    vals = []
    for _ in range(2):
        _, doc, _ = run_cli(capsys, "fs-angle", "--state1", str(p),
                            "--state2", ghz_file, "--seed", "7")
        vals.append(doc["result"]["angle_degrees"])
    assert vals[0] == vals[1]


def test_ascent_command(s7_file, capsys):
    code, doc, _ = run_cli(capsys, "ascent", "--state", s7_file, "--pair", "ca",
                           "--restarts", "4", "--seed", "3")
    res = tangle_ascent_search(random_state(7), "ca", restarts=4, seed=3)
    bound = bipartite_tangle_from_density(random_state(7), "b")
    assert code == 0 and doc["seed"] == 3 and doc["result"] == {
        "tangle": res.tangle, "restarts": 4, "iterations": res.iterations,
        "converged": res.converged, "capped": res.capped, "tangle_spread": res.tangle_spread,
        "spectator": "b", "bound": bound,
        "note": "stochastic optimizer: lower bound on the true maximum"}
    # the ascent reaches the spectator's bipartite tangle, which bounds it
    assert abs(res.tangle - bound) < 1e-12 and res.converged == 4


@pytest.mark.parametrize("pair, spectator", [("ab", "c"), ("ba", "c"), ("bc", "a"),
                                             ("cb", "a"), ("ac", "b"), ("ca", "b")])
def test_ascent_command_names_the_spectator_of_every_spelling(s7_file, capsys, pair, spectator):
    code, doc, _ = run_cli(capsys, "ascent", "--state", s7_file, "--pair", pair,
                           "--restarts", "2")
    res = doc["result"]
    assert code == 0 and res["spectator"] == spectator
    assert res["bound"] == bipartite_tangle_from_density(random_state(7), spectator)


def test_ascent_command_defaults(ghz_file, capsys):
    code, doc, _ = run_cli(capsys, "ascent", "--state", ghz_file)
    res = doc["result"]
    assert code == 0 and doc["seed"] == 0 and res["spectator"] == "c"
    assert res["restarts"] == res["converged"] == 16 and res["capped"] is False
    assert abs(res["tangle"] - 1.0) < 1e-12 and abs(res["bound"] - 1.0) < 1e-12


@pytest.mark.parametrize("option, value, what", [
    ("--restarts", "0", "restarts"), ("--seed", "-1", "seed"), ("--pair", "zz", "qubit pair"),
    ("--pair", "aa", "qubit pair"), ("--restarts", "two", "--restarts")])
def test_ascent_command_refusals(ghz_file, capsys, option, value, what):
    code, doc, err = run_cli(capsys, "ascent", "--state", ghz_file, option, value)
    assert code == 1 and doc is None and what in err


def test_quat_reduce(capsys, monkeypatch):
    v = np.array([0.4, 0.1, -0.3, 0.2, 0.3, 0.2, 0.1, -0.35])
    v /= np.linalg.norm(v) * np.sqrt(2)
    # the report's final state is the reduction's one checking apply
    apply_calls = count_calls(monkeypatch, apply)
    vector_calls = count_evaluations(monkeypatch)
    code, doc, _ = run_cli(capsys, "quat", "reduce",
                           "--x", ",".join(map(str, v[:4])),
                           "--y", ",".join(map(str, v[4:])))
    assert code == 0 and (len(apply_calls), len(vector_calls)) == (1, 0)
    res = doc["result"]
    assert res["lambdas"][2] == 0 and res["lambdas"][3] == 0
    assert 0 <= res["xi"] <= np.pi / 2
    xi = res["xi"]
    canonical = np.exp(0.25j * np.pi) * np.array([-np.cos(xi), 0, np.sin(xi), 0, 0, 0, 0, 1])
    final = np.array([complex(*z) for z in res["final_state"]["amplitudes"]])
    assert np.abs(final - canonical / np.sqrt(2)).max() <= 1e-12
    assert 0 <= res["residual"] <= 1e-14
    # at most one step per qubit
    qubits = [st["target"] for st in res["sequence"]]
    assert len(qubits) == len(set(qubits)) <= 3, qubits


@pytest.mark.parametrize("x, y, message", [
    ("nan,0,0,0", "0.5,0,0,0.5", "x must be finite"),
    ("0.5,0,0,0.5", "0,inf,0,0", "y must be finite"),
    ("1,0,0", "0.5,0,0,0.5", "x: expected 4"),
    ("0.5,0,0,0.5", "0.5,0,0,0,0", "y: expected 4"),
    ("0.5,0,0,0.5", "a,0,0,0", "y: expected 4"),
], ids=["nan-x", "inf-y", "short-x", "long-y", "text-y"])
def test_quat_reduce_refuses_bad_components(capsys, x, y, message):
    code, doc, err = run_cli(capsys, "quat", "reduce", f"--x={x}", f"--y={y}")
    assert code == 1 and doc is None
    assert err.startswith("error: ") and message in err


def test_quat_check(ghz_file, tmp_path, capsys):
    code, doc, _ = run_cli(capsys, "quat", "check", "--state", ghz_file)
    assert code == 0 and doc["result"]["quaternionic"] is False
    qs = QuaternionicState(np.array([0.5, 0, 0, 0]), np.array([0, 0.5, 0, 0]))
    p = tmp_path / "q.json"
    p.write_text(state_to_json(to_state(qs)))
    code, doc, _ = run_cli(capsys, "quat", "check", "--state", str(p))
    assert code == 0 and doc["result"]["quaternionic"] is True


def test_verify_map(capsys):
    code, doc, _ = run_cli(capsys, "verify-map")
    assert code == 0
    assert doc["result"]["max_discrepancy"] == 0


def test_verify_default_suite(capsys):
    # the default sweep size (1000 states) passes in well under a second
    code, doc, _ = run_cli(capsys, "verify", "--seed", "4")
    assert code == 0
    assert doc["result"]["pass"] is True
    assert doc["result"]["states"] == 1000
    for k in range(1000):  # the states of the sweep
        checked_tangle_set(random_state(4 + k))


@pytest.mark.parametrize("n", [1, 9, 40])
def test_verify_evaluates_each_state_once_and_names_the_worst(n, capsys, monkeypatch):
    # one evaluation per swept state, two per dual-evolution check; each
    # reported seed replays to its reported residual
    vector_calls = count_evaluations(monkeypatch)
    code, doc, _ = run_cli(capsys, "verify", "-N", str(n), "--seed", "6")
    assert code == 0
    assert len(vector_calls) == n + 2 * max(1, n // 10)
    res = doc["result"]
    for name, residual in (("plucker", plucker_residual), ("ckw", ckw_residual)):
        seed = res[f"{name}_worst_seed"]
        assert 6 <= seed < 6 + n
        assert residual(random_state(seed)) == res[f"{name}_worst"] \
            == max(residual(random_state(6 + k)) for k in range(n))


@pytest.mark.parametrize("suite", ["default", "quaternionic"])
@pytest.mark.parametrize("option", [("-N", "-5"), ("-N", "0"), ("--seed", "-1")],
                         ids=["negative-count", "zero-count", "negative-seed"])
def test_verify_refuses_bad_options(suite, option, capsys):
    # an empty or negative sweep checks nothing, so it cannot pass
    code, doc, err = run_cli(capsys, "verify", "--suite", suite, *option)
    assert code == 1 and doc is None
    assert err.startswith("error: ") and option[0] in err


def test_verify_quaternionic_suite(capsys, monkeypatch):
    # each state's vectors and tangles come from one evaluation
    calls = count_evaluations(monkeypatch)
    code, doc, _ = run_cli(capsys, "verify", "--suite", "quaternionic",
                           "-N", "40", "--seed", "4")
    assert code == 0 and len(calls) == 40
    assert doc["result"]["pass"] is True
    rng = np.random.default_rng(4)
    for _ in range(40):  # the states of the sweep
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v) * np.sqrt(2)
        checked_tangle_set(to_state(QuaternionicState(v[:4], v[4:])))


def test_seed_env_variable_has_no_effect(capsys, monkeypatch):
    # the default seed is 0 and only --seed changes it
    monkeypatch.setenv("TANGLEVEC_SEED", "abc")
    code, doc, _ = run_cli(capsys, "verify-map")
    assert code == 0 and doc["result"]["ok"] is True
    from tanglevec.cli import build_parser
    assert build_parser().parse_args(["verify", "-N", "5"]).seed == 0


def test_reports_reproducible(ghz_file, capsys):
    _, d1, _ = run_cli(capsys, "analyze", "--state", ghz_file)
    _, d2, _ = run_cli(capsys, "analyze", "--state", ghz_file)
    assert d1 == d2


def test_pretty_writes_to_stderr(ghz_file, capsys):
    code, doc, err = run_cli(capsys, "--pretty", "analyze", "--state", ghz_file)
    assert code == 0 and doc is not None
    assert "tau_abc" in err
