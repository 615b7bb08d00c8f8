"""Command-line front end.

Each command returns its report name, its input digest (None, one digest,
or a list of two) and its result; main alone wraps them in the report
{"command", "input_digest", "result"}, adds "seed" for a command that takes
``--seed`` (default 0) and "tolerances" for one that sets them (analyze), and
writes it to stdout as strict JSON. ``--pretty`` adds a human summary of
the result on stderr. Complex numbers are emitted as [re, im] pairs. Exit
codes: 0 ok; 1 usage or parse error, or a report holding a non-finite
value (nothing is written to stdout); 2 a failed verdict ("ok" or "pass"
false); 3 numeric invariant breach.

The module top loads only what parsing and the report need: argparse, json,
sys, errors and the package, which imports no submodule of its own. Each
command reads the library through the package, as ``tv.normalize`` or, for a
name the package does not export, ``tv.states._reals``; the package imports a
name's module on first access. So --help, a usage error and build_parser load
no numpy and no numeric module, and a process loads only the modules its
command uses (tests/test_cli.py pins each command's set).
"""
from __future__ import annotations

import argparse
import json
import sys

import tanglevec as tv

from .errors import InvariantViolation, NotRepresentable, TangleVecError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3


def _cvec(v) -> list:
    return [[z.real, z.imag] for z in v.tolist()]


def _digest(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _load_state(path: str):
    with open(path) as fh:
        text = fh.read()
    return tv.state_from_json(text), _digest(text)


def _emit(report: dict, pretty: bool):
    print(json.dumps(report, indent=2, allow_nan=False))
    if pretty:
        def walk(obj, indent=0):
            pad = "  " * indent
            if isinstance(obj, dict):
                for k, v in obj.items():
                    if isinstance(v, (dict, list)) and len(str(v)) > 60:
                        print(f"{pad}{k}:", file=sys.stderr)
                        walk(v, indent + 1)
                    else:
                        print(f"{pad}{k}: {v}", file=sys.stderr)
            else:
                print(f"{pad}{obj}", file=sys.stderr)
        walk(report["result"])


def _numbers(text: str, n: int, what: str) -> tuple:
    """The n comma-separated numbers of an option, as _reals checks them; else ParseError."""
    try:
        values = [float(t) for t in text.split(",")]
    except ValueError:
        values = text   # not numbers: _reals refuses the text, naming the option
    return tv.states._reals(values, n, what)


def _synthesis_payload(res, achieved: str) -> dict:
    """A SynthesisResult's report: its sequence, its achieved value named achieved, its meta."""
    return {"sequence": json.loads(tv.sequence_to_json(res.sequence)), achieved: res.achieved,
            **res.meta}


def cmd_analyze(args) -> tuple:
    args.tolerances = {"eps_inv": tv.EPS_INV}   # main adds it to the report
    s, digest = _load_state(args.state)
    s = tv.normalize(s)
    v = tv.abc_vectors(s)
    info = tv.gauge_phase(s)
    payload = {
        "vectors": {"a": _cvec(v.a), "b": _cvec(v.b), "c": _cvec(v.c)},
        "gauge": {"phi_a": info.phi_a, "defined": info.defined},
        "tangles": tv.tangle_set(s).as_dict(),
        "plucker_residual": tv.plucker_residual(s),
        "ckw_residual": tv.ckw_residual(s),
    }
    return "analyze", digest, payload


def cmd_evolve(args) -> tuple:
    import numpy as np

    s, digest = _load_state(args.state)
    s = tv.normalize(s)
    with open(args.sequence) as fh:
        seq_text = fh.read()
    seq = tv.sequence_from_json(seq_text)
    out = tv.apply(seq, s)
    payload = {"state": json.loads(tv.state_to_json(out))}
    partition = tv.states.parse_partition(args.partition)
    try:
        q1 = tv.evolve_q(seq, tv.q_vector(s, partition))
        q2 = tv.q_vector(out, partition)
        payload["q_vector"] = _cvec(q1.q)
        payload["partition"] = partition
        payload["dual_residual"] = float(np.abs(q1.q - q2.q).max())
    except NotRepresentable as exc:
        print(f"warning: {exc}; state picture emitted without a 6-vector",
              file=sys.stderr)
        payload["q_vector"] = None
        payload["dual_residual"] = None
    return "evolve", [digest, _digest(seq_text)], payload


def cmd_synthesize_coupling_core(args) -> tuple:
    import numpy as np

    alpha = _numbers(args.alpha, 3, "--alpha")
    res = tv.synthesize_coupling_core(np.radians(alpha) if args.degrees else alpha)
    return "synthesize coupling-core", None, _synthesis_payload(res, "achieved_distance")


def cmd_synthesize_w_to_ghz(args) -> tuple:
    import numpy as np

    angles = (args.theta, args.phi)
    res = tv.w_to_ghz_sequence(*(np.radians(angles) if args.degrees else angles))
    return "synthesize w-to-ghz", None, _synthesis_payload(res, "achieved_fidelity")


def cmd_maximize_tangle(args) -> tuple:
    s, digest = _load_state(args.state)
    res = tv.maximize_three_tangle(s, args.pair, args.variant)
    return "maximize-tangle", digest, _synthesis_payload(res, "achieved")


def cmd_fs_angle(args) -> tuple:
    import dataclasses

    s1, d1 = _load_state(args.state1)
    s2, d2 = _load_state(args.state2)
    res = tv.fubini_study_search(s1, s2, restarts=args.restarts, seed=args.seed)
    payload = {**dataclasses.asdict(res),
               "note": "stochastic optimizer: upper bound on the true minimum"}
    return "fs-angle", [d1, d2], payload


def cmd_ascent(args) -> tuple:
    import dataclasses

    s, digest = _load_state(args.state)
    res = tv.tangle_ascent_search(s, args.pair, restarts=args.restarts, seed=args.seed)
    # the search checked the pair
    spectator = tv.states.PARTITION_SPECTATOR[tv.synthesis._canonical_pair(args.pair)[0]]
    payload = {**dataclasses.asdict(res), "spectator": spectator,
               "bound": tv.bipartite_tangle_from_density(tv.normalize(s), spectator),
               "note": "stochastic optimizer: lower bound on the true maximum"}
    return "ascent", digest, payload


def cmd_quat_reduce(args) -> tuple:
    qs = tv.QuaternionicState(_numbers(args.x, 4, "--x"), _numbers(args.y, 4, "--y"))
    seq, params, final, residual = tv.quaternionic._reduce(qs)
    payload = {
        "sequence": json.loads(tv.sequence_to_json(seq)),
        "xi": params.xi,
        "lambdas": [float(v) for v in params.lambdas],
        "final_state": json.loads(tv.state_to_json(final)),
        "residual": residual,
    }
    return "quat reduce", None, payload


def cmd_quat_check(args) -> tuple:
    s, digest = _load_state(args.state)
    qs = tv.is_quaternionic(tv.normalize(s))
    payload = {"quaternionic": qs is not None}
    if qs is not None:
        payload["x"] = [float(v) for v in qs.x]
        payload["y"] = [float(v) for v in qs.y]
    return "quat check", digest, payload


def cmd_verify_map(args) -> tuple:
    rep = tv.verify_commutators()
    payload = {"pairs": rep.pairs, "max_discrepancy": rep.max_discrepancy,
               "ok": rep.ok}
    return "verify-map", None, payload


def _verify_default(n: int, seed: int) -> dict:
    import numpy as np

    rep = tv.verify_commutators()
    worst_dual = 0.0
    rng = np.random.default_rng(seed)
    res = np.zeros((2, n))
    for k in range(n):
        s = tv.random_state(seed + k)
        res[:, k] = tv.plucker_residual(s), tv.ckw_residual(s)
    # each identity's worst residual and the seed of its state
    (worst_plucker, plucker_seed), (worst_ckw, ckw_seed) = (
        (float(r.max()), seed + int(r.argmax())) for r in res)
    for k in range(max(1, n // 10)):
        p = int(rng.integers(1, 4))
        first, second = tv.states.PARTITION_PAIR[p]
        pairstr = first + second
        s = tv.random_state(seed + 7919 * (k + 1))
        seq = []
        for _ in range(5):
            kind = rng.integers(0, 3)
            if kind == 0:
                q = (first, second, tv.states.PARTITION_SPECTATOR[p])[rng.integers(0, 3)]
                seq.append(tv.LocalStep(q, tuple(rng.uniform(-3, 3, 3))))
            elif kind == 1:
                seq.append(tv.CouplingStep(pairstr, rng.uniform(-2, 2, (3, 3))))
            else:
                seq.append(tv.PhaseStep(float(rng.uniform(-np.pi, np.pi))))
        qv = tv.evolve_q(seq, tv.q_vector(s, p))
        ref = tv.q_vector(tv.apply(seq, s), p)
        worst_dual = max(worst_dual, float(np.abs(qv.q - ref.q).max()))
    return {
        "commutator_pairs": rep.pairs,
        "commutator_discrepancy": rep.max_discrepancy,
        "states": n,
        "plucker_worst": worst_plucker,
        "plucker_worst_seed": plucker_seed,
        "ckw_worst": worst_ckw,
        "ckw_worst_seed": ckw_seed,
        "dual_evolution_worst": worst_dual,
        "pass": bool(rep.ok and worst_plucker < 1e-12 and worst_ckw < 1e-11
                     and worst_dual < 1e-10),
    }


def _verify_quaternionic(n: int, seed: int) -> dict:
    import numpy as np

    rng = np.random.default_rng(seed)
    worst_abc = worst_tan = 0.0
    for _ in range(n):
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v) * np.sqrt(2)
        qs = tv.QuaternionicState(v[:4], v[4:])
        s = tv.to_state(qs)
        va, vg = tv.abc_quaternionic(qs), tv.abc_vectors(s)
        tq, tg = tv.tangles_quaternionic(qs), tv.tangle_set(s)
        worst_abc = max(worst_abc, float(np.abs(np.stack([va.a, va.b, va.c])
                                                - np.stack([vg.a, vg.b, vg.c])).max()))
        worst_tan = max(worst_tan, max(
            abs(getattr(tq, f) - getattr(tg, f))
            for f in tq.__dataclass_fields__))
    return {
        "states": n,
        "abc_worst": worst_abc,
        "tangles_worst": worst_tan,
        "pass": bool(worst_abc < 1e-11 and worst_tan < 1e-11),
    }


def cmd_verify(args) -> tuple:
    tv.states._check_options(seeds={"--seed": args.seed}, counts={"-N": args.num})
    suite = _verify_quaternionic if args.suite == "quaternionic" else _verify_default
    return f"verify --suite {args.suite}", None, suite(args.num, args.seed)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tanglevec",
        description="three-qubit entanglement vectors: analysis, evolution, synthesis")
    ap.add_argument("--pretty", action="store_true",
                    help="also print a human-readable summary to stderr")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="invariant vectors, gauge, tangles")
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("evolve", help="apply a gate sequence in both pictures")
    p.add_argument("--state", required=True)
    p.add_argument("--sequence", required=True)
    p.add_argument("--partition", default=3)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("synthesize", help="analytic constructions")
    ssub = p.add_subparsers(dest="what", required=True)
    pc = ssub.add_parser("coupling-core")
    pc.add_argument("--alpha", required=True, help="a1,a2,a3")
    pc.add_argument("--degrees", action="store_true")
    pc.set_defaults(func=cmd_synthesize_coupling_core)
    pw = ssub.add_parser("w-to-ghz")
    pw.add_argument("--theta", type=float, required=True)
    pw.add_argument("--phi", type=float, required=True)
    pw.add_argument("--degrees", action="store_true")
    pw.set_defaults(func=cmd_synthesize_w_to_ghz)

    p = sub.add_parser("maximize-tangle", help="drive the three-tangle to its bound")
    p.add_argument("--state", required=True)
    p.add_argument("--pair", default="ab")
    p.add_argument("--variant", default="economical")
    p.set_defaults(func=cmd_maximize_tangle)

    p = sub.add_parser("fs-angle", help="closest locally-equivalent angle (deg)")
    p.add_argument("--state1", required=True)
    p.add_argument("--state2", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=32)
    p.set_defaults(func=cmd_fs_angle)

    p = sub.add_parser("ascent", help="numerical three-tangle maximum over the pair's SU(4)")
    p.add_argument("--state", required=True)
    p.add_argument("--pair", default="ab")
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ascent)

    p = sub.add_parser("quat", help="quaternionic subsystem")
    qsub = p.add_subparsers(dest="what", required=True)
    qr = qsub.add_parser("reduce")
    qr.add_argument("--x", required=True, help="x0,x1,x2,x3")
    qr.add_argument("--y", required=True, help="y0,y1,y2,y3")
    qr.set_defaults(func=cmd_quat_reduce)
    qc = qsub.add_parser("check")
    qc.add_argument("--state", required=True)
    qc.set_defaults(func=cmd_quat_check)

    p = sub.add_parser("verify-map", help="exact commutator table of the generator map")
    p.set_defaults(func=cmd_verify_map)

    p = sub.add_parser("verify", help="invariant sweeps over random states")
    p.add_argument("--suite", default="default", choices=["default", "quaternionic"])
    p.add_argument("-N", "--num", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        command, digest, result = args.func(args)
        report = {"command": command, "input_digest": digest, "result": result}
        for key in ("seed", "tolerances"):
            if key in args:
                report[key] = getattr(args, key)
        _emit(report, args.pretty)
    except InvariantViolation as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # OSError and ValueError: a file that cannot be read or decoded, or a report
    # holding a non-finite value, which json.dumps refuses before writing anything
    except (TangleVecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # the verdict of verify-map ("ok") and of verify ("pass")
    return EXIT_OK if result.get("ok", result.get("pass", True)) else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
