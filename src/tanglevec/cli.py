"""Command-line front end.

Machine-readable JSON goes to stdout; ``--pretty`` adds a human summary on
stderr. Complex numbers are emitted as [re, im] pairs. Exit codes: 0 ok,
1 usage or parse error, 2 verification failure, 3 numeric invariant breach.
Randomized commands take ``--seed`` (default 0).
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys

import numpy as np

from .errors import InvariantViolation, NotRepresentable, TangleVecError
from .gates import (CouplingStep, LocalStep, PhaseStep, apply,
                    sequence_from_json, sequence_to_json)
from .quaternionic import (QuaternionicState, _reduce, abc_quaternionic, is_quaternionic,
                           tangles_quaternionic, to_state)
from .so6 import evolve_q, verify_commutators
from .states import (PARTITION_PAIR, PARTITION_SPECTATOR, _check_options, _reals, normalize,
                     parse_partition, random_state, state_from_json, state_to_json)
from .synthesis import (fubini_study_search, maximize_three_tangle,
                        synthesize_coupling_core, tangle_ascent_search, w_to_ghz_sequence)
from .tangles import bipartite_tangle_from_density, ckw_residual, tangle_set
from .vectors import EPS_INV, abc_vectors, gauge_phase, plucker_residual, q_vector

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3


def _cvec(v: np.ndarray) -> list:
    return [[z.real, z.imag] for z in v.tolist()]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _load_state(path: str):
    with open(path) as fh:
        text = fh.read()
    return state_from_json(text), _digest(text)


def _report(command: str, digest, payload: dict, seed=None, tolerances=None) -> dict:
    rep = {"command": command, "input_digest": digest, "result": payload}
    if seed is not None:
        rep["seed"] = seed
    if tolerances:
        rep["tolerances"] = tolerances
    return rep


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
    return _reals(values, n, what)


def _sequence_payload(seq) -> list:
    return json.loads(sequence_to_json(seq))


def cmd_analyze(args) -> int:
    s, digest = _load_state(args.state)
    s = normalize(s)
    v = abc_vectors(s)
    info = gauge_phase(s)
    payload = {
        "vectors": {"a": _cvec(v.a), "b": _cvec(v.b), "c": _cvec(v.c)},
        "gauge": {"phi_a": info.phi_a, "defined": info.defined},
        "tangles": tangle_set(s).as_dict(),
        "plucker_residual": plucker_residual(s),
        "ckw_residual": ckw_residual(s),
    }
    _emit(_report("analyze", digest, payload,
                  tolerances={"eps_inv": EPS_INV}), args.pretty)
    return EXIT_OK


def cmd_evolve(args) -> int:
    s, digest = _load_state(args.state)
    s = normalize(s)
    with open(args.sequence) as fh:
        seq_text = fh.read()
    seq = sequence_from_json(seq_text)
    out = apply(seq, s)
    payload = {"state": json.loads(state_to_json(out))}
    partition = parse_partition(args.partition)
    try:
        q1 = evolve_q(seq, q_vector(s, partition))
        q2 = q_vector(out, partition)
        payload["q_vector"] = _cvec(q1.q)
        payload["partition"] = partition
        payload["dual_residual"] = float(np.abs(q1.q - q2.q).max())
    except NotRepresentable as exc:
        print(f"warning: {exc}; state picture emitted without a 6-vector",
              file=sys.stderr)
        payload["q_vector"] = None
        payload["dual_residual"] = None
    _emit(_report("evolve", [digest, _digest(seq_text)], payload), args.pretty)
    return EXIT_OK


def cmd_synthesize_coupling_core(args) -> int:
    alpha = _numbers(args.alpha, 3, "--alpha")
    res = synthesize_coupling_core(np.radians(alpha) if args.degrees else alpha)
    payload = {"sequence": _sequence_payload(res.sequence),
               "achieved_distance": res.achieved, **res.meta}
    _emit(_report("synthesize coupling-core", None, payload), args.pretty)
    return EXIT_OK


def cmd_synthesize_w_to_ghz(args) -> int:
    angles = (args.theta, args.phi)
    res = w_to_ghz_sequence(*(np.radians(angles) if args.degrees else angles))
    payload = {"sequence": _sequence_payload(res.sequence),
               "achieved_fidelity": res.achieved, **res.meta}
    _emit(_report("synthesize w-to-ghz", None, payload), args.pretty)
    return EXIT_OK


def cmd_maximize_tangle(args) -> int:
    s, digest = _load_state(args.state)
    res = maximize_three_tangle(s, args.pair, args.variant)
    payload = {"sequence": _sequence_payload(res.sequence),
               "achieved": res.achieved, **res.meta}
    _emit(_report("maximize-tangle", digest, payload), args.pretty)
    return EXIT_OK


def cmd_fs_angle(args) -> int:
    s1, d1 = _load_state(args.state1)
    s2, d2 = _load_state(args.state2)
    res = fubini_study_search(s1, s2, restarts=args.restarts, seed=args.seed)
    payload = {**dataclasses.asdict(res),
               "note": "stochastic optimizer: upper bound on the true minimum"}
    _emit(_report("fs-angle", [d1, d2], payload, seed=args.seed), args.pretty)
    return EXIT_OK


def cmd_ascent(args) -> int:
    s, digest = _load_state(args.state)
    res = tangle_ascent_search(s, args.pair, restarts=args.restarts, seed=args.seed)
    spectator = next(q for q in "abc" if q not in args.pair)   # the search checked the pair
    payload = {**dataclasses.asdict(res), "spectator": spectator,
               "bound": bipartite_tangle_from_density(normalize(s), spectator),
               "note": "stochastic optimizer: lower bound on the true maximum"}
    _emit(_report("ascent", digest, payload, seed=args.seed), args.pretty)
    return EXIT_OK


def cmd_quat_reduce(args) -> int:
    seq, params, final, residual = _reduce(QuaternionicState(_numbers(args.x, 4, "--x"),
                                                             _numbers(args.y, 4, "--y")))
    payload = {
        "sequence": _sequence_payload(seq),
        "xi": params.xi,
        "lambdas": [float(v) for v in params.lambdas],
        "final_state": json.loads(state_to_json(final)),
        "residual": residual,
    }
    _emit(_report("quat reduce", None, payload), args.pretty)
    return EXIT_OK


def cmd_quat_check(args) -> int:
    s, digest = _load_state(args.state)
    qs = is_quaternionic(normalize(s))
    payload = {"quaternionic": qs is not None}
    if qs is not None:
        payload["x"] = [float(v) for v in qs.x]
        payload["y"] = [float(v) for v in qs.y]
    _emit(_report("quat check", digest, payload), args.pretty)
    return EXIT_OK


def cmd_verify_map(args) -> int:
    rep = verify_commutators()
    payload = {"pairs": rep.pairs, "max_discrepancy": rep.max_discrepancy,
               "ok": rep.ok}
    _emit(_report("verify-map", None, payload), args.pretty)
    return EXIT_OK if rep.ok else EXIT_VERIFY


def _verify_default(n: int, seed: int) -> dict:
    rep = verify_commutators()
    worst_dual = 0.0
    rng = np.random.default_rng(seed)
    res = np.zeros((2, n))
    for k in range(n):
        s = random_state(seed + k)
        res[:, k] = plucker_residual(s), ckw_residual(s)
    # each identity's worst residual and the seed of its state
    (worst_plucker, plucker_seed), (worst_ckw, ckw_seed) = (
        (float(r.max()), seed + int(r.argmax())) for r in res)
    for k in range(max(1, n // 10)):
        p = int(rng.integers(1, 4))
        first, second = PARTITION_PAIR[p]
        pairstr = first + second
        s = random_state(seed + 7919 * (k + 1))
        seq = []
        for _ in range(5):
            kind = rng.integers(0, 3)
            if kind == 0:
                q = (first, second, PARTITION_SPECTATOR[p])[rng.integers(0, 3)]
                seq.append(LocalStep(q, tuple(rng.uniform(-3, 3, 3))))
            elif kind == 1:
                seq.append(CouplingStep(pairstr, rng.uniform(-2, 2, (3, 3))))
            else:
                seq.append(PhaseStep(float(rng.uniform(-np.pi, np.pi))))
        qv = evolve_q(seq, q_vector(s, p))
        ref = q_vector(apply(seq, s), p)
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
    rng = np.random.default_rng(seed)
    worst_abc = worst_tan = 0.0
    for _ in range(n):
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v) * np.sqrt(2)
        qs = QuaternionicState(v[:4], v[4:])
        s = to_state(qs)
        va, vg = abc_quaternionic(qs), abc_vectors(s)
        tq, tg = tangles_quaternionic(qs), tangle_set(s)
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


def cmd_verify(args) -> int:
    _check_options(seeds={"--seed": args.seed}, counts={"-N": args.num})
    suite = _verify_quaternionic if args.suite == "quaternionic" else _verify_default
    payload = suite(args.num, args.seed)
    _emit(_report(f"verify --suite {args.suite}", None, payload,
                  seed=args.seed), args.pretty)
    return EXIT_OK if payload["pass"] else EXIT_VERIFY


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
        return args.func(args)
    except InvariantViolation as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (TangleVecError, OSError, ValueError) as exc:   # a file that cannot be read or decoded
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
