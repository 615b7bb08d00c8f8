"""tanglevec benchmark: one command runs any workload by name from a seed.

    python3 perfbench/run.py --workload invariant-sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and exits with code 2 when there is none. Each line before the last
gives one metric as ``name value unit``, plus the machine facts; the last
line is one JSON object with the keys correct, attempted, failed and metrics.
With ``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer ones from a traced run, whose spans
are written to ``perfbench/out/`` when the run ends.
"""
from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: seconds the calibration block takes on the reference machine (2 cores,
#: Python 3.11.7, numpy 2.4.6); goodputs are reported at this speed
NOMINAL_CAL_S = 1.8e-3
SETUP_REPS = 7


def facts(root: str, src: str, tv) -> dict:
    from importlib import metadata

    import numpy as np

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    pkg = os.path.join(src, "tanglevec")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
        commit = out.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "tanglevec_backend": getattr(tv, "BACKEND", None),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def run(workload: str, seed: int, seconds: float, trace: bool, root: str,
        tiny: bool = False) -> dict:
    """One run; returns the result object plus report lines and facts."""
    import numpy as np

    import refs
    import tanglevec as tv
    from harness import Api, Clock, Margins, Tally, Tracer, drive, layer_metrics, rate
    from probe import child_seconds, cli_probe, defect_probe, layer_probe, python_start
    from workloads import WORKLOADS, Ctx

    src = os.path.join(root, "src")
    factory, warmup = WORKLOADS[workload]
    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        margins = Margins()
        ctx = Ctx(tv, margins, src, workdir)
        rng = np.random.default_rng(seed)
        rounds = factory(ctx, rng, tiny)
        clock = Clock(refs.calibration_block, NOMINAL_CAL_S)
        metrics, lines = {}, []
        if not trace:
            setup_s = child_seconds(src, warmup, 1 if tiny else SETUP_REPS)
            tally = Tally()
            drive(rounds, Api(tv), seconds, tally, clock)
            tallies = [tally]
            speed = clock.factor()
            lines.append(f"speed factor {speed:.4f} from {len(clock.timings)} calibrations")
            for kind in ("main", "second"):
                lines.append(f"unscaled {kind}_per_s {rate(tally.rounds[kind]):.6g}")
            if workload == "cli-cold":
                rss = ctx.child_rss_mb
            else:
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": (setup_s, "s"),
                "main_per_s": (rate(tally.rounds["main"]) / speed, "1/s"),
                "second_per_s": (rate(tally.rounds["second"]) / speed, "1/s"),
                "peak_rss_mb": (rss, "MB"),
            }
        else:
            tracer = Tracer()
            traced, plain = Api(tv, tracer), Api(tv)
            t_tally, p_tally = Tally(), Tally()
            drive(rounds, traced, seconds, t_tally, clock, tracer, plain, p_tally)
            tallies = [t_tally, p_tally]
            r_traced = rate(t_tally.rounds["main"])
            r_plain = rate(p_tally.rounds["main"])
            probe_rng = np.random.default_rng([seed, 1])
            layer_probe(ctx, traced, tracer, probe_rng)
            if workload != "cli-cold":
                cli_probe(ctx, traced, probe_rng)
            defects = defect_probe(ctx, traced, tracer, probe_rng, tiny)
            metrics, lines = layer_metrics(tracer.spans)
            metrics.update(defects)
            metrics["kernels.fs_angle.err_deg_max"] = (ctx.quality["fs_err_deg"], "deg")
            metrics["kernels.ascent.gap_max"] = (ctx.quality["ascent_gap"], "tau")
            metrics["cli.python_start_s"] = (python_start(), "s")
            metrics["cli.import_s"] = (child_seconds(src, "import tanglevec", 3), "s")
            metrics["trace_overhead"] = (
                r_plain / r_traced - 1.0 if r_traced > 0 and r_plain > 0 else 0.0, "ratio")
            for check, worst in margins.worst.items():
                metrics[f"margin.{check}"] = (worst, "ratio")
            path = os.path.join(HERE, "out", f"trace-{workload}-seed{seed}.json.gz")
            with gzip.open(path, "wt", compresslevel=1) as fh:
                json.dump({"fields": ["span", "name", "start", "end", "parent", "op"],
                           "spans": tracer.spans}, fh)
            lines.append(f"spans written to {os.path.relpath(path, root)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for t in tallies:
        lines += [f"failed: {f}" for f in t.failures]
    return {
        "result": {
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "lines": lines,
        "facts": facts(root, src, tv),
    }


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU.

    The speed calibration runs in this process, so a CLI child must run on
    the same CPU for the scaling to apply to it.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tanglevec", "__init__.py")):
        print(f"error: no tanglevec sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    out["facts"].update(nproc=nproc, pinned_cpu=cpu)
    for line in out["lines"]:
        print(line)
    print("facts " + json.dumps(out["facts"]))
    for name, m in out["result"]["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"wall {time.perf_counter() - t0:.1f} s")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
