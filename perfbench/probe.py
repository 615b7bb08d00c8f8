"""The short probe that ends every traced run.

It calls each timed public function a fixed number of times on seeded
inputs, so that every per-layer figure is measured on every workload; on a
workload that calls a layer itself, the probe is a small share of that
layer's calls. It also runs inputs the library documents as allowed but
handles wrongly at the parent commit, and reports how they fared instead of
counting them as failed operations of the workload:

* unnormalized states with a scale log-uniform over 1e-3..1e3, which
  ``abc_vectors`` accepts but ``tangle_set`` often refuses with a false
  InvariantViolation (probe.scaled_states.fail_share);
* a state file with a NaN amplitude, which ``analyze`` should refuse with a
  typed exit but accepts, printing bare NaN (probe.cli_nan.accepted);
* one generic Haar pair and one locally-equivalent pair of a Haar state for
  the Fubini-Study search, whose solve times are heavy-tailed (0.4 s to over
  20 s at the defaults) and whose locally-equivalent angle can miss 1e-6
  degrees (probe.fs_haar.s_max, probe.fs_haar.loceq_err_deg).
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import refs
from harness import CheckFailed, Margins, Tally, run_op
from workloads import (_analyse, ascent_op, check_analysis, cli_session, fs_op,
                       state_json)

CALLS = 12


def child_seconds(src: str, code: str, reps: int) -> float:
    """Median of ``code``'s own timing over ``reps`` fresh interpreters.

    The child prints the seconds it measured, so interpreter start is
    excluded; an unmeasured first child fills the bytecode cache.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    prog = f"import time\nt0 = time.perf_counter()\n{code}\nprint(time.perf_counter() - t0)"
    times = []
    for i in range(reps + 1):
        out = subprocess.run([sys.executable, "-c", prog], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def python_start(reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_probe(ctx, api, tracer, rng):
    """Call every timed in-process function CALLS times."""
    tv = ctx.tv
    ghz = refs.ghz()
    for _ in range(CALLS):
        tracer.begin_op("probe")
        s = refs.random_state(rng)
        api.random_state(int(rng.integers(0, 2**62)))
        api.normalize(2.0 * s)
        api.state_from_json(state_json(s))
        _analyse(api, s)
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v) * np.sqrt(2)
        qs = api.is_quaternionic(refs.quaternionic_amplitudes(v[:4], v[4:]))
        api.tangles_quaternionic(qs)
        api.reduce_to_acin(qs)
        seq = api.named_gate("CNOT", "ab")
        api.apply(seq, s)
        api.sequence_unitary(seq)
        api.evolve_q(seq, tv.q_vector(s, 3))
        api.verify_commutators()
        api.synthesize_coupling_core(rng.uniform(-np.pi, np.pi, 3), "ab")
        api.w_to_ghz_sequence(rng.uniform(0.15, 1.42), rng.uniform(-np.pi, np.pi))
        api.maximize_three_tangle(s, "ab")
        tracer.end_op()
    # the optimizers go through the workload's operations, so that their
    # quality figures include the probe's known answers
    tally = Tally()
    for _ in range(CALLS):
        seed = int(rng.integers(0, 2**31))
        run_op(fs_op(ctx, "probe", "fs_loceq_ghz", refs.disguise(ghz, rng),
                     refs.disguise(ghz, rng), 0.0, 1e-6, seed), api, tally, {}, tracer)
        run_op(ascent_op(ctx, "probe", refs.random_state(rng), "ab", seed),
               api, tally, {}, tracer)


def defect_probe(ctx, api, tracer, rng, tiny: bool = False) -> dict:
    """Inputs the parent commit handles wrongly; returns per-layer figures.

    ``tiny`` skips the two heavy-tailed Fubini-Study solves (self-test only).
    """
    m = Margins()          # these checks must not move the workload's margins
    fails = 0
    n = 64
    for _ in range(n):
        s = refs.random_state(rng) * 10 ** rng.uniform(-3, 3)
        tracer.begin_op("probe.scaled_state")
        try:
            r = _analyse(api, s)
        except Exception:   # a library error is what this probe counts
            r = None
        tracer.end_op()
        try:
            if r is not None:
                check_analysis(m, r)
        except CheckFailed:
            r = None
        fails += r is None

    amps = json.loads(state_json(refs.random_state(rng)))["amplitudes"]
    amps[3][0] = float("nan")
    f_nan = ctx.write("nan.json", json.dumps({"amplitudes": amps}))
    rc, _, _ = ctx.cli(["analyze", "--state", f_nan])

    s1, s2 = refs.random_state(rng), refs.random_state(rng)
    pairs = [] if tiny else [(s1, s2), (refs.disguise(s1, rng), refs.disguise(s1, rng))]
    solve_s, loceq_err = [0.0], 0.0
    for k, (a, b) in enumerate(pairs):
        tracer.begin_op("probe.fs_haar")
        t0 = time.perf_counter()
        angle = api.fubini_study_angle(a, b, seed=int(rng.integers(0, 2**31)))
        solve_s.append(time.perf_counter() - t0)
        tracer.end_op()
        if k == 1:
            loceq_err = angle
    return {
        "probe.scaled_states.fail_share": (fails / n, "ratio"),
        "probe.cli_nan.accepted": (int(rc == 0), "count"),
        "probe.fs_haar.s_max": (max(solve_s), "s"),
        "probe.fs_haar.loceq_err_deg": (loceq_err, "deg"),
    }


def cli_probe(ctx, api, rng):
    """One of each CLI command, for workloads that do not run the CLI."""
    tally = Tally()
    for op in cli_session(ctx, rng, 0):
        run_op(op, api, tally, {}, api.tracer)
