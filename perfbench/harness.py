"""Closed-loop runner, goodput accounting and benchmark-side tracing.

A workload is a sequence of rounds; a round is a fixed mix of operations.
One client runs the operations one after another, each waiting for the
previous one (a closed loop, as a script or a shell user does). Only the
call into the library is timed; the check of its output runs after the
timer stops. An operation that raises, or whose output fails its check,
counts as failed, and every throughput counts passed operations only.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

#: Public functions timed in the traced run, by layer. The layer is the
#: module whose code does the work, so the optimizers sit under "kernels"
#: (the _kernels module; a metric name may not start with "_").
LAYERS = {
    "states": ("random_state", "normalize", "state_from_json"),
    "vectors": ("abc_vectors", "gauge_phase", "q_vector", "plucker_residual"),
    "tangles": ("tangle_set", "ckw_residual", "bipartite_tangles"),
    "quaternionic": ("is_quaternionic", "tangles_quaternionic", "reduce_to_acin"),
    "gates": ("apply", "sequence_unitary", "named_gate"),
    "so6": ("evolve_q", "verify_commutators"),
    "synthesis": ("synthesize_coupling_core", "w_to_ghz_sequence",
                  "maximize_three_tangle"),
    "kernels": ("fubini_study_angle", "tangle_ascent_oracle"),
}
#: CLI commands, timed per process from spawn to exit
CLI_COMMANDS = ("analyze", "evolve", "maximize", "synth_core", "synth_w2g",
                "quat_check", "quat_reduce", "refuse", "verify_map", "verify",
                "verify_quat", "fs_angle")
#: checks whose worst residual/tolerance is reported as margin.<check>
CHECKS = ("tangles", "vectors", "identities", "quaternionic", "unitary", "dual",
          "protocol", "fs", "ascent", "cli")


#: margin reported for a failed check that has no residual (kept finite for JSON)
FAILED_MARGIN = 1e9


class CheckFailed(Exception):
    """The output of an operation disagrees with its reference."""


class Margins:
    """Worst residual/tolerance per check, over the outputs checked."""

    def __init__(self):
        self.worst = {c: 0.0 for c in CHECKS}

    def check(self, name: str, residual: float, tol: float, what: str = ""):
        m = float(residual) / tol
        if not m <= 1.0:        # also catches NaN, reported as FAILED_MARGIN
            self.worst[name] = max(self.worst[name], m if m == m else FAILED_MARGIN)
            raise CheckFailed(f"{name} {what}: residual {residual:.3e} > tol {tol:.1e}")
        self.worst[name] = max(self.worst[name], m)

    def expect(self, name: str, ok: bool, what: str):
        if not ok:
            self.worst[name] = max(self.worst[name], FAILED_MARGIN)
            raise CheckFailed(f"{name}: {what}")


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` runs untimed on its output.

    ``kind`` is "main" or "second" for the two throughputs, or "aux" for an
    operation that is checked and counted but feeds neither. ``check``
    raises CheckFailed or returns the units of work done (gate steps for a
    sequence); None means one.
    """
    kind: str
    name: str
    run: Callable
    check: Callable


class Tracer:
    """In-memory spans: (span id, name, start, end, parent span, operation id)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._op = None          # (span id, op id, name, start) while an op runs
        self._next = 0

    def _new_id(self) -> int:
        self._next += 1
        return self._next

    def begin_op(self, name: str):
        sid = self._new_id()
        self._op = (sid, sid, f"op.{name}", time.perf_counter())

    def end_op(self):
        sid, oid, name, start = self._op
        self.spans.append((sid, name, start, time.perf_counter(), None, oid))
        self._op = None

    def record(self, name: str, start: float, end: float):
        parent, oid = (self._op[0], self._op[1]) if self._op else (None, None)
        self.spans.append((self._new_id(), name, start, end, parent, oid))

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.record(name, t0, time.perf_counter())
        return traced


class Api:
    """The timed public functions, each wrapped in a span when traced."""

    def __init__(self, tv, tracer: Tracer | None = None):
        self.tracer = tracer
        for layer, names in LAYERS.items():
            for n in names:
                fn = getattr(tv, n)
                setattr(self, n, fn if tracer is None else tracer.wrap(f"{layer}.{n}", fn))


class Clock:
    """Machine speed, from a fixed calibration block timed during the run.

    A shared 2-core machine drifts in speed by 15-30 % between runs, and by
    up to 2x when a neighbour's load comes or goes, which would swamp a
    change in the library. Before an operation, ``tick`` times the block
    (the faster of two runs) when the last timing is older than EVERY
    seconds. ``factor`` is (nominal / median of the run's timings) to the
    power SENSITIVITY: dividing a rate measured in the run by it gives the
    rate on a machine that runs the block in ``nominal`` seconds. The block
    never calls the library, so a change in the library does not move it.
    """

    EVERY = 0.2
    # The library's goodput moves less than the block when the machine
    # drifts: over twenty sets of 8-10 runs on a 2-core box, the slope of log
    # goodput against log block speed was mostly 0.55-0.75. The square root
    # took the worst IQR/median of a set from 25 % (unscaled) and 20 % (full
    # scaling) down to 18 %, and the mean from 16 % and 11 % to 9 %.
    SENSITIVITY = 0.5

    def __init__(self, block: Callable, nominal: float):
        self.block = block
        self.nominal = nominal
        self.timings: list[float] = []
        self.last = float("-inf")

    def tick(self):
        if time.perf_counter() - self.last > self.EVERY:
            runs = []
            for _ in range(2):
                t0 = time.perf_counter()
                self.block()
                runs.append(time.perf_counter() - t0)
            self.timings.append(min(runs))
            self.last = time.perf_counter()

    def factor(self) -> float:
        if not self.timings:
            self.tick()
        return (self.nominal / statistics.median(self.timings)) ** self.SENSITIVITY


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    # per kind: list of (passed units, busy seconds) per complete round
    rounds: dict = field(default_factory=lambda: {"main": [], "second": []})


def run_op(op: Op, api, tally: Tally, round_acc: dict, tracer: Tracer | None = None,
           clock: Clock | None = None):
    """Run, time and check one operation, and count it in ``tally``."""
    if clock is not None:
        clock.tick()
    tally.attempted += 1
    if tracer is not None:
        tracer.begin_op(op.name)
    t0 = time.perf_counter()
    try:
        out = op.run(api)
    except Exception as exc:      # a library error is a failed operation
        out, err = None, exc
    else:
        err = None
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    units = 0
    if err is None:
        try:
            units = op.check(out)
        except Exception as exc:  # CheckFailed, or output missing a field
            err = exc
        else:
            units = 1 if units is None else units
    if err is not None:
        tally.failed += 1
        if len(tally.failures) < 5:
            tally.failures.append(f"{op.name}: {type(err).__name__}: {err}")
    if op.kind in round_acc:
        done, secs = round_acc[op.kind]
        round_acc[op.kind] = (done + units, secs + dt)


def drive(rounds, api, seconds: float, tally: Tally, clock: Clock | None = None,
          tracer: Tracer | None = None, alt_api=None, alt_tally: Tally | None = None):
    """Run rounds until ``seconds`` of wall time have passed.

    Every complete round adds one (passed units, busy seconds) sample per
    kind. With ``alt_api`` given, rounds alternate between ``api`` and
    ``alt_api`` (traced and untraced) and the second set goes to
    ``alt_tally``; the comparison gives the tracing overhead.
    """
    deadline = time.perf_counter() + seconds

    def may_stop():
        # stop only once every set has a complete round
        return bool(tally.rounds["main"]) and (
            alt_tally is None or bool(alt_tally.rounds["main"]))

    use_alt = False
    for ops in rounds:
        t_api, t_tally = (alt_api, alt_tally) if use_alt else (api, tally)
        t_tracer = None if use_alt else tracer
        acc = {"main": (0, 0.0), "second": (0, 0.0)}
        cut = may_stop()
        for op in ops:
            run_op(op, t_api, t_tally, acc, t_tracer, clock)
            if cut and time.perf_counter() >= deadline:
                return
        for kind, (units, secs) in acc.items():
            if secs > 0:
                t_tally.rounds[kind].append((units, secs))
        if time.perf_counter() >= deadline and may_stop():
            return
        use_alt = alt_api is not None and not use_alt


def rate(samples) -> float:
    """Goodput: passed units over busy seconds, pooled over complete rounds.

    Pooling keeps the fixed mix of a round, and a sum averages the
    variation between inputs best.
    """
    secs = sum(s for _, s in samples)
    return sum(u for u, _ in samples) / secs if secs > 0 else 0.0


def tail(values):
    """(highest percentile with >= 10 samples beyond it, its value).

    When that percentile would fall below the median (fewer than 21
    samples) the maximum is reported instead, as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    k = n - 11
    if k < (n - 1) / 2:
        return 100.0, xs[-1]
    return 100.0 * (k + 1) / n, xs[k]


def layer_metrics(spans) -> tuple[dict, list]:
    """Per-layer calls and busy time, per-function p50 and tail.

    Returns (metrics, detail lines giving each tail's percentile and count).
    """
    by_fn: dict[str, list] = {}
    for _sid, name, start, end, _parent, _oid in spans:
        if name.startswith("op."):
            continue
        by_fn.setdefault(name, []).append(end - start)
    metrics, lines = {}, []
    layers = dict(LAYERS)
    layers["cli"] = CLI_COMMANDS
    for layer, fns in layers.items():
        calls = busy = 0
        for fn in fns:
            d = by_fn.get(f"{layer}.{fn}", [])
            calls += len(d)
            busy += sum(d)
            unit, scale = ("s", 1.0) if layer == "cli" else ("us", 1e6)
            if d:
                pct, tv = tail(d)
                p50 = statistics.median(d)
                lines.append(f"{layer}.{fn}: n={len(d)} p50={p50 * scale:.4g}{unit} "
                             f"p{pct:.1f}={tv * scale:.4g}{unit}")
            else:
                p50 = tv = 0.0
            metrics[f"{layer}.{fn}.{unit}_p50"] = (p50 * scale, unit)
            metrics[f"{layer}.{fn}.{unit}_tail"] = (tv * scale, unit)
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.busy_s"] = (busy, "s")
    return metrics, lines
