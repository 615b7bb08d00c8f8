"""The four workloads: seeded inputs, the timed calls and their checks.

Each workload yields rounds; a round is a fixed mix of operations so that
every seed asks for the same kinds of work in the same proportions. Inputs
come from ``numpy.random.default_rng(seed)`` and the library receives only
the generated inputs. Checks compare against ``refs``, which never calls
the library, or against a second public route the library documents
(``sequence_unitary`` against ``apply``, the dual against the Hilbert picture).
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

import refs
from harness import Op

PAIRS = ("ab", "bc", "ac")
#: partition whose 6-vector carries each qubit pair
PAIR_PARTITION = {"ab": 3, "bc": 1, "ac": 2}
SPECTATOR = {"ab": 2, "bc": 0, "ac": 1}


class Ctx:
    """What operations share within one run."""

    def __init__(self, tv, margins, src: str, workdir: str):
        self.tv = tv
        self.m = margins
        self.src = src
        self.workdir = workdir
        self.quality = {"fs_err_deg": 0.0, "ascent_gap": 0.0}
        self.child_rss_mb = 0.0

    def cli(self, argv, tracer=None, span: str | None = None):
        """Run ``python -m tanglevec.cli argv`` and wait for it.

        Returns (exit code, stdout, stderr); a traced call records a span
        from spawn to exit.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src + os.pathsep + env.get("PYTHONPATH", "")
        out_path = os.path.join(self.workdir, "stdout.txt")
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "tanglevec.cli", *argv],
                                    stdout=out, stderr=err, env=env)
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_mb = max(self.child_rss_mb, usage.ru_maxrss / 1024)
        if tracer is not None and span is not None:
            tracer.record(f"cli.{span}", t0, t1)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        return proc.returncode, stdout, stderr

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path


def state_json(s) -> str:
    return json.dumps({"amplitudes": [[float(z.real), float(z.imag)] for z in s]})


def tol4(s, base: float) -> float:
    """Tolerance for a quantity of degree 4 in the amplitudes."""
    return base * max(1.0, float(np.vdot(s, s).real) ** 2)


# --- invariant-sweep --------------------------------------------------------

def _analyse(api, s) -> dict:
    return {"s": s, "v": api.abc_vectors(s), "g": api.gauge_phase(s),
            "t": api.tangle_set(s), "pl": api.plucker_residual(s),
            "ckw": api.ckw_residual(s), "bt": api.bipartite_tangles(s),
            "q": [api.q_vector(s, p) for p in (1, 2, 3)]}


def check_analysis(m, r) -> None:
    """Every output of one analysis against the density/hyperdeterminant route."""
    s = r["s"]
    tol = tol4(s, 1e-10)
    ref = refs.tangle_set(s)
    got = r["t"].as_dict()
    m.check("tangles", max(abs(got[k] - ref[k]) for k in ref), tol, "tangle_set")
    bt_ref = (ref["tau_a_bc"], ref["tau_b_ca"], ref["tau_c_ab"])
    m.check("tangles", max(abs(a - b) for a, b in zip(r["bt"], bt_ref)), tol,
            "bipartite_tangles")
    v = r["v"]
    na, nb, nc = refs.vector_norms(s)
    got_n = [float(np.vdot(x, x).real) for x in (v.a, v.b, v.c)]
    m.check("vectors", max(abs(g - e) for g, e in zip(got_n, (na, nb, nc))), tol,
            "|A|^2, |B|^2, |C|^2")
    aa = -refs.hyperdeterminant(s)
    m.check("vectors", max(abs(x @ x - aa) for x in (v.a, v.b, v.c)), tol, "V.V")
    # partition p packs (V_first, -i V_second): 3 -> (A, B), 1 -> (B, C), 2 -> (C, A)
    pair_norm = {3: na + nb, 1: nb + nc, 2: nc + na}
    for q in r["q"]:
        m.check("vectors", abs(float(np.vdot(q.q, q.q).real) - pair_norm[q.partition]),
                tol, "6-vector norm")
    scale = tol4(s, 1.0)
    if abs(aa) > 1e-8 * scale:
        m.expect("vectors", r["g"].defined, "gauge undefined for nonzero A.A")
        m.check("vectors", abs(np.exp(2j * r["g"].phi_a) - aa / abs(aa)), 1e-8, "gauge")
    elif abs(aa) < 1e-12 * scale:
        m.expect("vectors", not r["g"].defined, "gauge defined for zero A.A")
    m.check("identities", r["pl"], tol4(s, 1e-12), "plucker_residual")
    m.check("identities", r["ckw"], tol4(s, 1e-11), "ckw_residual")


def invariant_sweep(ctx: Ctx, rng, tiny: bool = False):
    """States analysed end to end; no gates and no optimizers.

    Per round: 26 Haar states made by ``random_state``, 4 Acin-family and 4
    degenerate states (GHZ, W, product, biseparable; all but GHZ take the
    undefined-gauge branch) read from JSON and normalized (main), and 6
    quaternionic states that also run the quaternionic route (second).
    """
    m = ctx.m

    def haar(k):
        return Op("main", "haar", lambda api: _analyse(api, api.random_state(k)),
                  lambda r: check_analysis(m, r))

    def from_json(name, s):
        text = state_json(s)
        return Op("main", name,
                  lambda api: _analyse(api, api.normalize(api.state_from_json(text))),
                  lambda r: check_analysis(m, r))

    def quat(x, y):
        text = state_json(refs.quaternionic_amplitudes(x, y))

        def run(api):
            r = _analyse(api, api.normalize(api.state_from_json(text)))
            qs = api.is_quaternionic(r["s"])
            r["qt"] = None if qs is None else api.tangles_quaternionic(qs)
            return r

        def check(r):
            check_analysis(m, r)
            m.expect("quaternionic", r["qt"] is not None, "is_quaternionic missed the state")
            ref = refs.tangle_set(r["s"])
            m.check("quaternionic", max(abs(getattr(r["qt"], k) - ref[k]) for k in ref),
                    1e-10, "tangles_quaternionic")
        return Op("second", "quaternionic", run, check)

    def degenerate(j):
        if j == 0:
            s = refs.ghz()
        elif j == 1:
            s = refs.w_state(rng.uniform(0.1, 1.47), rng.uniform(-np.pi, np.pi))
        elif j == 2:
            s = np.kron(np.kron(_qubit(rng), _qubit(rng)), _qubit(rng))
        else:   # one qubit split off a random two-qubit state
            t = np.kron(_qubit(rng), refs.random_state(rng)[:4]).reshape(2, 2, 2)
            t = np.moveaxis(t, 0, int(rng.integers(0, 3)))
            s = t.reshape(8) / np.linalg.norm(t)
        return from_json(("ghz", "w", "product", "biseparable")[j], refs.disguise(s, rng))

    n_haar, n_acin, n_quat = (3, 1, 1) if tiny else (26, 4, 6)
    while True:
        ops = [haar(int(k)) for k in rng.integers(0, 2**62, n_haar)]
        for _ in range(n_acin):
            lam = rng.standard_normal(5)
            ops.append(from_json("acin", refs.acin_state(lam / np.linalg.norm(lam))))
        ops += [degenerate(j) for j in range(4)]
        for _ in range(n_quat):
            v = rng.standard_normal(8)
            v /= np.linalg.norm(v) * np.sqrt(2)
            ops.append(quat(v[:4], v[4:]))
        yield ops


def _qubit(rng):
    v = rng.standard_normal(4)
    q = v[:2] + 1j * v[2:]
    return q / np.linalg.norm(q)


# --- gate-synthesis ---------------------------------------------------------

def random_steps(rng, pair: str, n: int) -> list:
    """Plain steps: locals on any qubit, couplings on ``pair`` only, phases."""
    steps = []
    for _ in range(n):
        kind = rng.choice(3, p=(0.5, 0.35, 0.15))
        if kind == 0:
            steps.append(("local", "abc"[rng.integers(0, 3)], rng.uniform(-3, 3, 3)))
        elif kind == 1:
            p = pair if rng.integers(0, 2) else pair[::-1]
            steps.append(("coupling", p, rng.uniform(-2, 2, (3, 3))))
        else:
            steps.append(("phase", None, float(rng.uniform(-np.pi, np.pi))))
    return steps


def library_steps(tv, steps) -> list:
    out = []
    for kind, target, params in steps:
        if kind == "local":
            out.append(tv.LocalStep(target, tuple(float(x) for x in params)))
        elif kind == "coupling":
            out.append(tv.CouplingStep(target, params))
        else:
            out.append(tv.PhaseStep(params))
    return out


def sequence_json(steps) -> str:
    return json.dumps([{"kind": k, "target": t or "",
                        "params": [float(x) for x in np.ravel(p)]} for k, t, p in steps])


def _check_evolution(ctx, r, ref_u=None):
    seq, s, p, out, q = r
    m, tv = ctx.m, ctx.tv
    m.check("unitary", np.abs(tv.sequence_unitary(seq) @ s - out).max(), 1e-11,
            "sequence_unitary vs apply")
    if ref_u is not None:
        m.check("unitary", np.abs(ref_u @ s - out).max(), 1e-11, "reference matrices")
    m.check("dual", np.abs(tv.q_vector(out, p).q - q.q).max(), 1e-10, "evolve_q vs apply")
    return len(seq)


def gate_synthesis(ctx: Ctx, rng, tiny: bool = False):
    """Gate steps in both pictures (main) and the analytic protocols (second).

    Per round: 4 short named-gate sequences and 1 long sequence of 20-40
    mixed steps (main, counted in gate steps), then coupling-core, W to GHZ,
    both maximization variants and the quaternionic reduction (second).
    The first round also checks the generator map once.
    """
    tv, m = ctx.tv, ctx.m

    def evolve(api, seq, s, p):
        out = api.apply(seq, s)
        return seq, s, p, out, api.evolve_q(seq, api.q_vector(s, p))

    def short(pair, gates, s):
        p = PAIR_PARTITION[pair]

        def run(api):
            seq = []
            for name, loc in gates:
                seq += api.named_gate(name, loc)
            return evolve(api, seq, s, p)
        return Op("main", "short_sequence", run, lambda r: _check_evolution(ctx, r))

    def long(pair, steps, s):
        seq = library_steps(tv, steps)
        ref_u = refs.sequence_matrix(steps)
        return Op("main", "long_sequence",
                  lambda api: evolve(api, seq, s, PAIR_PARTITION[pair]),
                  lambda r: _check_evolution(ctx, r, ref_u))

    def core(alpha, pair):
        target = refs.pair_exp(pair, np.diag(alpha))

        def run(api):
            res = api.synthesize_coupling_core(alpha, pair)
            return res, api.sequence_unitary(res.sequence)

        def check(r):
            m.expect("protocol", r[0].meta["coupling_steps"] == 3, "coupling count")
            m.check("protocol", refs.phase_distance(r[1], target), 1e-10, "coupling core")
        return Op("second", "coupling_core", run, check)

    def w_to_ghz(theta, phi):
        w, ghz = refs.w_state(theta, phi), refs.ghz()

        def run(api):
            return api.apply(api.w_to_ghz_sequence(theta, phi).sequence, w)
        return Op("second", "w_to_ghz", run, lambda out: m.check(
            "protocol", 1.0 - abs(np.vdot(ghz, out)), 1e-10, "W to GHZ fidelity"))

    def maximize(s, pair, variant):
        bound = refs.bipartite_tangles(s)[SPECTATOR[pair]]

        def run(api):
            return api.apply(api.maximize_three_tangle(s, pair, variant).sequence, s)
        return Op("second", "maximize", run, lambda out: m.check(
            "protocol", abs(refs.three_tangle(out) - bound), 1e-9, "tangle maximum"))

    def reduce(x, y):
        s = refs.quaternionic_amplitudes(x, y)

        def run(api):
            seq, params = api.reduce_to_acin(tv.QuaternionicState(x, y))
            return api.apply(seq, s), params

        return Op("second", "reduce_to_acin", run, lambda r: m.check(
            "protocol", np.abs(r[0] - refs.canonical_three_term(r[1].xi)).max(), 1e-9,
            "canonical form"))

    def commutators(api):
        return api.verify_commutators()

    first = True
    n_short = 1 if tiny else 4
    while True:
        ops = []
        if first:
            ops.append(Op("aux", "verify_commutators", commutators, lambda rep: m.expect(
                "protocol", rep.pairs == 105 and rep.max_discrepancy == 0, "generator map")))
            first = False
        for _ in range(n_short):
            pair = PAIRS[rng.integers(0, 3)]
            loc = pair if rng.integers(0, 2) else pair[::-1]
            name = ("CZ", "CNOT", "SWAP")[rng.integers(0, 3)]
            gates = [("H", "abc"[rng.integers(0, 3)]), (name, loc)]
            ops.append(short(pair, gates, refs.random_state(rng)))
        pair = PAIRS[rng.integers(0, 3)]
        ops.append(long(pair, random_steps(rng, pair, int(rng.integers(20, 41))),
                        refs.random_state(rng)))
        ops.append(core(rng.uniform(-np.pi, np.pi, 3), PAIRS[rng.integers(0, 3)]))
        ops.append(w_to_ghz(rng.uniform(0.15, 1.42), rng.uniform(-np.pi, np.pi)))
        for variant in ("economical", "single"):
            ops.append(maximize(refs.random_state(rng), PAIRS[rng.integers(0, 3)], variant))
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v) * np.sqrt(2)
        ops.append(reduce(v[:4], v[4:]))
        yield ops


# --- optimizer-search ---------------------------------------------------------

def fs_op(ctx: Ctx, kind: str, name: str, s1, s2, expected: float, tol: float, seed: int):
    """A Fubini-Study solve at the library defaults with a known answer."""
    def check(angle):
        err = abs(angle - expected)
        ctx.quality["fs_err_deg"] = max(ctx.quality["fs_err_deg"], err)
        ctx.m.check("fs", err, tol, name)
    return Op(kind, name, lambda api: api.fubini_study_angle(s1, s2, seed=seed), check)


def ascent_op(ctx: Ctx, kind: str, s, pair: str, seed: int):
    """A tangle-ascent run at the library defaults, bounded by the spectator's tangle."""
    bound = refs.bipartite_tangles(s)[SPECTATOR[pair]]
    start = refs.three_tangle(s)

    def check(best):
        ctx.quality["ascent_gap"] = max(ctx.quality["ascent_gap"], bound - best)
        ctx.m.check("ascent", max(0.0, best - bound), 1e-6, "oracle above the bound")
        ctx.m.check("ascent", max(0.0, start - best), 1e-9, "oracle below the start")
    return Op(kind, "ascent", lambda api: api.tangle_ascent_oracle(s, pair, seed=seed), check)


LOCEQ_STATES = ("w", "ghz", "biseparable_w", "mixed_w")


def optimizer_search(ctx: Ctx, rng, tiny: bool = False):
    """Fubini-Study solves (main) and tangle-ascent runs (second).

    Per round: the four milestone pairs against GHZ, each state under a
    fresh random local disguise (30, 45, 37.58 and 9.7356 degrees, to
    0.01), and four locally-equivalent pairs (s, U s) of the W, GHZ,
    biseparable-W and mixed-W states (angle below 1e-6 degrees); then 16
    ascents on Haar states with a random pair. Solve times run from 0.02 s
    to 1.4 s, so the mix has fast and slow convergence.
    """
    milestones = refs.fs_milestones()
    named = {name: s for name, s, _ in milestones}
    named["ghz"] = refs.ghz()
    n_asc = 2 if tiny else 16

    def seed():
        return int(rng.integers(0, 2**31))

    while True:
        ops = []
        picks = milestones[1:2] if tiny else milestones
        for name, s, angle in picks:
            ops.append(fs_op(ctx, "main", f"fs_{name}", refs.disguise(s, rng),
                             refs.disguise(refs.ghz(), rng), angle, 0.01, seed()))
        for name in (("ghz",) if tiny else LOCEQ_STATES):
            s = named[name]
            ops.append(fs_op(ctx, "main", f"fs_loceq_{name}", refs.disguise(s, rng),
                             refs.disguise(s, rng), 0.0, 1e-6, seed()))
        for _ in range(n_asc):
            ops.append(ascent_op(ctx, "second", refs.random_state(rng),
                                 PAIRS[rng.integers(0, 3)], seed()))
        yield ops


# --- cli-cold ----------------------------------------------------------------

def strict_json(text: str):
    """The parsed report, or None when stdout is not JSON or holds NaN/Infinity."""
    def refuse(const):
        raise ValueError(const)
    try:
        return json.loads(text, parse_constant=refuse)
    except ValueError:       # JSONDecodeError is a ValueError too
        return None


def cli_op(ctx: Ctx, kind: str, span: str, argv, check_result, expect_rc: int = 0):
    """One CLI invocation in a fresh process; ``check_result`` sees the report."""
    m = ctx.m

    def check(r):
        rc, stdout, stderr = r
        m.expect("cli", rc == expect_rc, f"{span}: exit {rc}, expected {expect_rc}: "
                 f"{stderr.strip()[-200:]}")
        if expect_rc != 0:
            m.expect("cli", stdout.strip() == "" and stderr.startswith("error:"),
                     f"{span}: refusal without a typed error")
            return
        report = strict_json(stdout)
        m.expect("cli", report is not None, f"{span}: stdout is not strict JSON")
        check_result(report["result"])

    return Op(kind, span, lambda api: ctx.cli(argv, api.tracer, span), check)


def cli_session(ctx: Ctx, rng, r: int, tiny: bool = False) -> list:
    """The commands of one shell session, on files this session writes."""
    m = ctx.m
    s = refs.random_state(rng)
    f_state = ctx.write(f"s{r}.json", state_json(s))
    ops = []

    def analyze(res):
        ref = refs.tangle_set(s)
        m.check("cli", max(abs(res["tangles"][k] - ref[k]) for k in ref), 1e-10, "analyze")

    ops.append(cli_op(ctx, "main", "analyze", ["analyze", "--state", f_state], analyze))
    f_seven = ctx.write(f"seven{r}.json", json.dumps(
        {"amplitudes": json.loads(state_json(s))["amplitudes"][:7]}))
    ops.append(cli_op(ctx, "main", "refuse", ["analyze", "--state", f_seven], None, 1))
    if not tiny:
        ops += _cli_session_rest(ctx, rng, r, s, f_state)
    ops.append(cli_op(ctx, "second", "verify_map", ["verify-map"], lambda res: m.expect(
        "cli", res["ok"] and res["pairs"] == 105, "verify-map")))
    return ops


def _cli_session_rest(ctx, rng, r, s, f_state) -> list:
    m = ctx.m
    ops = []
    pair = PAIRS[rng.integers(0, 3)]
    steps = random_steps(rng, pair, 12)
    f_seq = ctx.write(f"seq{r}.json", sequence_json(steps))
    s_out = refs.sequence_matrix(steps) @ s

    def evolve(res):
        got = np.array([complex(*z) for z in res["state"]["amplitudes"]])
        m.check("cli", np.abs(got - s_out).max(), 1e-10, "evolve state")
        m.check("cli", res["dual_residual"], 1e-10, "evolve dual residual")

    ops.append(cli_op(ctx, "main", "evolve", ["evolve", "--state", f_state, "--sequence",
                                               f_seq, "--partition", str(PAIR_PARTITION[pair])],
                      evolve))
    f_zz = ctx.write(f"zz{r}.json", sequence_json([("coupling", "zz", np.eye(3))]))
    ops.append(cli_op(ctx, "main", "refuse", ["evolve", "--state", f_state, "--sequence",
                                               f_zz], None, 1))
    mpair = PAIRS[rng.integers(0, 3)]
    bound = refs.bipartite_tangles(s)[SPECTATOR[mpair]]
    variant = ("economical", "single")[rng.integers(0, 2)]
    ops.append(cli_op(ctx, "main", "maximize",
                      ["maximize-tangle", "--state", f_state, "--pair", mpair,
                       "--variant", variant],
                      lambda res: m.check("cli", abs(res["achieved"] - bound), 1e-9, "maximize")))
    alpha = ",".join(repr(float(a)) for a in rng.uniform(-np.pi, np.pi, 3))
    ops.append(cli_op(ctx, "main", "synth_core", ["synthesize", "coupling-core", f"--alpha={alpha}"],
                      lambda res: m.check("cli", res["achieved_distance"], 1e-10, "coupling core")))
    theta, phi = rng.uniform(0.15, 1.42), rng.uniform(-np.pi, np.pi)
    ops.append(cli_op(ctx, "main", "synth_w2g",
                      ["synthesize", "w-to-ghz", f"--theta={theta!r}", f"--phi={phi!r}"],
                      lambda res: m.check("cli", 1.0 - res["achieved_fidelity"], 1e-10, "W to GHZ")))
    v = rng.standard_normal(8)
    v /= np.linalg.norm(v) * np.sqrt(2)
    f_quat = ctx.write(f"q{r}.json", state_json(refs.quaternionic_amplitudes(v[:4], v[4:])))
    ops.append(cli_op(ctx, "main", "quat_check", ["quat", "check", "--state", f_quat],
                      lambda res: m.expect("cli", res["quaternionic"], "quat check")))
    xs, ys = (",".join(repr(float(a)) for a in part) for part in (v[:4], v[4:]))

    def reduce(res):
        got = np.array([complex(*z) for z in res["final_state"]["amplitudes"]])
        m.check("cli", np.abs(got - refs.canonical_three_term(res["xi"])).max(), 1e-9, "reduce")

    ops.append(cli_op(ctx, "main", "quat_reduce", ["quat", "reduce", f"--x={xs}", f"--y={ys}"], reduce))
    seed = str(int(rng.integers(0, 2**31)))
    ops.append(cli_op(ctx, "second", "verify", ["verify", "-N", "1000", "--seed", seed],
                      lambda res: m.expect("cli", res["pass"] and res["states"] == 1000, "verify")))
    ops.append(cli_op(ctx, "second", "verify_quat",
                      ["verify", "--suite", "quaternionic", "-N", "200", "--seed", seed],
                      lambda res: m.expect("cli", res["pass"], "verify quaternionic")))
    _, w, angle = refs.fs_milestones()[0]
    f_w = ctx.write(f"w{r}.json", state_json(refs.disguise(w, rng)))
    f_ghz = ctx.write(f"ghz{r}.json", state_json(refs.disguise(refs.ghz(), rng)))
    ops.append(cli_op(ctx, "second", "fs_angle",
                      ["fs-angle", "--state1", f_w, "--state2", f_ghz, "--seed", seed],
                      lambda res: m.check("cli", abs(res["angle_degrees"] - angle), 0.01, "fs-angle")))
    return ops


def cli_cold(ctx: Ctx, rng, tiny: bool = False):
    """One single-state command per fresh process, as a shell user runs them.

    A session runs analyze, evolve, maximize-tangle, both syntheses, quat
    check and reduce, and two malformed inputs (7 amplitudes, coupling
    target "zz") that must exit 1 with a typed error (main), then
    verify-map, verify -N 1000, verify --suite quaternionic -N 200 and
    fs-angle on a disguised W/GHZ pair (second).
    """
    r = 0
    while True:
        yield cli_session(ctx, rng, r, tiny)
        r += 1


#: name -> (rounds factory, warm-up call timed in setup_s)
WORKLOADS = {
    "invariant-sweep": (invariant_sweep,
                        "import tanglevec as tv; tv.tangle_set(tv.random_state(0))"),
    "gate-synthesis": (gate_synthesis,
                       "import tanglevec as tv; "
                       "tv.apply(tv.named_gate('CNOT', 'ab'), tv.random_state(0))"),
    "optimizer-search": (optimizer_search,
                         "import tanglevec as tv; "
                         "tv.fubini_study_angle(tv.make_ghz(), tv.make_ghz(), restarts=1)"),
    "cli-cold": (cli_cold, "import tanglevec.cli as cli; cli.build_parser()"),
}
