"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the measured runtimes. The optimizer kernels are warmed up once
per session before any timed section so JIT compilation never pollutes a
runtime budget.
"""
import time

import numpy as np
import pytest

from tanglevec import (CouplingStep, LocalStep, PhaseStep, abc_vectors, apply,
                       bipartite_tangle_from_density,
                       bipartite_tangles, ckw_residual, evolve_q, extremum_residual, fidelity_up_to_phase,
                       fubini_study_angle, is_quaternionic, make_acin,
                       make_asymmetric_w, make_ghz, maximize_three_tangle,
                       named_gate, plucker_residual,
                       q_vector, random_state, synthesize_coupling_core, tangle_ascent_oracle,
                       tangle_set, three_tangle, two_tangles,
                       verify_commutators, w_to_ghz_sequence)
from tanglevec.quaternionic import (QuaternionicState,
                                    abc_quaternionic, reduce_to_acin,
                                    tangles_quaternionic, to_state,
                                    usp_generators)
from tanglevec.states import PARTITION_PAIR, PARTITION_SPECTATOR
from conftest import PICTURE_ORDERS, both_pictures, checked_tangle_set
from test_quaternionic import _reduce_reference

STD_THETA = np.arccos(1 / np.sqrt(3))
GHZ = make_ghz()


def _line(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_ghz_invariants():
    s = make_ghz()
    checked_tangle_set(s)  # also warms numpy dispatch before timing
    t0 = time.perf_counter()
    v = abc_vectors(s)
    ts = tangle_set(s)
    elapsed = time.perf_counter() - t0
    expect = np.array([0, 0, 0.5])
    vec_err = max(np.abs(v.a - expect).max(), np.abs(v.b - expect).max(),
                  np.abs(v.c - expect).max())
    tangle_err = max(abs(ts.tau_abc - 1), ts.tau_bc, ts.tau_ac, ts.tau_ab,
                     abs(ts.tau_a_bc - 1), abs(ts.tau_b_ca - 1),
                     abs(ts.tau_c_ab - 1))
    ok = vec_err < 1e-12 and tangle_err < 1e-12 and elapsed < 1e-3
    _line(1, ok, f"vector err {vec_err:.2e}, tangle err {tangle_err:.2e}, "
                 f"runtime {elapsed*1e3:.3f} ms (< 1 ms)")


def test_criterion_2_plucker_ckw_sweep():
    t0 = time.perf_counter()
    worst_p = worst_c = 0.0
    for seed in range(1000):
        s = random_state(seed)
        worst_p = max(worst_p, plucker_residual(s))
        worst_c = max(worst_c, ckw_residual(s))
        checked_tangle_set(s)
    elapsed = time.perf_counter() - t0
    ok = worst_p < 1e-12 and worst_c < 1e-11 and elapsed < 1.0
    _line(2, ok, f"1000 states: plucker worst {worst_p:.2e} (< 1e-12), "
                 f"ckw worst {worst_c:.2e} (< 1e-11), runtime {elapsed:.2f} s (< 1 s)")


def test_criterion_3_bipartite_oracle_equivalence():
    worst = 0.0
    for seed in range(1000):
        s = random_state(seed)
        taus = bipartite_tangles(s)
        for tau, q in zip(taus, "abc"):
            worst = max(worst, abs(tau - bipartite_tangle_from_density(s, q)))
    ok = worst < 1e-12
    _line(3, ok, f"1000 states x 3 qubits: vector vs density route "
                 f"worst {worst:.2e} (< 1e-12)")


def _random_representable_sequence(rng, partition, n_steps=5):
    first, second = PARTITION_PAIR[partition]
    spect = PARTITION_SPECTATOR[partition]
    seq = []
    for _ in range(n_steps):
        kind = rng.integers(0, 3)
        if kind == 0:
            q = (first, second, spect)[rng.integers(0, 3)]
            seq.append(LocalStep(q, tuple(rng.uniform(-3, 3, 3))))
        elif kind == 1:
            p = first + second if rng.random() < 0.5 else second + first
            seq.append(CouplingStep(p, rng.uniform(-2, 2, (3, 3))))
        else:
            seq.append(PhaseStep(float(rng.uniform(-np.pi, np.pi))))
    return seq


def test_criterion_4_generator_map_and_dual_evolution():
    rep = verify_commutators()
    rng = np.random.default_rng(404)
    worst = 0.0
    for k in range(500):
        partition = int(rng.integers(1, 4))
        s = random_state(10_000 + k)
        seq = _random_representable_sequence(rng, partition)
        # fresh steps, and steps one picture or both already applied
        for order in PICTURE_ORDERS:
            via_so6, via_hilbert = both_pictures(seq, s, partition, order)
            worst = max(worst, float(np.abs(via_so6 - via_hilbert).max()))
    ok = rep.max_discrepancy == 0 and rep.pairs == 105 and worst < 1e-10
    _line(4, ok, f"105 commutator pairs discrepancy {rep.max_discrepancy} "
                 f"(exactly 0); dual evolution over 500 five-step sequences, "
                 f"fresh and used, worst {worst:.2e} (< 1e-10)")


def test_criterion_5_named_gate_duals():
    worst = 0.0
    for seed in range(50):
        q0 = q_vector(random_state(seed), 3)
        a1, a2, a3, b1, b2, b3 = q0.q
        preds = {
            "CZ": np.array([-1j * a2, 1j * a1, -1j * b3, -1j * b2, 1j * b1, 1j * a3]),
            # the published fifth component of the CNOT action carries a sign
            # typo; the determinant-one form used here is the one the
            # amplitude evolution actually produces
            "CNOT": np.array([-1j * a2, 1j * a1, -1j * b1, 1j * a3, -1j * b3, 1j * b2]),
            "SWAP": np.concatenate([1j * q0.q[3:], -1j * q0.q[:3]]),
        }
        for name, pred in preds.items():
            got = evolve_q(named_gate(name, "ab"), q0)
            worst = max(worst, float(np.abs(got.q - pred).max()))
    ok = worst < 1e-12
    _line(5, ok, f"CZ/CNOT/SWAP dual actions on 50 random 6-vectors: "
                 f"worst {worst:.2e} (< 1e-12)")


def test_criterion_6_three_cz_synthesis():
    rng = np.random.default_rng(606)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        alpha = rng.uniform(-np.pi, np.pi, 3)
        res = synthesize_coupling_core(alpha)
        worst = max(worst, res.achieved)
        assert res.meta["coupling_steps"] == 3
        assert np.abs(np.array(res.meta["coupling_strengths"]) - np.pi / 4).max() < 1e-14
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _line(6, ok, f"100 random alphas: worst operator distance {worst:.2e} "
                 f"(< 1e-10), 3 couplings at pi/4 each, runtime {elapsed:.2f} s (< 1 s)")


def test_criterion_7_w_to_ghz():
    t0 = time.perf_counter()
    res = w_to_ghz_sequence(STD_THETA, np.pi / 4)
    final = apply(res.sequence, make_asymmetric_w(STD_THETA, np.pi / 4))
    fid = fidelity_up_to_phase(final, GHZ)

    w = make_asymmetric_w(STD_THETA, np.pi / 4)
    w1 = apply(res.sequence[:1], w)
    after_std = fubini_study_angle(w1, GHZ, seed=7)

    wbs = make_asymmetric_w(np.pi / 4, 0.0)
    before_bs = fubini_study_angle(wbs, GHZ, seed=7)
    w1bs = apply(w_to_ghz_sequence(np.pi / 4, 0.0).sequence[:1], wbs)
    after_bs = fubini_study_angle(w1bs, GHZ, seed=7)

    amd = np.array([0.2175, 0.7778, 0.5895])
    th_md = float(np.arccos(amd[2] / np.linalg.norm(amd)))
    ph_md = float(np.arctan2(amd[1], amd[0]))
    wmd = make_asymmetric_w(th_md, ph_md)
    before_md = fubini_study_angle(wmd, GHZ, seed=7)
    w1md = apply(w_to_ghz_sequence(th_md, ph_md).sequence[:1], wmd)
    after_md = fubini_study_angle(w1md, GHZ, seed=7)
    elapsed = time.perf_counter() - t0

    ok = (fid >= 1 - 1e-10
          and abs(after_std - 9.7356) <= 0.01
          and abs(before_bs - 45.0) <= 0.01 and after_bs <= 0.01
          and abs(before_md - 37.58) <= 0.01 and abs(after_md - 8.87) <= 0.01
          and elapsed < 30.0)
    _line(7, ok,
          f"fidelity {fid:.12f} (>= 1-1e-10); milestones: standard-W after first "
          f"coupling {after_std:.4f} deg (9.7356 +- 0.01); bi-separable "
          f"{before_bs:.4f} -> {after_bs:.6f} deg (45 -> 0); mixed-coefficient "
          f"{before_md:.4f} -> {after_md:.4f} deg (37.58 -> 8.87); "
          f"runtime {elapsed:.1f} s (< 30 s)")


@pytest.mark.xfail(strict=True, reason=(
    "the upstream-reported 45-degree starting angle for the standard W state "
    "is not reproducible: an explicit locally-GHZ-equivalent state "
    "(|001>+|010>+|100>+|111>)/2 overlaps W at sqrt(3)/2, so the true "
    "optimum is 30 degrees and any competent optimizer finds it"))
def test_criterion_7_standard_w_start_milestone():
    w = make_asymmetric_w(STD_THETA, np.pi / 4)
    before = fubini_study_angle(w, GHZ, seed=7)
    assert abs(before - 45.0) <= 0.01


def test_criterion_7_standard_w_start_is_30_degrees():
    # documents the actual value underlying the xfail above, with an
    # explicit witness state from the GHZ orbit
    w = make_asymmetric_w(STD_THETA, np.pi / 4)
    before = fubini_study_angle(w, GHZ, seed=7)
    witness = np.zeros(8, dtype=complex)
    witness[[1, 2, 4, 7]] = 0.5
    assert abs(three_tangle(witness) - 1.0) < 1e-12      # GHZ class
    assert abs(fidelity_up_to_phase(witness, w) - np.sqrt(3) / 2) < 1e-12
    assert abs(before - 30.0) < 1e-6


def test_criterion_8_tangle_maximization():
    t0 = time.perf_counter()
    worst_gap = worst_two = worst_ext = worst_oracle = 0.0
    for k in range(200):
        s = random_state(20_000 + k)
        bound = checked_tangle_set(s).tau_c_ab
        res = maximize_three_tangle(s, "ab")
        worst_gap = max(worst_gap, abs(res.achieved - bound))
        out = apply(res.sequence, s)
        t_bc, t_ac, _ = two_tangles(out)
        worst_two = max(worst_two, t_bc, t_ac)
        worst_ext = max(worst_ext, extremum_residual(out))
        oracle = tangle_ascent_oracle(s, "ab", restarts=16, seed=k)
        worst_oracle = max(worst_oracle, abs(oracle - bound))
    elapsed = time.perf_counter() - t0
    ok = (worst_gap < 1e-9 and worst_two < 1e-8 and worst_ext < 1e-8
          and worst_oracle < 1e-10 and elapsed < 60.0)
    _line(8, ok,
          f"200 states: |achieved - bound| worst {worst_gap:.2e} (< 1e-9); "
          f"post two-tangles worst {worst_two:.2e} (< 1e-8); extremum residual "
          f"worst {worst_ext:.2e} (< 1e-8); 16-restart ascent oracle off the "
          f"bound by at most {worst_oracle:.2e} (< 1e-10); runtime {elapsed:.1f} s (< 60 s)")


def test_criterion_9_quaternionic_suite():
    rng = np.random.default_rng(909)
    worst_abc = worst_tan = worst_vec = worst_state = 0.0
    states = []
    for _ in range(200):
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v) * np.sqrt(2)
        states.append(QuaternionicState(v[:4], v[4:]))
    for qs in states:
        s = to_state(qs)
        va, vg = abc_quaternionic(qs), abc_vectors(s)
        worst_abc = max(worst_abc, float(np.abs(va.a - vg.a).max()),
                        float(np.abs(va.b - vg.b).max()),
                        float(np.abs(va.c - vg.c).max()))
        tq, tg = tangles_quaternionic(qs), checked_tangle_set(s)
        worst_tan = max(worst_tan, max(
            abs(getattr(tq, f) - getattr(tg, f)) for f in tq.__dataclass_fields__))
        # the vectors' canonical frame after stage (iii) is read from the
        # stage-by-stage reference; the final state from the library
        stages = _reduce_reference(qs)
        xi = stages["params"].xi
        v9 = abc_vectors(stages["canonical_state"])
        tgt_ac = np.array([0, 0, np.cos(xi)]) / 2
        tgt_b = np.array([0, 1, 1j * np.sin(xi)]) / 2
        worst_vec = max(worst_vec, float(np.abs(v9.a - tgt_ac).max()),
                        float(np.abs(v9.c - tgt_ac).max()),
                        float(np.abs(v9.b - tgt_b).max()))
        seq, params = reduce_to_acin(qs)
        fid = fidelity_up_to_phase(apply(seq, s), make_acin(params.lambdas))
        worst_state = max(worst_state, 1.0 - fid)

    # closure of the preserved generator set
    gens = usp_generators()
    closure_ok = True
    for g in gens.su4:
        t = float(rng.uniform(0.3, 2.0))
        h = -1j * (2.0 * g) * t
        w, vv = np.linalg.eigh(h)
        u8 = np.kron(np.eye(2), (vv * np.exp(1j * w)) @ vv.conj().T)
        closure_ok &= is_quaternionic(u8 @ to_state(states[0])) is not None

    # local equivalence of input and reduced output
    worst_fs = 0.0
    for qs in states[:12]:
        seq, _ = reduce_to_acin(qs)
        s = to_state(qs)
        worst_fs = max(worst_fs, fubini_study_angle(s, apply(seq, s), seed=1))

    ok = (worst_abc < 1e-11 and worst_tan < 1e-11 and closure_ok
          and worst_vec < 1e-8 and worst_state < 1e-8 and worst_fs < 1e-6)
    _line(9, ok,
          f"200 quaternionic states: vector formulas worst {worst_abc:.2e} "
          f"(< 1e-11), tangle formulas worst {worst_tan:.2e} (< 1e-11); "
          f"generator closure {'ok' if closure_ok else 'BROKEN'}; canonical "
          f"vectors worst {worst_vec:.2e} and state worst {worst_state:.2e} "
          f"(< 1e-8); local equivalence worst {worst_fs:.2e} deg (< 1e-6)")
