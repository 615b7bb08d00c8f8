import warnings

import numpy as np
import pytest

from tanglevec import (CouplingStep, DegenerateInput, GaugeUndefined,
                       LocalStep, QuaternionicState, ParseError, PhaseStep, abc_vectors, align_canonical, apply,
                       apply_gauge, bipartite_tangles, coupling_axis_step, extremum_residual,
                       fidelity_up_to_phase, fubini_study_angle, gauge_phase,
                       make_acin, make_asymmetric_w, make_ghz, maximize_three_tangle,
                       min_phase_distance, normalize, q_vector, quat_inv, random_state,
                       sequence_unitary, synthesize_coupling_core,
                       tangle_ascent_oracle, tangle_ascent_search, three_tangle,
                       two_tangles, w_to_ghz_sequence)
from tanglevec.synthesis import _canonical_pair, _random_su2_stack
from conftest import checked_tangle_set, count_calls, count_evaluations

STD_THETA = np.arccos(1 / np.sqrt(3))
GHZ = make_ghz()


# --- coupling core ----------------------------------------------------------

def test_protocols_build_their_fixed_steps_once():
    # the coupling core's three couplings and closing local, and the W to GHZ
    # protocol's first coupling and closing steps, are shared between calls
    for pair in ("ab", "bc", "ca"):
        s1 = synthesize_coupling_core([0.1, 0.2, 0.3], pair).sequence
        s2 = synthesize_coupling_core([0.4, 0.5, 0.6], pair).sequence
        assert [x is y for x, y in zip(s1, s2)] == [True, False, False, True, False, True, True]
    w1, w2 = (w_to_ghz_sequence(t, 0.3).sequence for t in (0.6, 0.7))
    assert [x is y for x, y in zip(w1, w2)] == [True, False, False, False] + [True] * 5


def test_coupling_core_zero_is_identity_up_to_phase():
    res = synthesize_coupling_core([0.0, 0.0, 0.0])
    u = sequence_unitary(res.sequence)
    assert min_phase_distance(u, np.eye(8, dtype=complex)) < 1e-12


@pytest.mark.parametrize("scale", [1e-160, 1e150])
def test_min_phase_distance_scales_with_its_inputs(scale):
    # a phase-shifted pair at unit scale, then the same pair scaled
    u = sequence_unitary(synthesize_coupling_core([0.3, -0.7, 1.1]).sequence)
    v = np.exp(0.9j) * u
    v[2, 5] += 1e-3
    ref = min_phase_distance(u, v)
    assert 1e-4 < ref < 1e-2
    assert abs(min_phase_distance(scale * u, scale * v) / (scale * ref) - 1.0) < 1e-12


@pytest.mark.parametrize("u, v", [
    (np.eye(2), np.eye(3)),
    (np.eye(2), np.ones(4)),
    (np.ones((1, 4)), np.ones(4)),
], ids=["2x2-3x3", "2x2-4", "1x4-4"])
def test_min_phase_distance_refuses_different_shapes(u, v):
    # refused by the one check, not by numpy's reshape or broadcast
    with pytest.raises(ParseError, match="one shape"):
        min_phase_distance(u, v)


def test_coupling_core_random_alphas(rng):
    for _ in range(25):
        alpha = rng.uniform(-np.pi, np.pi, 3)
        res = synthesize_coupling_core(alpha)
        assert res.achieved < 1e-10
        assert res.meta["coupling_steps"] == 3
        assert np.abs(np.array(res.meta["coupling_strengths"]) - np.pi / 4).max() < 1e-14


def test_coupling_core_so6_action_matches_block_form():
    alpha = np.array([np.pi / 2, 0.0, 0.0])
    res = synthesize_coupling_core(alpha)
    s = random_state(21)
    q0 = q_vector(s, 3)
    q1 = q_vector(apply(res.sequence, s), 3)
    target = np.block([[np.diag(np.cos(alpha)), -np.diag(np.sin(alpha))],
                       [np.diag(np.sin(alpha)), np.diag(np.cos(alpha))]])
    # equal up to the global-phase factor of the synthesized unitary
    got, want = q1.q, target @ q0.q
    ph = np.vdot(want, got)
    ph = ph / abs(ph)
    assert np.abs(got - ph * want).max() < 1e-10


def test_coupling_core_only_three_couplings():
    res = synthesize_coupling_core([0.3, 0.9, -1.4])
    kinds = [type(s).__name__ for s in res.sequence]
    assert kinds.count("CouplingStep") == 3
    for s in res.sequence:
        if isinstance(s, CouplingStep):
            nz = np.nonzero(s.theta)
            assert len(nz[0]) == 1
            assert abs(abs(s.theta[nz][0]) / 2 - np.pi / 4) < 1e-14


# --- W to GHZ ---------------------------------------------------------------

def test_w_to_ghz_standard():
    res = w_to_ghz_sequence(STD_THETA, np.pi / 4)
    out = apply(res.sequence, make_asymmetric_w(STD_THETA, np.pi / 4))
    assert fidelity_up_to_phase(out, GHZ) >= 1 - 1e-10
    assert res.meta["coupling_steps"] == 2


def test_w_to_ghz_intermediate_w1():
    # after the first coupling the state is the documented intermediate with
    # sqrt(2)-weighted components (checked up to global phase)
    seq = w_to_ghz_sequence(STD_THETA, np.pi / 4).sequence
    w1 = apply(seq[:1], make_asymmetric_w(STD_THETA, np.pi / 4))
    ref = np.zeros(8, dtype=complex)
    ref[1] = np.exp(0.25j * np.pi) * np.sqrt(2)
    ref[2] = 1j * np.exp(-0.25j * np.pi) * np.sqrt(2)
    ref[4] = 1.0
    ref[7] = 1.0j
    ref /= np.sqrt(6)
    assert fidelity_up_to_phase(w1, ref) >= 1 - 1e-12


def test_w_to_ghz_intermediate_six_vector():
    # after the coupling and the two z trims, (B, -iC) collapses to the
    # two-component pattern (0,-1,0,i,0,0); the prefactor sin(2 theta)/2 is
    # fixed by the conserved Hermitian norm (the 6-vector norm squared must
    # stay sin(2 theta)^2 / 2, half the spectator bipartite tangle)
    th, ph = 0.71, 0.52
    seq = w_to_ghz_sequence(th, ph).sequence
    w2 = apply(seq[:3], make_asymmetric_w(th, ph))
    q = q_vector(w2, 1).q
    pref = np.sin(2 * th) / 2
    expect = pref * np.array([0, -1, 0, 1j, 0, 0])
    assert np.abs(q - expect).max() < 1e-12
    assert abs(np.vdot(q, q).real - np.sin(2 * th) ** 2 / 2) < 1e-12


def test_w_to_ghz_biseparable_first_coupling_reaches_ghz_class():
    seq = w_to_ghz_sequence(np.pi / 4, 0.0).sequence
    w1 = apply(seq[:1], make_asymmetric_w(np.pi / 4, 0.0))
    assert fubini_study_angle(w1, GHZ, seed=3) < 1e-5


def test_w_to_ghz_random_angles(rng):
    for _ in range(5):
        th = rng.uniform(0.15, np.pi / 2 - 0.15)
        ph = rng.uniform(0.0, np.pi / 2)
        res = w_to_ghz_sequence(th, ph)
        out = apply(res.sequence, make_asymmetric_w(th, ph))
        assert fidelity_up_to_phase(out, GHZ) >= 1 - 1e-10


@pytest.mark.parametrize("theta", [0.0, np.pi / 2])
def test_w_to_ghz_degenerate(theta):
    with pytest.raises(DegenerateInput):
        w_to_ghz_sequence(theta, 0.3)


# --- canonical alignment ----------------------------------------------------

def test_align_canonical_form():
    for seed in range(10):
        g = apply_gauge(random_state(seed))
        steps = align_canonical(g, "ab")
        out = apply(steps, g) if steps else g
        v = abc_vectors(out)
        for vec in (v.a, v.b):
            assert abs(vec[1]) < 1e-10
            assert abs(np.imag(vec[0])) < 1e-10 and np.real(vec[0]) > -1e-12
            assert abs(np.real(vec[2])) < 1e-10 and np.imag(vec[2]) > -1e-12


def test_align_canonical_local_only():
    g = apply_gauge(random_state(3))
    assert all(isinstance(s, LocalStep) for s in align_canonical(g, "ab"))


def test_align_canonical_idempotent_form():
    g = apply_gauge(random_state(4))
    out = apply(align_canonical(g, "ab"), g)
    again = align_canonical(out, "ab")
    u = sequence_unitary(again)
    assert min_phase_distance(u, np.eye(8, dtype=complex)) < 1e-9


def test_align_canonical_real_vector_branch():
    # a state with A purely real after the gauge: second rotation drops out
    g = apply_gauge(make_ghz())
    steps = align_canonical(g, "ab")
    out = apply(steps, g) if steps else g
    v = abc_vectors(out)
    assert abs(np.imag(v.a).max()) < 1e-12


def test_aligned_tangle_formulas():
    # the reduced forms tau_abc = 4(V1r^2 - V1i^2), tau_(bc) = 4 V1i^2 etc.
    for seed in range(10):
        s = random_state(seed)
        g = apply_gauge(s)
        out = apply(align_canonical(g, "ab"), g)
        v = abc_vectors(out)
        ar, ai = np.real(v.a[0]), np.imag(v.a[2])
        br, bi = np.real(v.b[0]), np.imag(v.b[2])
        t_bc, t_ac, _ = two_tangles(s)
        assert abs(4 * (ar**2 - ai**2) - three_tangle(s)) < 1e-10
        assert abs(4 * ai**2 - t_bc) < 1e-10
        assert abs(4 * bi**2 - t_ac) < 1e-10
        assert abs(2 * (ar**2 + ai**2 + br**2 + bi**2) - checked_tangle_set(s).tau_c_ab) < 1e-10


# --- three-tangle maximization ----------------------------------------------

def test_maximize_ghz_already_maximal():
    res = maximize_three_tangle(GHZ, "ab")
    assert abs(res.achieved - 1.0) < 1e-12
    assert abs(res.meta["angle_16"]) < 1e-9 and abs(res.meta["angle_34"]) < 1e-9


def test_maximize_w_pair_bc_reaches_one():
    # theta = pi/4 puts the full bipartite resource at the bc pair's disposal
    w = make_asymmetric_w(np.pi / 4, 0.42)
    res = maximize_three_tangle(w, "bc")
    assert abs(res.achieved - 1.0) < 1e-10
    assert res.meta["gauge_defined"] is False


@pytest.mark.parametrize("pair", ["ab", "bc", "ac"])
@pytest.mark.parametrize("variant", ["economical", "single"])
def test_maximize_reaches_bound(pair, variant):
    for seed in range(12):
        s = random_state(seed)
        res = maximize_three_tangle(s, pair, variant)
        assert abs(res.achieved - res.meta["bound"]) < 1e-9
        ts = checked_tangle_set(s)
        spectator = ({"a", "b", "c"} - set(pair)).pop()
        bound = {"a": ts.tau_a_bc, "b": ts.tau_b_ca, "c": ts.tau_c_ab}[spectator]
        assert abs(res.meta["bound"] - bound) < 1e-12


def test_maximize_never_exceeds_bound():
    for seed in range(30):
        s = random_state(seed)
        res = maximize_three_tangle(s, "ab")
        assert res.achieved <= res.meta["bound"] + 1e-9
        assert abs(res.meta["bound"] - checked_tangle_set(s).tau_c_ab) < 1e-12


def test_maximize_kills_two_tangles():
    for seed in range(12):
        out = apply(maximize_three_tangle(random_state(seed), "ab").sequence,
                    random_state(seed))
        t_bc, t_ac, _ = two_tangles(out)
        assert max(t_bc, t_ac) < 1e-8


@pytest.mark.parametrize("pair", ["aab", "aba", "abab", "aa", ""])
@pytest.mark.parametrize("fn", [
    lambda pair: maximize_three_tangle(random_state(1), pair),
    lambda pair: tangle_ascent_oracle(random_state(1), pair, restarts=1),
    lambda pair: align_canonical(random_state(1), pair),
    lambda pair: extremum_residual(GHZ, pair),
    lambda pair: synthesize_coupling_core([0.1, 0.2, 0.3], pair),
])
def test_pair_must_be_two_distinct_qubits(fn, pair):
    # a repeated or extra letter used to run as the pair of its distinct letters
    with pytest.raises(DegenerateInput):
        fn(pair)


def test_maximize_unknown_variant_is_a_parse_error():
    with pytest.raises(ParseError, match="variant"):
        maximize_three_tangle(GHZ, "ab", "x")


def test_maximize_variants_agree():
    for seed in range(8):
        s = random_state(seed)
        a = maximize_three_tangle(s, "ab", "economical").achieved
        b = maximize_three_tangle(s, "ab", "single").achieved
        assert abs(a - b) < 1e-8


def test_economical_angles_small_when_dominant():
    # with V1r > V2i and V2r > V1i both rotation angles stay below pi/4
    found = 0
    for seed in range(40):
        s = random_state(seed)
        g = apply_gauge(s) if three_tangle(s) > 1e-10 else s
        out = apply(align_canonical(g, "ab"), g)
        v = abc_vectors(out)
        ar, ai = np.real(v.a[0]), np.imag(v.a[2])
        br, bi = np.real(v.b[0]), np.imag(v.b[2])
        if ar > bi and br > ai:
            res = maximize_three_tangle(s, "ab")
            assert abs(res.meta["angle_16"]) < np.pi / 4 + 1e-12
            assert abs(res.meta["angle_34"]) < np.pi / 4 + 1e-12
            found += 1
    assert found > 0


def _maximize_reference(s, pair, variant):
    """The maximizer stage by stage: apply each stage, then evaluate the vectors anew.

    Returns the sequence, the output state, the achieved tangle, the bound
    and the angles.
    """
    _, pq = _canonical_pair(pair)
    state = normalize(s)
    seq = []
    info = gauge_phase(state)
    if info.defined:
        seq.append(PhaseStep(-0.5 * info.phi_a))
        state = apply(seq, state)
    for q in pq:
        steps = [st for st in align_canonical(state, pq) if st.qubit == q]
        state = apply(steps, state)
        seq += steps
    v = abc_vectors(state)
    r1, i1 = np.real(v.by_qubit(pq[0])[0]), np.imag(v.by_qubit(pq[0])[2])
    r2, i2 = np.real(v.by_qubit(pq[1])[0]), np.imag(v.by_qubit(pq[1])[2])
    if variant == "economical":
        angles = {"angle_16": float(np.arctan2(i2, r1)),
                  "angle_34": float(np.arctan2(i1, r2))}
        couplings = [coupling_axis_step(pq, n, m, -a / 2)
                     for (n, m), a in zip([(1, 3), (3, 1)], angles.values())
                     if abs(a) > 1e-15]
    else:
        angles = {"angle_zz": np.pi / 2}
        couplings = [coupling_axis_step(pq, 3, 3, np.pi / 4)]
    out = apply(couplings, state)
    spectator = ({"a", "b", "c"} - set(pq)).pop()
    bound = dict(zip("abc", bipartite_tangles(normalize(s))))[spectator]
    return seq + couplings, out, three_tangle(out), bound, angles


def _product_state(seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    return np.kron(np.kron(q[0], q[1]), q[2])


@pytest.mark.parametrize("variant", ["economical", "single"])
@pytest.mark.parametrize("pair", ["ab", "bc", "ac", "ba", "cb", "ca"])
def test_maximize_matches_reference(pair, variant):
    states = ([random_state(k) for k in range(100)]
              + [GHZ, make_asymmetric_w(np.pi / 4, 0.42)])
    for s in states:
        res = maximize_three_tangle(s, pair, variant)
        seq, out, achieved, bound, angles = _maximize_reference(s, pair, variant)
        assert [type(st) for st in res.sequence] == [type(st) for st in seq]
        assert abs(res.achieved - achieved) < 1e-12
        assert res.meta["bound"] == bound
        for name, angle in angles.items():
            assert abs(res.meta[name] - angle) < 1e-12
        assert np.abs(apply(res.sequence, s) - out).max() < 1e-12
    # on product states the angles are rounding noise; only the tangles count
    for s in [np.eye(8)[0], _product_state(0), _product_state(1)]:
        res = maximize_three_tangle(s, pair, variant)
        _, _, achieved, bound, _ = _maximize_reference(s, pair, variant)
        assert abs(res.achieved - achieved) < 1e-12
        assert res.meta["bound"] == bound


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("pair", ["ab", "bc", "ca"])
def test_maximize_product_state_gets_no_coupling(pair, scale):
    # the gauged pair vectors of a product state are rounding noise; no
    # coupling angle may be read from them
    for seed in range(4):
        res = maximize_three_tangle(scale * _product_state(seed), pair)
        assert res.meta["coupling_steps"] == 0
        assert not any(isinstance(st, CouplingStep) for st in res.sequence)
        assert res.meta["angle_16"] == res.meta["angle_34"] == 0.0
        assert res.achieved < 1e-30 and res.meta["bound"] < 1e-30


@pytest.mark.parametrize("call, evaluations, applies", [
    (lambda s, g: maximize_three_tangle(s, "bc"), 2, 1),
    (lambda s, g: maximize_three_tangle(s, "ab", "single"), 2, 1),
    (lambda s, g: align_canonical(g, "ca"), 1, 0),
    (lambda s, g: extremum_residual(s, "ab"), 1, 0),
    # below |s| ~ 1e-75: the state, then its rescaled copy for the phase and the components
    (lambda s, g: extremum_residual(1e-80 * s, "ab"), 2, 0),
], ids=["maximize", "maximize-single", "align", "extremum", "extremum-tiny"])
def test_protocols_evaluate_once(call, evaluations, applies, monkeypatch):
    # the steps come from one evaluation of the vectors; the maximizer's
    # second evaluation certifies the state that its one apply produces
    s = random_state(3)
    g = apply_gauge(s)
    vector_calls = count_evaluations(monkeypatch)
    apply_calls = count_calls(monkeypatch, apply)
    call(s, g)
    assert (len(vector_calls), len(apply_calls)) == (evaluations, applies)


def test_protocol_thresholds_scale_with_norm():
    # the vectors scale as |s|^2, and so do the thresholds below which a
    # part or a component counts as zero
    for seed in range(5):
        s = random_state(seed)
        g = apply_gauge(s)
        residual = extremum_residual(s)
        steps = align_canonical(g, "ab")
        for scale in np.logspace(-7, 6, 14):
            assert abs(extremum_residual(scale * s) - residual) <= 1e-12 * residual
            scaled = align_canonical(scale * g, "ab")
            assert [st.qubit for st in scaled] == [st.qubit for st in steps]
            assert np.abs(np.subtract([st.theta for st in scaled],
                                      [st.theta for st in steps])).max() < 1e-12


@pytest.mark.parametrize("scale", [1e-80, 1e-150, 1e-300])
def test_align_canonical_below_the_normal_range(scale):
    # there |s|^4 and the vector norms go subnormal; the steps are read from
    # the state rescaled to unit size, so they match the unit-scale steps
    for seed in range(3):
        g = apply_gauge(random_state(seed))
        for pair in ("ab", "ba", "bc", "cb", "ac", "ca"):
            steps = align_canonical(g, pair)
            scaled = align_canonical(scale * g, pair)
            assert [st.qubit for st in scaled] == [st.qubit for st in steps]
            assert np.abs(np.subtract([st.theta for st in scaled],
                                      [st.theta for st in steps])).max() < 1e-12


def test_maximize_extremum_condition():
    for seed in range(8):
        s = random_state(seed)
        out = apply(maximize_three_tangle(s, "ab").sequence, s)
        assert extremum_residual(out) < 1e-8


def test_ascent_oracle_certifies_bound():
    for seed in range(6):
        s = random_state(seed)
        bound = checked_tangle_set(s).tau_c_ab
        tau = tangle_ascent_oracle(s, "ab", restarts=16, seed=seed)
        assert tau <= bound + 1e-6
        assert tau >= bound - 1e-4
    # with the record: gates on (b, c) take every restart to tau_a(bc)
    s = random_state(7)
    res = tangle_ascent_search(s, "bc")
    assert res.converged == res.restarts and not res.capped, res
    assert abs(res.tangle - checked_tangle_set(s).tau_a_bc) < 1e-9, res


# --- extremum residual ------------------------------------------------------

def test_extremum_residual_ghz_zero():
    assert extremum_residual(GHZ) < 1e-12


def test_extremum_residual_generic_positive():
    vals = []
    for seed in range(20):
        s = random_state(seed)
        if three_tangle(s) > 1e-6:
            vals.append(extremum_residual(s))
    assert all(v > 0.0 for v in vals)
    assert np.median(vals) > 0.1


def test_extremum_residual_gauge_undefined():
    with pytest.raises(GaugeUndefined):
        extremum_residual(make_asymmetric_w(0.6, 0.2))


# --- Fubini-Study angle -----------------------------------------------------

def test_random_su2_stack_matches_loop():
    # seeded restarts must not move: the stack consumes the stream exactly as
    # one draw per unitary (real parts, then imaginary parts) did, and every
    # restart is drawn, the first too
    for n in (1, 2, 9):
        rng = np.random.default_rng(n)
        ref = np.empty((n, 3, 2, 2), dtype=np.complex128)
        for r in range(n):
            for q in range(3):
                x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                ref[r, q] = np.linalg.qr(x)[0]
        np.testing.assert_array_equal(_random_su2_stack(np.random.default_rng(n), n), ref)


def test_fs_angle_identity():
    s = random_state(5)
    assert fubini_study_angle(s, s, seed=1) < 1e-6


def test_fs_angle_symmetric():
    s1, s2 = random_state(1), random_state(2)
    a = fubini_study_angle(s1, s2, seed=3)
    b = fubini_study_angle(s2, s1, seed=4)
    assert abs(a - b) < 1e-6


def test_fs_angle_local_invariance(rng):
    s1, s2 = random_state(3), random_state(4)
    a = fubini_study_angle(s1, s2, seed=5)
    loc = [LocalStep(q, tuple(rng.uniform(-3, 3, 3))) for q in "abc"]
    b = fubini_study_angle(apply(loc, s1), s2, seed=5)
    assert abs(a - b) < 1e-6


def test_fs_angle_w1_milestone():
    w = make_asymmetric_w(STD_THETA, np.pi / 4)
    w1 = apply([coupling_axis_step("bc", 1, 1, np.pi / 4)], w)
    assert abs(fubini_study_angle(w1, GHZ, seed=0) - 9.7356) < 0.01


# --- malformed parameters ---------------------------------------------------

@pytest.mark.parametrize("call, args", [
    (synthesize_coupling_core, ([1.0, 2.0],)),
    (synthesize_coupling_core, ([0.1, np.nan, 0.3],)),
    (coupling_axis_step, ("ab", 4, 1, 0.1)),
    (coupling_axis_step, ("ab", 1, 0, 0.1)),
    (make_asymmetric_w, (np.nan, 0.0)),
    (make_asymmetric_w, (0.3, np.inf)),
    (make_acin, ([np.nan, 0.0, 0.0, 0.0, 1.0],)),
    (make_acin, ([1.0, 0.0],)),
    (w_to_ghz_sequence, (0.5, np.inf)),
    (w_to_ghz_sequence, ("0.9", "0.7")),
    (coupling_axis_step, ("ab", 1, 1, "0.5")),
    (random_state, (1.5,)),
    (random_state, (True,)),
    (LocalStep, ("a", (True, False, 0))),
    (PhaseStep, (True,)),
    (make_asymmetric_w, (True, 0.5)),
    (coupling_axis_step, ("ab", True, 1.0, 0.1)),
    (coupling_axis_step, ("ab", 1, 1, False)),
])
def test_malformed_parameters_are_refused(call, args):
    # refused by the parameter's name, not as an untyped error from within;
    # a bool is no number
    name = {synthesize_coupling_core: "alpha", coupling_axis_step: "axes|zeta",
            make_asymmetric_w: "theta, phi", make_acin: "lambdas",
            w_to_ghz_sequence: "theta, phi", random_state: "seed",
            LocalStep: "local step angles", PhaseStep: "phase angle"}[call]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match=name):
            call(*args)


@pytest.mark.parametrize("call, args, message", [
    (make_asymmetric_w, ("0.9", 0.7), "theta, phi: expected 2"),
    (make_asymmetric_w, (0.9, None), "theta, phi: expected 2"),
    (make_asymmetric_w, ([0.9], [0.7]), "theta, phi: expected 2"),
    (w_to_ghz_sequence, (0.9, None), "theta, phi: expected 2"),
    (w_to_ghz_sequence, ([0.9], [0.7]), "theta, phi: expected 2"),
    (make_acin, (["0.6", "0.8", "0", "0", "0"],), "lambdas: expected 5"),
    (make_acin, ([0.6, 0.8, 0, 0, None],), "lambdas: expected 5"),
    (make_acin, ([[0.6, 0.8, 0, 0, 0]],), "lambdas: expected 5"),
    (make_acin, ([10**400, 0, 0, 0, 0],), "lambdas: expected 5"),
    (synthesize_coupling_core, (["0.5", "0.1", "0.2"],), "alpha: expected 3"),
    (synthesize_coupling_core, ([0.5, None, 0.2],), "alpha: expected 3"),
    (synthesize_coupling_core, ([[0.5], [0.1], [0.2]],), "alpha: expected 3"),
    (coupling_axis_step, ("ab", 1, 1, None), "zeta: expected 1"),
    (coupling_axis_step, ("ab", 1, 1, [0.5]), "zeta: expected 1"),
    (QuaternionicState, (["0.5", "0", "0", "0.5"], np.zeros(4)), "x: expected 4"),
    (QuaternionicState, (np.zeros(4), [0.5, 0, 0, None]), "y: expected 4"),
    (QuaternionicState, ([[0.5, 0], [0, 0.5]], np.zeros(4)), "x: expected 4"),
    (quat_inv, (["1", "0", "0", "0"],), "quaternion: expected 4"),
    (quat_inv, ([1, 0, 0, None],), "quaternion: expected 4"),
    (quat_inv, ([[1, 0], [0, 0]],), "quaternion: expected 4"),
], ids=["w-text", "w-none", "w-nested", "w-to-ghz-none", "w-to-ghz-nested", "acin-text",
        "acin-none", "acin-nested", "acin-huge-int", "coupling-core-text", "coupling-core-none",
        "coupling-core-nested", "zeta-none", "zeta-nested", "quaternion-x-text",
        "quaternion-y-none", "quaternion-x-nested", "inverse-text", "inverse-none",
        "inverse-nested"])
def test_non_real_parameters_are_refused(call, args, message):
    # text, None, nested values and an int beyond any float are not real
    # numbers (None is not a non-finite one): each is refused by the one
    # check, by name, before numpy could convert or warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match=f"^{message} real numbers?, got"):
            call(*args)


def test_numpy_real_scalars_are_accepted():
    # numpy ints and floats are real numbers, and numpy ints are seeds and counts
    f32, i64 = np.float32(0.5), np.int64(1)
    assert np.array_equal(make_asymmetric_w(f32, i64), make_asymmetric_w(0.5, 1.0))
    assert synthesize_coupling_core(np.array([1, 2, 3])).meta["alpha"] == [1.0, 2.0, 3.0]
    assert coupling_axis_step("ab", 1, 1, f32).theta[0, 0] == 1.0
    assert np.array_equal(quat_inv(np.arange(1, 5, dtype=np.int32)), quat_inv([1, 2, 3, 4]))
    assert QuaternionicState([1.5e308] * 4, np.zeros(4, dtype=np.float32)).x[0] == 1.5e308
    assert np.array_equal(random_state(np.int64(3)), random_state(3))
    assert fubini_study_angle(GHZ, GHZ, restarts=np.int32(2), seed=np.uint8(3),
                              max_sweeps=np.int64(5)) < 1e-6


@pytest.mark.parametrize("call, args", [
    (make_asymmetric_w, (np.complex128(0.7 + 2j), 0.3)),
    (make_asymmetric_w, (0.7, 0.3 + 0j)),
    (make_acin, (np.array([1.0, 0.0, 0.0, 0.0, 0.0]) + 0.5j,)),
    (synthesize_coupling_core, (np.array([0.1 + 0.5j, 0.2, 0.3]),)),
    (w_to_ghz_sequence, (np.complex128(0.5 + 1j), 0.2)),
    (QuaternionicState, (np.array([0.5, 0, 0, 0.5j]), np.zeros(4))),
    (QuaternionicState, (np.full(4, 0.5), [0, 0, 0, 1j])),
    (LocalStep, ("a", np.array([0.1 + 0.5j, 0.2, 0.3]))),
    (CouplingStep, ("ab", np.full((3, 3), 0.1 + 0.5j))),
    (PhaseStep, (np.complex128(0.5 + 1j),)),
], ids=["w-theta", "w-phi", "acin", "coupling-core", "w-to-ghz", "quaternion-x",
        "quaternion-y", "local-step", "coupling-step", "phase-step"])
def test_complex_parameters_are_refused(call, args):
    # a complex value is not a real parameter, even with a zero imaginary
    # part; numpy's cast would drop the imaginary part with only a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="real numbers|real number"):
            call(*args)
