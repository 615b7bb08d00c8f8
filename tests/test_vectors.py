import dataclasses
import sys
import threading
import warnings

import numpy as np
import pytest

from tanglevec import (GaugeUndefined, InvariantViolation, ParseError, SixVector, TangleSet,
                       abc_vectors, align_canonical, apply_gauge, bipartite_tangles,
                       ckw_residual, evolve_q, extremum_residual, gauge_phase, make_acin,
                       make_asymmetric_w, make_ghz, matricize, named_gate, plucker_residual,
                       q_vector, random_state, tangle_set, three_tangle, two_tangles, vectors)
from tanglevec.states import as_state, squared_norm
from tanglevec.tangles import _measures
from tanglevec.vectors import AbcVectors, _dots, _vectors
from conftest import count_calls, count_evaluations

MU = np.array([1j, -1.0, 0.0])
STD_THETA = np.arccos(1 / np.sqrt(3))


def test_ghz_vectors():
    v = abc_vectors(make_ghz())
    expect = np.array([0, 0, 0.5])
    for vec in (v.a, v.b, v.c):
        assert np.abs(vec - expect).max() < 1e-15


def test_w_vectors_analytic():
    th, ph = 0.83, 0.37
    v = abc_vectors(make_asymmetric_w(th, ph))
    st, ct, sp, cp = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
    assert np.abs(v.a - st**2 * sp * cp * MU).max() < 1e-15
    assert np.abs(v.b - st * ct * cp * MU).max() < 1e-15
    assert np.abs(v.c - st * ct * sp * MU).max() < 1e-15


def _reference_polynomials(s):
    """The nine polynomials of A, B, C written out in the amplitudes."""
    c000, c001, c010, c011, c100, c101, c110, c111 = s
    a = [-1j * (c000 * c011 - c001 * c010 + c110 * c101 - c111 * c100),
         (c000 * c011 - c001 * c010 + c100 * c111 - c101 * c110),
         1j * (c000 * c111 - c001 * c110 + c100 * c011 - c101 * c010)]
    b = [-1j * (c000 * c101 - c100 * c001 + c011 * c110 - c111 * c010),
         (c000 * c101 - c100 * c001 + c010 * c111 - c110 * c011),
         1j * (c000 * c111 - c100 * c011 + c010 * c101 - c110 * c001)]
    c = [-1j * (c000 * c110 - c010 * c100 + c101 * c011 - c111 * c001),
         (c000 * c110 - c010 * c100 + c001 * c111 - c011 * c101),
         1j * (c000 * c111 - c010 * c101 + c001 * c110 - c011 * c100)]
    return np.array(a), np.array(b), np.array(c)


def test_vectors_match_reference_polynomials():
    for seed in range(50):
        s = random_state(seed)
        v = abc_vectors(s)
        a, b, c = _reference_polynomials(s)
        assert np.abs(v.a - a).max() < 1e-15
        assert np.abs(v.b - b).max() < 1e-15
        assert np.abs(v.c - c).max() < 1e-15


def test_product_state_vectors_vanish():
    s = np.zeros(8)
    s[0] = 1.0
    v = abc_vectors(s)
    assert max(np.abs(v.a).max(), np.abs(v.b).max(), np.abs(v.c).max()) == 0


def test_quadratic_scaling():
    s = random_state(4)
    lam = 0.7 - 1.3j
    v1, v2 = abc_vectors(s), abc_vectors(lam * s)
    assert np.abs(v2.a - lam**2 * v1.a).max() < 1e-12
    assert np.abs(v2.c - lam**2 * v1.c).max() < 1e-12


def test_gauge_covariance():
    s = random_state(8)
    alpha = 0.9
    v1, v2 = abc_vectors(s), abc_vectors(np.exp(1j * alpha) * s)
    assert np.abs(v2.b - np.exp(2j * alpha) * v1.b).max() < 1e-14


def _subdets(m):
    d = {}
    for r in range(4):
        for s_ in range(r + 1, 4):
            d[(r, s_)] = m[r, 0] * m[s_, 1] - m[s_, 0] * m[r, 1]
    return d


@pytest.mark.parametrize("seed", range(6))
def test_a_from_either_pair_matricization(seed):
    # A is simultaneously a fixed combination of the 2x2 subdeterminants of
    # the b(ca) arrangement and of the c(ab) arrangement
    s = random_state(seed)
    a = abc_vectors(s).a
    d2 = _subdets(matricize(s, 2))
    from_b = np.array([
        -1j * (d2[(0, 2)] - d2[(1, 3)]),
        d2[(0, 2)] + d2[(1, 3)],
        1j * (d2[(0, 3)] + d2[(1, 2)]),
    ])
    d3 = _subdets(matricize(s, 3))
    from_c = np.array([
        -1j * (d3[(0, 1)] - d3[(2, 3)]),
        d3[(0, 1)] + d3[(2, 3)],
        1j * (d3[(0, 3)] - d3[(1, 2)]),
    ])
    assert np.abs(a - from_b).max() < 1e-14
    assert np.abs(a - from_c).max() < 1e-14


def test_q_vector_ghz():
    q = q_vector(make_ghz(), 3)
    assert np.abs(q.q - np.array([0, 0, 0.5, 0, 0, -0.5j])).max() < 1e-15


def test_q_vector_w_partition_1():
    th, ph = 0.61, 0.95
    q = q_vector(make_asymmetric_w(th, ph), 1)
    pref = np.sin(th) * np.cos(th)
    expect = pref * np.array([1j * np.cos(ph), -np.cos(ph), 0,
                              np.sin(ph), 1j * np.sin(ph), 0])
    assert np.abs(q.q - expect).max() < 1e-15


@pytest.mark.parametrize("partition", [1, 2, 3])
def test_q_vector_is_null(partition):
    for seed in range(10):
        q = q_vector(random_state(seed), partition).q
        assert abs(q @ q) < 1e-10


@pytest.mark.parametrize("seed", range(50))
def test_plucker_sweep(seed):
    assert plucker_residual(random_state(seed)) < 1e-12


def test_plucker_named_states():
    assert plucker_residual(make_ghz()) < 1e-10
    assert plucker_residual(make_acin([0.5, 0.5, 0.5, 0.3, np.sqrt(0.16)])) < 1e-10


def test_gauge_ghz():
    info = gauge_phase(make_ghz())
    assert info.defined and abs(info.phi_a) < 1e-12


def test_gauge_undefined_for_w():
    info = gauge_phase(make_asymmetric_w(0.8, 0.4))
    assert not info.defined
    with pytest.raises(GaugeUndefined):
        apply_gauge(make_asymmetric_w(0.8, 0.4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gauge_refuses_non_finite_amplitudes(bad):
    s = random_state(12).copy()
    s[0] = bad
    with pytest.raises(ParseError):
        gauge_phase(s)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_vectors_refuse_non_finite_amplitudes(bad):
    s = random_state(13).copy()
    s[6] = bad
    with pytest.raises(ParseError):
        abc_vectors(s)
    for p in (1, 2, 3):
        with pytest.raises(ParseError):
            q_vector(s, p)
    with pytest.raises(ParseError):
        plucker_residual(s)


@pytest.mark.parametrize("scale", [1.4e154, 1e160, 1e200])
def test_overflow_refusal_names_the_state_scale(scale):
    # |s|^2 itself reads inf or NaN at these scales: the message names the
    # largest |amplitude| instead, a finite number
    s = scale * random_state(1)
    with pytest.raises(ParseError, match=r"overflows") as err:
        abc_vectors(s)
    msg = str(err.value)
    assert "nan" not in msg and "inf" not in msg
    assert f"{np.abs(s).max():.3g}" in msg


def test_gauge_phase_shift_under_global_phase():
    # A.A picks up e^{4 i alpha}, so the half-argument shifts by 2 alpha mod pi
    s = random_state(12)
    alpha = 0.31
    p1 = gauge_phase(s).phi_a
    p2 = gauge_phase(np.exp(1j * alpha) * s).phi_a
    diff = (p2 - p1 - 2 * alpha) % np.pi
    assert min(diff, np.pi - diff) < 1e-12


def test_apply_gauge_makes_a_squared_real():
    for seed in range(10):
        g = apply_gauge(random_state(seed))
        v = abc_vectors(g)
        aa = v.a @ v.a
        assert abs(aa.imag) < 1e-12 and aa.real >= 0
        for vec in (v.a, v.b, v.c):
            assert abs(np.real(vec) @ np.imag(vec)) < 1e-12


def test_gauged_tangle_formulas_match():
    # after the gauge, tau_abc = 4(Re^2 - Im^2) and tau_(bc) = 4 Im(A)^2
    for seed in range(100):
        s = random_state(seed)
        g = apply_gauge(s)
        v = abc_vectors(g)
        ar, ai = np.real(v.a), np.imag(v.a)
        assert abs(4 * (ar @ ar - ai @ ai) - three_tangle(s)) < 1e-10
        assert abs(4 * (ai @ ai) - two_tangles(s)[0]) < 1e-10


def test_gauge_is_scale_free():
    # where |s|^4 is tiny the gauge is decided and taken at unit scale; at the
    # plain scale A.A underflows below |s| ~ 1e-80 and loses digits above it
    scales = [10.0**k for k in range(-100, 77, 3)] + [1e-81, 1e-79, 1e-90, 1e-100, 1e76]
    for s in [random_state(k) for k in range(6)] + [make_ghz()]:
        ref, ref_res = gauge_phase(s), extremum_residual(s)
        assert ref.defined
        for scale in scales:
            info = gauge_phase(scale * s)
            assert info.defined and abs(info.phi_a - ref.phi_a) <= 1e-12, scale
            assert abs(extremum_residual(scale * s) - ref_res) <= 1e-12, scale
            g = apply_gauge(scale * s) / scale
            assert np.abs(g - apply_gauge(s)).max() <= 1e-12, scale
    for scale in (1e-100, 1e-79, 1.0, 1e76):
        assert not gauge_phase(scale * make_asymmetric_w(0.8, 0.4)).defined
        assert not gauge_phase(scale * np.eye(8)[3]).defined
    assert not gauge_phase(np.zeros(8)).defined


@pytest.mark.parametrize("q, partition", [
    (np.full(6, np.nan), 3),
    ([1, 2, 3, 4, 5, complex(0, np.inf)], 1),
    ([1, 2, 3, 4, 5], 3),
    (np.ones(7), 3),
    (np.ones((2, 3)), 2),
    ([[1, 2, 3], [4, 5]], 3),
    (["1"] * 6, 3),
    (None, 3),
    ([10**400] * 6, 3),
    (np.ones(6), 0),
    (np.ones(6), 4),
    (np.ones(6), "d(ab)"),
], ids=["nan", "inf", "five", "seven", "2x3", "ragged", "text", "none", "huge-int",
        "partition-0", "partition-4", "bad-label"])
def test_six_vector_checks_itself(q, partition):
    # refused when built, by name and without a numpy warning; evolve_q never
    # sees such a vector
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError):
            SixVector(q, partition)


def test_six_vector_is_a_checked_copy():
    raw = q_vector(random_state(2), 1).q.copy()
    q = SixVector(list(raw), "a(bc)")
    assert q.partition == 1 and q.q.dtype == complex and np.array_equal(q.q, raw)
    with pytest.raises(ValueError):
        q.q[0] = np.nan
    src = raw.copy()
    q = SixVector(src, 1)
    src[0] = np.nan
    assert np.array_equal(q.q, raw)
    out = evolve_q(named_gate("CNOT", "bc"), q)
    assert np.isfinite(out.q).all() and out.partition == 1


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e-60, 3.7, 1e60, 1e76])
def test_q_vector_is_the_checked_six_vector(scale):
    # q_vector builds its vector unchecked: the same bytes and partition as
    # the checking constructor gives, and read-only
    for seed in range(20):
        s = scale * random_state(seed)
        for p in (1, 2, 3, "a(bc)"):
            q = q_vector(s, p)
            checked = SixVector(q.q.tolist(), p)
            assert type(q) is SixVector and q.partition == checked.partition
            assert q.q.dtype == complex and q.q.tobytes() == checked.q.tobytes()
            with pytest.raises(ValueError):
                q.q[0] = 0.0


# --- the one-entry memo of _vectors ----------------------------------------

def _q1(s):
    return q_vector(s, 1)


def _q2(s):
    return q_vector(s, 2)


def _q3(s):
    return q_vector(s, 3)


#: one analysis of a state, in the order of the benchmark's invariant sweep
ANALYSIS = [abc_vectors, gauge_phase, tangle_set, plucker_residual, ckw_residual,
            bipartite_tangles, _q1, _q2, _q3]


def _gauged(s):
    try:
        return apply_gauge(s)
    except GaugeUndefined:
        return None


def _extremum(s):
    try:
        return extremum_residual(s)
    except GaugeUndefined:
        return None


INVARIANTS = ANALYSIS + [three_tangle, two_tangles, _gauged, _extremum]


def _plain(r):
    """A result as Python numbers and lists, so that == compares every value."""
    if isinstance(r, AbcVectors):
        return [r.a.tolist(), r.b.tolist(), r.c.tolist()]
    if isinstance(r, SixVector):
        return r.q.tolist(), r.partition
    if isinstance(r, np.ndarray):
        return r.tolist()
    return r


def _fresh(fn, s):
    """fn(s) evaluated afresh: another state is evaluated just before."""
    _vectors(random_state(999))
    return _plain(fn(s))


def _memo_states():
    rng = np.random.default_rng(19)
    qubit = [np.array([0.6, 0.8j]), np.array([1, 1j]) / np.sqrt(2), np.array([0.8, -0.6])]
    pair = random_state(11)[:4]
    pair = pair / np.linalg.norm(pair)
    states = [random_state(k) for k in range(4)] + [
        make_ghz(), make_asymmetric_w(0.9, 0.4), make_asymmetric_w(STD_THETA, np.pi / 4),
        np.kron(np.kron(qubit[0], qubit[1]), qubit[2]),
        np.kron(qubit[2], pair), np.kron(pair, qubit[0]),
        np.moveaxis(np.kron(qubit[1], pair).reshape(2, 2, 2), 0, 1).reshape(8)]
    return [s * np.exp(1j * rng.uniform(0, 2 * np.pi)) for s in states]


def test_memo_serves_the_computed_values():
    # a call served by the entry (a repeat, or the next call of an analysis)
    # equals one evaluated afresh, at every scale; below |s| ~ 1e-75 the
    # gauge, apply_gauge and the extremum take the rescaled (_unit_scaled) route
    for s0 in _memo_states():
        for scale in (1e-100, 1e-80, 1e-76, 1e-40, 1.0, 1e40, 1e76):
            s = scale * s0
            want = [_fresh(fn, s) for fn in INVARIANTS]
            _vectors(random_state(999))
            for _ in range(2):
                assert [_plain(fn(s)) for fn in INVARIANTS] == want, scale
            # each invariant on its own, served by an entry that another one made
            for fn, w in zip(INVARIANTS, want):
                _vectors(s)
                assert _plain(fn(s)) == w, (fn, scale)
            assert (_vectors(s).tol < sys.float_info.min) == (scale <= 1e-76)


def _cold(s):
    """(the dots, the TangleSet) of s computed without the entry."""
    m, tol = vectors._evaluate(as_state(s))
    d = _dots(m)
    return d, _measures(d, tol)


def test_memo_sees_an_array_changed_in_place():
    s = random_state(5).copy()
    v = abc_vectors(s)
    t = tangle_set(s)
    s[:] = random_state(6)
    assert _plain(abc_vectors(s)) == _fresh(abc_vectors, random_state(6))
    assert tangle_set(s) == tangle_set(random_state(6)) != t
    for k in range(8):   # each amplitude, the real or the imaginary part
        before = _plain(abc_vectors(s))
        dots, tangles = _vectors(s).dots(), tangle_set(s)
        s[k] += 1e-12 if k % 2 else 1e-12j
        assert _plain(abc_vectors(s)) == _fresh(abc_vectors, s.copy()) != before
        # the dots and the tangles kept for the old amplitudes are not read back
        assert (_vectors(s).dots(), tangle_set(s)) == _cold(s) != (dots, tangles)
    assert _plain(abc_vectors(s)) != _plain(v)


@pytest.mark.parametrize("bad", ["nan", "overflow", "short"])
def test_memo_refuses_a_refused_state_on_every_call(bad):
    s = random_state(7).copy()
    if bad == "nan":
        s[2] = np.nan
    elif bad == "overflow":
        s = 1e78 * s
    else:
        s = s[:7]
    for _ in range(3):
        for fn in ANALYSIS:
            with pytest.raises(ParseError):
                fn(s)


def test_memo_block_is_read_only_and_vectors_are_copies():
    s = random_state(8)
    m = _vectors(s).m
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0] = 1.0
    want = m.tolist()
    v = abc_vectors(s)
    for row in (v.a, v.b, v.c):
        assert row.flags.writeable and not np.shares_memory(row, m)
        row[:] = np.nan
    assert _vectors(s).m is m and m.tolist() == want
    assert _plain(abc_vectors(s)) == want


def test_one_analysis_evaluates_once(monkeypatch):
    # the nine calls of one analysis take one |s|^2 and one evaluation, and
    # derive A.A, B.B, C.C with the norms, and the TangleSet, once
    s = random_state(9)
    evaluations = count_evaluations(monkeypatch)
    norms = count_calls(monkeypatch, squared_norm)
    dots = count_calls(monkeypatch, _dots)
    built = count_calls(monkeypatch, TangleSet)
    for fn in ANALYSIS:
        fn(s)
    assert len(norms) == len(evaluations) == len(dots) == len(built) == 1


def test_tiny_analysis_evaluates_the_state_and_its_rescaled_copy_once(monkeypatch):
    # below |s| ~ 1e-75 the gauge evaluates the state rescaled (_unit_scaled)
    # without replacing the entry, so the rest of the analysis reads s back
    s = 1e-80 * random_state(3)
    want = [_fresh(fn, s) for fn in ANALYSIS]
    evaluations = count_evaluations(monkeypatch)
    dots = count_calls(monkeypatch, _dots)
    assert [_plain(fn(s)) for fn in ANALYSIS] == want
    assert len(evaluations) == len(dots) == 2


def test_the_rescaled_copy_leaves_the_entry_s_kept_values_alone():
    # the gauge's rescaled copy is evaluated on the side: its dots, 2^(4k)
    # times the state's, never reach the entry, before or after it keeps its own
    s = 1e-80 * random_state(3)
    _vectors(random_state(999))
    e = _vectors(s)
    for fn in (gauge_phase, align_canonical, _extremum, _gauged):
        fn(s)
    assert _vectors(s) is e and e.tangles is None
    assert (e.dots(), tangle_set(s)) == _cold(s)
    d, t = e.dots(), e.tangles
    for fn in (gauge_phase, align_canonical, _extremum, _gauged):
        fn(s)
    assert _vectors(s) is e and e.dots() is d and tangle_set(s) is t


def test_a_tangle_disagreement_is_raised_on_every_call(monkeypatch):
    # a TangleSet that fails its own check is never kept
    s = 0.5 * random_state(31)
    real = vectors._dots

    def skewed(m):
        (aa, bb, cc), hn = real(m)
        return (aa, 2.0 * bb + 1.0, cc), hn

    monkeypatch.setattr(vectors, "_dots", skewed)
    _vectors(random_state(999))
    try:
        for _ in range(2):
            for fn in (tangle_set, three_tangle, ckw_residual, bipartite_tangles):
                with pytest.raises(InvariantViolation, match="disagree"):
                    fn(s)
        assert _vectors(s).tangles is None
    finally:
        _vectors(random_state(999))   # the skewed dots go with the entry of s


def test_kept_values_are_shared_and_immutable():
    s = random_state(12)
    t = tangle_set(s)
    assert tangle_set(s) is t
    assert (three_tangle(s), two_tangles(s), bipartite_tangles(s)) == (
        t.tau_abc, (t.tau_bc, t.tau_ac, t.tau_ab), (t.tau_a_bc, t.tau_b_ca, t.tau_c_ab))
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.tau_abc = 0.0
    d = _vectors(s).dots()
    assert _vectors(s).dots() is d and d == _cold(s)[0]
    assert type(d) is tuple and all(type(part) is tuple and len(part) == 3 for part in d)
    for part in d:
        with pytest.raises(TypeError):
            part[0] = 0.0


def test_memo_threads_get_their_own_states():
    # the entry is shared by every thread: each must read back only the block
    # of the amplitudes it passed, however the entry is replaced meanwhile
    states = [random_state(20 + k) for k in range(8)]
    want = [(_fresh(abc_vectors, s), tangle_set(s)) for s in states]
    wrong = []

    def work(k):
        for i in range(400):
            j = (k + i) % len(states)
            if (_plain(abc_vectors(states[j])), tangle_set(states[j])) != want[j]:
                wrong.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and not wrong
