import numpy as np
import pytest

from tanglevec import (GaugeUndefined, ParseError, abc_vectors, apply_gauge,
                       gauge_phase, make_acin, make_asymmetric_w, make_ghz,
                       matricize, plucker_residual, q_vector, random_state,
                       three_tangle, two_tangles)

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
