import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglevec import (CouplingStep, LocalStep, ParseError, abc_vectors,
                       apply, bipartite_tangles, bipartite_tangle_from_density,
                       ckw_residual, gauge_phase, make_asymmetric_w,
                       make_ghz, plucker_residual, q_vector, random_state, tangle_set,
                       three_tangle, two_tangles)
from tanglevec.states import squared_norm
from tanglevec.vectors import _ABC_QUADS, EPS_INV, _dots, _vectors
from conftest import checked_tangle_set, count_calls

STD_THETA = np.arccos(1 / np.sqrt(3))


def test_ghz_tangles():
    ts = checked_tangle_set(make_ghz())
    assert abs(ts.tau_abc - 1) < 1e-12
    assert max(ts.tau_bc, ts.tau_ac, ts.tau_ab) < 1e-12
    assert max(abs(ts.tau_a_bc - 1), abs(ts.tau_b_ca - 1), abs(ts.tau_c_ab - 1)) < 1e-12


def test_w_three_tangle_zero():
    assert three_tangle(make_asymmetric_w(0.9, 0.4)) < 1e-13


def test_w_two_tangles_analytic():
    th, ph = 1.0, 0.35
    t_bc, t_ac, t_ab = two_tangles(make_asymmetric_w(th, ph))
    st, ct, sp, cp = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
    assert abs(t_ab - 4 * (st * ct * sp) ** 2) < 1e-13
    assert abs(t_ac - 4 * (st * ct * cp) ** 2) < 1e-13
    assert abs(t_bc - 4 * (st**2 * sp * cp) ** 2) < 1e-13


def test_w_quarter_pi_two_tangles():
    ph = 0.77
    t_bc, t_ac, t_ab = two_tangles(make_asymmetric_w(np.pi / 4, ph))
    assert abs(t_ab - np.sin(ph) ** 2) < 1e-13
    assert abs(t_ac - np.cos(ph) ** 2) < 1e-13


def test_w_bipartite_tangle():
    th, ph = 0.83, 0.21
    s = make_asymmetric_w(th, ph)
    checked_tangle_set(s)
    t_a, _, _ = bipartite_tangles(s)
    assert abs(t_a - np.sin(2 * th) ** 2) < 1e-13


def test_product_state_bipartite_zero():
    s = np.zeros(8)
    s[0] = 1.0
    checked_tangle_set(s)
    assert max(bipartite_tangles(s)) == 0.0


def test_density_oracle_ghz():
    assert abs(bipartite_tangle_from_density(make_ghz(), "c") - 1) < 1e-13


def test_density_oracle_pure_marginal():
    s = np.zeros(8)
    s[0] = 1.0
    for q in "abc":
        assert bipartite_tangle_from_density(s, q) == 0.0


@pytest.mark.parametrize("seed", range(40))
def test_oracle_matches_vector_formulas(seed):
    s = random_state(seed)
    taus = bipartite_tangles(s)
    for tau, q in zip(taus, "abc"):
        assert abs(tau - bipartite_tangle_from_density(s, q)) < 1e-12


@pytest.mark.parametrize("seed", range(40))
def test_ckw_sweep(seed):
    s = random_state(seed)
    checked_tangle_set(s)
    assert ckw_residual(s) < 1e-11


def test_ckw_named_states():
    for s, tol in ((make_ghz(), 1e-12), (make_asymmetric_w(np.pi / 4, 0.3), 1e-13)):
        checked_tangle_set(s)
        assert ckw_residual(s) < tol


def test_spectator_tangle_invariant_under_pair_coupling():
    rng = np.random.default_rng(7)
    for seed in range(15):
        s = random_state(seed)
        before = checked_tangle_set(s).tau_c_ab
        seq = [
            LocalStep("a", tuple(rng.uniform(-3, 3, 3))),
            CouplingStep("ab", rng.uniform(-2, 2, (3, 3))),
            LocalStep("b", tuple(rng.uniform(-3, 3, 3))),
        ]
        after = checked_tangle_set(apply(seq, s)).tau_c_ab
        assert abs(after - before) < 1e-11


def test_tangle_sum_conserved_under_pair_group():
    rng = np.random.default_rng(8)
    for seed in range(15):
        s = random_state(seed)
        t_bc, t_ac, _ = two_tangles(s)
        before = three_tangle(s) + t_bc + t_ac
        seq = [CouplingStep("ab", rng.uniform(-2, 2, (3, 3)))]
        out = apply(seq, s)
        t_bc2, t_ac2, _ = two_tangles(out)
        after = three_tangle(out) + t_bc2 + t_ac2
        assert abs(after - before) < 1e-11


def test_two_tangles_invariant_under_all_locals():
    rng = np.random.default_rng(9)
    for seed in range(15):
        s = random_state(seed)
        seq = [LocalStep(q, tuple(rng.uniform(-3, 3, 3))) for q in "abc"]
        assert np.abs(np.array(two_tangles(apply(seq, s))) -
                      np.array(two_tangles(s))).max() < 1e-12


def test_tangles_clamped_nonnegative():
    for seed in range(200):
        ts = checked_tangle_set(random_state(seed))
        assert min(ts.as_dict().values()) >= 0.0


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       angles=st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9))
def test_tangles_invariant_under_local_unitaries(seed, angles):
    s = random_state(seed)
    seq = [LocalStep(q, tuple(angles[3 * k:3 * k + 3])) for k, q in enumerate("abc")]
    t1 = checked_tangle_set(s).as_dict()
    t2 = checked_tangle_set(apply(seq, s)).as_dict()
    for name, value in t1.items():
        assert abs(t2[name] - value) <= 1e-10, name


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3.0, 3.0))
def test_ckw_identity_at_any_scale(seed, log_scale):
    s = 10.0**log_scale * random_state(seed)
    checked_tangle_set(s)
    assert ckw_residual(s) <= 1e-11 * 10.0 ** (4 * log_scale)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3.0, 3.0),
       phase=st.floats(0.0, 2 * np.pi))
def test_scale_covariance(seed, log_scale, phase):
    # A, B, C are quadratic and the tangles quartic in the amplitudes, at
    # any scale: no tolerance may be absolute
    s = random_state(seed)
    lam = 10.0**log_scale * np.exp(1j * phase)
    v1, v2 = abc_vectors(s), abc_vectors(lam * s)
    for x1, x2 in ((v1.a, v2.a), (v1.b, v2.b), (v1.c, v2.c)):
        assert np.abs(x2 - lam**2 * x1).max() <= 1e-12 * abs(lam) ** 2
    t1, t2 = checked_tangle_set(s).as_dict(), checked_tangle_set(lam * s).as_dict()
    for name, value in t1.items():
        assert abs(t2[name] - abs(lam) ** 4 * value) <= 1e-10 * abs(lam) ** 4, name
    assert gauge_phase(lam * s).defined == gauge_phase(s).defined


def _density_route_b(s):
    return bipartite_tangle_from_density(s, "b")


@pytest.mark.parametrize("fn", [tangle_set, three_tangle, ckw_residual,
                                bipartite_tangles, _density_route_b])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_amplitudes_refused(fn, bad):
    # the input is blamed, not the formulas, and nothing warns on the way
    s = random_state(4).copy()
    s[3] = bad
    with pytest.raises(ParseError, match="finite"):
        fn(s)


def _q_vector_3(s):
    return q_vector(s, 3)


@pytest.mark.parametrize("fn", [tangle_set, ckw_residual, abc_vectors, _q_vector_3,
                                gauge_phase, plucker_residual, bipartite_tangles])
def test_one_vector_evaluation_per_call(fn, monkeypatch):
    calls = count_calls(monkeypatch, _vectors)
    fn(random_state(3))
    assert len(calls) == 1


@pytest.mark.parametrize("fn", [abc_vectors, _q_vector_3, plucker_residual,
                                gauge_phase, tangle_set, ckw_residual,
                                bipartite_tangles])
def test_one_norm_per_call(fn, monkeypatch):
    # the check and the tolerance share one |s|^2; an immediate repeat on the
    # same amplitudes reads the evaluation back
    _vectors(random_state(4))   # so that random_state(3) was not evaluated last
    calls = count_calls(monkeypatch, squared_norm)
    fn(random_state(3))
    assert len(calls) == 1
    fn(random_state(3))
    assert len(calls) == 1


@pytest.mark.parametrize("fn", [tangle_set, ckw_residual, bipartite_tangles,
                                abc_vectors, gauge_phase, plucker_residual,
                                _density_route_b])
def test_quartic_overflow_refused(fn):
    # |s|^4 fits in a double up to |s| ~ 1.2e77; above it the input is
    # refused by name, not blamed on the formulas or returned as inf/NaN
    s = random_state(0)
    for scale in (1e-100, 1e77):
        fn(scale * s)
    for scale in (1.2e77, 1e78, 1e200):
        with pytest.raises(ParseError, match=r"\|s\|\^4 overflows"):
            fn(scale * s)


def test_subnormal_measures_agree():
    # between |s| ~ 1e-81 and 1e-77 the quartic measures are subnormal and
    # EPS_INV |s|^4 underflows; the tolerance keeps a floor of a few dozen
    # subnormal spacings there and is unchanged above it
    for log_scale in np.arange(-70.0, -99.25, -0.25):
        for seed in range(50):
            ts = tangle_set(10.0 ** log_scale * random_state(seed))
            assert min(ts.as_dict().values()) >= 0.0
    for scale in (1e-70, 1.0, 1e70):
        s = scale * random_state(0)
        assert _vectors(s).tol == EPS_INV * squared_norm(s) ** 2


def _einsum_route(s):
    """(A.A, B.B, C.C), (|A|^2, |B|^2, |C|^2) and the seven measures, all by numpy einsum.

    It shares only the nine forms with the library (tested against the written-out
    polynomials in test_vectors), none of the scalar arithmetic after them.
    """
    v = np.einsum("kij,i,j->k", _ABC_QUADS.reshape(9, 8, 8), s, s).reshape(3, 3)
    sq = np.einsum("ki,ki->k", v, v)
    hn = np.einsum("ki,ki->k", v, v.conj()).real
    na, nb, nc = hn
    measures = {"tau_abc": 4.0 * abs(sq[0]),
                **dict(zip(("tau_bc", "tau_ac", "tau_ab"), 2.0 * (hn - np.abs(sq)))),
                "tau_a_bc": 2.0 * (nb + nc), "tau_b_ca": 2.0 * (nc + na),
                "tau_c_ab": 2.0 * (na + nb)}
    return sq, hn, measures


def test_scalar_route_matches_einsum():
    # after the one evaluation the measures are Python arithmetic; a numpy
    # route written here must agree to a few roundings of |s|^4 at every
    # scale up to the overflow refusal
    theta = float(STD_THETA)
    named = [make_ghz(), make_asymmetric_w(theta, np.pi / 4), make_asymmetric_w(0.6, 0.3),
             np.eye(8)[5], np.kron([0.6, 0.8j], [0.0, 0.6, -0.8, 0.0])]
    for s in [random_state(k) for k in range(50)] + named:
        for scale in (1e-70, 1e-35, 1.0, 1e35, 1e70, 1e77):
            c = scale * np.asarray(s, dtype=complex)
            bound = 1e-14 * squared_norm(c) ** 2
            sq, hn, measures = _einsum_route(c)
            got_sq, got_hn = _dots(_vectors(c).m)
            assert max(abs(np.array(got_sq) - sq).max(), abs(np.array(got_hn) - hn).max()) <= bound
            got = tangle_set(c).as_dict()
            assert max(abs(got[k] - measures[k]) for k in measures) <= bound, (scale, got)
