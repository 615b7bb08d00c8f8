import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tanglevec.tangles
from tanglevec import (CouplingStep, LocalStep, ParseError, abc_vectors,
                       apply, bipartite_tangles, bipartite_tangle_from_density,
                       ckw_residual, gauge_phase, make_asymmetric_w, make_ghz,
                       random_state, tangle_set, three_tangle, two_tangles)

STD_THETA = np.arccos(1 / np.sqrt(3))


def test_ghz_tangles():
    ts = tangle_set(make_ghz())
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
    t_a, _, _ = bipartite_tangles(make_asymmetric_w(th, ph))
    assert abs(t_a - np.sin(2 * th) ** 2) < 1e-13


def test_product_state_bipartite_zero():
    s = np.zeros(8)
    s[0] = 1.0
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
    assert ckw_residual(random_state(seed)) < 1e-11


def test_ckw_named_states():
    assert ckw_residual(make_ghz()) < 1e-12
    assert ckw_residual(make_asymmetric_w(np.pi / 4, 0.3)) < 1e-13


def test_spectator_tangle_invariant_under_pair_coupling():
    rng = np.random.default_rng(7)
    for seed in range(15):
        s = random_state(seed)
        before = bipartite_tangles(s)[2]
        seq = [
            LocalStep("a", tuple(rng.uniform(-3, 3, 3))),
            CouplingStep("ab", rng.uniform(-2, 2, (3, 3))),
            LocalStep("b", tuple(rng.uniform(-3, 3, 3))),
        ]
        after = bipartite_tangles(apply(seq, s))[2]
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
        ts = tangle_set(random_state(seed))
        assert min(ts.as_dict().values()) >= 0.0


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
    t1, t2 = tangle_set(s).as_dict(), tangle_set(lam * s).as_dict()
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


@pytest.mark.parametrize("fn", [tangle_set, ckw_residual])
def test_one_vector_evaluation_per_call(fn, monkeypatch):
    calls = []

    def counting(s):
        calls.append(1)
        return abc_vectors(s)

    monkeypatch.setattr(tanglevec.tangles, "abc_vectors", counting)
    monkeypatch.setattr(tanglevec.tangles, "CROSS_CHECK", False)
    fn(random_state(3))
    assert len(calls) == 1
