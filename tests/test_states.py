import json

import numpy as np
import pytest

from tanglevec import (ParseError, ZeroState, bipartite_tangles,
                       fidelity_up_to_phase, make_acin, make_asymmetric_w,
                       make_ghz, matricize, normalize, random_state,
                       state_from_json, state_to_json, three_tangle)
from tanglevec.errors import NotNormalized

STD_THETA = np.arccos(1 / np.sqrt(3))


def test_normalize_scaling():
    s = normalize([2, 0, 0, 0, 0, 0, 0, 0])
    assert np.allclose(s, [1, 0, 0, 0, 0, 0, 0, 0])


def test_normalize_symmetric():
    s = normalize([1, 0, 0, 0, 0, 0, 0, 1])
    assert np.allclose(s, np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2))


def test_normalize_zero_state():
    with pytest.raises(ZeroState):
        normalize(np.zeros(8))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_normalize_refuses_non_finite(bad):
    s = random_state(2).copy()
    s[5] = bad
    with pytest.raises(ParseError):
        normalize(s)


def test_normalize_rescales_when_the_square_overflows():
    s = random_state(1)
    with pytest.warns(RuntimeWarning, match="overflow"):
        out = normalize(1e200 * s)
    assert np.abs(out - s).max() < 1e-15


def test_normalize_idempotent():
    s = normalize(random_state(5) * 3.7)
    assert np.array_equal(normalize(s), normalize(normalize(s)))


def test_ghz_amplitudes():
    g = make_ghz()
    w = np.exp(-0.25j * np.pi) / np.sqrt(2)
    assert abs(g[0] - w) < 1e-15 and abs(g[7] - w) < 1e-15
    assert np.abs(g[1:7]).max() == 0


def test_ghz_three_tangle_is_one():
    assert abs(three_tangle(make_ghz()) - 1.0) < 1e-12


def test_asymmetric_w_theta_zero_is_separable():
    s = make_asymmetric_w(0.0, 1.234)
    assert abs(s[4] - 1.0) < 1e-15
    from tanglevec import abc_vectors
    v = abc_vectors(s)
    assert max(np.abs(v.a).max(), np.abs(v.b).max(), np.abs(v.c).max()) < 1e-15


def test_asymmetric_w_phi_zero_biseparable():
    s = make_asymmetric_w(0.7, 0.0)
    from tanglevec import two_tangles
    t_bc, t_ac, t_ab = two_tangles(s)
    assert t_ab < 1e-14 and t_bc < 1e-14
    assert t_ac > 0.1


def test_asymmetric_w_standard():
    s = make_asymmetric_w(STD_THETA, np.pi / 4)
    expect = np.zeros(8)
    expect[1] = expect[2] = expect[4] = 1 / np.sqrt(3)
    assert np.abs(s - expect).max() < 1e-15


def test_acin_reference_state():
    xi = np.pi / 3
    lam = np.array([-np.cos(xi), np.sin(xi), 0, 0, 1]) / np.sqrt(2)
    s = make_acin(lam)
    p = np.exp(0.25j * np.pi)
    expect = np.zeros(8, dtype=complex)
    expect[0] = -p * np.cos(xi) / np.sqrt(2)
    expect[2] = p * np.sin(xi) / np.sqrt(2)
    expect[7] = p / np.sqrt(2)
    assert np.abs(s - expect).max() < 1e-15


def test_acin_product_state():
    s = make_acin([1, 0, 0, 0, 0])
    assert abs(s[0] - np.exp(0.25j * np.pi)) < 1e-15
    from tanglevec import tangle_set
    ts = tangle_set(s)
    assert max(abs(v) for v in ts.as_dict().values()) < 1e-14


def test_acin_ghz_equivalent_tangle():
    # A = (0, 0, -l0 l4) for l1=l2=l3=0 gives |A.A| = 1/4, so tau = 1
    s = make_acin([1 / np.sqrt(2), 0, 0, 0, 1 / np.sqrt(2)])
    assert abs(three_tangle(s) - 1.0) < 1e-12


def test_acin_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        make_acin([1, 1, 0, 0, 0])


def test_matricize_basis_ket():
    s = np.zeros(8)
    s[0] = 1  # |000>
    m = matricize(s, 1)
    assert m[0, 0] == 1 and np.abs(m).sum() == 1


def test_matricize_101_layout():
    s = np.zeros(8)
    s[5] = 1  # |101>: row (j,k) = (0,1), column i = 1
    m = matricize(s, 1)
    assert m[1, 1] == 1 and np.abs(m).sum() == 1


@pytest.mark.parametrize("partition", [1, 2, 3])
def test_matricize_is_permutation(partition):
    s = random_state(17)
    m = matricize(s, partition)
    assert np.allclose(sorted(np.abs(m.ravel())), sorted(np.abs(s)))


def test_matricize_layouts_match_definition():
    s = random_state(23)
    t = s.reshape(2, 2, 2)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert matricize(s, 1)[2 * j + k, i] == t[i, j, k]
                assert matricize(s, 2)[2 * k + i, j] == t[i, j, k]
                assert matricize(s, 3)[2 * i + j, k] == t[i, j, k]


def test_fidelity_identity_and_phase():
    s = random_state(9)
    assert abs(fidelity_up_to_phase(s, s) - 1) < 1e-14
    assert abs(fidelity_up_to_phase(s, np.exp(0.77j) * s) - 1) < 1e-14


def test_fidelity_orthogonal():
    a = np.zeros(8)
    b = np.zeros(8)
    a[0] = 1
    b[7] = 1
    assert fidelity_up_to_phase(a, b) == 0


def test_fidelity_symmetric():
    s1, s2 = random_state(1), random_state(2)
    assert abs(fidelity_up_to_phase(s1, s2) - fidelity_up_to_phase(s2, s1)) < 1e-15


def test_random_state_deterministic():
    assert np.array_equal(random_state(42), random_state(42))


def test_random_state_normalized():
    for seed in range(20):
        assert abs(np.linalg.norm(random_state(seed)) - 1) < 1e-12


def test_random_state_tangle_statistics():
    taus = [bipartite_tangles(random_state(k))[2] for k in range(1000)]
    mean = np.mean(taus)
    assert np.isfinite(mean) and 0.0 <= min(taus) and max(taus) <= 1.0 + 1e-12


def test_json_round_trip():
    s = random_state(3)
    assert np.abs(state_from_json(state_to_json(s)) - s).max() < 1e-16


def test_json_rejects_wrong_length():
    with pytest.raises(ParseError):
        state_from_json(json.dumps({"amplitudes": [[1, 0]] * 7}))
    with pytest.raises(ParseError):
        state_from_json(json.dumps({"amplitudes": [[1, 0]] * 9}))


def test_json_rejects_garbage():
    with pytest.raises(ParseError):
        state_from_json("{nope")
    with pytest.raises(ParseError):
        state_from_json(json.dumps({"amps": []}))
    with pytest.raises(ParseError):
        state_from_json(json.dumps({"amplitudes": [[float("nan"), 0]] + [[0, 0]] * 7}))
    with pytest.raises(ParseError):
        state_from_json(json.dumps({"amplitudes": [[None, 0]] + [[0, 0]] * 7}))
