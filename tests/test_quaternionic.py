import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglevec import (AcinParams, QuaternionicState, abc_quaternionic, abc_vectors,
                       apply, balance_chi, fidelity_up_to_phase,
                       fubini_study_angle, is_quaternionic, make_acin,
                       make_ghz, maximize_three_tangle, quat_inv, quat_mul,
                       quat_to_matrix, quat_transpose, quaternionic, random_state,
                       reduce_to_acin, synthesis, tangles_quaternionic,
                       to_state, usp_generators)
from tanglevec.errors import (DegenerateInput, InvariantViolation, NotNormalized,
                              ParseError)
from tanglevec import gates
from tanglevec.gates import LocalStep, PhaseStep, local_unitary, sequence_unitary
from tanglevec.quaternionic import (_extract, _qconj, _qmul, _qtranspose, _reduce, _rotation,
                                    _step, quat_conj)
from tanglevec.so6 import so3_image
from conftest import checked_tangle_set, count_calls, count_evaluations

QI = np.array([0.0, 1.0, 0.0, 0.0])
QJ = np.array([0.0, 0.0, 1.0, 0.0])
QK = np.array([0.0, 0.0, 0.0, 1.0])


def is_quaternionic_block_matrix(m4, tol=1e-12) -> bool:
    """True when each 2x2 block of a 4x4 matrix has the [[w, z], [-z*, w*]] form."""
    m = np.asarray(m4, dtype=complex).reshape(4, 4)
    for bi in range(2):
        for bj in range(2):
            blk = m[2 * bi:2 * bi + 2, 2 * bj:2 * bj + 2]
            if abs(blk[1, 1] - np.conj(blk[0, 0])) > tol:
                return False
            if abs(blk[1, 0] + np.conj(blk[0, 1])) > tol:
                return False
    return True


def _extract_arrays(state):
    """_extract of a state array, with x and y as arrays."""
    x, y, res = _extract(state.tolist())
    return np.array(x), np.array(y), res


def _reduce_reference(qs):
    """The reduction stage by stage: apply each stage, re-read the state.

    The library designs one factor per qubit from (x, y) alone and applies
    them once; this loop, one step per stage and qubit, is the reference it
    is compared against. Returns a dict of the sequence, the parameters, the
    state after stage (iii) (the vectors' canonical frame) and the final
    state.
    """
    state = to_state(qs)
    seq: list = []

    # (i) balance x.x = y.y; the branch is chosen so the scalar part of x
    # comes out non-negative after step (ii), landing on the canonical signs
    chi = balance_chi(qs)
    x, y = qs.x, qs.y
    delta = float(x @ x - y @ y)
    omega = 2.0 * float(x @ y)
    if np.cos(2 * chi) * omega - np.sin(2 * chi) * delta < 0.0:
        chi += np.pi / 2
    step = LocalStep("b", (0.0, 2.0 * chi, 0.0))
    seq.append(step)
    state = apply([step], state)
    x, y, res = _extract_arrays(state)
    if res > 1e-9:
        raise InvariantViolation(f"lost quaternionic form while balancing ({res})")

    steps = _step("a", quat_transpose(quat_conj(2.0 * quat_conj(y))))
    seq.extend(steps)
    state = apply(steps, state)
    x, y, res = _extract_arrays(state)
    if res > 1e-9 or abs(y[0] - 0.5) > 1e-9 or np.abs(y[1:]).max() > 1e-9:
        raise InvariantViolation("y did not reduce to the scalar 1/2")

    xv = x[1:]
    if np.linalg.norm(xv) > 1e-12:
        r = _rotation(xv / np.linalg.norm(xv), [0.0, 0.0, -1.0])
        steps = _step("a", quat_transpose(quat_conj(r))) + _step("c", r)
        seq.extend(steps)
        state = apply(steps, state)
        x, y, res = _extract_arrays(state)
        if res > 1e-9:
            raise InvariantViolation("lost quaternionic form while aligning x")

    canonical_state = state.copy()
    xi = float(np.arctan2(2.0 * abs(x[0]), 2.0 * np.linalg.norm(x[1:])))
    lambdas = np.array([-np.cos(xi), np.sin(xi), 0.0, 0.0, 1.0]) / np.sqrt(2)
    target = make_acin(lambdas)

    # (iv) rotate B onto the canonical-state B with a qubit-b rotation
    b_now = abc_vectors(state).b
    u1 = np.real(b_now)
    u2 = np.imag(b_now)
    v1 = np.array([-np.sin(xi), 0.0, np.cos(xi)]) / 2
    v2 = np.array([0.0, np.sin(xi), 0.0]) / 2
    n2 = np.linalg.norm(u2)
    frame = (u2 / n2, v2 / np.linalg.norm(v2)) if n2 > 1e-12 else ()
    steps = _step("b", _rotation(u1 / np.linalg.norm(u1), v1 / np.linalg.norm(v1), *frame))
    if steps:
        seq.extend(steps)
        state = apply(steps, state)

    # all vectors now match; one z-rotation + global phase pin the state
    d111 = float(np.angle(target[7]) - np.angle(state[7]))
    ref = 0 if abs(target[0]) > 1e-9 else 2
    d0 = float(np.angle(target[ref]) - np.angle(state[ref]))
    alpha = 0.5 * (d0 - d111)
    g = 0.5 * (d0 + d111)
    tail = [LocalStep("a", (0.0, 0.0, 2.0 * alpha)), PhaseStep(g)]
    seq.extend(tail)
    state = apply(tail, state)
    return {"sequence": seq, "params": AcinParams(xi, lambdas),
            "canonical_state": canonical_state, "final_state": state}


def _random_qs(rng):
    v = rng.standard_normal(8)
    v /= np.linalg.norm(v) * np.sqrt(2)
    return QuaternionicState(v[:4], v[4:])


# --- quaternion algebra -----------------------------------------------------

def test_ij_equals_k():
    assert np.array_equal(quat_mul(QI, QJ), QK)


#: 4 finite doubles, subnormal to the largest, as a list, a tuple or an array
_QUATERNIONS = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4,
                        max_size=4).flatmap(lambda q: st.sampled_from((q, tuple(q), np.array(q))))


@settings(max_examples=300, deadline=None)
@given(_QUATERNIONS, _QUATERNIONS)
def test_the_exported_helpers_are_the_kernels(p, q):
    # each helper checks its input, then gives the kernel's value bit for bit
    # (a zero keeps its sign), or refuses a product beyond the doubles
    lp, lq = list(map(float, p)), list(map(float, q))
    r = _qmul(lp, lq)
    if all(map(math.isfinite, r)):
        assert quat_mul(p, q).tobytes() == np.array(r).tobytes()
    else:
        with pytest.raises(ParseError, match="too large for a double"):
            quat_mul(p, q)
    assert quat_conj(p).tobytes() == np.array(_qconj(lp)).tobytes()
    assert quat_transpose(p).tobytes() == np.array(_qtranspose(lp)).tobytes()


def test_inverse(rng):
    q = rng.standard_normal(4)
    prod = quat_mul(q, quat_inv(q))
    assert np.abs(prod - np.array([1, 0, 0, 0])).max() < 1e-13


def test_norm_multiplicative(rng):
    p, q = rng.standard_normal(4), rng.standard_normal(4)
    assert abs(np.linalg.norm(quat_mul(p, q)) -
               np.linalg.norm(p) * np.linalg.norm(q)) < 1e-12


def test_matrix_representation_homomorphism(rng):
    for _ in range(10):
        p, q = rng.standard_normal(4), rng.standard_normal(4)
        lhs = quat_to_matrix(quat_mul(p, q))
        rhs = quat_to_matrix(p) @ quat_to_matrix(q)
        assert np.abs(lhs - rhs).max() < 1e-13


def test_matrix_representation_sign_convention():
    # (-i sx)(-i sy) = -i sz realizes i*j = k
    assert np.abs(quat_to_matrix(QI) @ quat_to_matrix(QJ) -
                  quat_to_matrix(QK)).max() < 1e-15


def test_transpose_is_matrix_transpose(rng):
    q = rng.standard_normal(4)
    assert np.abs(quat_to_matrix(quat_transpose(q)) -
                  quat_to_matrix(q).T).max() < 1e-14


# --- state map --------------------------------------------------------------

def test_to_state_reference_entries():
    qs = QuaternionicState([0.5, 0, 0, 0], [0.5, 0, 0, 0])
    s = to_state(qs)
    expect = np.zeros(8, dtype=complex)
    expect[0] = expect[5] = expect[2] = expect[7] = 0.5
    assert np.abs(s - expect).max() == 0


def test_to_state_block_pattern(rng):
    s = to_state(_random_qs(rng))
    assert abs(s[5] - np.conj(s[0])) < 1e-15
    assert abs(s[4] + np.conj(s[1])) < 1e-15
    assert abs(s[7] - np.conj(s[2])) < 1e-15
    assert abs(s[6] + np.conj(s[3])) < 1e-15


def test_to_state_norm(rng):
    assert abs(np.linalg.norm(to_state(_random_qs(rng))) - 1) < 1e-13


def test_to_state_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        to_state(QuaternionicState([1, 0, 0, 0], [1, 0, 0, 0]))


def test_ac_swap_transposes_quaternions(rng):
    qs = _random_qs(rng)
    s = to_state(qs)
    swapped = s.reshape(2, 2, 2).transpose(2, 1, 0).reshape(8)
    back = is_quaternionic(swapped)
    assert back is not None
    xt, yt = quat_transpose(qs.x), quat_transpose(qs.y)
    sign = 1.0 if abs(back.x[0] - xt[0]) < abs(back.x[0] + xt[0]) else -1.0
    assert np.abs(back.x - sign * xt).max() < 1e-12
    assert np.abs(back.y - sign * yt).max() < 1e-12


def test_round_trip(rng):
    qs = _random_qs(rng)
    back = is_quaternionic(to_state(qs))
    assert back is not None
    sign = 1.0 if abs(back.x[0] - qs.x[0]) < abs(back.x[0] + qs.x[0]) else -1.0
    assert np.abs(back.x - sign * qs.x).max() < 1e-13
    assert np.abs(back.y - sign * qs.y).max() < 1e-13


def test_round_trip_with_global_phase(rng):
    qs = _random_qs(rng)
    s = np.exp(0.87j) * to_state(qs)
    assert is_quaternionic(s) is not None


def test_ghz_not_quaternionic():
    assert is_quaternionic(make_ghz()) is None


def test_random_state_not_quaternionic():
    for seed in range(10):
        assert is_quaternionic(random_state(seed)) is None


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-6, 1.0, 1e3, 1e6, 1e9, 1e170, 1e300])
def test_detection_is_scale_free(scale, rng):
    # the thresholds are relative to |s|, so a global phase and any finite
    # scale keep a quaternionic state quaternionic and a Haar state not
    for k in range(50):
        qs = _random_qs(rng)
        back = is_quaternionic(scale * np.exp(1j * rng.uniform(0, 2 * np.pi)) * to_state(qs))
        assert back is not None, k
        comps = np.concatenate([back.x, back.y]) / scale
        assert abs(comps @ comps - 0.5) < 1e-12
        assert is_quaternionic(scale * random_state(k)) is None, k


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_non_finite_state_refused(x):
    s = to_state(QuaternionicState([0.5, 0, 0, 0], [0.5, 0, 0, 0]))
    s[3] = x
    with pytest.raises(ParseError):
        is_quaternionic(s)
    with pytest.raises(ParseError):
        is_quaternionic(np.full(8, x))


def test_zero_quaternion_inverse_typed():
    with pytest.raises(DegenerateInput):
        quat_inv(np.zeros(4))


@pytest.mark.parametrize("scale", [1e-151, 1e-300, 1e200, 1e300])
def test_inverse_at_any_finite_scale(rng, scale):
    q = scale * rng.standard_normal(4)
    inv = quat_inv(q)
    assert np.isfinite(inv).all()
    assert np.abs(quat_mul(q, inv) - np.array([1, 0, 0, 0])).max() < 1e-13
    assert np.abs(quat_inv(np.full(4, scale)) - np.array([1, -1, -1, -1]) / (4 * scale)).max() \
        <= 1e-15 / scale


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
def test_non_finite_quaternion_inverse_refused(x):
    with pytest.raises(ParseError):
        quat_inv(np.full(4, x))
    with pytest.raises(ParseError):
        quat_inv(np.array([1.0, 0.0, x, 0.0]))


def test_quaternion_inverse_beyond_double_range_typed():
    # |q| ~ 2e-310: the inverse, about 5e309, exceeds the largest double
    with pytest.raises(DegenerateInput):
        quat_inv(np.full(4, 1e-310))


# --- vectors and tangles ----------------------------------------------------

def test_abc_matches_generic_route(rng):
    for _ in range(40):
        qs = _random_qs(rng)
        va = abc_quaternionic(qs)
        vg = abc_vectors(to_state(qs))
        assert np.abs(va.a - vg.a).max() < 1e-12
        assert np.abs(va.b - vg.b).max() < 1e-12
        assert np.abs(va.c - vg.c).max() < 1e-12


def test_abc_y_zero():
    x = np.array([0.3, -0.5, 0.2, 0.4])
    x = x / (np.linalg.norm(x) * np.sqrt(2))
    qs = QuaternionicState(x, np.zeros(4))
    v = abc_quaternionic(qs)
    assert np.abs(v.a).max() < 1e-15 and np.abs(v.c).max() < 1e-15
    x2 = float(x @ x)
    assert np.abs(v.b - np.array([-1j * x2, x2, 0])).max() < 1e-15


def test_abc_reduced_form():
    # x = (x0, 0, 0, x3), y = 1/2: A and C collapse to (0, 0, -x3),
    # B = (0, 1/2, i x0) per the generic quadratics
    x0, x3 = 0.21, np.sqrt(0.25 - 0.21**2)
    qs = QuaternionicState([x0, 0, 0, x3], [0.5, 0, 0, 0])
    v = abc_quaternionic(qs)
    assert np.abs(v.a - np.array([0, 0, -x3])).max() < 1e-14
    assert np.abs(v.c - np.array([0, 0, -x3])).max() < 1e-14
    assert np.abs(v.b - np.array([0, 0.5, 1j * x0])).max() < 1e-14


def test_tangles_maximal_case():
    # orthogonal equal-norm quaternions: unit three-tangle
    qs = QuaternionicState([0.5, 0, 0, 0], [0, 0.5, 0, 0])
    ts = tangles_quaternionic(qs)
    assert abs(ts.tau_abc - 1) < 1e-13
    assert ts.tau_ac < 1e-13


def test_tangles_y_zero():
    x = np.array([1, 0, 0, 0]) / np.sqrt(2)
    ts = tangles_quaternionic(QuaternionicState(x, np.zeros(4)))
    assert ts.tau_abc == 0.0 and abs(ts.tau_ac - 1) < 1e-14


def test_tangles_match_generic_route(rng):
    for _ in range(100):
        qs = _random_qs(rng)
        tq = tangles_quaternionic(qs)
        tg = checked_tangle_set(to_state(qs))
        for f in tq.__dataclass_fields__:
            assert abs(getattr(tq, f) - getattr(tg, f)) < 1e-11


# --- the preserved generator set --------------------------------------------

def test_usp_counts():
    gens = usp_generators()
    assert len(gens.labels) == 10 and gens.su4.shape == (10, 4, 4)
    assert len(gens.excluded_labels) == 5


def test_usp_block_structure():
    gens = usp_generators()
    for g in gens.su4:
        # i sigma... must be a quaternion-valued 2x2 block matrix
        assert is_quaternionic_block_matrix(2.0 * g)
    for g in gens.excluded_su4:
        assert not is_quaternionic_block_matrix(2.0 * g)


def test_usp_images_fix_component_two():
    gens = usp_generators()
    for g in gens.so6:
        assert np.abs(g[1, :]).max() == 0 and np.abs(g[:, 1]).max() == 0
    assert any(np.abs(g[1, :]).max() > 0 for g in gens.excluded_so6)


def test_usp_closure_under_exponentials(rng):
    gens = usp_generators()
    for k, g in enumerate(gens.su4):
        t = float(rng.uniform(0.2, 2.5))
        h = -1j * (2.0 * g) * t  # Hermitian generator of exp(t i sigma...)
        w, v = np.linalg.eigh(h)
        u8 = np.kron(np.eye(2), (v * np.exp(1j * w)) @ v.conj().T)
        s = u8 @ to_state(_random_qs(rng))
        assert is_quaternionic(s) is not None, gens.labels[k]


def test_excluded_generators_break_pattern(rng):
    gens = usp_generators()
    broke = 0
    for g in gens.excluded_su4:
        h = -1j * (2.0 * g) * 0.9
        w, v = np.linalg.eigh(h)
        u8 = np.kron(np.eye(2), (v * np.exp(1j * w)) @ v.conj().T)
        s = u8 @ to_state(_random_qs(rng))
        if is_quaternionic(s) is None:
            broke += 1
    assert broke == 5


def test_local_a_preserves_b_and_c(rng):
    qs = _random_qs(rng)
    s = to_state(qs)
    out = apply([LocalStep("a", tuple(rng.uniform(-3, 3, 3)))], s)
    v0, v1 = abc_vectors(s), abc_vectors(out)
    assert np.abs(v0.b - v1.b).max() < 1e-13
    assert np.abs(v0.c - v1.c).max() < 1e-13
    assert is_quaternionic(out) is not None


def test_right_multiplication_transitive(rng):
    # any equal-norm pair is connected by a unit quaternion
    x_in = rng.standard_normal(4)
    x_out = rng.standard_normal(4)
    x_out *= np.linalg.norm(x_in) / np.linalg.norm(x_out)
    s = quat_mul(x_out, quat_inv(x_in))
    assert abs(np.linalg.norm(s) - 1) < 1e-12
    assert np.abs(quat_mul(s, x_in) - x_out).max() < 1e-12


# --- rotation design --------------------------------------------------------

def _unit(x):
    return x / np.linalg.norm(x)


def _rotation_cases(rng, n):
    """(u, v, u2, v2) with u2 = v2 = None or orthogonal pairs: random, then
    v = u, v = -u, and v near u and near -u at scales 1e-16..1e-1 and 1e-9."""
    for _ in range(n):
        u = _unit(rng.standard_normal(3))
        near = 10.0 ** rng.uniform(-16, -1) * rng.standard_normal(3)
        noise = 1e-9 * rng.standard_normal(3)
        for v in (_unit(rng.standard_normal(3)), u, -u, _unit(u + near), _unit(near - u),
                  _unit(noise - u)):
            u2 = _unit(np.cross(u, rng.standard_normal(3)))
            v2 = _unit(np.cross(v, rng.standard_normal(3)))
            yield u, v, None, None
            yield u, v, u2, v2


def _image(steps):
    """The SO(3) rotation of at most one local step, by so6's Rodrigues form."""
    assert len(steps) <= 1
    return so3_image(steps[0].theta) if steps else np.eye(3)


def test_rotation_maps_the_frame(rng):
    tol = 8 * np.finfo(float).eps
    for u, v, u2, v2 in _rotation_cases(rng, 200):
        r = _image(_step("b", _rotation(u, v, u2, v2)))
        assert np.abs(r @ u - v).max() <= tol, (u, v)
        if u2 is not None:
            assert np.abs(r @ u2 - v2).max() <= tol, (u, v, u2, v2)


def test_rotation_is_the_shortest(rng):
    # the angle of a step is |theta|; the shortest rotation turns by arccos(u.v)
    for u, v, u2, _ in _rotation_cases(rng, 200):
        if u2 is None:
            steps = _step("c", _rotation(u, v))
            angle = np.linalg.norm(steps[0].theta) if steps else 0.0
            assert abs(angle - np.arccos(np.clip(u @ v, -1.0, 1.0))) <= 1e-7, (u, v)
    assert _step("a", _rotation(QI[1:], QI[1:])) == []
    steps = _step("a", _rotation(QI[1:], -QI[1:]))
    assert abs(np.linalg.norm(steps[0].theta) - np.pi) <= 1e-15


@pytest.mark.parametrize("qubit, embed", [
    ("a", lambda m: np.kron(m, np.eye(4))),
    ("b", lambda m: np.kron(np.eye(2), np.kron(m, np.eye(2)))),
    ("c", lambda m: np.kron(np.eye(4), m)),
])
def test_step_is_the_quaternion_with_its_sign(qubit, embed, rng):
    ps = [_unit(rng.standard_normal(4)) for _ in range(50)]
    ps += [np.array([1.0, 0.0, 0.0, 0.0]), QI, QJ, QK, np.array(_rotation(QK[1:], -QK[1:]))]
    for p in ps:
        for q in (p, -p):
            steps = _step(qubit, q)
            assert len(steps) <= 1 and all(st.qubit == qubit for st in steps)
            u = local_unitary(qubit, steps[0].theta) if steps else np.eye(8)
            assert np.abs(u - embed(quat_to_matrix(q))).max() <= 1e-14, q


# --- balance and reduction --------------------------------------------------

def test_balance_chi_already_balanced():
    qs = QuaternionicState([0.35, 0.1, 0, np.sqrt(0.25 - 0.35**2 - 0.01)],
                           [0.35, 0.1, np.sqrt(0.25 - 0.35**2 - 0.01), 0])
    assert balance_chi(qs) == 0.0


def test_balance_chi_y_zero():
    x = np.array([1, 0, 0, 0]) / np.sqrt(2)
    qs = QuaternionicState(x, np.zeros(4))
    chi = balance_chi(qs)
    assert abs(chi - np.pi / 4) < 1e-14
    out = apply([LocalStep("b", (0, 2 * chi, 0))], to_state(qs))
    x2, y2, res = _extract_arrays(out)
    assert res < 1e-14
    assert abs(float(x2 @ x2) - float(y2 @ y2)) < 1e-13


def test_balance_chi_is_scale_free():
    # the balanced test is relative to x.x + y.y, so a small pair is not
    # taken for a balanced one, and the squares are taken at unit scale
    v = np.random.default_rng(0).standard_normal(8)
    unit = balance_chi(QuaternionicState(v[:4], v[4:]))
    assert abs(unit + 1.0700) < 1e-4
    for scale in np.logspace(-300, 300, 61):
        chi = balance_chi(QuaternionicState(scale * v[:4], scale * v[4:]))
        assert abs(chi - unit) <= 1e-15, scale


@pytest.mark.parametrize("x, y, bad", [
    ([np.nan, 0, 0, 0], [0.5, 0, 0, 0.5], "x must be finite"),
    ([0.5, 0, 0, 0.5], [0, np.inf, 0, 0], "y must be finite"),
    ([0.5, 0, -np.inf, 0], [0.5, 0, 0, 0], "x must be finite"),
    ([1, 0, 0], [0.5, 0, 0, 0.5], "x: expected 4"),
    ([0.5, 0, 0, 0.5], [0.5, 0, 0, 0, 0], "y: expected 4"),
    ([0.5, 0, 0, 0.5], ["a", "b", "c", "d"], "y: expected 4"),
], ids=["nan-x", "inf-y", "-inf-x", "short-x", "long-y", "text-y"])
def test_quaternionic_state_refuses_bad_components(x, y, bad):
    # refused at construction, so no NaN reaches to_state, the tangles or
    # the reduction
    with pytest.raises(ParseError, match=bad):
        QuaternionicState(x, y)


def test_balance_kills_first_b_component(rng):
    for _ in range(10):
        qs = _random_qs(rng)
        chi = balance_chi(qs)
        out = apply([LocalStep("b", (0, 2 * chi, 0))], to_state(qs))
        assert abs(abc_vectors(out).b[0]) < 1e-12


def test_reduce_to_acin_reference_vectors(rng):
    for _ in range(25):
        qs = _random_qs(rng)
        stages = _reduce_reference(qs)
        xi = stages["params"].xi
        v = abc_vectors(stages["canonical_state"])
        tgt_ac = np.array([0, 0, np.cos(xi)]) / 2
        tgt_b = np.array([0, 1, 1j * np.sin(xi)]) / 2
        assert np.abs(v.a - tgt_ac).max() < 1e-10
        assert np.abs(v.c - tgt_ac).max() < 1e-10
        assert np.abs(v.b - tgt_b).max() < 1e-10


def test_reduce_to_acin_final_state(rng):
    for _ in range(25):
        qs = _random_qs(rng)
        seq, params = reduce_to_acin(qs)
        out = apply(seq, to_state(qs))
        target = make_acin(params.lambdas)
        assert fidelity_up_to_phase(out, target) >= 1 - 1e-10
        assert params.lambdas[2] == 0.0 and params.lambdas[3] == 0.0
        assert 0.0 <= params.xi <= np.pi / 2 + 1e-12


def test_reduce_preserves_tangles(rng):
    qs = _random_qs(rng)
    s = to_state(qs)
    seq, _ = reduce_to_acin(qs)
    t0, t1 = checked_tangle_set(s), checked_tangle_set(apply(seq, s))
    for f in t0.__dataclass_fields__:
        assert abs(getattr(t0, f) - getattr(t1, f)) < 1e-10


def test_reduce_local_equivalence(rng):
    qs = _random_qs(rng)
    s = to_state(qs)
    seq, _ = reduce_to_acin(qs)
    assert fubini_study_angle(s, apply(seq, s), seed=2) < 1e-6


def test_reduce_edge_pure_scalar():
    qs = QuaternionicState([np.sqrt(0.5), 0, 0, 0], np.zeros(4))
    seq, params = reduce_to_acin(qs)
    out = apply(seq, to_state(qs))
    assert fidelity_up_to_phase(out, make_acin(params.lambdas)) >= 1 - 1e-10
    assert abs(params.xi - np.pi / 2) < 1e-12


def _replay_states(rng, n):
    """n states of each of seven classes, each with x.x + y.y = 1/2."""
    def pair(x, y):
        k = np.sqrt(2 * (x @ x + y @ y))
        return QuaternionicState(x / k, y / k)

    for _ in range(n):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        along = np.zeros(4)
        along[[0, rng.integers(1, 4)]] = x[:2]
        yield "generic", pair(x, y)
        yield "scalar x", pair(x * [1, 0, 0, 0], y)
        yield "scalar y", pair(x, y * [1, 0, 0, 0])
        yield "x along one axis", pair(along, y)
        yield "y parallel to x", pair(x, rng.standard_normal() * x)
        yield "y zero", pair(x, np.zeros(4))
        yield "x zero", pair(np.zeros(4), y)


def test_reduce_matches_stage_by_stage_reference():
    # the closed-form design against the loop that applies each stage and
    # re-reads the state: on every qubit the design's one step is the product
    # of the reference's steps, sign included (less the reference's trailing
    # phase, which is at rounding), with the same angles and final state
    for k, (kind, qs) in enumerate(_replay_states(np.random.default_rng(13), 430)):
        ref = _reduce_reference(qs)
        seq, params, final, residual = _reduce(qs)
        *ref_seq, phase = ref["sequence"]
        assert isinstance(phase, PhaseStep) and abs(phase.alpha) < 1e-12, (k, kind)
        assert len(seq) == len({st.qubit for st in seq}) <= 3, (k, kind)
        for q in "abc":
            u, u_ref = (sequence_unitary([st for st in steps if st.qubit == q])
                        for steps in (seq, ref_seq))
            assert np.abs(u - u_ref).max() < 1e-10, (k, kind, q)
        assert np.abs(final - ref["final_state"]).max() < 1e-12, (k, kind)
        assert abs(params.xi - ref["params"].xi) < 1e-12, (k, kind)
        assert np.abs(params.lambdas - ref["params"].lambdas).max() < 1e-12, (k, kind)
        assert residual <= 1e-14, (k, kind)


def _sequence_values(seq):
    """Each step of a sequence as plain values: its kind, its qubit or pair, its angles."""
    return [(step.kind, getattr(step, "qubit", getattr(step, "pair", None)),
             np.ravel(getattr(step, "theta", getattr(step, "alpha", None))).tolist())
            for step in seq]


def _designs():
    """The reduction and the quaternionic vectors of the replay states, and both maximizer
    variants on every pair spelling of random_state(0..49), as plain values."""
    out = []
    for _, qs in _replay_states(np.random.default_rng(13), 430):
        seq, params = reduce_to_acin(qs)
        out.append((_sequence_values(seq), params.xi, params.lambdas.tolist(),
                    [abc_quaternionic(qs).by_qubit(q).tolist() for q in "abc"]))
    for k in range(50):
        for pair in ("ab", "ba", "bc", "cb", "ac", "ca"):
            for variant in ("economical", "single"):
                res = maximize_three_tangle(random_state(k), pair, variant)
                out.append((_sequence_values(res.sequence), res.achieved))
    return out


def test_the_designers_call_no_checked_helper(monkeypatch):
    # the designers work on values checked at the boundary, through the
    # kernels, and derive what they design once: the reduction its balance
    # angle from its own dots, the maximizer its gauge from the entry it
    # holds, and they build their steps unchecked. With the exported helpers
    # and the steps' check broken they give the same results
    expected = _designs()

    def broken(*args):
        raise AssertionError("a designer called an exported helper")
    for module in (quaternionic, synthesis):   # a module lacking a name must not gain a call to it
        for name in ("quat_mul", "quat_conj", "quat_transpose", "balance_chi", "gauge_phase"):
            monkeypatch.setattr(module, name, broken, raising=False)
    monkeypatch.setattr(gates, "_reals", broken)
    assert _designs() == expected


@pytest.mark.parametrize("x, y", [([0.5, 0, 0, 0], [0, 0.5, 0, 0]),
                                  ([0, 0.5, 0, 0], [0, 0, 0, -0.5]),
                                  ([0.3, 0.4, 0, 0], [-0.4, 0.3, 0, 0])])
def test_reduce_at_zero_xi(x, y):
    # |x| = |y| and x orthogonal to y: unit three-tangle, xi = 0, and Im B
    # is zero after stage (iii). The design still takes the turn about
    # Re B; the reference skips it and fixes the phases from the state
    qs = QuaternionicState(x, y)
    seq, params, final, residual = _reduce(qs)
    ref = _reduce_reference(qs)
    assert params.xi < 1e-15 and ref["params"].xi < 1e-15
    assert residual <= 1e-15
    assert np.abs(final - ref["final_state"]).max() < 1e-12
    assert abs(fidelity_up_to_phase(apply(seq, to_state(qs)), make_acin(params.lambdas)) - 1) \
        < 1e-12


_BALANCED = np.sqrt(0.25 - 0.35**2 - 0.01)


@pytest.mark.parametrize("x, y", [([0.35, 0.1, 0, _BALANCED], [0.35, 0.1, _BALANCED, 0]),
                                  ([0.5, 0, 0, 0], [-0.5, 0, 0, 0]),
                                  ([0.5, 0, 0, 0], [0, 0.5, 0, 0]),
                                  ([np.sqrt(0.5), 0, 0, 0], [0, 0, 0, 0])],
                         ids=["omega-positive", "omega-negative", "omega-zero", "y-zero"])
def test_reduce_on_the_balanced_floor(x, y):
    # x.x = y.y exactly in the first three, where the balance angle is 0 or
    # pi/2 by the sign of omega = 2 x.y; y = 0 is balanced by pi/4 + pi/2 at
    # omega = 0. The design lands on the stage-by-stage reference's state
    qs = QuaternionicState(x, y)
    seq, params = reduce_to_acin(qs)
    ref = _reduce_reference(qs)
    assert np.abs(apply(seq, to_state(qs)) - ref["final_state"]).max() < 1e-12
    assert abs(params.xi - ref["params"].xi) < 1e-12


def test_reduce_applies_once(rng, monkeypatch):
    apply_calls = count_calls(monkeypatch, apply)
    vector_calls = count_evaluations(monkeypatch)
    reduce_to_acin(_random_qs(rng))
    assert (len(apply_calls), len(vector_calls)) == (1, 0)


def test_reduce_refuses_a_missed_canonical_state(rng, monkeypatch):
    # the one apply checks the designed sequence: a wrong design is refused
    monkeypatch.setattr("tanglevec.quaternionic.apply", lambda seq, s: s)
    with pytest.raises(InvariantViolation, match="canonical state"):
        reduce_to_acin(_random_qs(rng))


def test_reduce_edge_aligned_pair():
    qs = QuaternionicState([0.5, 0, 0, 0], [0.5, 0, 0, 0])
    seq, params = reduce_to_acin(qs)
    out = apply(seq, to_state(qs))
    assert fidelity_up_to_phase(out, make_acin(params.lambdas)) >= 1 - 1e-10
