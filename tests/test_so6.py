import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import tanglevec.so6
from tanglevec import (CouplingStep, IndexOutOfRange, LocalStep,
                       NotRepresentable, PhaseStep, UnknownGenerator, apply,
                       coupling_axis_step, evolve_q, generator_map, lambda_generator, named_gate,
                       q_vector, random_state, so3_image, so6_image,
                       su_generator, verify_commutators)
from tanglevec.so6 import GENERATOR_LABELS, SO6_BASIS
from tanglevec.states import PARTITION_PAIR, PARTITION_SPECTATOR
from conftest import PICTURE_ORDERS, both_pictures


def test_so3_z_rotation_plane_21():
    th = 0.81
    r = so3_image((0, 0, th))
    a = np.array([0.3, -0.5, 0.9])
    expect = np.array([np.cos(th) * a[0] + np.sin(th) * a[1],
                       np.cos(th) * a[1] - np.sin(th) * a[0],
                       a[2]])
    assert np.abs(r @ a - expect).max() < 1e-14


def test_so3_two_pi_is_identity():
    assert np.abs(so3_image((0, 0, 2 * np.pi)) - np.eye(3)).max() < 1e-14


def test_so3_orthogonal(rng):
    for _ in range(10):
        r = so3_image(rng.uniform(-4, 4, 3))
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-13
        assert abs(np.linalg.det(r) - 1) < 1e-13


def test_hadamard_local_composite():
    # the rotation part of H sends A -> (-A3, A2, A1) before the inversion
    r = so3_image((0, 0, np.pi)) @ so3_image((0, np.pi / 2, 0))
    a = np.array([1.0, 2.0, 3.0])
    assert np.abs(r @ a - np.array([3.0, -2.0, 1.0])).max() < 1e-14


def test_hadamard_net_dual_action():
    # net action including the global phase: A -> (-A3, A2, -A1), Bt -> -Bt
    s = random_state(3)
    q0 = q_vector(s, 3)
    q1 = evolve_q(named_gate("H", "a"), q0)
    a = q0.q[:3]
    pred = np.concatenate([[-a[2], a[1], -a[0]], -q0.q[3:]])
    assert np.abs(q1.q - pred).max() < 1e-12


def test_lambda_generator_entries():
    g = lambda_generator(2, 3).g
    assert g[1, 5] == -1 and g[5, 1] == 1 and np.abs(g).sum() == 2
    assert np.array_equal(g, -g.T)


def test_lambda_block_form():
    alpha = np.array([0.3, 1.1, -0.6])
    g = sum(alpha[n] * lambda_generator(n + 1, n + 1).g for n in range(3))
    expect = np.zeros((6, 6))
    expect[:3, 3:] = -np.diag(alpha)
    expect[3:, :3] = np.diag(alpha)
    assert np.abs(g - expect).max() == 0


def test_lambda_exponential_cos_sin_blocks():
    alpha = np.array([0.3, 1.1, -0.6])
    step = CouplingStep("ab", np.diag(alpha))
    y = so6_image(step, 3).y
    expect = np.block([[np.diag(np.cos(alpha)), -np.diag(np.sin(alpha))],
                       [np.diag(np.sin(alpha)), np.diag(np.cos(alpha))]])
    assert np.abs(y - expect).max() < 1e-13


@pytest.mark.parametrize("pair", ["ab", "ba"])
def test_coupling_rotation_matches_expm(pair, rng):
    # the closed form from the SVD of theta against scipy's exponential of
    # sum theta_nm Lambda_nm, theta transposed on the reversed spelling
    for _ in range(20):
        th = rng.uniform(-2, 2, (3, 3))
        layout = th.T if pair == "ba" else th
        ref = expm(np.tensordot(layout.ravel(), SO6_BASIS[6:], axes=1).astype(float))
        assert np.abs(so6_image(CouplingStep(pair, th), 3).y - ref).max() < 1e-13


def test_lambda_plane_rotation():
    xi = 0.47
    y = so6_image(CouplingStep("ab", np.diag([2 * xi, 0, 0])), 3).y
    v = np.arange(1.0, 7.0)
    out = y @ v
    assert abs(out[0] - (np.cos(2 * xi) * v[0] - np.sin(2 * xi) * v[3])) < 1e-13
    assert abs(out[3] - (np.sin(2 * xi) * v[0] + np.cos(2 * xi) * v[3])) < 1e-13
    assert np.abs(out[[1, 2, 4, 5]] - v[[1, 2, 4, 5]]).max() < 1e-13


def test_lambda_index_range():
    with pytest.raises(IndexOutOfRange):
        lambda_generator(0, 2)
    with pytest.raises(IndexOutOfRange):
        lambda_generator(1, 4)


def test_generator_map_table_entries():
    assert generator_map("z_a").g[0, 1] == 1      # I_21 on the first block
    assert generator_map("xx").g[0, 3] == -1      # Lambda_11
    assert generator_map("y_a").g[0, 2] == -1     # -I_31: flips the I_31 signs
    assert generator_map("x_b").g[4, 5] == 1      # I_32 on the second block


def test_generator_map_bracket_example():
    # [i/2 s_yk, i/2 s_xk] = i/2 s_z^(a)  <->  [L_2k, L_1k] = I_21^(a)
    for k in "xyz":
        lhs_su = su_generator("y" + k) @ su_generator("x" + k) - \
            su_generator("x" + k) @ su_generator("y" + k)
        assert np.abs(lhs_su - su_generator("z_a")).max() < 1e-14
        lhs_so = generator_map("y" + k).g @ generator_map("x" + k).g - \
            generator_map("x" + k).g @ generator_map("y" + k).g
        assert np.array_equal(lhs_so, generator_map("z_a").g)


def test_generator_map_commuting_example():
    for k in "xyz":
        lhs = generator_map("x_a").g @ generator_map("x" + k).g - \
            generator_map("x" + k).g @ generator_map("x_a").g
        assert np.abs(lhs).max() == 0


def test_generator_map_y_bracket_lands_on_third_row():
    # [image(y_a), image(xk)] = image(zk) on both sides of the dictionary
    for k in "xyz":
        lhs_su = su_generator("y_a") @ su_generator("x" + k) - \
            su_generator("x" + k) @ su_generator("y_a")
        assert np.abs(lhs_su - su_generator("z" + k)).max() < 1e-14
        lhs_so = generator_map("y_a").g @ generator_map("x" + k).g - \
            generator_map("x" + k).g @ generator_map("y_a").g
        assert np.array_equal(lhs_so, generator_map("z" + k).g)


def test_generator_map_unknown():
    with pytest.raises(UnknownGenerator):
        generator_map("w_a")


def test_verify_commutators_exact():
    rep = verify_commutators()
    assert rep.pairs == 105
    assert rep.max_discrepancy == 0
    assert rep.ok


def test_all_generators_antisymmetric_integers():
    for lab in GENERATOR_LABELS:
        g = generator_map(lab).g
        assert np.array_equal(g, -g.T)
        assert set(np.unique(g)).issubset({-1, 0, 1})


def _delta_matrix(entry):
    """6x6 integer matrix with 1-based entries entry(i, j)."""
    return np.array([[entry(i, j) for j in range(1, 7)] for i in range(1, 7)], dtype=np.int64)


def _reference_dictionary():
    """label -> (i/2 sigma by np.kron, so(6) image by the delta formulas, tag)."""
    sig = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
           "y": np.array([[0, -1j], [1j, 0]]),
           "z": np.array([[1, 0], [0, -1]], dtype=complex)}
    one = np.eye(2)
    out = {}
    # i/2 sigma_x -> I_32, i/2 sigma_y -> -I_31, i/2 sigma_z -> I_21 on the slot's block
    for ax, (n, m, sign) in {"x": (3, 2, 1), "y": (3, 1, -1), "z": (2, 1, 1)}.items():
        for slot, off, mat in (("a", 0, np.kron(sig[ax], one)), ("b", 3, np.kron(one, sig[ax]))):
            g = sign * _delta_matrix(lambda i, j: -(i == n + off) * (j == m + off)
                                     + (i == m + off) * (j == n + off))
            out[f"{ax}_{slot}"] = (0.5j * mat, g, f"{'-' if sign < 0 else ''}I_{n}{m}^{slot}")
    for n, an in enumerate("xyz", 1):
        for m, am in enumerate("xyz", 1):
            g = _delta_matrix(lambda i, j: -(i == n) * (j == m + 3) + (j == n) * (i == m + 3))
            out[an + am] = (0.5j * np.kron(sig[an], sig[am]), g, f"Lambda_{n}{m}")
    return out


def test_tables_match_reference_dictionary():
    ref = _reference_dictionary()
    assert sorted(ref) == sorted(GENERATOR_LABELS)
    for lab, (su, g, tag) in ref.items():
        assert np.array_equal(su_generator(lab), su), lab
        image = generator_map(lab)
        assert image.g.dtype == np.int64
        assert np.array_equal(image.g, g), lab
        assert image.tag == tag
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            lam = lambda_generator(n, m)
            assert np.array_equal(lam.g, ref["xyz"[n - 1] + "xyz"[m - 1]][1])
            assert lam.tag == f"Lambda_{n}{m}"


def test_verify_commutators_catches_a_flipped_generator(monkeypatch):
    broken = tanglevec.so6.SO6_BASIS.copy()
    broken[GENERATOR_LABELS.index("xy")] *= -1
    monkeypatch.setattr(tanglevec.so6, "SO6_BASIS", broken)
    rep = verify_commutators()
    assert rep.pairs == 105 and not rep.ok


def test_lookups_return_copies_of_read_only_tables():
    g = generator_map("xy").g
    g[0, 4] = 7
    assert generator_map("xy").g[0, 4] == -1
    h = su_generator("zz")
    h[:] = 0
    assert su_generator("zz")[0, 0] == 0.5j
    with pytest.raises(ValueError):
        tanglevec.so6.SO6_BASIS[0, 1, 2] = 5
    with pytest.raises(ValueError):
        tanglevec.so6.SU4_BASIS[0, 0, 1] = 5


# --- images of the named gates ---------------------------------------------

def _dual_named(name, pair, s):
    q0 = q_vector(s, 3)
    return evolve_q(named_gate(name, pair), q0), q0


@pytest.mark.parametrize("seed", range(8))
def test_cz_dual_action(seed):
    q1, q0 = _dual_named("CZ", "ab", random_state(seed))
    a1, a2, a3, b1, b2, b3 = q0.q
    pred = np.array([-1j * a2, 1j * a1, -1j * b3, -1j * b2, 1j * b1, 1j * a3])
    assert np.abs(q1.q - pred).max() < 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_cnot_dual_action(seed):
    # fifth component is -i Bt_3 (the SO(6) determinant fixes this sign)
    q1, q0 = _dual_named("CNOT", "ab", random_state(seed))
    a1, a2, a3, b1, b2, b3 = q0.q
    pred = np.array([-1j * a2, 1j * a1, -1j * b1, 1j * a3, -1j * b3, 1j * b2])
    assert np.abs(q1.q - pred).max() < 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_swap_dual_action(seed):
    q1, q0 = _dual_named("SWAP", "ab", random_state(seed))
    pred = np.concatenate([1j * q0.q[3:], -1j * q0.q[:3]])
    assert np.abs(q1.q - pred).max() < 1e-12


# --- representability and evolution ----------------------------------------

def test_spectator_local_acts_as_identity():
    act = so6_image(LocalStep("c", (0.4, -0.9, 1.2)), 3)
    assert np.abs(act.y - np.eye(6)).max() == 0 and act.phase2 == 0


def test_spectator_coupling_not_representable():
    with pytest.raises(NotRepresentable):
        so6_image(CouplingStep("bc", np.eye(3)), 3)


def test_coupling_accuracy_is_theta_rounding():
    # both pictures make a coupling's factor from the same SVD of theta,
    # u diag(d) v^T, which misses theta by a few eps |theta| (its backward
    # error); each factor is the exact image of u diag(d) v^T to a few eps, so
    # the pictures agree within a few eps at any scale of theta. Measured
    # worst over this sweep: 4.8 eps (5.8 on seeds 50-300). Each coupling is
    # compared fresh and already used by either picture or both.
    eps = np.finfo(float).eps
    partition = {"ab": 3, "ba": 3, "bc": 1, "ca": 2, "ac": 2}
    for seed in range(50):
        s = random_state(seed)
        rng = np.random.default_rng(seed)
        for pair, p in partition.items():
            for scale in (1.0, 1e3, 1e6, 1e10):
                th = scale * rng.uniform(-1, 1, (3, 3))
                for order in PICTURE_ORDERS:
                    via_so6, via_hilbert = both_pictures([CouplingStep(pair, th)], s, p, order)
                    err = np.abs(via_so6 - via_hilbert).max()
                    assert err <= 16 * eps, \
                        (seed, pair, scale, order, err)


#: each ordered pair's partition
_PAIR_PARTITION = {a + b: p for p, (x, y) in PARTITION_PAIR.items() for a, b in ((x, y), (y, x))}


@pytest.mark.parametrize("zeta", [1e290, 1e300, 1e307, -1e300])
def test_one_term_dual_rotation_is_exact_at_any_finite_zeta(zeta):
    # a one-term coupling's rotation is I + sin t G + (1 - cos t) G^2 from
    # correctly reduced scalars; an eigendecomposition of t G loses the angle
    # beyond |t| of about 1e299, by up to 0.68 here. Measured worst over this
    # grid: 1.01 eps
    eps = np.finfo(float).eps
    for pair, p in _PAIR_PARTITION.items():
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                for seed in range(5):
                    s = random_state(seed)
                    step = coupling_axis_step(pair, n, m, zeta)
                    err = np.abs(evolve_q([step], q_vector(s, p)).q
                                 - q_vector(apply([step], s), p).q).max()
                    assert err <= 4 * eps, (pair, n, m, seed, err)


def _one_terms(pair, theta):
    """One one-term coupling for each nonzero entry of theta, a diagonal's factors."""
    return [CouplingStep(pair, np.where(np.arange(9).reshape(3, 3) == k, theta, 0.0))
            for k in np.flatnonzero(theta)]


@pytest.mark.parametrize("t", [1e-300, 1.0, 1e10 + 0.3, 1e17, 1e100, 1e290, 1e300, 1e307, -1e300])
def test_diagonal_couplings_are_exact_at_any_scale(t):
    # the terms of a diagonal or permuted-diagonal theta commute, so its
    # factor is the product of its one-term couplings' closed forms, in both
    # pictures; an eigendecomposition of the generator lost the angle from
    # t of about 1e10 on (the Hilbert factor by 1.26 at 1e17, the dual by 0.78
    # at 1e307). Measured worst over this grid: 1.03 eps
    eps = np.finfo(float).eps
    for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2)):
        theta = np.zeros((3, 3))
        theta[(0, 1, 2), perm] = t, 0.2, -0.7
        for pair, p in _PAIR_PARTITION.items():
            for seed in range(3):
                s = random_state(seed)
                ref = apply(_one_terms(pair, theta), s)
                step = CouplingStep(pair, theta)
                hilbert, dual = apply([step], s), evolve_q([step], q_vector(s, p)).q
                assert np.abs(hilbert - ref).max() <= 4 * eps, (perm, pair, seed)
                assert np.abs(dual - q_vector(ref, p).q).max() <= 4 * eps, (perm, pair, seed)


@pytest.mark.parametrize("scale", [1.0, 1e16, 1e20, 1e100, 1e300, 1e307])
def test_general_couplings_agree_across_pictures_at_any_scale(scale):
    # a general theta at |theta| >= 1e16 is computed, not refused: both
    # pictures apply the exact image of the same coupling, the SVD's
    # u diag(d) v^T, so they agree within a few eps at any scale (at the eigh
    # route they missed each other by up to 0.68). Measured worst: 3.0 eps
    eps = np.finfo(float).eps
    rng = np.random.default_rng(5)
    for pair, p in _PAIR_PARTITION.items():
        for seed in range(3):
            s = random_state(seed)
            step = CouplingStep(pair, scale / 3 * rng.uniform(-1, 1, (3, 3)))
            err = np.abs(evolve_q([step], q_vector(s, p)).q - q_vector(apply([step], s), p).q).max()
            assert err <= 16 * eps, (pair, seed, err)


def test_no_coupling_needs_an_eigendecomposition(monkeypatch):
    # both pictures build every coupling's factor in closed form, one-term or
    # not, in a sequence beside locals and a phase, on both spellings of each pair
    def refuse(h):
        raise AssertionError("eigh called for a coupling")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    s = random_state(3)
    rng = np.random.default_rng(3)
    for pair, p in _PAIR_PARTITION.items():
        one = np.zeros((3, 3))
        one[2, 0] = -0.9
        seq = [coupling_axis_step(pair, 1, 2, 0.4), LocalStep(pair[0], (0.2, -0.5, 1.1)),
               CouplingStep(pair, one), PhaseStep(0.3), coupling_axis_step(pair, 3, 3, 2.5),
               CouplingStep(pair, np.zeros((3, 3))), CouplingStep(pair, np.diag([0.3, -1.2, 0.0])),
               CouplingStep(pair, rng.uniform(-2, 2, (3, 3))),
               CouplingStep(pair, 1e20 * rng.uniform(-1, 1, (3, 3)))]
        dual = evolve_q(seq, q_vector(s, p)).q
        assert np.abs(dual - q_vector(apply(seq, s), p).q).max() < 1e-14
        for step in seq:
            so6_image(step, p)


def test_so6_exp_batched_matches_expm(rng):
    # the tangle ascent's starts, against scipy's stacked matrix exponential
    xi = 2.0 * rng.standard_normal((6, 15))
    ref = expm(np.tensordot(xi, SO6_BASIS, axes=1).astype(float))
    assert np.abs(tanglevec.so6._so6_exp(xi) - ref).max() < 1e-12


def test_phase_step_rule():
    act = so6_image(PhaseStep(0.3), 1)
    assert act.phase2 == 0.6
    q = q_vector(random_state(0), 1)
    out = evolve_q([PhaseStep(0.3)], q)
    assert np.abs(out.q - np.exp(0.6j) * q.q).max() < 1e-14


def test_evolve_q_empty():
    q = q_vector(random_state(5), 2)
    out = evolve_q([], q)
    assert np.array_equal(out.q, q.q)


def test_time_independent_diagonal_coupling_solution():
    # the block cos/sin solution of the diagonal evolution equation
    gamma = np.array([0.7, -0.2, 1.4])
    t = 0.9
    s = random_state(6)
    q0 = q_vector(s, 3)
    out = evolve_q([CouplingStep("ab", np.diag(t * gamma))], q0)
    a0, b0 = q0.q[:3], q0.q[3:]
    expect = np.concatenate([np.cos(t * gamma) * a0 - np.sin(t * gamma) * b0,
                             np.sin(t * gamma) * a0 + np.cos(t * gamma) * b0])
    assert np.abs(out.q - expect).max() < 1e-12


def test_adjoint_sandwich_identity():
    # z-conjugated Lambda_11 rotation equals the Lambda_21 rotation
    xi = 1.17
    seq = [
        LocalStep("a", (0, 0, np.pi / 2)),
        CouplingStep("ab", np.diag([2 * xi, 0, 0])),
        LocalStep("a", (0, 0, -np.pi / 2)),
    ]
    th = np.zeros((3, 3))
    th[1, 0] = 2 * xi
    direct = [CouplingStep("ab", th)]
    s = random_state(7)
    q0 = q_vector(s, 3)
    assert np.abs(evolve_q(seq, q0).q - evolve_q(direct, q0).q).max() < 1e-12
    # and at the unitary level
    from tanglevec import sequence_unitary
    assert np.abs(sequence_unitary(seq) - sequence_unitary(direct)).max() < 1e-12


def _random_representable_sequence(rng, partition, n_steps=5):
    first, second = PARTITION_PAIR[partition]
    spect = PARTITION_SPECTATOR[partition]
    pairstr = first + second
    seq = []
    for _ in range(n_steps):
        kind = rng.integers(0, 4)
        if kind == 0:
            seq.append(LocalStep(rng.choice([first, second, spect]),
                                 tuple(rng.uniform(-3, 3, 3))))
        elif kind == 1:
            p = pairstr if rng.random() < 0.5 else pairstr[::-1]
            seq.append(CouplingStep(p, rng.uniform(-2, 2, (3, 3))))
        elif kind == 2:
            seq.append(PhaseStep(float(rng.uniform(-np.pi, np.pi))))
        else:
            seq.append(LocalStep(spect, tuple(rng.uniform(-3, 3, 3))))
    return seq


@pytest.mark.parametrize("partition", [1, 2, 3])
def test_dual_evolution_property(partition, rng):
    # the central consistency property between the two pictures, on fresh
    # steps and on steps either picture or both already used
    for k in range(40):
        s = random_state(100 + k)
        seq = _random_representable_sequence(rng, partition)
        for order in PICTURE_ORDERS:
            via_so6, via_hilbert = both_pictures(seq, s, partition, order)
            assert np.abs(via_so6 - via_hilbert).max() < 1e-10, order


def _representable_steps(partition):
    first, second = PARTITION_PAIR[partition]
    angles = st.tuples(*[st.floats(-3.0, 3.0)] * 3)
    local = st.builds(LocalStep, st.sampled_from((first, second, PARTITION_SPECTATOR[partition])),
                      angles)
    coupling = st.builds(lambda pair, theta: CouplingStep(pair, np.reshape(theta, (3, 3))),
                         st.sampled_from((first + second, second + first)),
                         st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9))
    phase = st.builds(PhaseStep, st.floats(-np.pi, np.pi))
    return st.lists(st.one_of(local, coupling, phase), max_size=6)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), partition=st.sampled_from((1, 2, 3)),
       order=st.sampled_from(PICTURE_ORDERS))
def test_dual_evolution_hypothesis(data, seed, partition, order):
    seq = data.draw(_representable_steps(partition))
    via_so6, via_hilbert = both_pictures(seq, random_state(seed), partition, order)
    assert np.abs(via_so6 - via_hilbert).max() < 1e-10


def test_double_cover():
    step = LocalStep("a", (0, 0, 2 * np.pi))
    act = so6_image(step, 3)
    assert np.abs(act.y - np.eye(6)).max() < 1e-12
    from tanglevec import local_unitary
    assert np.abs(local_unitary("a", (0, 0, 2 * np.pi)) + np.eye(8)).max() < 1e-12
    # the dual property still holds because the phase enters squared
    s = random_state(11)
    for order in PICTURE_ORDERS:
        via_so6, via_hilbert = both_pictures([step], s, 3, order)
        assert np.abs(via_so6 - via_hilbert).max() < 1e-12, order


def test_actions_orthogonal_and_norm_preserving(rng):
    for partition in (1, 2, 3):
        seq = _random_representable_sequence(rng, partition)
        y = np.eye(6)
        for st in seq:
            act = so6_image(st, partition)
            assert np.abs(act.y.T @ act.y - np.eye(6)).max() < 1e-12
            y = act.y @ y
        s = random_state(int(rng.integers(0, 1000)))
        q0 = q_vector(s, partition)
        q1 = evolve_q(seq, q0)
        # plain dot product (null) and Hermitian norm both conserved
        assert abs(q1.q @ q1.q) < 1e-10
        assert abs(np.vdot(q1.q, q1.q) - np.vdot(q0.q, q0.q)) < 1e-12
