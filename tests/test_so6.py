import numpy as np
import pytest

import tanglevec.so6
from tanglevec import (CouplingStep, IndexOutOfRange, LocalStep,
                       NotRepresentable, PhaseStep, UnknownGenerator, apply,
                       evolve_q, generator_map, lambda_generator, named_gate,
                       q_vector, random_state, so3_image, so6_image,
                       su_generator, verify_commutators)
from tanglevec.so6 import GENERATOR_LABELS
from tanglevec.states import PARTITION_PAIR, PARTITION_SPECTATOR


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
    # the central consistency property between the two pictures
    for k in range(40):
        s = random_state(100 + k)
        seq = _random_representable_sequence(rng, partition)
        via_so6 = evolve_q(seq, q_vector(s, partition))
        via_hilbert = q_vector(apply(seq, s), partition)
        assert np.abs(via_so6.q - via_hilbert.q).max() < 1e-10


def test_double_cover():
    step = LocalStep("a", (0, 0, 2 * np.pi))
    act = so6_image(step, 3)
    assert np.abs(act.y - np.eye(6)).max() < 1e-12
    from tanglevec import local_unitary
    assert np.abs(local_unitary("a", (0, 0, 2 * np.pi)) + np.eye(8)).max() < 1e-12
    # the dual property still holds because the phase enters squared
    s = random_state(11)
    assert np.abs(evolve_q([step], q_vector(s, 3)).q -
                  q_vector(apply([step], s), 3).q).max() < 1e-12


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
