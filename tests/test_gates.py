import dataclasses
import json
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from tanglevec import (CouplingStep, InvariantViolation, LocalStep, PhaseStep,
                       ParseError, TangleVecError, UnknownGate, apply,
                       coupling_unitary, evolve_q, fidelity_up_to_phase, local_unitary,
                       make_asymmetric_w, make_ghz, named_gate, q_vector, random_state,
                       sequence_from_json, sequence_to_json, sequence_unitary,
                       so6_image, w_to_ghz_sequence)
from tanglevec import gates, so6
from tanglevec.gates import SIGMA, _evolve, expi_hermitian
from conftest import count_calls

STD_THETA = np.arccos(1 / np.sqrt(3))


def test_local_zero_angle_is_identity():
    assert np.abs(local_unitary("b", (0, 0, 0)) - np.eye(8)).max() == 0


def test_local_two_pi_is_minus_identity():
    u = local_unitary("a", (0, 0, 2 * np.pi))
    assert np.abs(u + np.eye(8)).max() < 1e-15


@pytest.mark.parametrize("qubit", "abc")
def test_local_matches_expm(qubit, rng):
    # independent route: scipy matrix exponential of the embedded generator
    th = rng.uniform(-3, 3, 3)
    gen2 = 0.5j * sum(t * s for t, s in zip(th, SIGMA))
    ops = {"a": 0, "b": 1, "c": 2}
    mats = [np.eye(2)] * 3
    mats[ops[qubit]] = expm(gen2)
    ref = np.kron(np.kron(mats[0], mats[1]), mats[2])
    assert np.abs(local_unitary(qubit, th) - ref).max() < 1e-13


@pytest.mark.parametrize("pair", ["ab", "bc", "ac", "ba", "cb", "ca"])
def test_coupling_matches_expm(pair, rng):
    th = rng.uniform(-2, 2, (3, 3))
    gen = sum(0.5j * th[n, m] * np.kron(SIGMA[n], SIGMA[m])
              for n in range(3) for m in range(3))
    u4 = expm(gen)
    got = coupling_unitary(pair, th)
    # rebuild the embedding independently
    axes = {"a": 0, "b": 1, "c": 2}
    a1, a2 = axes[pair[0]], axes[pair[1]]
    ref = np.zeros((8, 8), dtype=complex)
    t4 = u4.reshape(2, 2, 2, 2)
    for out in range(8):
        for inn in range(8):
            o = [(out >> 2) & 1, (out >> 1) & 1, out & 1]
            i = [(inn >> 2) & 1, (inn >> 1) & 1, inn & 1]
            spect = 3 - a1 - a2
            if o[spect] != i[spect]:
                continue
            ref[out, inn] = t4[o[a1], o[a2], i[a1], i[a2]]
    assert np.abs(got - ref).max() < 1e-13


def test_expi_hermitian_batched_matches_expm(rng):
    x = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    h = x + np.swapaxes(x.conj(), -1, -2)
    got = expi_hermitian(h)
    for idx in np.ndindex(2, 3):
        assert np.abs(got[idx] - expm(1j * h[idx])).max() < 1e-12


def test_coupling_zero_identity():
    assert np.abs(coupling_unitary("ab", np.zeros((3, 3))) - np.eye(8)).max() < 1e-15


def test_coupling_diagonal_factorizes():
    # commuting diagonal generators: the product of single-axis factors
    alpha = np.array([0.4, -1.1, 2.2])
    u = coupling_unitary("ab", np.diag(alpha))
    f = np.eye(8, dtype=complex)
    for n in range(3):
        th = np.zeros((3, 3))
        th[n, n] = alpha[n]
        f = coupling_unitary("ab", th) @ f
    assert np.abs(u - f).max() < 1e-12


def test_unitarity_of_constructed_gates(rng):
    for _ in range(10):
        u = local_unitary(rng.choice(list("abc")), rng.uniform(-4, 4, 3))
        assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-12
        u = coupling_unitary("bc", rng.uniform(-3, 3, (3, 3)))
        assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-12


def test_distinct_locals_commute(rng):
    ua = local_unitary("a", rng.uniform(-3, 3, 3))
    ub = local_unitary("b", rng.uniform(-3, 3, 3))
    assert np.abs(ua @ ub - ub @ ua).max() < 1e-12


def test_adjoint_covariance():
    # conjugating a sigma_xx coupling by a z rotation turns it into sigma_yx
    xi = 0.73
    za = local_unitary("a", (0, 0, -np.pi / 2))  # exp(-i pi/4 sigma_z^a)
    th = np.zeros((3, 3))
    th[0, 0] = 2 * xi
    lhs = za @ coupling_unitary("ab", th) @ za.conj().T
    th2 = np.zeros((3, 3))
    th2[1, 0] = 2 * xi
    assert np.abs(lhs - coupling_unitary("ab", th2)).max() < 1e-12


def test_hadamard_action():
    s = np.zeros(8)
    s[0] = 1.0  # |000>
    out = apply(named_gate("H", "a"), s)
    expect = np.zeros(8)
    expect[0] = expect[4] = 1 / np.sqrt(2)
    assert np.abs(out - expect).max() < 1e-14


def test_hadamard_matrix():
    u = sequence_unitary(named_gate("H", "a"))
    h2 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    ref = np.kron(h2, np.eye(4))
    assert np.abs(u - ref).max() < 1e-14


def test_cz_matrix():
    # multiplying out the factored form gives the diagonal gate with -1 on
    # |11> of the pair: diag(1,1,1,1,1,1,-1,-1) in the (a,b) x c ordering
    u = sequence_unitary(named_gate("CZ", "ab"))
    assert np.abs(u - np.diag([1, 1, 1, 1, 1, 1, -1, -1])).max() < 1e-14


def test_cnot_matrix():
    u = sequence_unitary(named_gate("CNOT", "ab"))
    ref = np.zeros((8, 8))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                ref[4 * i + 2 * (j ^ i) + k, 4 * i + 2 * j + k] = 1
    assert np.abs(u - ref).max() < 1e-14


def test_swap_action():
    u = sequence_unitary(named_gate("SWAP", "ab"))
    for k in range(2):
        s = np.zeros(8)
        s[4 * 1 + 2 * 0 + k] = 1.0  # |10k>
        out = u @ s
        expect = np.zeros(8)
        expect[4 * 0 + 2 * 1 + k] = 1.0  # |01k>
        assert np.abs(out - expect).max() < 1e-14


def test_unknown_gate():
    with pytest.raises(UnknownGate):
        named_gate("TOFFOLI", "ab")


def test_named_gates_are_built_once():
    # a step cannot change, so each named sequence is built on its first use
    # and its steps are shared; every call still returns a new list
    for name, loc in (("H", "b"), ("CZ", "ca"), ("CNOT", "ab"), ("SWAP", "bc")):
        first, again = named_gate(name, loc), named_gate(name.lower(), loc)
        assert first is not again and len(first) == len(again)
        assert all(x is y for x, y in zip(first, again))
        first.clear()
        assert len(named_gate(name, loc)) == len(again)
    for loc in ("d", "aa", ["a", "b"], None):
        for name in ("H", "CZ"):
            with pytest.raises(ParseError):
                named_gate(name, loc)
    with pytest.raises(UnknownGate):
        named_gate("TOFFOLI", "ab")


def test_apply_empty_sequence():
    s = random_state(1)
    assert np.array_equal(apply([], s), s)


def test_apply_refuses_a_non_finite_result(monkeypatch):
    # the norm check is safety code: a step cannot carry a non-finite
    # parameter, so break the coupling factor instead; a step keeps the
    # factor it made, so each broken factor needs a new step
    good = gates.expi_hermitian
    for broken in (lambda h: 2.0 * good(h), lambda h: np.full(np.shape(h), np.nan + 0j)):
        monkeypatch.setattr(gates, "expi_hermitian", broken)
        with pytest.raises(InvariantViolation, match="norm"):
            apply([CouplingStep("ab", np.eye(3))], make_ghz())


def _kron_step(step):
    """8x8 matrix of one step: scipy expm of its generator, embedded by Kronecker products."""
    axes = {"a": 0, "b": 1, "c": 2}
    if isinstance(step, PhaseStep):
        return np.exp(1j * step.alpha) * np.eye(8)
    if isinstance(step, LocalStep):
        mats = [np.eye(2)] * 3
        mats[axes[step.qubit]] = expm(0.5j * sum(t * s for t, s in zip(step.theta, SIGMA)))
        return np.kron(np.kron(mats[0], mats[1]), mats[2])
    gen = sum(0.5j * step.theta[n, m] * np.kron(SIGMA[n], SIGMA[m])
              for n in range(3) for m in range(3))
    order = [axes[q] for q in step.pair] + [3 - sum(axes[q] for q in step.pair)]
    # kron(u4, 1) has axes (pair[0], pair[1], spectator); move them to (a, b, c)
    t = np.kron(expm(gen), np.eye(2)).reshape([2] * 6)
    perm = [order.index(k) for k in range(3)]
    return t.transpose(perm + [3 + k for k in perm]).reshape(8, 8)


def _mixed_sequence(rng, n):
    seq = []
    for _ in range(n):
        kind = rng.integers(0, 3)
        if kind == 0:
            seq.append(LocalStep("abc"[rng.integers(0, 3)], tuple(rng.uniform(-3, 3, 3))))
        elif kind == 1:
            pair = ("ab", "ba", "bc", "cb", "ac", "ca")[rng.integers(0, 6)]
            seq.append(CouplingStep(pair, rng.uniform(-2, 2, (3, 3))))
        else:
            seq.append(PhaseStep(float(rng.uniform(-np.pi, np.pi))))
    return seq


def test_engine_matches_kronecker_products(rng):
    # every qubit axis, all six ordered pairs and phases, on one state and on
    # 8 batch columns at once
    seen = set()
    for k in range(20):
        seq = _mixed_sequence(rng, 30)
        seen |= {getattr(st, "pair", getattr(st, "qubit", "phase")) for st in seq}
        ref = np.eye(8)
        for st in seq:
            ref = _kron_step(st) @ ref
        assert np.abs(sequence_unitary(seq) - ref).max() < 1e-12
        s = random_state(k)
        assert np.abs(apply(seq, s) - ref @ s).max() < 1e-12
        cols = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert np.abs(_evolve(seq, cols) - ref @ cols).max() < 1e-11
    assert seen == {"a", "b", "c", "ab", "ba", "bc", "cb", "ac", "ca", "phase"}


def _stack_sizes(monkeypatch):
    """The number of matrices in each expi_hermitian call, in either picture."""
    sizes = []

    def recording(h):
        sizes.append(len(h))
        return expi_hermitian(h)
    monkeypatch.setattr(gates, "expi_hermitian", recording)
    monkeypatch.setattr(so6, "expi_hermitian", recording)
    return sizes


def _twice(step):
    return [step, LocalStep("c", (1.0, 0.0, 0.0)), step]


@pytest.mark.parametrize("build, couplings, hilbert_locals, dual_locals", [
    (lambda: [LocalStep("a", (0.1, 0.2, 0.3)), PhaseStep(0.4), LocalStep("b", (0.0, 0.0, 0.0))],
     0, 1, 1),
    (lambda: [CouplingStep("ab", np.eye(3))], 1, 0, 0),
    (lambda: [CouplingStep("ba", np.eye(3)), LocalStep("c", (1.0, 0.0, 0.0)),
              CouplingStep("ab", -np.eye(3)), PhaseStep(0.2), CouplingStep("ba", np.ones((3, 3)))],
     3, 1, 0),
    (lambda: _twice(CouplingStep("ba", np.eye(3))), 1, 1, 0),
    (lambda: _twice(LocalStep("b", (0.4, -0.2, 0.9))), 0, 2, 1),
], ids=["locals", "one-coupling", "three-couplings", "one-coupling-twice", "one-local-twice"])
def test_one_exponential_per_sequence(build, couplings, hilbert_locals, dual_locals, monkeypatch):
    # the first use of new steps in a picture makes all their coupling
    # factors in one stacked exponential, each coupling once, and each local's
    # factor once (the dual picture skips the spectator c); a step keeps its
    # factor, so a later use in that picture makes none, and the other
    # picture still makes its own
    seq = build()
    sizes = _stack_sizes(monkeypatch)
    su2, rodrigues = count_calls(monkeypatch, gates._su2), count_calls(monkeypatch, so6._rodrigues)
    once = [couplings] if couplings else []
    s, q = random_state(1), q_vector(random_state(1), 3)
    apply(seq, s)
    assert sizes == once and len(su2) == hilbert_locals
    apply(seq, s)
    sequence_unitary(seq)
    assert sizes == once and len(su2) == hilbert_locals
    evolve_q(seq, q)
    assert sizes == 2 * once and len(rodrigues) == dual_locals
    evolve_q(seq, q)
    for step in seq:
        so6_image(step, 3)
    assert sizes == 2 * once and (len(su2), len(rodrigues)) == (hilbert_locals, dual_locals)
    # a sequence that adds one new coupling stacks only that one
    sizes.clear()
    sequence_unitary(seq + [CouplingStep("ab", np.ones((3, 3)))])
    assert sizes == [1]


def test_each_picture_keeps_its_own_read_only_factor():
    local, coupling = LocalStep("a", (0.1, 0.2, 0.3)), CouplingStep("ab", np.eye(3))
    seq = [local, coupling]
    assert (local._unitary, local._rotation, coupling._unitary, coupling._rotation) == (None,) * 4
    apply(seq, random_state(2))
    assert local._rotation is None and coupling._rotation is None
    evolve_q(seq, q_vector(random_state(2), 3))
    shapes = {"_unitary": [(2, 2), (4, 4)], "_rotation": [(3, 3), (6, 6)]}
    for factor, (local_shape, coupling_shape) in shapes.items():
        for step, shape in ((local, local_shape), (coupling, coupling_shape)):
            u = getattr(step, factor)
            assert u.shape == shape and not u.flags.writeable and u.base is None
    # the kept factors are no part of a step's value or its printed form
    again = LocalStep("a", (0.1, 0.2, 0.3))
    assert again == local and hash(again) == hash(local) and repr(again) == repr(local)
    assert dataclasses.replace(coupling)._unitary is None


def _short_sequences():
    return [[LocalStep("b", (0.3, -1.2, 0.4))], [CouplingStep("ab", np.diag([0.4, 1.1, -2.0]))],
            [CouplingStep("ca", np.arange(9.0).reshape(3, 3) / 7)],
            [LocalStep("a", (0.0, 0.0, 0.0)), PhaseStep(0.3)], named_gate("CNOT", "bc"),
            [CouplingStep("bc", np.eye(3)), LocalStep("c", (0.5, 0.0, 0.0)), PhaseStep(-1.0)]]


def _results(seq, s):
    """Every picture's result of seq: apply, sequence_unitary, evolve_q and so6_image."""
    p = {"ab": 3, "ba": 3, "bc": 1, "cb": 1, "ca": 2, "ac": 2}.get(
        next((step.pair for step in seq if isinstance(step, CouplingStep)), "ab"))
    return [apply(seq, s), sequence_unitary(seq), evolve_q(seq, q_vector(s, p)).q,
            *(so6_image(step, p).y for step in seq)]


def test_a_second_application_is_the_first():
    # a kept factor is the one the first application made, bit for bit, and
    # the one a new step with the same parameters makes
    s = random_state(3)
    mixed = [step for step in _mixed_sequence(np.random.default_rng(3), 40)
             if getattr(step, "pair", "ab") in ("ab", "ba")]   # every step has a dual picture
    for seq in _short_sequences() + [mixed, mixed[::-1] + mixed]:
        first = _results(seq, s)
        again = _results(seq, s)
        new = _results([dataclasses.replace(step) for step in seq], s)
        for x, y, z in zip(first, again, new):
            assert np.array_equal(x, y) and np.array_equal(x, z)


def test_results_share_no_memory_with_the_kept_factors():
    # writing to a returned array changes no later result
    s = random_state(4)
    for seq in _short_sequences():
        first = [x.copy() for x in _results(seq, s)]
        out = _results(seq, s)
        del out[2]   # evolve_q's 6-vector is read-only
        for x in out:
            x[...] = np.nan
        for x, y in zip(first, _results(seq, s)):
            assert np.array_equal(x, y)


def _bad_sequences(x):
    # built only when called, inside the test's pytest.raises
    return [
        lambda: [LocalStep("b", (0.1, 0.0, 0.0)), LocalStep("a", (x, 0.0, 0.0))],
        lambda: [LocalStep("b", (0.1, 0.0, 0.0)), CouplingStep("ab", np.full((3, 3), x))],
        lambda: [LocalStep("b", (0.1, 0.0, 0.0)), PhaseStep(x)],
    ]


_PICTURES = [
    lambda seq: apply(seq, make_ghz()),
    lambda seq: sequence_unitary(seq),
    lambda seq: evolve_q(seq, q_vector(make_ghz(), 3)),
    lambda seq: so6_image(seq[1], 3),
]
_PICTURE_IDS = ["apply", "sequence_unitary", "evolve_q", "so6_image"]


def _count_picture_runs(monkeypatch):
    """Counters on the two evolutions, which hold every factor's trigonometry."""
    return count_calls(monkeypatch, gates._evolve), count_calls(monkeypatch, so6._dual_evolve)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", _PICTURES, ids=_PICTURE_IDS)
def test_non_finite_step_refused(call, x, monkeypatch):
    # refused when the step is built, with ParseError and no numpy warning,
    # so no picture runs any trigonometry on it
    runs = _count_picture_runs(monkeypatch)
    for build in _bad_sequences(x):
        with pytest.raises(ParseError, match="finite"):
            call(build())
    assert runs == ([], [])


@pytest.mark.parametrize("call", _PICTURES, ids=_PICTURE_IDS)
def test_malformed_step_refused_alike(call, monkeypatch):
    # a malformed qubit or pair is a ParseError when the step is built, not a
    # NotRepresentable from a picture; a non-step is a TypeError from the walker
    runs = _count_picture_runs(monkeypatch)
    ok = LocalStep("b", (0.1, 0.0, 0.0))
    bad = [lambda: LocalStep("d", (0.1, 0.0, 0.0))] + [
        lambda pair=pair: CouplingStep(pair, np.eye(3)) for pair in ("zz", "aa", ["a", "b"])]
    for build in bad:
        with pytest.raises(ParseError, match="bad qubit"):
            call([ok, build()])
    assert runs == ([], [])
    with pytest.raises(TypeError, match="not a gate step"):
        call([ok, "CNOT"])
    assert sum(map(len, runs)) == 1   # the walker runs inside a picture


def test_apply_inverse_pair(rng):
    s = random_state(2)
    th = rng.uniform(-2, 2, (3, 3))
    seq = [CouplingStep("ab", th), CouplingStep("ab", -th)]
    assert np.abs(apply(seq, s) - s).max() < 1e-12


def test_w_to_ghz_via_apply():
    res = w_to_ghz_sequence(STD_THETA, np.pi / 4)
    out = apply(res.sequence, make_asymmetric_w(STD_THETA, np.pi / 4))
    assert fidelity_up_to_phase(out, make_ghz()) >= 1 - 1e-10


def test_phase_step_is_scalar():
    u = sequence_unitary([PhaseStep(0.4)])
    assert np.abs(u - np.exp(0.4j) * np.eye(8)).max() < 1e-15


def test_sequence_json_round_trip(rng):
    seq = [
        LocalStep("b", (0.1, -0.2, 0.3)),
        CouplingStep("ac", rng.uniform(-1, 1, (3, 3))),
        PhaseStep(-0.7),
    ]
    back = sequence_from_json(sequence_to_json(seq))
    assert np.abs(sequence_unitary(back) - sequence_unitary(seq)).max() < 1e-15


def test_sequence_to_json_refuses_non_finite():
    # the writer only sees built steps, and a built step is finite and cannot
    # change, so it never emits NaN or Infinity; a non-step is a TypeError
    with pytest.raises(ParseError, match="finite"):
        sequence_to_json([PhaseStep(0.1), LocalStep("a", (np.nan, 0.0, 0.0))])
    step = CouplingStep("ab", np.eye(3))
    with pytest.raises(ValueError, match="read-only"):
        step.theta[0, 0] = np.nan

    def strict(token):
        raise ValueError(f"not strict JSON: {token}")
    text = sequence_to_json([PhaseStep(0.1), step, LocalStep("a", (0.2, 0.0, 0.0))])
    assert len(json.loads(text, parse_constant=strict)) == 3
    with pytest.raises(TypeError, match="not a gate step"):
        sequence_to_json([PhaseStep(0.1), "CNOT"])


def test_sequence_json_rejects_malformed():
    with pytest.raises(ParseError):
        sequence_from_json('[{"kind": "local", "target": "a", "params": [1, 2]}]')
    with pytest.raises(ParseError):
        sequence_from_json('[{"kind": "wiggle", "target": "a", "params": [1]}]')
    with pytest.raises(ParseError):
        sequence_from_json('{"kind": "local"}')
    with pytest.raises(ParseError):
        sequence_from_json(json.dumps([{"kind": "coupling", "target": "zz",
                                        "params": [0.0] * 9}]))
    with pytest.raises(ParseError):
        sequence_from_json('[{"kind": "phase", "target": "", "params": [NaN]}]')
    with pytest.raises(ParseError):
        sequence_from_json('[{"kind": "local", "target": ["a"], "params": [0, 0, 0]}]')
    # a constructor's refusal is named with the step's index
    with pytest.raises(ParseError, match="^step 1: local step angles"):
        sequence_from_json('[{"kind": "phase", "target": "", "params": [0.1]},'
                           ' {"kind": "local", "target": "a", "params": [1, "2", 3]}]')
    for text in ('[{"kind": "phase", "target": "", "params": [0.1, 0.2]}]',
                 '[{"kind": "phase", "target": "", "params": 0.1}]',
                 '[["local", "a", [0, 0, 0]]]',
                 '[{"kind": "local", "target": "a", "params": [1e400, 0, 0]}]',
                 '[{"kind": "local", "target": "a", "params": [%s, 0, 0]}]' % ("9" * 400)):
        with pytest.raises(ParseError, match="step 0"):
            sequence_from_json(text)


def _big_steps(scale, rng):
    """Steps whose parameters have magnitude ``scale``, with random signs."""
    def signs(*shape):
        return rng.choice([-1.0, 1.0], shape)
    return [
        lambda: LocalStep("b", tuple(scale * signs(3))),
        lambda: LocalStep("a", (0.0, scale, 0.0)),
        lambda: CouplingStep("ab", scale * signs(3, 3)),
        lambda: CouplingStep("ca", np.diag(scale * signs(3)) / 3.0),
        lambda: CouplingStep("ba", np.diag([scale, 0.0, 0.0])),
        lambda: PhaseStep(scale),
        # a coupling just inside the largest norm
        lambda: CouplingStep("bc", np.finfo(float).max / 3.01 * signs(3, 3)),
    ]


def test_gate_steps_are_checked_when_built():
    # every untyped failure a step used to reach a picture with is a
    # ParseError when the step is built, without a numpy warning
    complex_theta = np.full((3, 3), 0.1 + 0.5j)
    refused = {
        "coupling, 2 coefficients": lambda: CouplingStep("ab", [1, 2]),
        "coupling, complex array": lambda: CouplingStep("ab", complex_theta),
        "coupling, complex list": lambda: CouplingStep("bc", complex_theta.ravel().tolist()),
        "coupling, zero imaginary part": lambda: CouplingStep("ab", np.eye(3) + 0j),
        "coupling, ragged": lambda: CouplingStep("ab", [[1, 2, 3], [4, 5], [6]]),
        "coupling, strings": lambda: CouplingStep("ab", ["1"] * 9),
        "coupling, None": lambda: CouplingStep("ab", None),
        "coupling, 1x9": lambda: CouplingStep("ab", np.zeros((1, 9))),
        "coupling, 3x3x1": lambda: CouplingStep("ab", [[[0.1]] * 3] * 3),
        "coupling, bools": lambda: CouplingStep("ab", np.eye(3, dtype=bool)),
        "local, 2 angles": lambda: LocalStep("a", (1, 2)),
        "local, 4 angles": lambda: LocalStep("a", (1, 2, 3, 4)),
        "local, None": lambda: LocalStep("a", None),
        "local, complex": lambda: LocalStep("a", (1j, 0, 0)),
        "local, numpy complex": lambda: LocalStep("a", np.array([0.1 + 0.5j, 0.2, 0.3])),
        "local, string": lambda: LocalStep("a", "abc"),
        "local, bytes": lambda: LocalStep("a", b"abc"),
        "local, nested": lambda: LocalStep("a", ((1,), (2,), (3,))),
        "local, int beyond float": lambda: LocalStep("a", (10**400, 0, 0)),
        "local, unhashable qubit": lambda: LocalStep(["a"], (0, 0, 0)),
        "phase, string": lambda: PhaseStep("x"),
        "phase, complex": lambda: PhaseStep(1j),
        "phase, numpy complex": lambda: PhaseStep(np.complex128(0.5)),
        "phase, list": lambda: PhaseStep([0.5]),
        "phase, None": lambda: PhaseStep(None),
    }
    s = random_state(4)
    pictures = {
        "apply": lambda seq, p: apply(seq, s),
        "sequence_unitary": lambda seq, p: sequence_unitary(seq),
        "evolve_q": lambda seq, p: evolve_q(seq, q_vector(s, p)).q,
        "so6_image": lambda seq, p: so6_image(seq[-1], p).y,
    }
    rng = np.random.default_rng(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, build in refused.items():
            with pytest.raises(ParseError):
                build()
                pytest.fail(f"built: {name}")
        # finite parameters of any size give a finite result in both
        # pictures, or a typed error; parameters whose norm is past the
        # largest double are refused
        for scale in (1e300, 1e306, 1e308, 1.7e308):
            for build in _big_steps(scale, rng):
                try:
                    step = build()
                except TangleVecError:
                    continue
                p = {"bc": 1, "ca": 2}.get(getattr(step, "pair", ""), 3)
                for pname, run in pictures.items():
                    for seq in ([step], [step, step, PhaseStep(scale)]):
                        try:
                            out = run(seq, p)
                        except TangleVecError:
                            continue
                        assert np.isfinite(out).all(), (scale, step, pname)
    with pytest.raises(ParseError, match="finite norm"):
        CouplingStep("ab", np.full((3, 3), 1.7e308 / 2))
    with pytest.raises(ParseError, match="finite norm"):
        LocalStep("a", (1.7e308, 1.7e308, 0.0))
    # a built coupling keeps a read-only copy of its coefficients
    theta = np.eye(3)
    step = CouplingStep("ab", theta)
    theta[0, 0] = np.nan
    assert step.theta[0, 0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        step.theta[0, 0] = np.nan
    with pytest.raises(dataclasses.FrozenInstanceError):
        step.theta = theta
