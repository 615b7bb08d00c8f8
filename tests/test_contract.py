"""The public API's input contract, one input kind at a time.

Names and indices: every qubit, pair, partition, axis, generator label, gate
name and variant a caller passes is looked up the same way. A key is text or
an integer (Python or numpy), never a bool, a float or padded text, and a
refusal is the site's own typed error with no warning.

Lists of complex numbers: a state, its JSON amplitude pairs and a 6-vector
must be read by numpy as ints, floats or complex numbers. A list that numpy
reads as bools, text or Python objects (None, an int beyond 64 bits, a
ragged nesting) or that has the wrong count is refused with ParseError and
no warning. A bool among numbers is read as a number, as numpy reads it.

Lists of real numbers: a quaternion, whichever helper it reaches, and each
field of a quaternion pair must be 4 finite ints, floats or numpy real
scalars. Anything else (text, None, a bool, a complex value, a nesting, an
int beyond any float, NaN, inf or the wrong count) is refused with
ParseError and no warning.

Scale: a function whose value scales with a power of its input gives, at
any finite scale, that power times its unit-scale value, rounded as a
double, or a TangleVecError where that value is beyond the doubles; never a
warning.
"""
import json
import warnings

import numpy as np
import pytest

from tanglevec import (CouplingStep, DegenerateInput, IndexOutOfRange, LocalStep, NotNormalized,
                       ParseError, PhaseStep, QuaternionicState, SixVector, TangleVecError,
                       UnknownGate, UnknownGenerator, abc_quaternionic, abc_vectors,
                       align_canonical, bipartite_tangle_from_density, coupling_axis_step,
                       fidelity_up_to_phase, generator_map, lambda_generator, matricize,
                       maximize_three_tangle, min_phase_distance, named_gate, normalize,
                       q_vector, quat_conj, quat_inv, quat_mul, quat_to_matrix, quat_transpose,
                       random_state, reduce_to_acin, so6_image, state_from_json, su_generator,
                       to_state)
from tanglevec.so6 import GENERATOR_LABELS
from tanglevec.states import _complexes, as_state, parse_partition

S = random_state(5)
PAIRS = ["ab", "ba", "bc", "cb", "ac", "ca"]
PARTITIONS = [1, 2, 3, np.int64(2), np.int32(3), "1", "2", "3", "a(bc)", "b(ca)", "c(ab)"]
AXES = [1, 2, 3, np.int64(2), np.uint8(3)]

#: site -> (call of one key, accepted keys, keys refused here only, error type)
SITES = {
    "parse_partition": (parse_partition, PARTITIONS, [0, 4, np.int64(4), "+3", "02", "a"],
                        ParseError),
    "matricize": (lambda p: matricize(S, p), PARTITIONS, [0, "+3"], ParseError),
    "q_vector": (lambda p: q_vector(S, p), PARTITIONS, [0, "+3"], ParseError),
    "so6_image": (lambda p: so6_image(PhaseStep(0.1), p), PARTITIONS, [4], ParseError),
    "SixVector": (lambda p: SixVector(np.zeros(6), p), PARTITIONS, [-1], ParseError),
    "LocalStep": (lambda q: LocalStep(q, (0.1, 0.0, 0.0)), ["a", "b", "c"], [0, "A", "ab"],
                  ParseError),
    "CouplingStep": (lambda pq: CouplingStep(pq, np.eye(3)), PAIRS, ["aa", "a", 0], ParseError),
    "named_gate name": (lambda name: named_gate(name, "ab"), ["CZ", "CNOT", "SWAP", "cnot", "Swap"],
                        ["TOFFOLI", 3, np.int64(0)], UnknownGate),
    "named_gate qubit": (lambda q: named_gate("H", q), ["a", "b", "c"], ["ab", 0], ParseError),
    "named_gate pair": (lambda pq: named_gate("CNOT", pq), PAIRS, ["aa", "a", 0], ParseError),
    "coupling_axis_step n": (lambda n: coupling_axis_step("ab", n, 1, 0.1), AXES, [0, 4, "2"],
                             ParseError),
    "coupling_axis_step m": (lambda m: coupling_axis_step("ab", 1, m, 0.1), AXES, [0, 4, "2"],
                             ParseError),
    "lambda_generator n": (lambda n: lambda_generator(n, 1), AXES, [0, 4, "2", -1],
                           IndexOutOfRange),
    "lambda_generator m": (lambda m: lambda_generator(1, m), AXES, [0, 4, "2"], IndexOutOfRange),
    "generator_map": (generator_map, list(GENERATOR_LABELS), ["w_a", "XX", 0], UnknownGenerator),
    "su_generator": (su_generator, list(GENERATOR_LABELS), ["x_c", 6], UnknownGenerator),
    "pair of a protocol": (lambda pq: align_canonical(S, pq), PAIRS, ["aa", "abc", 0],
                           DegenerateInput),
    "bipartite_tangle_from_density": (lambda q: bipartite_tangle_from_density(S, q),
                                      ["a", "b", "c"], [0, "ab"], ParseError),
    "maximize_three_tangle variant": (lambda v: maximize_three_tangle(S, "ab", v),
                                      ["economical", "single"], ["Single", 1], ParseError),
}
#: keys no site takes: a bool, a float (even an integral one), None, a list,
#: padded text and unknown text
REFUSED = [True, False, np.True_, 2.0, 2.7, np.float64(2), None, ["a", "b"], " 2 ", "d", ""]


@pytest.mark.parametrize("site", SITES)
def test_every_name_and_index_is_looked_up_alike(site):
    call, accepted, refused, error = SITES[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for key in accepted:
            call(key)
        for key in REFUSED + refused:
            with pytest.raises(error, match="bad "):
                call(key)
                pytest.fail(f"{site} took {key!r}")


def test_a_looked_up_key_gives_the_canonical_value():
    # a numpy integer or a spelling of a partition comes back as the plain int
    for key, p in ((np.int64(1), 1), ("2", 2), ("c(ab)", 3)):
        got = parse_partition(key)
        assert got == p and type(got) is int
    assert q_vector(S, np.int64(3)).partition == 3
    assert np.array_equal(lambda_generator(np.int64(2), 3).g, lambda_generator(2, 3).g)
    assert np.array_equal(coupling_axis_step("ab", np.int64(3), 1, 0.2).theta,
                          coupling_axis_step("ab", 3, 1, 0.2).theta)


#: site -> (call of one list of complex numbers, the count it takes)
COMPLEX_SITES = {"as_state": (as_state, 8), "abc_vectors": (abc_vectors, 8),
                 "normalize": (normalize, 8), "SixVector": (lambda q: SixVector(q, 3), 6)}


def _complex_lists(n):
    """(lists of n complex numbers every site takes, lists every site refuses)."""
    accepted = [list(range(1, n + 1)), [0.5] * n, [1j] * n, [1, 2.0, 3j] + [1] * (n - 3),
                np.arange(1, n + 1), np.ones(n, np.float32), [np.int64(1)] * n,
                [np.uint64(2**63)] * n]
    refused = ["abcdefgh"[:n], [str(k) for k in range(1, n + 1)], [True] * n, np.ones(n, bool),
               [None] * n, [10**400] * n, [2**64] * n, [[1, 2], [3]] + [1] * (n - 2),
               [1] * (n - 1), [1] * (n + 1), [], 1.0]
    return accepted, refused


@pytest.mark.parametrize("site", COMPLEX_SITES)
def test_every_list_of_complex_numbers_is_checked_alike(site):
    call, n = COMPLEX_SITES[site]
    accepted, refused = _complex_lists(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values in accepted:
            call(values)
        for values in refused:
            with pytest.raises(ParseError):
                call(values)
                pytest.fail(f"{site} took {values!r}")


def test_a_refused_list_of_numbers_names_its_fault():
    # the count is the one the site takes, singular for one; a ragged nesting
    # is named as such, whatever the count
    with pytest.raises(ParseError, match=r"^a three-qubit state: expected 8 numbers, got \[1, 1"):
        as_state([1] * 7)
    with pytest.raises(ParseError, match=r"^a 6-vector: expected 6 numbers, got 'abcdef'"):
        SixVector("abcdef", 3)
    with pytest.raises(ParseError, match=r"^a three-qubit state: got a ragged nesting, \[\[1, 2\]"):
        abc_vectors([[1, 2], [3]] + [1] * 6)
    with pytest.raises(ParseError, match=r"^one number: expected 1 number, got \[1, 2\]"):
        _complexes([1, 2], 1, "one number")


#: site -> call of one list of 4 real numbers
REAL_SITES = {"quat_mul p": lambda q: quat_mul(q, [1, 0, 0, 0]),
              "quat_mul q": lambda q: quat_mul([1, 0, 0, 0], q),
              "quat_conj": quat_conj, "quat_transpose": quat_transpose,
              "quat_to_matrix": quat_to_matrix, "quat_inv": quat_inv,
              "QuaternionicState x": lambda q: QuaternionicState(q, np.zeros(4)).x,
              "QuaternionicState y": lambda q: QuaternionicState(np.zeros(4), q).y}
REAL_ACCEPTED = [[1, 2, 3, 4], (0.5,) * 4, [1, 2.0, np.float64(3), np.int32(4)],
                 np.arange(1, 5), np.ones(4, np.float32), [np.uint64(2**63)] * 4]
REAL_REFUSED = [[1, 2, 3], [1, 2, 3, 4, 5], [], 1.0, "abcd", ["1", "0", "0", "0"],
                [None] * 4, [True, 0, 0, 0], [1j, 0, 0, 0], [[1, 0], [0, 0]], [10**400, 0, 0, 0],
                [np.inf, 0, 0, 0], [0, 0, 0, -np.inf], [np.nan] * 4, np.array([1, np.nan, 0, 0]),
                np.ones(4, bool), np.ones(4, complex), np.array(list("1234")), np.eye(4)]


@pytest.mark.parametrize("site", REAL_SITES)
def test_every_list_of_real_numbers_is_checked_alike(site):
    call = REAL_SITES[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values in REAL_ACCEPTED:
            assert np.isfinite(call(values)).all()
        for values in REAL_REFUSED:
            with pytest.raises(ParseError):
                call(values)
                pytest.fail(f"{site} took {values!r}")


#: seven good [re, im] pairs
_SEVEN = [[1, 0]] * 7


@pytest.mark.parametrize("amplitudes", [
    [[True, False]] * 8, [["1", "0"]] + _SEVEN, [[10**400, 0]] + _SEVEN, [[2**64, 0]] + _SEVEN,
    [[None, 0]] + _SEVEN, [[1, 0, 0]] + _SEVEN, [[1]] + _SEVEN, [1] + _SEVEN, _SEVEN,
    [[1, 0, 0, 0]] * 4,
], ids=["bool", "text", "huge-int", "int-beyond-64-bits", "null", "triple", "single",
        "bare-number", "seven", "four-quadruples"])
def test_a_json_state_holds_eight_pairs_of_numbers(amplitudes):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert state_from_json(json.dumps({"amplitudes": [[1, 0]] + _SEVEN}))[0] == 1
        with pytest.raises(ParseError, match="amplitudes"):
            state_from_json(json.dumps({"amplitudes": amplitudes}))


#: a 2x2 matrix and a phase-shifted, perturbed copy of it
_U = np.array([[1, .5], [.25, -1]])
_W = np.exp(0.7j) * (_U + [[0, 0], [0, 0.1]])
#: two states whose overlap cancels, 2 t^2 - 2 t^2 at scale t
_A, _B = np.eye(8)[0] + np.eye(8)[1], 2 * (np.eye(8)[0] - np.eye(8)[1])
#: a quaternion pair with x.x + y.y = 1/2, x and y neither parallel nor orthogonal
_XY = np.array([0.5, 0.1, -0.2, 0.3, 0.1, 0.4, 0.2, -0.2])
_X, _Y = np.split(_XY / (np.linalg.norm(_XY) * np.sqrt(2)), 2)

#: row -> (its values at input scale t, the power of t they scale with)
SCALE_ROWS = {
    "min_phase_distance": (lambda t: min_phase_distance(t * _U, t * _W), 1),
    "fidelity_up_to_phase": (lambda t: fidelity_up_to_phase(t * S, t * random_state(6)), 2),
    "fidelity_up_to_phase, cancelling": (lambda t: fidelity_up_to_phase(t * _A, t * _B), 2),
    "abc_quaternionic": (lambda t: np.concatenate(
        [abc_quaternionic(QuaternionicState(t * _X, t * _Y)).by_qubit(q) for q in "abc"]), 2),
    "quat_mul": (lambda t: quat_mul(t * _X, t * _Y), 2),
}


@pytest.mark.parametrize("scale", [1e-310, 1e-300, 1e-160, 1e150, 1e300])
@pytest.mark.parametrize("row", SCALE_ROWS)
def test_a_scaled_input_scales_the_value_or_is_refused(row, scale):
    call, power = SCALE_ROWS[row]
    unit = np.asarray(call(1.0))
    factor = scale if power == 1 else scale * scale   # inf beyond the doubles, 0 below
    with np.errstate(invalid="ignore"):   # 0 times inf, where the value is 0 at any scale
        expected = np.where(unit == 0, 0.0, unit * factor)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if not np.isfinite(expected).all():
            with pytest.raises(TangleVecError):
                call(scale)
                pytest.fail(f"{row} at {scale} gave a value beyond the doubles")
            return
        got = np.asarray(call(scale))
    # a subnormal value keeps only an absolute accuracy of a few spacings
    tiny = np.finfo(float).smallest_subnormal
    assert (np.abs(got - expected) <= 1e-12 * np.abs(expected) + 64 * tiny).all(), (got, expected)


def test_a_quaternion_pair_beyond_the_doubles_is_not_normalized():
    # x.x + y.y is inf, not 1/2: refused before any product can warn
    qs = QuaternionicState(1e300 * _X, 1e300 * _Y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (to_state, reduce_to_acin):
            with pytest.raises(NotNormalized, match=r"x.x \+ y.y = inf"):
                call(qs)


def test_min_phase_distance_at_both_ends_of_the_doubles():
    # the phase of two subnormal matrices is their phase at unit scale; a
    # distance beyond the largest double is refused
    u = np.full((2, 2), 5e-324)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = np.ones((2, 2))
        assert min_phase_distance(u, 1j * u) == min_phase_distance(one, 1j * one) == 0.0
        with pytest.raises(ParseError, match="too large for a double"):
            min_phase_distance([1e308, 1e308], [1e308, -1e308])
