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
"""
import json
import warnings

import numpy as np
import pytest

from tanglevec import (CouplingStep, DegenerateInput, IndexOutOfRange, LocalStep, ParseError,
                       PhaseStep, SixVector, UnknownGate, UnknownGenerator, abc_vectors,
                       align_canonical, bipartite_tangle_from_density, coupling_axis_step,
                       generator_map, lambda_generator, matricize, maximize_three_tangle,
                       named_gate, normalize, q_vector, random_state, so6_image, state_from_json,
                       su_generator)
from tanglevec.so6 import GENERATOR_LABELS
from tanglevec.states import as_state, parse_partition

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
