"""Three-qubit pure states and their bipartite matricizations.

A state is a complex array of 8 amplitudes ``c[n]`` with ``n = 4i + 2j + k``
for the basis ket |i,j,k> — qubit ``a`` is the most significant bit, so
``state.reshape(2, 2, 2)`` has axes (a, b, c).

The three bipartite arrangements a(bc), b(ca), c(ab) are numbered 1, 2, 3.
Each arranges the amplitudes as a 4x2 matrix whose column indexes the single
qubit and whose rows run over the remaining pair.

Every list of real parameters passes one check, _reals: n ints, floats or numpy
real scalars (never a bool), each finite, else ParseError. The exported
quaternion helpers check each quaternion so; the internal designers call
unchecked kernels on Python floats that are checked and bounded already. Seeds
and counts must be integers (_check_options); only the CLI reads numbers from
text. Every list of complex numbers (a state, its JSON pairs, a 6-vector) passes
_complexes. Every name or index a caller passes (a qubit, a pair, a partition,
an axis, a generator label, a gate name) is looked up once, by _named. Every
rescale to unit scale (of a state, a matrix, a quaternion or a quaternion pair)
is one exact power of two, made by _rescaled, which refuses a non-finite part;
only the Fubini-Study kernel scales its matrix rows on its own.
"""
from __future__ import annotations

import json
import math
import reprlib
from numbers import Real

import numpy as np

from .errors import NotNormalized, ParseError, ZeroState

EPS_NORM = 1e-12

QUBIT_AXIS = {"a": 0, "b": 1, "c": 2}

#: spectator qubit and the ordered qubit pair carried by each partition's 6-vector
PARTITION_SPECTATOR = {1: "a", 2: "b", 3: "c"}
PARTITION_PAIR = {1: ("b", "c"), 2: ("c", "a"), 3: ("a", "b")}
#: the nine accepted spellings of a partition: its number as an int or as
#: text, and its label
_PARTITION = {**{p: p for p in (1, 2, 3)}, **{str(p): p for p in (1, 2, 3)},
              "a(bc)": 1, "b(ca)": 2, "c(ab)": 3}


def _named(table, key, what: str, error=ParseError):
    """table[key] for a key that is text or an integer (Python or numpy, not a bool); else error.

    The one check of a name or index a caller passes. A float, a bool, None,
    a list or text the table does not hold raises error("bad <what> <key>").
    """
    if type(key) in (str, int) or isinstance(key, (str, np.integer)):   # a bool's type is bool
        try:
            return table[key]
        except KeyError:
            pass
    raise error(f"bad {what} {key!r}")


def parse_partition(value) -> int:
    """1, 2 or 3, given as an integer, as "1"-"3" or as the label a(bc), b(ca) or c(ab);
    ParseError for anything else, such as a float, a bool or padded text."""
    return _named(_PARTITION, value, "partition")


def _reals(values, n: int, what: str) -> tuple:
    """values as a tuple of n finite floats, else ParseError naming what.

    The one check of a list of real parameters: each value must be an int, a
    float or a numpy real scalar (numbers.Real, slow, goes last). Text, None,
    a bool, complex values, nested sequences and an int beyond any float are
    refused.
    """
    try:
        if not isinstance(values, (str, bytes)) and len(values) == n:
            items = values.tolist() if isinstance(values, np.ndarray) else values   # Python scalars
            out = tuple([float(v) for v in items if isinstance(v, float) or isinstance(
                v, (int, Real)) and v is not True and v is not False])
            if len(out) == n:
                # a finite norm shows every value finite in one call
                if math.isfinite(math.hypot(*out)) or all(map(math.isfinite, out)):
                    return out
                raise ParseError(f"{what} must be finite, got {values!r}")
    except (TypeError, OverflowError):   # no len(), or an int beyond any float
        pass
    raise ParseError(f"{what}: expected {n} real number{'s' * (n > 1)}, got {values!r}")


def _check_options(*, seeds=None, counts=None) -> None:
    """Refuse an out-of-range option of a random or iterative routine.

    Each argument maps option names to values: a seed must be an integer
    (Python or numpy, not a bool) of at least 0 (numpy's generators take no
    negative seed), and a count (restarts, iteration caps) such an integer of
    at least 1. Raises ParseError naming the first bad option.
    """
    for least, opts in ((0, seeds), (1, counts)):
        for name, value in (opts or {}).items():
            if not isinstance(value, (int, np.integer)) or value is True or value is False:
                raise ParseError(f"{name} must be an integer, got {value!r}")
            if not value >= least:
                raise ParseError(f"{name} must be at least {least}, got {value!r}")


def _complexes(values, n: int | None, what: str) -> np.ndarray:
    """The one check of a list of complex numbers: values as numpy reads them if n ints, floats
    or complex numbers, or at least one when n is None (never a bool, text, None, a ragged
    nesting or an int beyond 64 bits), else ParseError naming what and the fault. The caller
    converts the array and decides shape and finiteness."""
    try:
        c = np.asarray(values)
    except ValueError:   # a ragged nesting
        raise ParseError(f"{what}: got a ragged nesting, {reprlib.repr(values)}") from None
    if c.dtype.kind not in "iufc" or (c.size == 0 if n is None else c.size != n):
        count = "one or more numbers" if n is None else f"{n} number{'s' * (n != 1)}"
        raise ParseError(f"{what}: expected {count}, got {reprlib.repr(values)}")
    return c


def as_state(amp) -> np.ndarray:
    """The 8 amplitudes, in any shape, as a complex vector without copying when possible."""
    return _complexes(amp, 8, "a three-qubit state").astype(complex, copy=False).reshape(-1)


def _finite_state(amp) -> np.ndarray:
    """as_state, refusing a NaN or infinite amplitude with ParseError."""
    s = as_state(amp)
    if not np.isfinite(s).all():
        raise ParseError("amplitudes must be finite")
    return s


def squared_norm(c: np.ndarray) -> float:
    """|c|^2, or inf/NaN on overflow; raises ParseError for a non-finite amplitude."""
    n2 = float(np.vdot(c, c).real)
    if not math.isfinite(n2) and not np.isfinite(c).all():
        raise ParseError("amplitudes must be finite")
    return n2


def _rescaled(c: np.ndarray) -> tuple[np.ndarray, int]:
    """(c 2**-k, k): c rescaled by the power of two that brings its largest real or imaginary
    part into [1/2, 1) (k = 0 when c is zero), so that products of its largest parts neither
    overflow nor underflow. Exact, but for parts over 2**1021 times smaller than the largest."""
    parts = np.ascontiguousarray(c).view(float)   # scaled as floats, a zero keeps its sign
    top = float(np.abs(parts).max())
    if not math.isfinite(top):   # a NaN part too, since max keeps it
        raise ParseError("amplitudes must be finite")
    k = math.frexp(top)[1]
    return np.ldexp(parts, -k).view(c.dtype), k   # 2**-k is beyond the doubles for k < -1023


def normalize(s) -> np.ndarray:
    """Scale to unit norm.

    A state whose |s| is below EPS_NORM, or whose |s|^2 overflows, is first
    brought to unit scale by _rescaled. Raises ParseError for a non-finite
    amplitude and ZeroState when every amplitude is zero.
    """
    s = as_state(s)
    n = math.sqrt(np.vdot(s, s).real)
    if not EPS_NORM <= n < math.inf:   # NaN too, which _rescaled refuses
        s = _rescaled(s)[0]
        n = math.sqrt(np.vdot(s, s).real)
        if n == 0.0:
            raise ZeroState("every amplitude is zero")
    return s / n


def make_ghz() -> np.ndarray:
    """The GHZ state e^{-i pi/4} (|000> + |111>)/sqrt(2).

    The global phase makes all three invariant vectors equal (0, 0, 1)/2.
    """
    s = np.zeros(8, dtype=complex)
    s[0] = s[7] = np.exp(-0.25j * np.pi) / np.sqrt(2)
    return s


def make_asymmetric_w(theta: float, phi: float) -> np.ndarray:
    """Asymmetric W state sin(t)cos(p)|001> + sin(t)sin(p)|010> + cos(t)|100>.

    theta = arccos(1/sqrt(3)), phi = pi/4 gives the standard symmetric W state.
    Angles in radians; ParseError when one is not finite.
    """
    theta, phi = _reals((theta, phi), 2, "theta, phi")
    s = np.zeros(8, dtype=complex)
    s[1] = np.sin(theta) * np.cos(phi)
    s[2] = np.sin(theta) * np.sin(phi)
    s[4] = np.cos(theta)
    return s


def make_acin(lambdas) -> np.ndarray:
    """Five-parameter canonical state in the c(ab) arrangement.

    e^{i pi/4} (l0|000> + l1|010> + l2|110> + l3|011> + l4|111>) with
    sum(l_i^2) = 1; ParseError unless there are 5 finite coefficients.
    """
    lam = _reals(lambdas, 5, "lambdas")
    # Python floats overflow to inf without numpy's warning
    norm2 = sum(x * x for x in lam)
    if abs(norm2 - 1.0) > EPS_NORM:
        raise NotNormalized(f"sum of squares is {norm2}, not 1")
    s = np.zeros(8, dtype=complex)
    phase = np.exp(0.25j * np.pi)
    s[0] = phase * lam[0]
    s[2] = phase * lam[1]
    s[6] = phase * lam[2]
    s[3] = phase * lam[3]
    s[7] = phase * lam[4]
    return s


def matricize(s, partition) -> np.ndarray:
    """4x2 matrix of amplitudes for one bipartite arrangement.

    Columns index the partition's single qubit; rows index the pair:
      a(bc): M[2j+k, i],  b(ca): M[2k+i, j],  c(ab): M[2i+j, k].
    ParseError for a non-finite amplitude.
    """
    s = _finite_state(s)
    p = parse_partition(partition)
    axes = [QUBIT_AXIS[q] for q in (*PARTITION_PAIR[p], PARTITION_SPECTATOR[p])]
    return s.reshape(2, 2, 2).transpose(axes).reshape(4, 2).copy()


def fidelity_up_to_phase(s1, s2) -> float:
    """|<s1|s2>|, invariant under independent global phases, at any finite scale.

    The overlap is taken on both states rescaled by powers of two (_rescaled)
    and scaled back, so it neither overflows nor underflows on the way.
    ParseError unless both states are finite, and where the overlap itself
    is too large for a double.
    """
    (c1, k1), (c2, k2) = (_rescaled(as_state(s)) for s in (s1, s2))
    try:
        return math.ldexp(float(abs(np.vdot(c1, c2))), k1 + k2)
    except OverflowError:
        raise ParseError("|<s1|s2>| is too large for a double") from None


def random_state(seed: int) -> np.ndarray:
    """Haar-uniform normalized state, reproducible from the seed.

    Draws 16 standard normals from numpy's default PCG64 generator and
    normalizes, so the distribution is uniform on the 15-sphere. Raises
    ParseError for a seed that is not an integer of at least 0.
    """
    _check_options(seeds={"seed": seed})
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(16)
    s = v[:8] + 1j * v[8:]
    return normalize(s)


# --- JSON state format: {"amplitudes": [[re, im] x 8]} -------------------

def state_to_json(s) -> str:
    """The state as strict JSON; ParseError for a non-finite amplitude."""
    s = _finite_state(s)
    return json.dumps({"amplitudes": [[float(z.real), float(z.imag)] for z in s]})


def state_from_json(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "amplitudes" not in doc:
        raise ParseError('expected an object with an "amplitudes" field')
    what = "amplitudes, 8 [re, im] pairs"
    pairs = _complexes(doc["amplitudes"], 16, what)
    if pairs.shape != (8, 2):
        raise ParseError(f"{what}: got {reprlib.repr(doc['amplitudes'])}")
    return _finite_state(pairs.astype(float, copy=False).view(complex))   # JSON holds no complex
