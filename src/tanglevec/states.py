"""Three-qubit pure states and their bipartite matricizations.

A state is a complex array of 8 amplitudes ``c[n]`` with ``n = 4i + 2j + k``
for the basis ket |i,j,k> — qubit ``a`` is the most significant bit, so
``state.reshape(2, 2, 2)`` has axes (a, b, c).

The three bipartite arrangements a(bc), b(ca), c(ab) are numbered 1, 2, 3.
Each arranges the amplitudes as a 4x2 matrix whose column indexes the single
qubit and whose rows run over the remaining pair.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .errors import NotNormalized, ParseError, ZeroState

EPS_NORM = 1e-12

QUBITS = ("a", "b", "c")
QUBIT_AXIS = {"a": 0, "b": 1, "c": 2}

PARTITIONS = (1, 2, 3)
PARTITION_LABEL = {1: "a(bc)", 2: "b(ca)", 3: "c(ab)"}
#: spectator qubit and the ordered qubit pair carried by each partition's 6-vector
PARTITION_SPECTATOR = {1: "a", 2: "b", 3: "c"}
PARTITION_PAIR = {1: ("b", "c"), 2: ("c", "a"), 3: ("a", "b")}


def parse_partition(value) -> int:
    """Accept 1/2/3 (or the same as strings) or the labels a(bc), b(ca), c(ab)."""
    if value in PARTITIONS:
        return int(value)
    for p, lab in PARTITION_LABEL.items():
        if value == lab:
            return p
    try:
        num = int(value)
    except (TypeError, ValueError):
        raise ParseError(f"unknown partition {value!r}") from None
    if num in PARTITIONS:
        return num
    raise ParseError(f"unknown partition {value!r}")


def _check_options(*, seeds=None, counts=None, tols=None) -> None:
    """Refuse an out-of-range option of a random or iterative routine.

    Each argument maps option names to values: a seed must be at least 0
    (numpy's generators take no negative seed), a count (restarts, iteration
    caps) at least 1, and a tolerance finite and not negative. Raises
    ParseError naming the first bad option.
    """
    for least, opts in ((0, seeds), (1, counts)):
        for name, value in (opts or {}).items():
            if not value >= least:
                raise ParseError(f"{name} must be at least {least}, got {value!r}")
    for name, value in (tols or {}).items():
        if not (math.isfinite(value) and value >= 0):
            raise ParseError(f"{name} must be finite and not negative, got {value!r}")


def _finite_params(values, n: int, what: str) -> np.ndarray:
    """The real parameters ``values``, numbers or their text, as n finite floats.

    Raises ParseError naming ``what`` for a value that is not a real number
    (a complex one too), a count other than n, or a NaN or infinite value.
    """
    try:
        x = np.asarray(values)
        if x.dtype.kind == "c":
            raise TypeError
        x = x.astype(float, copy=False).reshape(-1)
    except (TypeError, ValueError):
        raise ParseError(f"{what}: expected {n} real numbers, got {values!r}") from None
    if x.shape != (n,):
        raise ParseError(f"{what}: expected {n} real numbers, got {x.size}")
    if not np.isfinite(x).all():
        raise ParseError(f"{what} must be finite, got {values!r}")
    return x


def as_state(amp) -> np.ndarray:
    """Coerce to a complex length-8 vector without copying when possible."""
    s = np.asarray(amp, dtype=complex).reshape(-1)
    if s.shape != (8,):
        raise ParseError(f"a three-qubit state needs 8 amplitudes, got {s.shape[0]}")
    return s


def _finite_state(amp) -> np.ndarray:
    """as_state, refusing a NaN or infinite amplitude with ParseError."""
    s = as_state(amp)
    if not np.isfinite(s).all():
        raise ParseError("amplitudes must be finite")
    return s


def norm(s: np.ndarray) -> float:
    return float(np.linalg.norm(s))


def squared_norm(c: np.ndarray) -> float:
    """|c|^2, or inf/NaN on overflow; raises ParseError for a non-finite amplitude."""
    n2 = float(np.vdot(c, c).real)
    if not math.isfinite(n2) and not np.isfinite(c).all():
        raise ParseError("amplitudes must be finite")
    return n2


def normalize(s) -> np.ndarray:
    """Scale to unit norm.

    Raises ParseError for a non-finite amplitude and ZeroState when every
    amplitude is zero.
    """
    s = as_state(s)
    n = norm(s)
    if not EPS_NORM <= n < math.inf:
        if not np.isfinite(s).all():
            raise ParseError("amplitudes must be finite")
        # |s|^2 overflows or underflows: divide by the largest amplitude
        # first, in real arithmetic (complex division takes 1/m, which
        # overflows for a subnormal m)
        m = np.abs(s).max()
        if m == 0.0:
            raise ZeroState("every amplitude is zero")
        s = s.real / m + 1j * (s.imag / m)
        n = norm(s)
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
    theta, phi = _finite_params((theta, phi), 2, "theta, phi")
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
    lam = _finite_params(lambdas, 5, "lambdas")
    if abs(np.sum(lam**2) - 1.0) > EPS_NORM:
        raise NotNormalized(f"sum of squares is {np.sum(lam**2)}, not 1")
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
    t = s.reshape(2, 2, 2)
    if p == 1:
        m = t.transpose(1, 2, 0)   # rows (j,k), column i
    elif p == 2:
        m = t.transpose(2, 0, 1)   # rows (k,i), column j
    else:
        m = t.transpose(0, 1, 2)   # rows (i,j), column k
    return m.reshape(4, 2).copy()


def fidelity_up_to_phase(s1, s2) -> float:
    """|<s1|s2>|, invariant under independent global phases; ParseError unless finite."""
    return float(abs(np.vdot(_finite_state(s1), _finite_state(s2))))


def random_state(seed: int) -> np.ndarray:
    """Haar-uniform normalized state, reproducible from the seed.

    Draws 16 standard normals from numpy's default PCG64 generator and
    normalizes, so the distribution is uniform on the 15-sphere. Raises
    ParseError for a negative seed.
    """
    _check_options(seeds={"seed": seed})
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(16)
    s = v[:8] + 1j * v[8:]
    return normalize(s)


# --- JSON state format: {"amplitudes": [[re, im] x 8]} -------------------

def state_to_json(s) -> str:
    s = as_state(s)
    return json.dumps({"amplitudes": [[float(z.real), float(z.imag)] for z in s]})


def state_from_json(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "amplitudes" not in doc:
        raise ParseError('expected an object with an "amplitudes" field')
    amps = doc["amplitudes"]
    if not isinstance(amps, list) or len(amps) != 8:
        raise ParseError("amplitudes must be a list of exactly 8 [re, im] pairs")
    out = np.zeros(8, dtype=complex)
    for n, pair in enumerate(amps):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"amplitude {n} is not a [re, im] pair")
        try:
            out[n] = float(pair[0]) + 1j * float(pair[1])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"amplitude {n}: {exc}") from exc
    return _finite_state(out)
