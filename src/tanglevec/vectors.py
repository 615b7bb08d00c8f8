"""The invariant vectors A, B, C and their 6-vector packings.

Each vector is a complex 3-vector of quadratic polynomials in the amplitudes.
A is unchanged by any local operation on qubits (b, c) and rotates as an
SO(3) vector under local operations on qubit a; B and C behave cyclically.
All dot products below are plain (non-Hermitian) unless stated otherwise.

Each state is evaluated once in numpy: _evaluate takes its one |s|^2 for
the tolerance and evaluates the nine forms as two matrix-vector products,
(_ABC_QUADS c).reshape(9, 8) c, into a read-only (3, 3) block of rows A, B,
C. _vectors keeps the state evaluated last by its amplitudes in one _Entry
(one entry, no option), so every invariant called on that state reads the
block back. After it, all is Python arithmetic on one .tolist(): _dots gives
A.A, B.B, C.C and the Hermitian norms as tuples, which the Pluecker
residual, the gauge and the tangles (in tangles) read. The entry keeps them,
and the state's TangleSet, from the first call that needs each until the
entry is replaced; abc_vectors and q_vector never fill them. AbcVectors
wraps writable copies of the rows. Where |s|^4 is tiny, the gauge is taken
on the state rescaled by a power of two (_unit_scaled), in an entry of its
own that is never kept, so that it is scale-free.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import GaugeUndefined, ParseError
from .states import (PARTITION_PAIR, QUBIT_AXIS, _complexes, _rescaled, as_state,
                     parse_partition, squared_norm)

EPS_INV = 1e-10


@dataclass(frozen=True, eq=False)
class AbcVectors:
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def by_qubit(self, qubit: str) -> np.ndarray:
        return {"a": self.a, "b": self.b, "c": self.c}[qubit]


@dataclass(frozen=True, eq=False)
class SixVector:
    """Packing (V1, -i V2) of the two pair vectors of a partition.

    partition 3 -> (A, -iB), partition 1 -> (B, -iC), partition 2 -> (C, -iA).
    Checked when built: q must be 6 finite numbers (_complexes), kept as a
    read-only complex copy, and the partition 1, 2 or 3 (or its label); else ParseError.
    """
    q: np.ndarray
    partition: int

    def __post_init__(self):
        q = _complexes(self.q, 6, "a 6-vector").astype(complex, copy=not isinstance(self.q, list))
        if q.shape != (6,) or not all(map(cmath.isfinite, q.tolist())):
            raise ParseError(f"a 6-vector must be 6 finite numbers in a flat list, got {self.q!r}")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "partition", parse_partition(self.partition))


@dataclass(frozen=True)
class GaugeInfo:
    phi_a: float
    defined: bool


def _a_forms() -> np.ndarray:
    """Symmetric 8x8 forms with A_i = psi^T Q_i psi (plain transpose)."""
    terms = {
        0: [(-1j, 0, 3), (1j, 1, 2), (-1j, 6, 5), (1j, 7, 4)],
        1: [(1, 0, 3), (-1, 1, 2), (1, 4, 7), (-1, 5, 6)],
        2: [(1j, 0, 7), (-1j, 1, 6), (1j, 4, 3), (-1j, 5, 2)],
    }
    q = np.zeros((3, 8, 8), dtype=np.complex128)
    for i, lst in terms.items():
        for coef, m, n in lst:
            q[i, m, n] += coef / 2
            q[i, n, m] += coef / 2
    return q


def _cycled(quads: np.ndarray, axes: tuple) -> np.ndarray:
    """The forms with the qubit axes of both indices transposed by ``axes``."""
    t = quads.reshape(3, 2, 2, 2, 2, 2, 2)
    return t.transpose(0, *(1 + a for a in axes), *(4 + a for a in axes)).reshape(3, 8, 8)


_A_QUADS = _a_forms()
#: A, B, C stacked as 9 forms: B and C are A under the index cycles
#: (i,j,k) -> (k,i,j) and (i,j,k) -> (j,k,i)
_ABC_QUADS = np.concatenate([_A_QUADS, _cycled(_A_QUADS, (2, 0, 1)),
                             _cycled(_A_QUADS, (1, 2, 0))]).reshape(72, 8)


#: below |s| ~ 1e-77, EPS_INV |s|^4 falls under the rounding of the subnormal
#: quartic measures: 4|A.A| is a few sums of squares, off by up to ~52 spacings
_TOL_FLOOR = 64 * np.finfo(float).smallest_subnormal


def _tolerance(c: np.ndarray) -> float:
    """EPS_INV |c|^4, at least _TOL_FLOOR.

    ParseError when an amplitude or |c|^4 is not finite: |c|^4 overflows
    above |c| ~ 1.2e77, and normalize() accepts such a state.
    """
    n2 = squared_norm(c)
    n4 = n2 * n2
    if not math.isfinite(n4):
        raise ParseError(f"|s|^4 overflows (largest |amplitude| {np.abs(c).max():.3g}); "
                         "normalize the state first")
    return max(EPS_INV * n4, _TOL_FLOOR)


class _Entry:
    """One evaluated state: its read-only block m and tolerance tol, keyed by its amplitude bytes.

    What is derived from the block is kept here too, filled on first need
    and replaced with the entry: dots() (from _dots) and the state's
    TangleSet (tangles, which tangles.tangle_set fills). Both are immutable;
    two threads on one entry may both fill one, with the same value.
    """
    __slots__ = ("key", "m", "tol", "_sq_hn", "tangles")

    def __init__(self, key, m, tol):
        self.key, self.m, self.tol = key, m, tol
        self._sq_hn = self.tangles = None

    def dots(self) -> tuple[tuple, tuple]:
        """_dots(m), computed on the first call and handed back on every later one."""
        d = self._sq_hn
        if d is None:
            d = self._sq_hn = _dots(self.m)
        return d


#: the state evaluated last
_last = _Entry(None, None, None)


def _evaluate(c: np.ndarray) -> tuple[np.ndarray, float]:
    """The read-only (3, 3) block with rows A, B, C of the state c, and _tolerance(c)."""
    tol = _tolerance(c)
    m = _ABC_QUADS.dot(c).reshape(9, 8).dot(c).reshape(3, 3)
    m.setflags(write=False)
    return m, tol


def _vectors(s) -> _Entry:
    """The entry of s, evaluated after the one check of an invariant's input.

    One entry, no option, keeps the state evaluated last by its amplitudes,
    so a repeated call on them reads the block, and whatever was derived
    from it, back; a refused state is never kept.
    """
    global _last
    c = as_state(s)
    key, last = c.tobytes(), _last   # one read: the entry may be replaced meanwhile
    if key != last.key:
        last = _last = _Entry(key, *_evaluate(c))
    return last


def _dots(m: np.ndarray) -> tuple[tuple, tuple]:
    """(A.A, B.B, C.C) and (|A|^2, |B|^2, |C|^2) of the block m, as Python numbers."""
    sq, hn = [], []
    for x, y, z in m.tolist():
        sq.append(x * x + y * y + z * z)
        hn.append((x * x.conjugate() + y * y.conjugate() + z * z.conjugate()).real)
    return tuple(sq), tuple(hn)


def _unit_scaled(s) -> _Entry:
    """_vectors(s), or an unkept entry of s rescaled where the tolerance is not a normal double.

    Below |s| ~ 1e-75, a nonzero A.A above the tolerance EPS_INV |s|^4 can
    still be subnormal, so its phase and its zero test lose digits. There the
    state is rescaled, exactly, by the power of two that brings its largest
    real or imaginary part near 1, and evaluated without replacing the entry
    or filling what it keeps.
    """
    e = _vectors(s)
    if e.tol >= sys.float_info.min:
        return e
    return _Entry(None, *_evaluate(_rescaled(as_state(s))[0]))


def abc_vectors(s) -> AbcVectors:
    """Evaluate the nine quadratic forms psi^T Q psi.

    Inputs need not be normalized; the output scales as the amplitude square.
    Raises ParseError for non-finite amplitudes and above |s| ~ 1.2e77.
    """
    return AbcVectors(*_vectors(s).m.copy())


def q_vector(s, partition) -> SixVector:
    """Six-vector (V_first, -i V_second) for the partition's qubit pair."""
    p = parse_partition(partition)
    rows = _vectors(s).m.tolist()
    first, second = (rows[QUBIT_AXIS[q]] for q in PARTITION_PAIR[p])
    return SixVector(first + [-1j * z for z in second], p)


def plucker_residual(s) -> float:
    """max(|A.A - B.B|, |B.B - C.C|); an algebraic identity, so ~0 always."""
    aa, bb, cc = _vectors(s).dots()[0]
    return max(abs(aa - bb), abs(bb - cc))


def gauge_phase(s) -> GaugeInfo:
    """Half the argument of A.A, principal branch (-pi/2, pi/2].

    Undefined (flagged, not an error) when |A.A| is below EPS_INV |s|^4, i.e.
    when the three-tangle vanishes. Both the test and the phase are
    scale-free: they are taken at unit scale where |s|^4 is tiny
    (_unit_scaled). Raises ParseError for non-finite amplitudes and above
    |s| ~ 1.2e77.
    """
    return _gauge(_unit_scaled(s))


def _gauge(e: _Entry) -> GaugeInfo:
    """The gauge of the evaluated entry e: defined where |A.A| > e.tol, with phase 1/2 arg A.A."""
    aa = e.dots()[0][0]
    if abs(aa) <= e.tol:
        return GaugeInfo(0.0, False)
    return GaugeInfo(0.5 * cmath.phase(aa), True)


def apply_gauge(s) -> np.ndarray:
    """Multiply the state by exp(-i Phi/2) so that A.A becomes real >= 0.

    In the gauged state the real and imaginary parts of each of A, B, C are
    orthogonal. Raises GaugeUndefined when A.A = 0.
    """
    info = gauge_phase(s)
    if not info.defined:
        raise GaugeUndefined("A.A vanishes; no distinguished global phase")
    return as_state(s) * np.exp(-0.5j * info.phi_a)
