"""The invariant vectors A, B, C and their 6-vector packings.

Each vector is a complex 3-vector of quadratic polynomials in the amplitudes.
A is unchanged by any local operation on qubits (b, c) and rotates as an
SO(3) vector under local operations on qubit a; B and C behave cyclically.
All dot products below are plain (non-Hermitian) unless stated otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GaugeUndefined, ParseError
from .states import PARTITION_PAIR, as_state, parse_partition, squared_norm

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
    """
    q: np.ndarray
    partition: int


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
        raise ParseError(f"|s|^4 overflows (|s|^2 = {n2:.3g}); normalize the state first")
    return max(EPS_INV * n4, _TOL_FLOOR)


def _vectors(s) -> tuple[AbcVectors, float]:
    """A, B, C and the tolerance _tolerance(s): the one check of an invariant's input."""
    c = as_state(s)
    tol = _tolerance(c)
    return AbcVectors(*((_ABC_QUADS @ c).reshape(9, 8) @ c).reshape(3, 3)), tol


def abc_vectors(s) -> AbcVectors:
    """Evaluate the nine quadratic forms psi^T Q psi.

    Inputs need not be normalized; the output scales as the amplitude square.
    Raises ParseError for non-finite amplitudes and above |s| ~ 1.2e77.
    """
    return _vectors(s)[0]


def q_vector(s, partition) -> SixVector:
    """Six-vector (V_first, -i V_second) for the partition's qubit pair."""
    p = parse_partition(partition)
    v, _ = _vectors(s)
    first, second = PARTITION_PAIR[p]
    return SixVector(np.concatenate([v.by_qubit(first), -1j * v.by_qubit(second)]), p)


def _plucker(v: AbcVectors) -> float:
    aa, bb, cc = v.a @ v.a, v.b @ v.b, v.c @ v.c
    return float(max(abs(aa - bb), abs(bb - cc)))


def plucker_residual(s) -> float:
    """max(|A.A - B.B|, |B.B - C.C|); an algebraic identity, so ~0 always."""
    return _plucker(_vectors(s)[0])


def _gauge(v: AbcVectors, tol: float) -> GaugeInfo:
    aa = v.a @ v.a
    if abs(aa) <= tol:
        return GaugeInfo(0.0, False)
    return GaugeInfo(0.5 * float(np.angle(aa)), True)


def gauge_phase(s) -> GaugeInfo:
    """Half the argument of A.A, principal branch (-pi/2, pi/2].

    Undefined (flagged, not an error) when |A.A| is below EPS_INV |s|^4, i.e.
    when the three-tangle vanishes. Raises ParseError for non-finite
    amplitudes and above |s| ~ 1.2e77.
    """
    return _gauge(*_vectors(s))


def apply_gauge(s) -> np.ndarray:
    """Multiply the state by exp(-i Phi/2) so that A.A becomes real >= 0.

    In the gauged state the real and imaginary parts of each of A, B, C are
    orthogonal. Raises GaugeUndefined when A.A = 0.
    """
    info = gauge_phase(s)
    if not info.defined:
        raise GaugeUndefined("A.A vanishes; no distinguished global phase")
    return as_state(s) * np.exp(-0.5j * info.phi_a)
