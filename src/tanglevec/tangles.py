"""Entanglement measures: three-tangle, two-tangles, bipartite tangles.

Everything is expressible through the invariant vectors:

    tau_abc   = 4|A.A| = 4|B.B| = 4|C.C|
    tau_(bc)  = 2(A.A* - |A.A|)      (and cyclic)
    tau_c(ab) = 2(A.A* + B.B*)       (and cyclic)

The bipartite tangles also have a density-matrix route,
tau_q(rs) = 4 det(rho_q). It shares no formula with the vectors and is an
independent oracle for tests and benchmarks; the measures above never call
it.

Each measure reads tangle_set, which takes its entry from vectors._vectors:
that evaluates a state once and keeps the state evaluated last by its
amplitudes (one entry, no option), so the calls of one analysis read one
evaluation. tangle_set works on Python numbers only, A.A, B.B, C.C and the
Hermitian norms the entry keeps (vectors._dots), so every route (the
wrappers, the CLI, the protocols) gets bit-identical values. The entry also
keeps the frozen TangleSet from the first call on, so every later measure
of the same amplitudes reads that one object; a TangleSet whose three-tangle
expressions disagree is never kept, so every call raises.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import InvariantViolation
from .states import QUBIT_AXIS, _named, as_state
from .vectors import _tolerance, _vectors


@dataclass(frozen=True)
class TangleSet:
    tau_abc: float
    tau_bc: float
    tau_ac: float
    tau_ab: float
    tau_a_bc: float
    tau_b_ca: float
    tau_c_ab: float

    def as_dict(self) -> dict:
        return asdict(self)


def _clamp(x: float, tol: float) -> float:
    # measures are squared magnitudes; snap tiny negative noise to 0
    return 0.0 if -tol < x < 0.0 else x


def tangle_set(s) -> TangleSet:
    """All seven measures from one evaluation of the invariant vectors.

    Asserts that the A, B and C expressions of the three-tangle agree. The
    state's entry keeps the result, so a later call on the same amplitudes
    hands back the same object; a disagreement is never kept.
    """
    e = _vectors(s)
    t = e.tangles
    if t is None:
        t = e.tangles = _measures(e.dots(), e.tol)
    return t


def _measures(dots: tuple, tol: float) -> TangleSet:
    """tangle_set's seven measures from vectors._dots' numbers and the tolerance."""
    sq, hn = dots
    sq = [abs(x) for x in sq]
    ta, tb, tc = (4.0 * x for x in sq)
    if not max(abs(ta - tb), abs(ta - tc)) <= tol:
        raise InvariantViolation(
            f"three-tangle expressions disagree: {ta}, {tb}, {tc}")
    two = [_clamp(2.0 * (n - x), tol) for n, x in zip(hn, sq)]
    na, nb, nc = hn
    bip = (_clamp(2.0 * (nb + nc), tol), _clamp(2.0 * (nc + na), tol),
           _clamp(2.0 * (na + nb), tol))
    return TangleSet(_clamp(ta, tol), *two, *bip)


def three_tangle(s) -> float:
    """4|A.A|, asserting agreement with the B and C expressions."""
    return tangle_set(s).tau_abc


def two_tangles(s) -> tuple[float, float, float]:
    """(tau_bc, tau_ac, tau_ab)."""
    t = tangle_set(s)
    return t.tau_bc, t.tau_ac, t.tau_ab


def bipartite_tangles(s) -> tuple[float, float, float]:
    """(tau_a_bc, tau_b_ca, tau_c_ab) from the Hermitian vector norms."""
    t = tangle_set(s)
    return t.tau_a_bc, t.tau_b_ca, t.tau_c_ab


def bipartite_tangle_from_density(s, qubit: str) -> float:
    """4 det(rho_qubit) by partial trace; independent of the vector formulas."""
    c = as_state(s)
    tol = _tolerance(c)
    m = np.moveaxis(c.reshape(2, 2, 2), _named(QUBIT_AXIS, qubit, "qubit"), 0).reshape(2, 4)
    rho = m @ m.conj().T
    det = np.real(rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0])
    return _clamp(4.0 * float(det), tol)


def ckw_residual(s) -> float:
    """Largest violation of tau_q(rs) = tau_abc + tau_(qr) + tau_(qs)."""
    t = tangle_set(s)
    return max(
        abs(t.tau_c_ab - t.tau_abc - t.tau_bc - t.tau_ac),
        abs(t.tau_a_bc - t.tau_abc - t.tau_ab - t.tau_ac),
        abs(t.tau_b_ca - t.tau_abc - t.tau_ab - t.tau_bc),
    )
