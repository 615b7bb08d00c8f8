"""Entanglement measures: three-tangle, two-tangles, bipartite tangles.

Everything is expressible through the invariant vectors:

    tau_abc   = 4|A.A| = 4|B.B| = 4|C.C|
    tau_(bc)  = 2(A.A* - |A.A|)      (and cyclic)
    tau_c(ab) = 2(A.A* + B.B*)       (and cyclic)

with an independent density-matrix route for the bipartite tangles,
tau_q(rs) = 4 det(rho_q), kept as a cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import InvariantViolation
from .states import QUBIT_AXIS, as_state, squared_norm
from .vectors import EPS_INV, abc_vectors

#: when true, every bipartite_tangles call is cross-checked against the
#: partial-trace oracle (the test suite sets it; off in normal use)
CROSS_CHECK = False


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


def _tolerance(c: np.ndarray) -> float:
    """EPS_INV scaled to a measure of the state, which is quartic in it.

    Raises ParseError for non-finite amplitudes.
    """
    n2 = squared_norm(c)
    return EPS_INV * n2 * n2


def _measures(s, cross_check: bool | None = None) -> TangleSet:
    """All seven measures from one evaluation of the invariant vectors.

    Asserts that the A, B and C expressions of the three-tangle agree and,
    when cross-checking, that the bipartite tangles match the density route.
    """
    c = as_state(s)
    tol = _tolerance(c)
    v = abc_vectors(c)
    sq = [float(abs(x @ x)) for x in (v.a, v.b, v.c)]
    hn = [float(np.real(x @ x.conj())) for x in (v.a, v.b, v.c)]
    ta, tb, tc = (4.0 * x for x in sq)
    if not max(abs(ta - tb), abs(ta - tc)) <= tol:
        raise InvariantViolation(
            f"three-tangle expressions disagree: {ta}, {tb}, {tc}")
    two = [_clamp(2.0 * (n - x), tol) for n, x in zip(hn, sq)]
    na, nb, nc = hn
    bip = (_clamp(2.0 * (nb + nc), tol), _clamp(2.0 * (nc + na), tol),
           _clamp(2.0 * (na + nb), tol))
    if CROSS_CHECK if cross_check is None else cross_check:
        for tau, qubit in zip(bip, "abc"):
            ref = bipartite_tangle_from_density(c, qubit)
            if not abs(tau - ref) <= tol:
                raise InvariantViolation(
                    f"vector formula {tau} vs density route {ref} for qubit {qubit}")
    return TangleSet(_clamp(ta, tol), *two, *bip)


def three_tangle(s) -> float:
    """4|A.A|, asserting agreement with the B and C expressions."""
    return _measures(s, cross_check=False).tau_abc


def two_tangles(s) -> tuple[float, float, float]:
    """(tau_bc, tau_ac, tau_ab)."""
    t = _measures(s, cross_check=False)
    return t.tau_bc, t.tau_ac, t.tau_ab


def bipartite_tangles(s, cross_check: bool | None = None) -> tuple[float, float, float]:
    """(tau_a_bc, tau_b_ca, tau_c_ab) from the Hermitian vector norms."""
    t = _measures(s, cross_check)
    return t.tau_a_bc, t.tau_b_ca, t.tau_c_ab


def bipartite_tangle_from_density(s, qubit: str) -> float:
    """4 det(rho_qubit) by partial trace; independent of the vector formulas."""
    c = as_state(s)
    tol = _tolerance(c)
    m = np.moveaxis(c.reshape(2, 2, 2), QUBIT_AXIS[qubit], 0).reshape(2, 4)
    rho = m @ m.conj().T
    det = np.real(rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0])
    return _clamp(4.0 * float(det), tol)


def ckw_residual(s) -> float:
    """Largest violation of tau_q(rs) = tau_abc + tau_(qr) + tau_(qs)."""
    t = _measures(s)
    return float(max(
        abs(t.tau_c_ab - t.tau_abc - t.tau_bc - t.tau_ac),
        abs(t.tau_a_bc - t.tau_abc - t.tau_ab - t.tau_ac),
        abs(t.tau_b_ca - t.tau_abc - t.tau_ab - t.tau_bc),
    ))


def tangle_set(s) -> TangleSet:
    """All seven measures in one sweep."""
    return _measures(s)
