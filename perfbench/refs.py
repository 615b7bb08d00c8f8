"""Independent reference values that the benchmark checks library output against.

Nothing here calls tanglevec: the three-tangle comes from Cayley's
hyperdeterminant, the bipartite tangles from partial-trace density matrices,
and gates and local disguises from explicit Kronecker products. The state
layout matches the library's documented one: amplitude index ``4i + 2j + k``,
so ``state.reshape(2, 2, 2)`` has axes (a, b, c).
"""
from __future__ import annotations

import numpy as np

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
AXIS = {"a": 0, "b": 1, "c": 2}
STD_THETA = float(np.arccos(1 / np.sqrt(3)))


def hyperdeterminant(s) -> complex:
    """Cayley's hyperdeterminant; for the library's vectors A.A = -Det."""
    a = np.asarray(s, dtype=complex).reshape(2, 2, 2)
    d1 = (a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2 + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
          + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2 + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2)
    d2 = (a[0, 0, 0] * a[0, 0, 1] * a[1, 1, 0] * a[1, 1, 1]
          + a[0, 0, 0] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 1]
          + a[0, 0, 0] * a[1, 0, 0] * a[0, 1, 1] * a[1, 1, 1]
          + a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 0]
          + a[0, 0, 1] * a[1, 0, 0] * a[0, 1, 1] * a[1, 1, 0]
          + a[0, 1, 0] * a[1, 0, 0] * a[0, 1, 1] * a[1, 0, 1])
    d3 = (a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 1, 0]
          + a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0] * a[1, 1, 1])
    return complex(d1 - 2 * d2 + 4 * d3)


def three_tangle(s) -> float:
    return 4.0 * abs(hyperdeterminant(s))


def bipartite_tangles(s) -> tuple[float, float, float]:
    """(tau_a(bc), tau_b(ca), tau_c(ab)) as 4 det(rho_q), by partial trace."""
    t = np.asarray(s, dtype=complex).reshape(2, 2, 2)
    out = []
    for ax in range(3):
        m = np.moveaxis(t, ax, 0).reshape(2, 4)
        rho = m @ m.conj().T
        out.append(4.0 * float(np.real(rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0])))
    return out[0], out[1], out[2]


def tangle_set(s) -> dict:
    """All seven measures; the two-tangles follow from the CKW equalities."""
    t3 = three_tangle(s)
    ta, tb, tc = bipartite_tangles(s)
    return {
        "tau_abc": t3,
        "tau_bc": 0.5 * (tb + tc - ta - t3),
        "tau_ac": 0.5 * (ta + tc - tb - t3),
        "tau_ab": 0.5 * (ta + tb - tc - t3),
        "tau_a_bc": ta, "tau_b_ca": tb, "tau_c_ab": tc,
    }


def vector_norms(s) -> tuple[float, float, float]:
    """(|A|^2, |B|^2, |C|^2) from tau_q(rs) = 2(|V_r|^2 + |V_s|^2)."""
    ta, tb, tc = bipartite_tangles(s)
    return (tb + tc - ta) / 4, (tc + ta - tb) / 4, (ta + tb - tc) / 4


def random_state(rng) -> np.ndarray:
    v = rng.standard_normal(16)
    s = v[:8] + 1j * v[8:]
    return s / np.linalg.norm(s)


def random_su2(rng) -> np.ndarray:
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    a, b = v[0] + 1j * v[1], v[2] + 1j * v[3]
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]])


def local_op(ua, ub, uc) -> np.ndarray:
    return np.kron(np.kron(ua, ub), uc)


def disguise(s, rng) -> np.ndarray:
    """A random local-unitary image of s; every local invariant is unchanged."""
    return local_op(random_su2(rng), random_su2(rng), random_su2(rng)) @ s


def embed_pair(u4, pair: str) -> np.ndarray:
    """8x8 matrix of a 4x4 operator on (pair[0], pair[1]), identity elsewhere."""
    a1, a2 = AXIS[pair[0]], AXIS[pair[1]]
    spect = 3 - a1 - a2
    t = u4.reshape(2, 2, 2, 2)
    u8 = np.zeros((2, 2, 2, 2, 2, 2), dtype=complex)   # out a,b,c ; in a,b,c
    for z in range(2):
        out = [slice(None)] * 6
        out[spect] = z
        out[3 + spect] = z
        # remaining out axes are (a1, a2) in order, remaining in axes likewise
        block = t if a1 < a2 else t.transpose(1, 0, 3, 2)
        u8[tuple(out)] = block
    return u8.reshape(8, 8)


def pair_exp(pair: str, theta) -> np.ndarray:
    """8x8 exp(1/2 sum theta_nm i sigma_n sigma_m) on the pair, by eigh."""
    th = np.asarray(theta, dtype=float).reshape(3, 3)
    gen = sum(0.5 * th[n, m] * np.kron(SIGMA[n], SIGMA[m])
              for n in range(3) for m in range(3))
    w, v = np.linalg.eigh(gen)
    return embed_pair((v * np.exp(1j * w)) @ v.conj().T, pair)


def local_exp(qubit: str, theta) -> np.ndarray:
    """8x8 exp(1/2 sum theta_n i sigma_n) on one qubit, by eigh."""
    gen = sum(0.5 * t * sg for t, sg in zip(theta, SIGMA))
    w, v = np.linalg.eigh(gen)
    ops = [np.eye(2), np.eye(2), np.eye(2)]
    ops[AXIS[qubit]] = (v * np.exp(1j * w)) @ v.conj().T
    return local_op(*ops)


def sequence_matrix(steps) -> np.ndarray:
    """Product of plain steps ("local", q, theta3) / ("coupling", pair,
    theta3x3) / ("phase", alpha), the first step acting first."""
    u = np.eye(8, dtype=complex)
    for kind, target, params in steps:
        if kind == "local":
            u = local_exp(target, params) @ u
        elif kind == "coupling":
            u = pair_exp(target, params) @ u
        else:
            u = np.exp(1j * params) * u
    return u


def phase_distance(u, v) -> float:
    """Max-norm distance between two matrices after the best global phase."""
    tr = np.trace(v.conj().T @ u)
    return float(np.abs(u - (tr / abs(tr)) * v).max())


def ghz() -> np.ndarray:
    s = np.zeros(8, dtype=complex)
    s[0] = s[7] = np.exp(-0.25j * np.pi) / np.sqrt(2)
    return s


def w_state(theta: float, phi: float) -> np.ndarray:
    s = np.zeros(8, dtype=complex)
    s[1] = np.sin(theta) * np.cos(phi)
    s[2] = np.sin(theta) * np.sin(phi)
    s[4] = np.cos(theta)
    return s


def acin_state(lam) -> np.ndarray:
    s = np.zeros(8, dtype=complex)
    s[[0, 2, 6, 3, 7]] = np.exp(0.25j * np.pi) * np.asarray(lam, dtype=float)
    return s


def canonical_three_term(xi: float) -> np.ndarray:
    """e^{i pi/4} (-cos xi |000> + sin xi |010> + |111>) / sqrt 2."""
    s = np.zeros(8, dtype=complex)
    s[0], s[2], s[7] = -np.cos(xi), np.sin(xi), 1.0
    return np.exp(0.25j * np.pi) * s / np.sqrt(2)


def quaternionic_amplitudes(x, y) -> np.ndarray:
    """Amplitudes of the real-quaternion pair (x, y) in the a(bc) pattern."""
    c = np.zeros(8, dtype=complex)
    c[0], c[5] = x[0] + 1j * x[3], x[0] - 1j * x[3]
    c[4], c[1] = 1j * x[1] + x[2], 1j * x[1] - x[2]
    c[2], c[7] = y[0] + 1j * y[3], y[0] - 1j * y[3]
    c[6], c[3] = 1j * y[1] + y[2], 1j * y[1] - y[2]
    return c


_CAL = np.random.default_rng(12345)
_CAL_STATE = random_state(_CAL)
_CAL_M2 = _CAL.standard_normal((2, 2)) + 1j * _CAL.standard_normal((2, 2))
_CAL_H4 = _CAL.standard_normal((4, 4)) + _CAL.standard_normal((4, 4)).T


def calibration_block():
    """Fixed work shaped like the library's (small numpy calls from Python)."""
    rng = np.random.default_rng(7)
    for _ in range(8):
        tangle_set(_CAL_STATE)
        disguise(_CAL_STATE, rng)
        np.linalg.svd(_CAL_M2)
        np.linalg.eigh(_CAL_H4)
        np.einsum("ax,by,cz,xyz->abc", _CAL_M2, _CAL_M2, _CAL_M2,
                  _CAL_STATE.reshape(2, 2, 2))


def fs_milestones() -> list[tuple[str, np.ndarray, float]]:
    """(name, state, angle to GHZ in degrees) for the four known answers."""
    w = w_state(STD_THETA, np.pi / 4)
    amd = np.array([0.2175, 0.7778, 0.5895])
    w_md = w_state(float(np.arccos(amd[2] / np.linalg.norm(amd))),
                   float(np.arctan2(amd[1], amd[0])))
    # exp(i pi/4 sigma_x sigma_x) on (b, c): the first coupling of W -> GHZ
    w1 = pair_exp("bc", np.diag([np.pi / 2, 0.0, 0.0])) @ w
    return [("w", w, 30.0), ("biseparable_w", w_state(np.pi / 4, 0.0), 45.0),
            ("mixed_w", w_md, 37.58), ("w_first_coupling", w1, 9.7356)]
