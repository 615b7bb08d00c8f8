"""The dual geometric engine: so(3)/so(6) images of gate steps.

Local rotations act on a single invariant vector through SO(3); a coupling
on a partition's qubit pair acts on the packed 6-vector through SO(6); a
global phase exp(i a) multiplies the 6-vector by exp(2i a). The generator
dictionary is the standard isomorphism between su(4) on the pair and so(6),
held as two read-only tables indexed by GENERATOR_LABELS: SU4_BASIS, the
(15, 4, 4) matrices i/2 sigma on the ordered pair, and SO6_BASIS, their
(15, 6, 6) integer images:

    i/2 sigma_x^(1) -> I_32   i/2 sigma_y^(1) -> -I_31   i/2 sigma_z^(1) -> I_21
    (same for qubit 2 on the second block)
    i/2 sigma_n^(1) sigma_m^(2) -> Lambda_{n,m}

where [I_{n,m}]_{ij} = -d_{i,n} d_{j,m} + d_{i,m} d_{j,n} on the block's
triple, so the three local images of a block are the Levi-Civita matrices
[eps_k]_{ij} = eps_{kij}, and [Lambda_{n,m}]_{ij} = -d_{i,n} d_{j,m+3}
+ d_{j,n} d_{i,m+3} fills the two off-diagonal blocks. Every lookup
returns a copy of a table row; a label outside GENERATOR_LABELS raises
UnknownGenerator, and an axis n, m that is not an integer 1-3 IndexOutOfRange.

evolve_q and so6_image are one dual evolution: so6_image evolves eye(6), as
gates.sequence_unitary evolves eye(8). The walker gates._steps sorts the
steps, checked when they were built, given this partition's qubit offsets
(None for the spectator), its pair layout and this picture's two factor
formulas; it makes each step's dual factor on the first dual evolution that
applies the step and keeps it, read-only (about 0.4 KB for a coupling's
6x6). This module keeps only the formulas and the contraction loop. A
local's 3x3 Rodrigues rotation (_rodrigues) is computed from scalars and
acts on its own three components only. The coupling images of a sequence
that have no factor yet, sum theta_nm Lambda_nm, are exponentiated in one
stacked expi_hermitian call (_lambda_rotations). The dual picture never
reads the 4x4 unitaries that the Hilbert picture keeps on a step, so
comparing the two pictures stays a test of the generator map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, UnknownGenerator
from .gates import _AXES, PAIR_PAULIS, LocalStep, _steps, expi_hermitian
from .states import PARTITION_PAIR, PARTITION_SPECTATOR, _named, parse_partition
from .vectors import SixVector

AXIS_NAMES = "xyz"


@dataclass(frozen=True, eq=False)
class So6Generator:
    g: np.ndarray  # 6x6 integer antisymmetric
    tag: str


@dataclass(frozen=True, eq=False)
class So6Action:
    y: np.ndarray   # 6x6 real orthogonal, det +1
    phase2: float   # the accumulated exp(2 i phi) factor, kept separate


@dataclass(frozen=True)
class CommutatorReport:
    pairs: int
    max_discrepancy: int

    @property
    def ok(self) -> bool:
        return self.max_discrepancy == 0


#: the 15 labels of the su(4) pair basis; "a"/"b" name the first and second
#: slot of the ordered pair
GENERATOR_LABELS = tuple(f"{ax}_a" for ax in AXIS_NAMES) + \
    tuple(f"{ax}_b" for ax in AXIS_NAMES) + \
    tuple(f"{n}{m}" for n in AXIS_NAMES for m in AXIS_NAMES)
#: the row of each label in the generator tables
_GENERATOR_ROW = {label: k for k, label in enumerate(GENERATOR_LABELS)}

#: i/2 times the pair Paulis, indexed like GENERATOR_LABELS
SU4_BASIS = 0.5j * PAIR_PAULIS
SU4_BASIS.flags.writeable = False


def _so6_basis() -> np.ndarray:
    k = np.arange(3)
    eps = np.zeros((3, 3, 3), dtype=np.int64)   # Levi-Civita: eps[k] = I_32, -I_31, I_21
    eps[k, (k + 1) % 3, (k + 2) % 3] = 1
    eps[k, (k + 2) % 3, (k + 1) % 3] = -1
    unit = np.eye(9, dtype=np.int64).reshape(9, 3, 3)   # unit[3(n-1) + m-1] = E_nm
    g = np.zeros((15, 6, 6), dtype=np.int64)
    g[0:3, :3, :3] = eps
    g[3:6, 3:, 3:] = eps
    g[6:, :3, 3:] = -unit
    g[6:, 3:, :3] = unit.transpose(0, 2, 1)
    g.flags.writeable = False
    return g


#: the integer so(6) image of each SU4_BASIS element, indexed like GENERATOR_LABELS
SO6_BASIS = _so6_basis()


#: the So6Generator.tag of each row
_TAGS = tuple(f"{t}^{slot}" for slot in "ab" for t in ("I_32", "-I_31", "I_21")) + \
    tuple(f"Lambda_{n}{m}" for n in (1, 2, 3) for m in (1, 2, 3))


def generator_map(label: str) -> So6Generator:
    """so(6) image of one su(4) basis generator (i/2 sigma...)."""
    k = _named(_GENERATOR_ROW, label, "generator label", UnknownGenerator)
    return So6Generator(SO6_BASIS[k].copy(), _TAGS[k])


def lambda_generator(n: int, m: int) -> So6Generator:
    """Coupling generator rotating component n against component m+3."""
    n, m = (AXIS_NAMES[_named(_AXES, x, "axes entry", IndexOutOfRange)] for x in (n, m))
    return generator_map(n + m)


def su_generator(label: str) -> np.ndarray:
    """4x4 matrix i/2 sigma... on the ordered pair Hilbert space."""
    return SU4_BASIS[_named(_GENERATOR_ROW, label, "generator label", UnknownGenerator)].copy()


def _rodrigues(t0: float, t1: float, t2: float) -> np.ndarray:
    """so3_image of the angles (t0, t1, t2), from scalars."""
    t = math.hypot(t0, t1, t2)
    if t < 1e-300:
        return np.eye(3)
    n0, n1, n2 = t0 / t, t1 / t, t2 / t
    c, s = math.cos(t), math.sin(t)
    w = 1.0 - c
    # cos t + sin t [n]_x^T + (1 - cos t) n n^T
    return np.array([[c + w * n0 * n0, w * n0 * n1 + s * n2, w * n0 * n2 - s * n1],
                     [w * n0 * n1 - s * n2, c + w * n1 * n1, w * n1 * n2 + s * n0],
                     [w * n0 * n2 + s * n1, w * n1 * n2 - s * n0, c + w * n2 * n2]])


def so3_image(theta) -> np.ndarray:
    """exp(theta1 I_32 - theta2 I_31 + theta3 I_21), in closed Rodrigues form.

    This is the rotation by angle -|theta| about the axis theta/|theta|;
    a 2 pi rotation maps to the identity while the SU(2) side gives -1.
    ParseError for angles that a LocalStep refuses.
    """
    return _rodrigues(*LocalStep("a", theta).theta)


#: sum_nm theta_nm Lambda_nm as a (9, 36) table, row 3(n-1) + m-1
_LAMBDAS = SO6_BASIS[6:].reshape(9, 36).astype(float)


def _lambda_rotations(th: np.ndarray) -> np.ndarray:
    """The 6x6 rotations exp(sum theta_nm Lambda_nm) of stacked (k, 3, 3) coefficients."""
    g = (th.reshape(-1, 9) @ _LAMBDAS).reshape(-1, 6, 6)
    return expi_hermitian(-1j * g).real   # exp(g) = exp(i h) with the Hermitian h = -i g


def _dual_evolve(seq, p: int, m: np.ndarray) -> tuple[np.ndarray, float]:
    """Rotate partition p's 6-vectors m, shape (6,) or (6, R), through the steps.

    m is updated in place where a local acts. Returns the rotated m and the
    summed phase2, which is left for the caller to apply.
    """
    first, second = PARTITION_PAIR[p]
    steps, phase = _steps(seq, {first: 0, second: 3, PARTITION_SPECTATOR[p]: None},
                          {first + second: (None, False), second + first: (None, True)},
                          "_rotation", _rodrigues, _lambda_rotations)
    for off, y in steps:
        if off is None:
            m = y @ m
        else:
            m[off:off + 3] = y @ m[off:off + 3]
    return m, 2.0 * phase


def so6_image(step, partition) -> So6Action:
    """Action of one gate step on the partition's 6-vector: the step's dual evolution of eye(6).

    A local rotation acts block-diagonally on its own triple and a local
    rotation on the spectator qubit acts as the identity. A coupling must
    involve exactly the partition's pair; a pair touching the spectator
    leaves the 6-vector space and raises NotRepresentable.
    """
    return So6Action(*_dual_evolve([step], parse_partition(partition), np.eye(6)))


def evolve_q(seq, q: SixVector) -> SixVector:
    """Evolve a 6-vector through a sequence: q -> e^{i phase2} Y_total q."""
    vec, phase2 = _dual_evolve(seq, q.partition, q.q.copy())
    if phase2:
        vec = vec * complex(math.cos(phase2), math.sin(phase2))
    return SixVector(vec, q.partition)


def verify_commutators() -> CommutatorReport:
    """Check the generator map on all 105 commutator pairs, exactly.

    Every bracket of two basis elements is an integer combination of basis
    elements; the coefficients are extracted by trace orthogonality and the
    comparison runs in integer arithmetic, so the discrepancy must be 0.
    """
    h = 2.0 * SU4_BASIS       # entries 0, +-1, +-i
    m = SO6_BASIS
    pairs = np.triu_indices(len(GENERATOR_LABELS), 1)
    # coefficient of h_k in [h_i, h_j] by trace orthogonality
    t = np.einsum("kba,ibc,jca->ijk", h.conj(), h, h)
    c = (t - t.swapaxes(0, 1))[pairs] / 8.0
    coeff = np.rint(c.real).astype(np.int64)
    if not np.abs(c - coeff).max() <= 1e-12:
        return CommutatorReport(len(c), 10**9)  # non-integer: map broken
    mm = np.einsum("iab,jbc->ijac", m, m)
    lhs = (mm - mm.swapaxes(0, 1))[pairs]
    rhs = np.einsum("pk,kab->pab", coeff, m)
    return CommutatorReport(len(c), int(np.abs(lhs - rhs).max()))
