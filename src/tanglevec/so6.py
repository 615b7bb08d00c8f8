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
returns a copy of a table row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, NotRepresentable, UnknownGenerator
from .gates import PAIR_PAULIS, CouplingStep, LocalStep, PhaseStep, expi_hermitian
from .states import PARTITION_PAIR, PARTITION_SPECTATOR, parse_partition
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


def _index(label: str) -> int:
    if label not in GENERATOR_LABELS:
        raise UnknownGenerator(label)
    return GENERATOR_LABELS.index(label)


def generator_map(label: str) -> So6Generator:
    """so(6) image of one su(4) basis generator (i/2 sigma...)."""
    k = _index(label)
    return So6Generator(SO6_BASIS[k].copy(), _TAGS[k])


def lambda_generator(n: int, m: int) -> So6Generator:
    """Coupling generator rotating component n against component m+3."""
    if n not in (1, 2, 3) or m not in (1, 2, 3):
        raise IndexOutOfRange(f"indices {(n, m)} outside 1..3")
    return generator_map(AXIS_NAMES[n - 1] + AXIS_NAMES[m - 1])


def su_generator(label: str) -> np.ndarray:
    """4x4 matrix i/2 sigma... on the ordered pair Hilbert space."""
    return SU4_BASIS[_index(label)].copy()


def so3_image(theta) -> np.ndarray:
    """exp(theta1 I_32 - theta2 I_31 + theta3 I_21), in closed Rodrigues form.

    This is the rotation by angle -|theta| about the axis theta/|theta|;
    a 2 pi rotation maps to the identity while the SU(2) side gives -1.
    """
    th = np.asarray(theta, dtype=float)
    t = float(np.linalg.norm(th))
    if t < 1e-300:
        return np.eye(3)
    k = -th / t
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + np.sin(t) * kx + (1.0 - np.cos(t)) * (kx @ kx)


def so6_image(step, partition) -> So6Action:
    """Action of one gate step on the partition's 6-vector.

    A local rotation acts block-diagonally on its own triple and a local
    rotation on the spectator qubit acts as the identity. A coupling must
    involve exactly the partition's pair; anything touching the spectator
    leaves the 6-vector space and raises NotRepresentable.
    """
    p = parse_partition(partition)
    first, second = PARTITION_PAIR[p]
    if isinstance(step, PhaseStep):
        return So6Action(np.eye(6), 2.0 * step.alpha)
    if isinstance(step, LocalStep):
        if step.qubit == PARTITION_SPECTATOR[p]:
            return So6Action(np.eye(6), 0.0)
        y = np.eye(6)
        r = so3_image(step.theta)
        off = 0 if step.qubit == first else 3
        y[off:off + 3, off:off + 3] = r
        return So6Action(y, 0.0)
    if isinstance(step, CouplingStep):
        q1, q2 = step.pair[0], step.pair[1]
        if {q1, q2} != {first, second}:
            raise NotRepresentable(
                f"coupling on {step.pair} involves the spectator of partition {p}")
        th = step.theta if (q1, q2) == (first, second) else step.theta.T
        g = np.zeros((6, 6))   # sum_nm th_nm Lambda_nm
        g[:3, 3:], g[3:, :3] = -th, th.T
        # exp(g) = exp(i h) with the Hermitian h = -i g
        return So6Action(np.real(expi_hermitian(-1j * g)), 0.0)
    raise TypeError(f"not a gate step: {step!r}")


def evolve_q(seq, q: SixVector) -> SixVector:
    """Evolve a 6-vector through a sequence: q -> e^{i phase2} Y_total q."""
    vec = q.q.astype(complex)
    phase2 = 0.0
    for step in seq:
        act = so6_image(step, q.partition)
        vec = act.y @ vec
        phase2 += act.phase2
    return SixVector(np.exp(1j * phase2) * vec, q.partition)


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
