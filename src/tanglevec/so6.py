"""The dual geometric engine: so(3)/so(6) images of gate steps.

Local rotations act on a single invariant vector through SO(3); a coupling
on a partition's qubit pair acts on the packed 6-vector through SO(6); a
global phase exp(i a) multiplies the 6-vector by exp(2i a). The generator
dictionary is the standard isomorphism between su(4) on the pair and so(6),
realized by integer matrices:

    i/2 sigma_z^(1) -> I_21   i/2 sigma_y^(1) -> -I_31   i/2 sigma_x^(1) -> I_32
    (same for qubit 2 on the second block)
    i/2 sigma_n^(1) sigma_m^(2) -> Lambda_{n,m}

where [Lambda_{n,m}]_{ij} = -d_{i,n} d_{j,m+3} + d_{j,n} d_{i,m+3} and the
I blocks embed the 3x3 rotation generators [I_{n,m}]_{ij} = -d_{i,n} d_{j,m}
+ d_{i,m} d_{j,n}.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, NotRepresentable, UnknownGenerator
from .gates import SIGMA, CouplingStep, LocalStep, PhaseStep, expi_hermitian
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


def rotation_generator_3x3(n: int, m: int) -> np.ndarray:
    if n not in (1, 2, 3) or m not in (1, 2, 3):
        raise IndexOutOfRange(f"indices {(n, m)} outside 1..3")
    g = np.zeros((3, 3), dtype=np.int64)
    g[n - 1, m - 1] = -1
    g[m - 1, n - 1] = 1
    return g


def lambda_generator(n: int, m: int) -> So6Generator:
    """Coupling generator rotating component n against component m+3."""
    if n not in (1, 2, 3) or m not in (1, 2, 3):
        raise IndexOutOfRange(f"indices {(n, m)} outside 1..3")
    g = np.zeros((6, 6), dtype=np.int64)
    g[n - 1, m + 2] = -1
    g[m + 2, n - 1] = 1
    return So6Generator(g, f"Lambda_{n}{m}")


def _local_generator_6x6(block: int, n: int, m: int) -> np.ndarray:
    g = np.zeros((6, 6), dtype=np.int64)
    off = 3 * block
    g[off:off + 3, off:off + 3] = rotation_generator_3x3(n, m)
    return g


#: the 15 labels of the su(4) pair basis; "1"/"2" name the pair slots,
#: spelled a/b below to match the common (a,b)-pair usage
GENERATOR_LABELS = tuple(f"{ax}_a" for ax in AXIS_NAMES) + \
    tuple(f"{ax}_b" for ax in AXIS_NAMES) + \
    tuple(f"{n}{m}" for n in AXIS_NAMES for m in AXIS_NAMES)

_LOCAL_IMAGE = {"z": (2, 1, 1), "y": (3, 1, -1), "x": (3, 2, 1)}  # axis -> (n, m, sign)


def generator_map(label: str) -> So6Generator:
    """so(6) image of one su(4) basis generator (i/2 sigma...)."""
    if label in GENERATOR_LABELS:
        if "_" in label:
            ax, slot = label.split("_")
            n, m, sign = _LOCAL_IMAGE[ax]
            g = sign * _local_generator_6x6(0 if slot == "a" else 1, n, m)
            return So6Generator(g.astype(np.int64), f"I_{n}{m}^{slot}" if sign > 0 else f"-I_{n}{m}^{slot}")
        n = AXIS_NAMES.index(label[0]) + 1
        m = AXIS_NAMES.index(label[1]) + 1
        return lambda_generator(n, m)
    raise UnknownGenerator(label)


def su_generator(label: str) -> np.ndarray:
    """4x4 matrix i/2 sigma... on the ordered pair Hilbert space."""
    if label not in GENERATOR_LABELS:
        raise UnknownGenerator(label)
    if "_" in label:
        ax, slot = label.split("_")
        s = SIGMA[AXIS_NAMES.index(ax)]
        mat = np.kron(s, np.eye(2)) if slot == "a" else np.kron(np.eye(2), s)
    else:
        mat = np.kron(SIGMA[AXIS_NAMES.index(label[0])],
                      SIGMA[AXIS_NAMES.index(label[1])])
    return 0.5j * mat


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
        g = np.zeros((6, 6))
        for n in range(3):
            for m in range(3):
                if th[n, m] != 0.0:
                    g += th[n, m] * lambda_generator(n + 1, m + 1).g
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
    labels = GENERATOR_LABELS
    h = np.array([2.0 * su_generator(lab) for lab in labels])       # entries 0, +-1, +-i
    m = np.array([generator_map(lab).g for lab in labels], dtype=np.int64)
    worst = 0
    pairs = 0
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            pairs += 1
            p = h[i] @ h[j] - h[j] @ h[i]
            coeff = np.zeros(len(labels), dtype=np.int64)
            for k in range(len(labels)):
                c = np.trace(h[k].conj().T @ p) / 8.0
                ck = int(round(c.real))
                if abs(c - ck) > 1e-12:
                    return CommutatorReport(pairs, 10**9)  # non-integer: map broken
                coeff[k] = ck
            lhs = m[i] @ m[j] - m[j] @ m[i]
            rhs = np.tensordot(coeff, m, axes=1)
            worst = max(worst, int(np.abs(lhs - rhs).max()))
    return CommutatorReport(pairs, worst)
