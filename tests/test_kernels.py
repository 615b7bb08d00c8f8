"""The batched optimizer kernels against plain per-restart reference loops."""
import numpy as np

from tanglevec import _kernels, random_state
from tanglevec.so6 import SU4_BASIS
from tanglevec.synthesis import _random_su2_stack
from tanglevec.vectors import _A_QUADS


def _fs_reference(t1, t2, inits, max_sweeps, tol):
    """One restart at a time: per-restart overlaps, unitaries and sweeps."""
    t1c = t1.conj()
    vals, finals, sweeps = [], [], []
    for r in range(inits.shape[0]):
        us = [inits[r, 0].copy(), inits[r, 1].copy(), inits[r, 2].copy()]
        val, used = 0.0, 0
        for _ in range(max_sweeps):
            used += 1
            step = 0.0
            for q in range(3):
                w = t2
                for p in range(3):
                    if p != q:
                        w = np.moveaxis(np.tensordot(us[p], w, axes=([1], [p])), 0, p)
                axes = [p for p in range(3) if p != q]
                t = np.tensordot(t1c, w, axes=(axes, axes))
                v, s, wh = np.linalg.svd(t.T)
                unew = wh.conj().T @ v.conj().T
                step = max(step, float(np.abs(unew - us[q]).max()))
                us[q] = unew
                val = s[0] + s[1]
            if step < tol:
                break
        vals.append(val)
        finals.append(np.stack(us))
        sweeps.append(used)
    return np.array(vals), np.array(finals), np.array(sweeps)


def _expm_herm(h):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def _ascent_reference(psi0, gens, quads, inits, max_iters, gtol):
    """One restart at a time: the best tangle over all restarts."""
    neg_i_gens = -1j * gens
    best = 0.0
    for r in range(inits.shape[0]):
        psi = (_expm_herm(np.tensordot(inits[r], neg_i_gens, axes=1))
               @ psi0.reshape(4, 2)).reshape(8)
        a = (quads @ psi) @ psi
        g = float(np.abs(a @ a)) ** 2
        eta = 0.1
        for _ in range(max_iters):
            v = a @ (quads @ psi)
            gp = (gens @ psi.reshape(4, 2)).reshape(15, 8)
            grad = 8.0 * np.real(np.conj(a @ a) * (gp @ v))
            if grad @ grad < gtol * gtol:
                break
            improved = False
            for _try in range(50):
                h = np.tensordot(eta * grad, neg_i_gens, axes=1)
                trial = (_expm_herm(h) @ psi.reshape(4, 2)).reshape(8)
                trial = trial / np.linalg.norm(trial)
                at = (quads @ trial) @ trial
                gt = float(np.abs(at @ at)) ** 2
                if gt > g:
                    psi, g, a = trial, gt, at
                    eta *= 1.3
                    improved = True
                    break
                eta *= 0.4
                if eta < 1e-16:
                    break
            if not improved:
                break
        best = max(best, g)
    return 4.0 * np.sqrt(best)


def _fs_inputs(seed, n=6):
    t1 = random_state(seed).reshape(2, 2, 2)
    t2 = random_state(seed + 100).reshape(2, 2, 2)
    inits = _random_su2_stack(np.random.default_rng(seed), n)
    return t1, t2, inits


def _overlap_of(t1, t2, us):
    w = np.einsum("ax,by,cz,xyz->abc", us[0], us[1], us[2], t2)
    return abs(np.vdot(t1, w))


def test_fs_best_overlap_basic():
    t1, t2, inits = _fs_inputs(7)
    val, us, stats = _kernels.fs_best_overlap(t1, t2, inits, 500, 1e-10)
    assert 0.0 <= val <= 1.0
    for q in range(3):
        assert np.abs(us[q].conj().T @ us[q] - np.eye(2)).max() < 1e-10
    assert abs(_overlap_of(t1, t2, us) - val) < 1e-10
    assert 1 <= stats.iterations <= 500
    assert stats.converged == inits.shape[0]


def test_fs_restarts_match_reference_loop():
    for seed in range(4):
        t1, t2, inits = _fs_inputs(seed, 8)
        ref_vals, ref_us, ref_sweeps = _fs_reference(t1, t2, inits, 2000, 1e-10)
        # the restarts stop at different sweeps, so the mask decides the result
        assert len(set(ref_sweeps.tolist())) > 1
        vals, us, sweeps, converged = _kernels.fs_restarts(t1, t2, inits, 2000, 1e-10)
        np.testing.assert_array_equal(sweeps, ref_sweeps)
        assert converged.all()
        assert np.abs(vals - ref_vals).max() < 1e-12
        assert np.abs(us - ref_us).max() < 1e-8
        best, best_us, stats = _kernels.fs_best_overlap(t1, t2, inits, 2000, 1e-10)
        assert abs(best - min(ref_vals.max(), 1.0)) < 1e-12
        # restarts tied to rounding may win in either loop; the kernel keeps
        # the first of its own maxima
        np.testing.assert_array_equal(best_us, us[np.argmax(vals)])
        assert stats == (ref_sweeps.max(), inits.shape[0])


def test_fs_restarts_cap_freezes_each_restart():
    # a cap between the fastest and slowest restart: some restarts converge,
    # the rest stop at the cap, and each matches its one-restart run
    t1, t2, inits = _fs_inputs(1, 8)
    _, _, full = _fs_reference(t1, t2, inits, 2000, 1e-10)
    cap = int(np.median(full))
    assert full.min() < cap < full.max()
    ref_vals, ref_us, ref_sweeps = _fs_reference(t1, t2, inits, cap, 1e-10)
    vals, us, sweeps, converged = _kernels.fs_restarts(t1, t2, inits, cap, 1e-10)
    np.testing.assert_array_equal(sweeps, ref_sweeps)
    np.testing.assert_array_equal(converged, full < cap)
    assert np.abs(vals - ref_vals).max() < 1e-12
    assert np.abs(us - ref_us).max() < 1e-8


def test_fs_single_sweep_reports_no_convergence():
    t1, t2, inits = _fs_inputs(3)
    _, _, stats = _kernels.fs_best_overlap(t1, t2, inits, 1, 1e-10)
    assert stats.iterations == 1
    assert stats.converged == 0


def _ascent_inputs(seed, n=4):
    rng = np.random.default_rng(seed)
    inits = np.zeros((n, 15))
    inits[1:] = rng.uniform(-np.pi, np.pi, (n - 1, 15))
    return random_state(seed), inits


def test_ascent_matches_reference_loop():
    for seed in range(3):
        psi, inits = _ascent_inputs(seed)
        ref = _ascent_reference(psi, SU4_BASIS, _A_QUADS, inits, 300, 1e-10)
        best, stats = _kernels.tangle_ascent_best(psi, SU4_BASIS, inits, 300, 1e-10)
        assert abs(best - ref) < 1e-9
        assert 1 <= stats.iterations < 300
        assert stats.converged == inits.shape[0]


def test_ascent_cap_is_reported():
    psi, inits = _ascent_inputs(5)
    ref = _ascent_reference(psi, SU4_BASIS, _A_QUADS, inits, 3, 1e-10)
    best, stats = _kernels.tangle_ascent_best(psi, SU4_BASIS, inits, 3, 1e-10)
    assert abs(best - ref) < 1e-9
    assert stats == (3, 0)
