import dataclasses
import importlib
import os
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import tanglevec
from tanglevec import (abc_vectors, apply, bipartite_tangle_from_density, evolve_q, q_vector,
                       random_state, tangle_set, vectors)

# The package loads its modules on first use, but count_calls patches only the
# modules loaded when it is called: a module first imported inside a patch
# window would keep the counting wrapper after the test ends. Loading every
# module here keeps that independent of which tests run, and in what order.
for _module in pkgutil.iter_modules(tanglevec.__path__):
    importlib.import_module(f"tanglevec.{_module.name}")


def checked_tangle_set(s):
    """tangle_set(s), its three bipartite fields asserted against the density route.

    The partial-trace route is an independent oracle; the tolerance is the
    library's own, 1e-10 |s|^4.
    """
    ts = tangle_set(s)
    c = np.asarray(s, dtype=complex)
    n2 = float(np.vdot(c, c).real)
    for tau, q in zip((ts.tau_a_bc, ts.tau_b_ca, ts.tau_c_ab), "abc"):
        ref = bipartite_tangle_from_density(c, q)
        assert abs(tau - ref) <= 1e-10 * n2 * n2, \
            f"vector formula {tau} vs density route {ref} for qubit {q}"
    return ts


def child_env() -> dict:
    """This environment, with the checkout's src/ first on PYTHONPATH, for a child interpreter."""
    src = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, src))}


def random_states(n, start=0):
    return [random_state(start + k) for k in range(n)]


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def count_calls(monkeypatch, fn):
    """Route every tanglevec module's reference to fn through a counter.

    The package's own cached reference counts too, so a count sees the calls
    the CLI makes through the package (tv.<name>). Returns the list that gains
    one entry per call.
    """
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "tanglevec" and getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, counting)
    return calls


def count_evaluations(monkeypatch):
    """Count the fresh evaluations of the invariant vectors (vectors._evaluate).

    The entry is first filled with a state no test counts, so that a count
    does not depend on what the previous line or test evaluated. Returns the
    list that gains one entry per evaluation.
    """
    abc_vectors(random_state(999))
    return count_calls(monkeypatch, vectors._evaluate)


#: how a comparison of the two gate pictures meets its steps: fresh, or
#: already applied by one picture or by both
PICTURE_ORDERS = ("fresh", "hilbert used", "dual used", "both used")


def both_pictures(seq, s, partition, order):
    """(dual, Hilbert) 6-vectors of s after seq, on new copies of the steps, used as order says.

    A step keeps its factor in a picture once that picture has applied it, so
    on used steps the comparison catches a kept factor that is stale or that
    the other picture reads, whatever ran before.
    """
    seq = [dataclasses.replace(step) for step in seq]
    q = q_vector(s, partition)
    if order in ("hilbert used", "both used"):
        apply(seq, s)
    if order in ("dual used", "both used"):
        evolve_q(seq, q)
    return evolve_q(seq, q).q, q_vector(apply(seq, s), partition).q
