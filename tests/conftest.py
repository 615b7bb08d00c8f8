import numpy as np
import pytest

import tanglevec.tangles

# every bipartite-tangle call in the suite cross-checks against the
# partial-trace route
tanglevec.tangles.CROSS_CHECK = True


def random_states(n, start=0):
    from tanglevec import random_state
    return [random_state(start + k) for k in range(n)]


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
