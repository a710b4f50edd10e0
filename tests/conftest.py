import pytest

from wva import maximize

_traces = {}


def _maximize_once(config, evo):
    grid = config.grid
    key = (
        (grid.p_min, grid.p_max, grid.n_points),
        (config.max_iters, config.step, config.tol, config.seed, config.init),
        (evo.coupling, complex(evo.weak.value)),
    )
    if key not in _traces:
        _traces[key] = maximize(config, evo)
    return _traces[key]


@pytest.fixture(scope="session")
def maximize_once():
    """``maximize``, run once per session for each (grid, config, g, A).

    The ascent is deterministic and reads nothing of ``evo`` but g and A, so
    every test that asks for the same run shares one trace.  Callers must
    not modify it."""
    return _maximize_once
