"""Shared fixtures: reference trajectories and convergence studies.

The expensive artifacts (multi-hundred-step runs, refinement studies)
are session-scoped so the unit suites and the acceptance gate reuse the
same computations.
"""

import pytest
from hypothesis import settings

from axiswirl import mms
from axiswirl.exponents import derive_exponents
from axiswirl.grid import build_grid
from axiswirl.monitor import Diagnostics, monitor_for
from axiswirl.solver import SimConfig, run

# Property tests draw from a fixed seed and carry no per-example deadline,
# so the suite gives the same verdict on every run and on a loaded machine.
settings.register_profile("axiswirl", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("axiswirl")

NU = 0.1

SUB_CHECKS = ("young_forcing", "holder_p", "young_eps1", "holder_s_half",
              "holder_inner", "young_eps2")


def run_through(cfg, initial, forcing_at=None):
    """(states, dt, failure reason) of solver.run: every state it yields,
    the step dt, and its value when it ends."""
    states, steps = [], run(cfg, initial, forcing_at=forcing_at)
    while True:
        try:
            state, dt = next(steps)
        except StopIteration as end:
            return states, dt, end.value
        states.append(state)


def collect(states, m, forcing_at=None):
    """The records of the monitor's fold over the given states."""
    diagnostics = Diagnostics(m, forcing_at=forcing_at)
    for v in states:
        diagnostics.add(v)
    return diagnostics.records


@pytest.fixture(scope="session")
def exp640():
    return derive_exponents(6.0, 4.0, 0.0)


@pytest.fixture(scope="session")
def audit_run(exp640):
    """Unforced 200-step swirl run with full monitor diagnostics."""
    grid = build_grid(32, 8)
    dt = 9e-4
    cfg = SimConfig(nu=NU, t_start=0.0, t_end=200 * dt, dt=dt)
    sol = mms.make_solution("decaying_swirl", {"nu": NU}, grid)
    states, _, failure = run_through(cfg, mms.sample_state(sol, 0.0))
    assert failure is None, failure
    monitor = monitor_for(grid, exp640, NU)
    records = collect(states, monitor)
    return {"states": states, "grid": grid, "monitor": monitor,
            "records": records, "dt": dt}


@pytest.fixture(scope="session")
def forced_taylor(exp640):
    """Forced 50-step vortex-with-swirl run with full diagnostics."""
    grid = build_grid(24, 24)
    dt = 0.1 * min(grid.d_rho, grid.d_z) ** 2 / NU
    cfg = SimConfig(nu=NU, t_start=0.0, t_end=50 * dt, dt=dt)
    sol = mms.make_solution("taylor_vortex_swirl", {}, grid)
    forcing = mms.forcing_callable(sol, NU)
    states, _, failure = run_through(cfg, mms.sample_state(sol, 0.0),
                                     forcing_at=forcing)
    assert failure is None, failure
    monitor = monitor_for(grid, exp640, NU)
    records = collect(states, monitor, forcing_at=forcing)
    return {"states": states, "grid": grid, "monitor": monitor,
            "records": records, "forcing": forcing, "dt": dt}


@pytest.fixture(scope="session")
def solver_study():
    grids = mms.grid_levels(16, 3)
    return mms.convergence_order("decaying_swirl", grids, quantity="solver",
                                 nu=NU, t_end=0.02, params={"nu": NU})


@pytest.fixture(scope="session")
def lopsided_study():
    grids = mms.grid_levels(16, 3)
    return mms.convergence_order("taylor_vortex_swirl", grids,
                                 quantity="lopsided_curl")
