import os
from pathlib import Path

import numpy as np
import pytest

import adsorb
from adsorb.model import (
    DimensionlessParameters,
    PhysicalParameters,
    ReactionOrders,
    nondimensionalize,
)
from adsorb.pde import SpatialGrid, mass_balance_residual, solve_pde
from adsorb.wave import solve_full_wave, solve_leading_order

#: the order pairs (m, n) with m <= n, for which a front exists
ADMISSIBLE_FAMILIES = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 4)]


def column_physical(m: int = 1, n: int = 1) -> PhysicalParameters:
    """Reference column parameter set used throughout the tests."""
    return PhysicalParameters(
        epsilon=0.3357, u_in=0.13, k_ad=1.13, k_de=2.173e-4, c_in=2.835,
        q_max=0.358, rho_b=377.25, column_length=5.4e-3,
        orders=ReactionOrders(m, n),
    )


def params_for(q_e=0.7, da=0.1, pe=0.0, m=1, n=1, **extra) -> DimensionlessParameters:
    """Nondimensional parameters from q_e; ``extra`` passes ell and the scales through."""
    return DimensionlessParameters.from_qe(q_e, da=da, pe=pe, orders=ReactionOrders(m, n),
                                           **extra)


def equilibrium_polynomial_direct(x, params: DimensionlessParameters):
    """Expanded form (1-alpha) x^n - alpha x^m (a-x)^n, a = 1/q_e.

    The reference for the factored ``model.equilibrium_polynomial``.
    """
    x = np.asarray(x, dtype=float)
    m, n = params.m, params.n
    a = 1.0 / params.q_e
    out = (1.0 - params.alpha) * x ** n - params.alpha * x ** m * (a - x) ** n
    return out if out.ndim else float(out)


@pytest.fixture(scope="session")
def child_env():
    """Environment for ``python -m adsorb`` subprocesses.

    PYTHONPATH starts with the directory holding the imported ``adsorb``
    package, so the child runs the code under test without an install.
    """
    env = dict(os.environ)
    parts = [str(Path(adsorb.__file__).resolve().parent.parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(part for part in parts if part)
    return env


@pytest.fixture(scope="session")
def lead_11():
    """The (1,1) reduced front at the default parameters."""
    return solve_leading_order(params_for())


@pytest.fixture(scope="session")
def full_11_pe01():
    """The (1,1) full front at Pe = 0.1."""
    return solve_full_wave(params_for(pe=0.1))


@pytest.fixture(scope="session")
def eq_column_params():
    """Reference column nondimensionalized at Pe = 0.1 (physisorption)."""
    return nondimensionalize(column_physical(), pe=0.1)


@pytest.fixture(scope="session")
def front_speed_run(eq_column_params):
    """Shared production run: front inside the column for the whole horizon.

    Returns (solution, elapsed_seconds); several tests and the acceptance gate
    reuse it, so it is computed once per session.
    """
    import time

    grid = SpatialGrid(ell=eq_column_params.ell, n_cells=400)
    t0 = time.perf_counter()
    sol = solve_pde(eq_column_params, grid, t_end=16.0,
                    sample_times=np.linspace(0.0, 16.0, 81))
    return sol, time.perf_counter() - t0


@pytest.fixture(scope="session")
def refinement_residuals(eq_column_params):
    """Maximal mass-balance residuals on a grid pair with halved spacing."""
    out = {}
    for n_cells in (400, 800):
        grid = SpatialGrid(ell=eq_column_params.ell, n_cells=n_cells)
        sol = solve_pde(eq_column_params, grid, t_end=6.0,
                        sample_times=np.linspace(0.0, 6.0, 31))
        out[n_cells] = float(mass_balance_residual(sol).max())
    return out
