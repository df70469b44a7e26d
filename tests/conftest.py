import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import blowlab
from blowlab.params import validate
from blowlab.fields import RadialGrid
from blowlab.solver import SolverConfig, profile_seeded_field, run_until_blowup

# Property tests draw the same examples on every run (no example database,
# no timing deadline), so the suite stays deterministic and adds seconds.
settings.register_profile("blowlab", derandomize=True, database=None, deadline=None,
                          max_examples=30)
settings.load_profile("blowlab")


@pytest.fixture(scope="session")
def default_params():
    """The laboratory's default instance: p=4, q=3, mu=0.1, dim=1."""
    return validate(p=4.0, q=3.0, mu=0.1, dim=1)


@pytest.fixture(scope="session")
def heat_params():
    """Same exponents with the perturbation switched off."""
    return validate(p=4.0, q=3.0, mu=0.0, dim=1)


@pytest.fixture(scope="session")
def small_run(default_params):
    """Coarse but complete blow-up run (M=256, cap 1e4); seconds, not minutes."""
    grid = RadialGrid(R=1.0, M=256, dim=1)
    u0 = profile_seeded_field(grid, default_params, t_star=0.01)
    config = SolverConfig(grid=grid, params=default_params,
                          blowup_cap=1e4, max_steps=200_000)
    return run_until_blowup(u0, config)


@pytest.fixture(scope="session")
def acceptance_run(default_params):
    """The desk-scale reference run: p=4, q=3, N=1, mu=0.1, profile seed with
    t_star=0.01, M=4096, R=1, cap 1e8 (440 steps, under a second); shared
    by every acceptance criterion that inspects the real simulation."""
    grid = RadialGrid(R=1.0, M=4096, dim=1)
    u0 = profile_seeded_field(grid, default_params, t_star=0.01)
    config = SolverConfig(grid=grid, params=default_params)
    return run_until_blowup(u0, config)


def assert_same_steps(a, b):
    """History, Kahan compensation, status, snapshots and the field where the
    run stands all equal, to the bit (-0.0 and +0.0 differ)."""
    assert a.maxnorm_history.tobytes() == b.maxnorm_history.tobytes()
    assert a._time_comp == b._time_comp
    assert a.status == b.status
    assert len(a.snapshots) == len(b.snapshots)
    for x, y in zip(a.snapshots + [a.last_field], b.snapshots + [b.last_field]):
        assert x.time == y.time
        assert x.values.tobytes() == y.values.tobytes()


def ref_laplacian(u, h, dim, boundary):
    """The radial Laplacian u'' + (dim-1)/r u' of one field, written out
    apart from blowlab: central differences inside, the even ghost node
    u(-h) = u(h) at the origin, and at r = R a zero row (dirichlet) or the
    ghost u(R+h) = u(R-h) (neumann)."""
    out = np.empty_like(u)
    c = 1.0 / (h * h)
    out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * c
    if dim > 1:
        r = np.arange(1, len(u) - 1, dtype=float) * h
        out[1:-1] += (dim - 1.0) / r * (u[2:] - u[:-2]) / (2.0 * h)
    out[0] = 2.0 * dim * (u[1] - u[0]) * c
    if boundary == "dirichlet-zero":
        out[-1] = 0.0
    else:
        out[-1] = 2.0 * (u[-2] - u[-1]) * c
    return out


def ref_laplacian_matrix(grid, boundary):
    """The dense matrix of :func:`ref_laplacian`: its value on each unit vector."""
    return np.apply_along_axis(ref_laplacian, 0, np.eye(grid.M + 1), grid.h, grid.dim,
                               boundary)


def run_python(code, timeout=120):
    """Run ``code`` in a fresh interpreter that imports this checkout's blowlab
    (its ``src`` first on PYTHONPATH); returns the completed process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(blowlab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=timeout)
