"""Property tests: the run archive's config round trip and key check, the
ball-integral prefix, the CSV cells and pre-rendered lines, the stepper's
positivity, determinism and resume, and runs stepped together."""
import csv
import io
import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from blowlab.config import build_run_config, parse_config_text
from blowlab.fields import (BOUNDARIES, GridGeometry, RadialField, RadialGrid,
                            _nonlocal_prefix_values, write_csv)
from blowlab.params import beta_window, q_bounds, validate
from blowlab.solver import (
    STATUS_BUDGET,
    STATUS_OVERFLOWED,
    CheckpointError,
    SolverConfig,
    Trajectory,
    continue_run,
    load_snapshots,
    profile_seeded_field,
    run_together,
    run_until_blowup,
    save_snapshots,
)
from conftest import assert_same_steps


@st.composite
def model_params(draw):
    """An admissible (p, q, mu, dim) with beta left to the midpoint or drawn
    from inside its window."""
    p = draw(st.floats(3.01, 10.0))
    dim = draw(st.integers(1, 3))
    q_lo, q_hi = q_bounds(p, dim)
    q = q_lo + draw(st.floats(0.02, 0.98)) * (q_hi - q_lo)
    mu = draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
    beta = draw(st.one_of(st.none(), st.floats(0.02, 0.98)))
    if beta is not None:
        window = beta_window(p, q, dim, mu)
        beta = window.lo + beta * (window.hi - window.lo)
    return validate(p=p, q=q, mu=mu, dim=dim, beta=beta)


@st.composite
def solver_configs(draw):
    params = draw(model_params())
    grid = RadialGrid(R=draw(st.floats(0.1, 10.0)), M=draw(st.integers(8, 8192)),
                      dim=params.dim)
    return SolverConfig(
        grid=grid, params=params,
        dt_safety=draw(st.floats(1e-3, 1.0)),
        blowup_cap=draw(st.floats(1.0, 1e300)),
        boundary=draw(st.sampled_from(BOUNDARIES)),
        max_steps=draw(st.integers(1, 10 ** 9)),
        t_max=draw(st.one_of(st.none(), st.floats(1e-6, 10.0))),
    )


@given(solver_configs())
def test_solver_config_round_trips_through_json(config):
    assert SolverConfig.from_dict(json.loads(json.dumps(asdict(config)))) == config


@pytest.fixture(scope="module")
def tiny_archive(tmp_path_factory, default_params):
    grid = RadialGrid(R=1.0, M=8, dim=1)
    config = SolverConfig(grid=grid, params=default_params)
    path = tmp_path_factory.mktemp("archive") / "snapshots.npz"
    save_snapshots(Trajectory.start(RadialField(grid, np.ones(9)), config), path)
    with np.load(path) as data:
        stored = {key: data[key] for key in data.files}
    return path, stored, asdict(config)


@given(level=st.sampled_from([None, "grid", "params"]), drop=st.booleans(),
       data=st.data())
def test_archive_config_with_missing_or_extra_key_is_rejected(tiny_archive, level, drop,
                                                              data):
    path, stored, config = tiny_archive
    config = json.loads(json.dumps(config))
    section = config if level is None else config[level]
    if drop:
        del section[data.draw(st.sampled_from(sorted(section)), label="dropped")]
    else:
        extra = data.draw(st.text(min_size=1).filter(lambda key: key not in section),
                          label="extra")
        section[extra] = 1.0
    np.savez_compressed(path, **{**stored, "config": np.array(json.dumps(config))})
    with pytest.raises(CheckpointError, match="keys"):
        load_snapshots(path)


@given(params=model_params(), M=st.integers(8, 256), data=st.data())
def test_nonlocal_prefix_is_nondecreasing_from_zero(params, M, data):
    grid = RadialGrid(R=data.draw(st.floats(0.1, 10.0), label="R"), M=M, dim=params.dim)
    values = data.draw(arrays(np.float64, M + 1, elements=st.floats(-1e3, 1e3)),
                       label="values")
    J = _nonlocal_prefix_values(np.abs(values) ** (params.q - 1.0), GridGeometry.of(grid))
    assert J[0] == 0.0
    assert np.all(np.diff(J) >= 0.0)


# text drawn often from CSV's special characters, so quoting is exercised
cells = st.one_of(st.none(), st.integers(), st.floats(allow_nan=False),
                  st.text(alphabet=',"\r\n x'),
                  st.text(alphabet=st.characters(exclude_characters="\x00")))


@given(st.lists(st.lists(cells, min_size=2, max_size=5), max_size=5))
def test_write_csv_cells_read_back(rows):
    fh = io.StringIO()
    write_csv(fh, ("a", "b"), rows)
    expected = [["a", "b"]] + [["" if v is None else v if isinstance(v, str) else repr(v)
                                for v in row] for row in rows]
    assert list(csv.reader(io.StringIO(fh.getvalue(), newline=""))) == expected


@st.composite
def seeded_runs(draw):
    """A profile seed and a solver config at p=4: dim 1-2, either closure,
    mu in [-0.2, 0.2], M in [16, 64], cap 1e6 (~1,000 steps)."""
    dim = draw(st.integers(1, 2))
    q_lo, q_hi = q_bounds(4.0, dim)
    q = q_lo + draw(st.floats(0.05, 0.95)) * (q_hi - q_lo)
    params = validate(p=4.0, q=q, mu=draw(st.floats(-0.2, 0.2)), dim=dim)
    grid = RadialGrid(R=1.0, M=draw(st.integers(16, 64)), dim=dim)
    u0 = profile_seeded_field(grid, params, t_star=draw(st.floats(0.005, 0.05)))
    config = SolverConfig(grid=grid, params=params, boundary=draw(st.sampled_from(BOUNDARIES)),
                          blowup_cap=1e6)
    return u0, config


@given(seeded_runs())
def test_positive_seed_stays_nonnegative(run):
    """Every snapshot of a run from a positive seed is nonnegative.

    For mu < 0 only up to sup 1e2: once the blow-up core is one node wide,
    the central |du/dr| at the next node times a large J drives that node
    negative under any time step (the Heun stepper did the same).  Over 120
    random draws of this family the first negative value came after sup 780.
    """
    u0, config = run
    if config.params.mu < 0.0:
        config = replace(config, blowup_cap=1e2)
    traj = run_until_blowup(u0, config)
    assert all(np.min(field.values) >= 0.0 for field in traj.snapshots)


@given(seeded_runs())
def test_runs_are_deterministic(run):
    u0, config = run
    assert_same_steps(run_until_blowup(u0, config), run_until_blowup(u0, config))


@given(seeded_runs(), st.integers(1, 1200))
def test_resume_at_any_budget_is_the_uninterrupted_run(tmp_path_factory, run, budget):
    """A run stopped by a budget, archived and resumed takes the same steps
    and the same snapshots as one that ran through."""
    u0, config = run
    full = run_until_blowup(u0, config)
    half = run_until_blowup(u0, replace(config, max_steps=budget))
    if half.status != STATUS_BUDGET:  # the budget outlasted the run
        assert_same_steps(half, full)
        return
    path = tmp_path_factory.mktemp("resume") / "snapshots.npz"
    save_snapshots(half, path)
    resumed = load_snapshots(path)
    assert_same_steps(continue_run(replace(resumed, config=config)), full)


@st.composite
def batches(draw, budgets=True):
    """1-6 profile-seeded runs on one shared grid (M 16-64, either closure)
    that mix p, q (each from a few values, so rows share exponents), mu
    (exactly 0 included), dt_safety, blowup_cap and, when ``budgets``,
    max_steps, so the rows stop at different steps."""
    dim = draw(st.integers(1, 2))
    grid = RadialGrid(R=1.0, M=draw(st.integers(16, 64)), dim=dim)
    boundary = draw(st.sampled_from(BOUNDARIES))
    runs = []
    for _ in range(draw(st.integers(1, 6))):
        p = draw(st.sampled_from((3.5, 4.0, 5.0)))
        q_lo, q_hi = q_bounds(p, dim)
        q = q_lo + draw(st.sampled_from((0.25, 0.5, 0.75))) * (q_hi - q_lo)
        mu = draw(st.one_of(st.just(0.0), st.sampled_from((-0.1, 0.1)), st.floats(-0.2, 0.2)))
        params = validate(p=p, q=q, mu=mu, dim=dim)
        u0 = profile_seeded_field(grid, params, t_star=draw(st.floats(0.005, 0.05)))
        config = SolverConfig(
            grid=grid, params=params, boundary=boundary,
            dt_safety=draw(st.sampled_from((0.025, 0.05, 0.1))),
            blowup_cap=draw(st.sampled_from((1e3, 1e4))),
            max_steps=draw(st.integers(1, 1500)) if budgets else 10 ** 6)
        runs.append((u0, config))
    return runs


@settings(max_examples=10)
@given(batches())
def test_runs_stepped_together_are_the_runs_alone(runs):
    together = run_together([Trajectory.start(u0, config) for u0, config in runs])
    for traj, (u0, config) in zip(together, runs):
        assert_same_steps(traj, run_until_blowup(u0, config))


def test_sweep_chunks_at_production_shape_are_the_runs_alone():
    """The grid p in {3.5, 4, 4.5} x mu in {-0.2, ..., 0.2} at dim 2, q 4.6,
    M 256, stepped as the two chunks a 2-worker sweep cuts it into (8 and 7
    rows).  Both chunks hold a mu = 0 row and rows that stop at different
    steps; the first holds the two rows that blow up at the wall, within
    ~120 steps."""
    raw = parse_config_text("dim = 2\nq = 4.6\nM = 256\n")
    configs = [build_run_config(raw, {"p": p, "mu": mu})
               for p in (3.5, 4.0, 4.5) for mu in np.linspace(-0.2, 0.2, 5)]
    at_wall = []
    for chunk in (configs[:8], configs[8:]):
        seeds = [profile_seeded_field(rc.solver.grid, rc.params, t_star=rc.t_star)
                 for rc in chunk]
        together = run_together([Trajectory.start(u0, rc.solver)
                                 for u0, rc in zip(seeds, chunk)])
        assert any(rc.params.mu == 0.0 for rc in chunk)
        assert len({len(traj.maxnorm_history) for traj in together}) > 1
        at_wall += [traj.maxnorm_history[-1, 2] == 1.0 - rc.solver.grid.h
                    for traj, rc in zip(together, chunk)]
        for traj, u0, rc in zip(together, seeds, chunk):
            assert_same_steps(traj, run_until_blowup(u0, rc.solver))
    assert sum(at_wall[:8]) == 2 and not any(at_wall[8:])


def test_an_overflowing_row_leaves_its_neighbours_unchanged(default_params):
    """The 1e80 field overflows on its first step; the joint solve would
    carry its NaN into the rows on both sides, which must come out as if
    stepped alone."""
    grid = RadialGrid(R=1.0, M=16, dim=1)
    big = RadialField(grid, np.full(grid.M + 1, 1e80))
    runs = [(profile_seeded_field(grid, params, t_star=0.01),
             SolverConfig(grid=grid, params=params, blowup_cap=1e4))
            for params in (validate(p=3.5, q=3.0, mu=0.1, dim=1),
                           validate(p=4.5, q=3.0, mu=0.1, dim=1))]
    # sorted by p, the p=4 row sits between the other two
    runs.insert(1, (big, SolverConfig(grid=grid, params=default_params, blowup_cap=1e300,
                                      max_steps=50)))
    together = run_together([Trajectory.start(u0, config) for u0, config in runs])
    assert together[1].status == STATUS_OVERFLOWED
    assert len(together[1].maxnorm_history) == 1
    for traj, (u0, config) in zip(together, runs):
        assert_same_steps(traj, run_until_blowup(u0, config))


@settings(max_examples=5)
@given(batches(budgets=False), st.integers(1, 1200))
def test_batch_resumed_from_archives_is_the_uninterrupted_runs(tmp_path_factory, runs, budget):
    """Runs stopped together by a budget, archived, loaded and resumed
    together take the same steps and snapshots as each run alone."""
    half = run_together([Trajectory.start(u0, replace(config, max_steps=budget))
                         for u0, config in runs])
    folder = tmp_path_factory.mktemp("batch")
    for i, traj in enumerate(half):
        save_snapshots(traj, folder / f"{i}.npz")
    resumed = run_together([replace(load_snapshots(folder / f"{i}.npz"), config=config)
                            for i, (_, config) in enumerate(runs)])
    for traj, (u0, config) in zip(resumed, runs):
        assert_same_steps(traj, run_until_blowup(u0, config))
