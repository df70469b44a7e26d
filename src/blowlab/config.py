"""Flat key-value run configuration.

The on-disk format is one ``key = value`` pair per line, ``#`` comments,
blank lines ignored.  Keys map 1:1 onto the model parameters, the solver
knobs, and the seed construction; unknown keys and a key set twice are
errors (diffable configs should not rot silently).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .fields import RadialGrid
from .params import ModelParams, ParameterError, validate
from .solver import SolverConfig, check_seed


class ConfigError(ValueError):
    """An input a command cannot use: a malformed configuration file, an
    inadmissible key/value, or an unusable path, artifact or request."""


# the SolverConfig keys and their types; their defaults are SolverConfig's
_SOLVER_TYPES = {
    "dt_safety": float,
    "blowup_cap": float,
    "boundary": str,
    "max_steps": int,
    "t_max": float,
}
_SOLVER_DEFAULTS = {f.name: f.default for f in fields(SolverConfig)}

# key -> (type, default); beta/t_max default to None (absent), and only
# they accept the value "none"
_SCHEMA = {
    "p": (float, 4.0),
    "q": (float, 3.0),
    "mu": (float, 0.1),
    "dim": (int, 1),
    "beta": (float, None),
    "R": (float, 1.0),
    "M": (int, 4096),
    **{key: (typ, _SOLVER_DEFAULTS[key]) for key, typ in _SOLVER_TYPES.items()},
    "t_star": (float, 0.01),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: the solver config, whose validated
    parameters :attr:`params` reads, and the seed knobs.

    ``raw`` holds the keys as the file and the overrides set them (``beta``
    may be None); :meth:`to_dict` echoes them with the resolved beta."""

    solver: SolverConfig
    t_star: float
    raw: dict

    @property
    def params(self) -> ModelParams:
        return self.solver.params

    def to_dict(self) -> dict:
        return {**self.raw, "beta": self.params.beta}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse key-value lines into a raw typed dict (defaults filled in)."""
    raw = {key: default for key, (_type, default) in _SCHEMA.items()}
    set_at = {}  # key -> the line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in set_at:
            raise ConfigError(f"{source}:{lineno}: {key} is set again (first on line "
                              f"{set_at[key]})")
        set_at[key] = lineno
        typ, default = _SCHEMA[key]
        try:
            if typ is str:
                raw[key] = value
            elif default is None and value.lower() == "none":
                raw[key] = None
            else:
                raw[key] = typ(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from exc
    return raw


def _integral(key: str, value) -> int:
    """``value`` as an int, refused rather than truncated when not integral."""
    if isinstance(value, (int, float)) and math.isfinite(value) and int(value) == value:
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def build_run_config(raw: dict, overrides: dict | None = None) -> RunConfig:
    """Turn a raw key dict (plus CLI overrides) into validated objects."""
    merged = dict(raw)
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in _SCHEMA:
                raise ConfigError(f"unknown override key {key!r}")
            # a --grid axis sets an int key as a float: 128.0 passes, 65.5 does not
            merged[key] = _integral(key, value) if _SCHEMA[key][0] is int else value
    try:
        params = validate(
            p=float(merged["p"]), q=float(merged["q"]), mu=float(merged["mu"]),
            dim=int(merged["dim"]),
            beta=None if merged["beta"] is None else float(merged["beta"]),
        )
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        grid = RadialGrid(R=float(merged["R"]), M=int(merged["M"]), dim=params.dim)
        solver = SolverConfig(grid=grid, params=params, **{
            key: None if merged[key] is None else typ(merged[key])
            for key, typ in _SOLVER_TYPES.items()})
        t_star = float(merged["t_star"])
        check_seed(t_star)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(solver=solver, t_star=t_star, raw=merged)


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Read a config file (or use defaults when path is None) and build."""
    text = ""
    if path is not None:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return build_run_config(parse_config_text(text, source=str(path)), overrides)
