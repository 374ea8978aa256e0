"""Batch front end: JSON scenario configs, pipeline execution, tabular export.

Subcommands: run, sweep, verify, conjugate, moderate.  Configs are JSON with a
versioned "schema" field; every named cost/terminal/rate resolves in the
catalogs; a fixed seed makes runs byte-identical.  Exit codes: 0 success, 2
invalid config (diagnostic carries the offending field path), 3 value is
+infinity everywhere.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from .costs import _numbers, build_conjugate_table, make_cost, make_rate, make_terminal
from .discounted import discounted_value
from .economy import ImpetusCostSpec, economic_value
from .errors import ConfigError, LaxHopfError, MisuseError, ParameterError
from .laxhopf_core import (
    OuterGrid,
    classic_lax_hopf,
    generalized_lax_hopf,
    value_result_to_json,
    wtp_value,
)
from .moderation import _SOLVER_AT_LEAST, SolverConfig, build_moderation_table, moderation_table_to_csv
from .trajectories import trajectory_to_csv
from .verify import DPGrids, Scenario, convergence_study, surface_to_csv

_KINDS = ("classic", "generalized", "discounted", "economy", "wtp", "verify")


def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _get(cfg: dict, path: str, default=KeyError, kind=None):
    """The value at a dotted ``path``; a numeric part indexes a list."""
    node = cfg
    for part in path.split("."):
        if isinstance(node, list) and part.isdigit() and int(part) < len(node):
            node = node[int(part)]
        elif isinstance(node, dict) and part in node:
            node = node[part]
        else:
            if default is KeyError:
                _fail(path, "missing required field")
            return default
    if kind is not None and not isinstance(node, kind):
        _fail(path, f"expected {getattr(kind, '__name__', kind)}, got {type(node).__name__}")
    return node


def _num(cfg: dict, path: str, default=KeyError, cast=float, low=None, positive=False):
    """The finite number at ``path``, at least ``low`` and above 0 when asked; integral
    (4.0 reads as 4) for ``cast=int``.  A boolean or a string is not a number."""
    raw = _get(cfg, path, default)
    arr = _numbers(raw, 0)
    ok = arr is not None and (cast is float or float(arr).is_integer())
    value = cast(arr) if ok else None
    if not (ok and (low is None or value >= low) and (not positive or value > 0)):
        bound = " > 0" if positive else "" if low is None else f" >= {low}"
        what = "an integer" if cast is int else "a finite number"
        _fail(path, f"expected {what}{bound}, got {raw!r}")
    return value


def _array(cfg: dict, path: str, pairs: bool = False, default=KeyError, width=None) -> np.ndarray:
    """A non-empty list of finite numbers at ``path``; with ``pairs``, of [lo, hi]
    pairs; with ``width``, of rows of ``width`` numbers (or of numbers when it is 1)."""
    raw = _get(cfg, path, default, kind=list)
    width = 2 if pairs else width
    shape = (-1,) if width is None else (-1, width)
    arr = _numbers(raw, 2)
    if arr is None or not (arr.shape[1:] == shape[1:] or (width == 1 and arr.ndim == 1)):
        what = ("[lo, hi] pairs" if pairs else "numbers" if width is None
                else f"rows of {width} numbers")
        _fail(path, f"expected a non-empty list of finite {what}, got {raw!r}")
    return arr.reshape(shape)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        _fail("config", "top level must be an object")
    schema = _get(cfg, "schema", 1)
    if type(schema) is not int or schema != 1:   # true and 1.0 equal 1 but are no version
        _fail("schema", f"unsupported schema version {schema!r}")
    kind = _get(cfg, "kind", kind=str)
    if kind not in _KINDS:
        _fail("kind", f"must be one of {_KINDS}, got {kind!r}")
    return cfg


def _solver_cfg(cfg: dict) -> SolverConfig:
    """Each ``solver.<field>`` as an integer; the seed is only the top-level ``seed``."""
    values = {}
    for key in _get(cfg, "solver", {}, dict):
        if key == "seed":
            _fail("solver.seed", "the seed is the top-level 'seed' key or --seed")
        if key not in _SOLVER_AT_LEAST:
            _fail(f"solver.{key}", "unknown solver option")
        values[key] = _num(cfg, f"solver.{key}", cast=int, low=_SOLVER_AT_LEAST[key])
    return SolverConfig(seed=_num(cfg, "seed", 0, int, low=0), **values)


def _named(cfg, path, factory):
    spec = _get(cfg, path, kind=dict)
    name = _get(cfg, f"{path}.name", kind=str)
    params = _get(cfg, f"{path}.params", {}, dict)
    try:
        return factory(name, **params)
    except ParameterError as exc:
        _fail(f"{path}.params.{exc.param}", str(exc))
    except MisuseError as exc:
        _fail(f"{path}.name", str(exc))


def _terminal(cfg: dict, dim: int):
    """The named terminal cost; an ``x0`` list has one number per state coordinate."""
    terminal = _named(cfg, "terminal", make_terminal)
    x0 = _get(cfg, "terminal.params.x0", None)
    if isinstance(x0, list) and len(x0) != dim:
        _fail("terminal.params.x0", f"needs {dim} numbers, one per state coordinate, got {x0!r}")
    return terminal


def _outer_grid(cfg: dict, dim=None) -> OuterGrid:
    _get(cfg, "outer", kind=dict)
    box = _array(cfg, "outer.upsilon_box", pairs=True)
    if dim is not None and len(box) != dim:
        _fail("outer.upsilon_box", f"needs {dim} [lo, hi] pairs, one per coordinate of x")
    try:
        return OuterGrid.build(
            omega_max=_num(cfg, "outer.omega_max"),
            n_omega=_num(cfg, "outer.n_omega", 10, int, low=1),
            upsilon_box=box,
            n_upsilon=_num(cfg, "outer.n_upsilon", 21, int, low=1),
            refine=_get(cfg, "outer.refine", True, bool),
            shrink=_num(cfg, "outer.shrink", 0.5),
            max_rounds=_num(cfg, "outer.max_rounds", 10, int, low=0),
        )
    except MisuseError as exc:
        _fail("outer", str(exc))


def _dp_grids(cfg: dict, path: str) -> DPGrids:
    """One DP level, e.g. ``verify.levels.0``."""
    _get(cfg, path, kind=dict)
    fields = dict(
        t0=_num(cfg, f"{path}.t0", 0.0), T=_num(cfg, "T"),
        n_t=_num(cfg, f"{path}.n_t", cast=int, low=1),
        state_box=_array(cfg, f"{path}.state_box", pairs=True),
        state_step=_num(cfg, f"{path}.state_step", positive=True),
        velocity_box=_array(cfg, f"{path}.velocity_box", pairs=True),
        velocity_step=_num(cfg, f"{path}.velocity_step", positive=True),
    )
    try:
        return DPGrids.build(**fields)
    except (MisuseError, ConfigError) as exc:
        _fail(path, str(exc))


_IMPETUS_SCALARS = {
    "quadratic": lambda a=1.0: (lambda e: a * e * e),
    "abs": lambda: abs,
}


def _moderation_grids(cfg: dict, path: str, dim: int):
    """The ``omega_grid`` (apertures > 0) and ``upsilon_grid`` (rows of ``dim`` numbers)."""
    _get(cfg, path, kind=dict)
    omegas = _array(cfg, f"{path}.omega_grid")
    if not np.all(omegas > 0):
        _fail(f"{path}.omega_grid", f"expected positive apertures, got {omegas.tolist()}")
    return omegas, _array(cfg, f"{path}.upsilon_grid", width=dim)


def _agent_rows(cfg: dict, path: str) -> np.ndarray:
    """Rows of finite numbers at ``path``, one per agent, all as wide as the first."""
    raw = _get(cfg, path, kind=list)
    width = len(raw[0]) if raw and isinstance(raw[0], list) else 0
    if not width:
        _fail(path, f"expected a non-empty list of rows of numbers, one per agent, got {raw!r}")
    return _array(cfg, path, width=width)


def _economy(cfg: dict):
    """The impetus cost spec, the allocations and the prices of ``economy``."""
    _get(cfg, "economy", kind=dict)
    name = _get(cfg, "economy.scalar_cost", kind=str)
    if name not in _IMPETUS_SCALARS:
        _fail("economy.scalar_cost", f"unknown impetus cost {name!r}")
    make, params = _IMPETUS_SCALARS[name], {}
    for key in _get(cfg, "economy.scalar_params", {}, dict):
        if key not in inspect.signature(make).parameters:
            _fail(f"economy.scalar_params.{key}", f"unknown parameter for impetus cost {name!r}")
        params[key] = _num(cfg, f"economy.scalar_params.{key}")
    gamma_price = _num(cfg, "economy.gamma_price")
    gamma_agents = _array(cfg, "economy.gamma_agents")
    allocations = _agent_rows(cfg, "economy.allocations")
    prices = _agent_rows(cfg, "economy.prices")
    if prices.shape != allocations.shape:
        _fail("economy.prices", f"needs the shape {allocations.shape} of economy.allocations, "
                                f"got {prices.shape}")
    if len(gamma_agents) != len(allocations):
        _fail("economy.gamma_agents", f"needs one bound per agent ({len(allocations)}), "
                                      f"got {len(gamma_agents)}")
    spec = ImpetusCostSpec(
        scalar_cost=make(**params), gamma_price=gamma_price,
        gamma_agents=tuple(gamma_agents.tolist()),
        shared_prices=_get(cfg, "economy.shared_prices", False, bool),
    )
    return spec, allocations, prices


def run_config(cfg: dict, out_dir: Path) -> int:
    """Execute one scenario; writes result.json plus trajectory CSV, prints a summary."""
    kind = cfg["kind"]
    out_dir.mkdir(parents=True, exist_ok=True)
    solver = _solver_cfg(cfg)
    T = _num(cfg, "T")

    if kind == "wtp":
        x = _array(cfg, "x")
        terminal = _terminal(cfg, len(x))
        w = _get(cfg, "wtp", kind=dict)
        box = _array(cfg, "wtp.state_box", pairs=True)
        n = _num(cfg, "wtp.n_state", 101, int, low=1)
        axes = [np.linspace(lo, hi, n) for lo, hi in box]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid_pts = np.stack([m.ravel() for m in mesh], axis=1)
        value = wtp_value(
            terminal, _num(cfg, "wtp.velocity_bound", low=0), T,
            x, _num(cfg, "wtp.omega", low=0), grid_pts,
        )
        doc = {"value": "inf" if not value.is_finite else value.value}
        (out_dir / "result.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
        if not value.is_finite:
            print("V=inf")
            return 3
        print(f"V={value.value:.6g}")
        return 0

    if kind == "verify":
        x = _array(cfg, "x")
        terminal = _terminal(cfg, len(x))
        cost = _named(cfg, "cost", make_cost)
        levels_raw = _get(cfg, "verify.levels", kind=list)
        levels = [_dp_grids(cfg, f"verify.levels.{i}") for i in range(len(levels_raw))]
        scenario = Scenario(terminal=terminal, cost=cost, T=T, x=x,
                            outer_grid=_outer_grid(cfg, len(x)), solver_cfg=solver)
        try:   # fewer than two levels, or a level whose grid misses (T, x)
            rows = convergence_study(scenario, levels)
        except MisuseError as exc:
            _fail("verify", str(exc))
        with open(out_dir / "error_table.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dt", "oracle_value", "formula_value", "error"])
            for r in rows:
                writer.writerow([repr(r.dt), repr(r.oracle_value),
                                 repr(r.formula_value), repr(r.error)])
        surface_to_csv(rows[-1].surface, out_dir / "value_surface.csv")
        for r in rows:
            print(f"dt={r.dt:.6g} error={r.error:.6g}")
        return 0

    table_grids = None
    if kind == "economy":
        spec, allocations, prices = _economy(cfg)
        terminal = _terminal(cfg, 2 * allocations.size)
        result = economic_value(terminal, spec, T, allocations, prices,
                                _outer_grid(cfg, 2 * allocations.size), solver)
    else:
        x = _array(cfg, "x")
        terminal = _terminal(cfg, len(x))
        cost = _named(cfg, "cost", make_cost)
        grid = _outer_grid(cfg, len(x))
        if kind != "classic" and _get(cfg, "outputs.moderation_table", None) is not None:
            table_grids = _moderation_grids(cfg, "outputs.moderation_table", len(x))
        if kind == "classic":
            result = classic_lax_hopf(terminal, cost, T, x, grid,
                                      n_steps=solver.n_steps)
        elif kind == "generalized":
            result = generalized_lax_hopf(terminal, cost, T, x, grid, solver)
        else:  # discounted
            rate = _named(cfg, "rate", make_rate)
            result = discounted_value(terminal, cost, rate, T, x, grid, solver)

    (out_dir / "result.json").write_text(value_result_to_json(result))
    if result.trajectory is not None:
        trajectory_to_csv(result.trajectory, out_dir / "trajectory.csv")
    if table_grids is not None:
        table = build_moderation_table(cost, T, x, *table_grids, solver)
        moderation_table_to_csv(table, out_dir / "moderation_table.csv")
    if not result.value.is_finite:
        print("V=inf")
        return 3
    ups = "-" if result.upsilon_star is None else \
        ",".join(f"{v:.6g}" for v in result.upsilon_star)
    cert = "-" if result.certificate_residual is None else \
        f"{result.certificate_residual:.3g}"
    print(f"V={result.value.value:.6g} omega={result.omega_star:.6g} "
          f"upsilon={ups} cert={cert}")
    return 0


def _set_path(cfg: dict, axis: str, value: float):
    """Set the numeric field at the dotted ``axis``; a numeric part indexes a list."""
    parts = axis.split(".")
    node = cfg
    for depth, part in enumerate(parts):
        if isinstance(node, list) and part.isdecimal() and int(part) < len(node):
            part = int(part)
        elif not (isinstance(node, dict) and part in node):
            _fail("--axis", f"{axis!r} does not resolve in the config")
        if depth < len(parts) - 1:
            node = node[part]
        elif isinstance(node[part], (int, float)):
            node[part] = value
        else:
            _fail("--axis", f"{axis!r} must address a numeric field")


def sweep_config(cfg: dict, axis: str, values, out_dir: Path) -> int:
    """One run per swept value; failed rows keep their exit code, the sweep continues."""
    # validate the axis against the base config before any row runs
    _set_path(json.loads(json.dumps(cfg)), axis, 0.0)
    out_dir.mkdir(parents=True, exist_ok=True)

    def one(i, value):
        sub = json.loads(json.dumps(cfg))
        _set_path(sub, axis, value)
        row_dir = out_dir / f"row_{i:03d}"
        try:
            code = run_config(sub, row_dir)
        except LaxHopfError as exc:
            return (value, None, None, 2 if isinstance(exc, ConfigError) else 1)
        doc = json.loads((row_dir / "result.json").read_text())
        v = doc.get("value")
        return (value, None if v == "inf" else v, doc.get("omega_star"), code)

    rows = [one(i, value) for i, value in enumerate(values)]
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([axis, "value", "omega_star", "exit_code"])
        for value, v, om, code in rows:
            writer.writerow([repr(float(value)),
                             "inf" if v is None else repr(float(v)),
                             "" if om is None else repr(float(om)),
                             code])
    return 0


def conjugate_config(cfg: dict, out_dir: Path) -> int:
    """Dump a ConjugateTable CSV for the configured cost."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cost = _named(cfg, "cost", make_cost)
    _get(cfg, "conjugate", kind=dict)
    t = _num(cfg, "conjugate.t", 0.0)
    x = _array(cfg, "conjugate.x", default=[0.0])
    vbox = _array(cfg, "conjugate.velocity_box", pairs=True)
    duals = _array(cfg, "conjugate.dual_grid", width=len(vbox))
    n = _num(cfg, "conjugate.n_velocity", 2001, int, low=2)
    axes = [np.linspace(lo, hi, n) for lo, hi in vbox]
    mesh = np.meshgrid(*axes, indexing="ij")
    vgrid = np.stack([m.ravel() for m in mesh], axis=1)
    table = build_conjugate_table(cost, t, x, duals, vgrid)
    with open(out_dir / "conjugate.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"p_{h + 1}" for h in range(duals.shape[1])] + ["conjugate"])
        for p, v in zip(duals, table.values):
            writer.writerow([repr(float(c_)) for c_ in p] + [repr(float(v))])
    return 0


def moderate_config(cfg: dict, out_dir: Path) -> int:
    """Dump a ModerationTable CSV for the configured cost."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cost = _named(cfg, "cost", make_cost)
    x = _array(cfg, "x")
    table = build_moderation_table(cost, _num(cfg, "T"), x,
                                   *_moderation_grids(cfg, "moderation", len(x)), _solver_cfg(cfg))
    moderation_table_to_csv(table, out_dir / "moderation_table.csv")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="laxhopf", description=__doc__)
    parser.add_argument("command", choices=["run", "sweep", "verify", "conjugate", "moderate"])
    parser.add_argument("--config", required=True, help="scenario JSON path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--axis", default=None, help="sweep: dotted path of the swept field")
    parser.add_argument("--values", default=None, help="sweep: comma-separated numbers")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        out_dir = Path(args.out if args.out is not None else _get(cfg, "out_dir", "."))
        if args.command == "run":
            return run_config(cfg, out_dir)
        if args.command == "verify":
            if cfg["kind"] != "verify":
                _fail("kind", "the verify command needs a verify-kind config")
            return run_config(cfg, out_dir)
        if args.command == "sweep":
            if args.axis is None or args.values is None:
                _fail("sweep", "--axis and --values are required")
            try:
                values = [float(v) for v in args.values.split(",") if v.strip() != ""]
            except ValueError:
                _fail("--values", f"{args.values!r} is not a comma-separated list of numbers")
            return sweep_config(cfg, args.axis, values, out_dir)
        if args.command == "conjugate":
            return conjugate_config(cfg, out_dir)
        return moderate_config(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LaxHopfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
