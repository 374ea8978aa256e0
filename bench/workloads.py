"""Query lists and correctness checks for the three benchmark workloads.

A workload is a pool of rounds; a round is a fixed list of queries drawn from
the run's seed.  A query is one public call that returns a value, a value
surface or a table.  Every query carries

* ``call(w)``: the timed call.  ``w`` hands the program its fields: the plain
  hand-off returns them unchanged, the tracing one wraps them in timers
  (``bench/tracing.py``).  Fields are built once, in set-up.
* ``observe(result)``: the program's outputs the check constrains, as a dict
  of floats or lists of floats (for CLI queries read back from the artifacts).
* ``check(obs)``: raises :class:`CheckError` unless the outputs satisfy a
  closed form or a property the method must have; returns the largest share
  of a tolerance the outputs used (the error measured against the bound).  Every entry of ``obs`` is
  constrained, so perturbing any one of them must make the check fail
  (``bench/selftest.py`` shows this for every kind).

Query points keep clear of the zero-aperture trap: the outer search cannot
leave the Omega = 0 cell when no lattice cell beats c(T, x) (see README).
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

LN2 = math.log(2.0)

# Tolerances: each is stated with the error measured at the commit that
# introduced the benchmark in bench/README.md.
TOL_GEN_REL = 2e-3          # quadratic_state x weighted_quadratic, n_steps=8
TOL_QUICKSTART = 2e-3       # README quick start vs 1/(2 ln 2)
TOL_CONST_RATE_REL = 2e-3   # constant rate vs the scanned closed form
TOL_CERT = 1e-4             # enrichment certificates
TOL_PATH = 1e-9             # V against the priced returned path (round-off only)
TOL_ANCHOR = 1e-9           # the returned path's ends against x(T) = x and its window
TOL_DP_IND_REL = 0.02       # DP indicator x weighted_quadratic vs closed form
TOL_CLASSIC = 1e-6          # classic quadratic_state x quadratic vs x^2/3
TOL_ECON_FROZEN = 1e-6      # frozen-price economy vs x^2/2
TOL_TABLE_REL = 2e-3        # moderation-table lambda vs closed form
TOL_SWEEP_REL = 2e-3        # sweep rows vs x^2/(2 ln 2)
SLACK = 1e-9                # float round-off on exact inequalities


class CheckError(AssertionError):
    """A query's output violates its closed form or required property."""


@dataclass
class Query:
    kind: str
    T: float
    call: Callable
    observe: Callable
    check: Callable
    op: str = ""                      # traced operation span around call (cli_batch: in twin)
    info: dict = field(default_factory=dict)  # counts the tracer attaches to the op span
    twin: Optional[Callable] = None   # cli_batch: the same pipeline via the public API
    out_dir: Optional[Path] = None    # cli_batch: artifact directory


class Plain:
    """Hands fields to the program unchanged (untimed runs)."""

    def cost(self, c):
        return c

    terminal = rate = spec = cost

    def op(self, name, **info):
        return contextlib.nullcontext()


PLAIN = Plain()


def _need(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckError(msg)


def _close(got: float, want: float, tol: float, what: str) -> float:
    """Raise unless |got - want| <= tol; returns the share of the tolerance used."""
    _need(math.isfinite(got) and abs(got - want) <= tol,
          f"{what}: got {got!r}, want {want!r} +- {tol:.3g}")
    return abs(got - want) / tol


def _value(res) -> float:
    return res.value.to_float()


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def wq_k(T: float, omega: float, a0: float = 1.0, a1: float = 1.0) -> float:
    """k such that moving by Delta over [T - Omega, T] costs at least k |Delta|^2
    under weighted_quadratic, (a0 + a1 t) |u|^2 / 2."""
    return a1 / (2.0 * math.log((a0 + a1 * T) / (a0 + a1 * (T - omega))))


def gen_quadratic_state_wq(x, T: float, omega_max: float) -> float:
    """V = |x|^2 k / (1 + k) for quadratic_state x weighted_quadratic."""
    k = wq_k(T, omega_max)
    x = np.atleast_1d(x)
    return float(x @ x) * k / (1.0 + k)


def constant_rate_value(x: float, r: float, omega_max: float) -> float:
    """min over Omega of x^2 D q / (D + q), D = e^{r Omega}, q = r / (2 (1 - e^{-r Omega}))."""
    om = np.linspace(omega_max / 20000.0, omega_max, 20000)
    D = np.exp(r * om)
    q = r / (2.0 * (1.0 - np.exp(-r * om)))
    return float(min(x * x, np.min(x * x * D * q / (D + q))))


def moderation_wq(omega: float, upsilon: float, T: float) -> float:
    """lambda = Omega Upsilon^2 a1 / (2 ln((a0 + a1 T) / (a0 + a1 (T - Omega))))."""
    return omega * upsilon * upsilon * wq_k(T, omega)


def price_velocity_rate_path(omega: float, x_T: float, u) -> float:
    """Discounted cost of the 1-D path ending at x_T with piecewise-constant velocities u
    on [T - omega, T]: D(T - omega) |x(T - omega)|^2 plus the integral of D(t) |u|^2 / 2,
    with D(t) = exp(integral of m = u from t to T); running cost by the midpoint rule."""
    u = np.asarray(u, dtype=float)
    dt = omega / len(u)
    start = x_T - dt * float(np.sum(u))
    after = dt * (np.cumsum(u[::-1])[::-1] - u)          # integral of m from t_{k+1} to T
    return (math.exp(dt * float(np.sum(u))) * start * start
            + dt * float(np.sum(0.5 * u * u * np.exp(after + 0.5 * dt * u))))


def price_economy_path(rows, gamma_agent: float, gamma_price: float):
    """Cost of a 1-agent, 1-good path read from trajectory.csv (columns t, x_1 = x,
    x_2 = p, u_1, u_2): c(start) = |z|^2 plus the midpoint rule of the impetus cost
    (p x' + p' x)^2, which is +inf where |x'| > gamma_agent or |p'| > gamma_price.
    Returns (value, gap): gap is the largest mismatch between a node and the
    node before it moved by its velocity."""
    t = np.array([float(r["t"]) for r in rows])
    z = np.array([[float(r["x_1"]), float(r["x_2"])] for r in rows])
    u = np.array([[float(r["u_1"]), float(r["u_2"])] for r in rows[:-1]])
    dt = np.diff(t)
    mid = 0.5 * (z[:-1] + z[1:])
    e = mid[:, 1] * u[:, 0] + u[:, 1] * mid[:, 0]
    bad = (np.abs(u[:, 0]) > gamma_agent + 1e-12) | (np.abs(u[:, 1]) > gamma_price + 1e-12)
    running = np.where(bad, np.inf, e * e)
    gap = float(np.max(np.abs(z[1:] - z[:-1] - dt[:, None] * u)))
    return float(z[0] @ z[0] + np.sum(dt * running)), gap


def dp_count_updates(grids) -> int:
    """Node updates of one dp_oracle sweep: every in-lattice (node, velocity) pair per step."""
    dims = [len(a) for a in grids.state_axes]
    steps = [a[1] - a[0] for a in grids.state_axes]
    per_axis = []
    for vs, n, h in zip(grids.velocity_axes, dims, steps):
        k = np.abs(np.round(np.asarray(vs) * grids.dt / h)).astype(int)
        per_axis.append(np.clip(n - k, 0, None))
    total = per_axis[0]
    for extra in per_axis[1:]:
        total = np.multiply.outer(total, extra)
    return int(np.sum(total)) * grids.n_t


# ---------------------------------------------------------------------------
# Seeded draws
# ---------------------------------------------------------------------------

def strata(rng, n, lo, hi):
    """n draws, one uniform in each of n equal slices of [lo, hi], in shuffled order.

    Every round then covers the whole range, so the work in a round hardly
    depends on the seed.
    """
    edges = lo + (hi - lo) * (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n
    return [float(v) for v in rng.permutation(edges)]


def signed_strata(rng, n, lo, hi):
    return [s * v for s, v in zip(rng.choice([-1.0, 1.0], n), strata(rng, n, lo, hi))]


# ---------------------------------------------------------------------------
# value_queries
# ---------------------------------------------------------------------------


def _value_queries(lh, rng, scratch):
    WQ = lh.make_cost("weighted_quadratic", a0=1.0, a1=1.0)
    QUAD = lh.make_cost("quadratic")
    QS = lh.make_terminal("quadratic_state")
    IND = lh.make_terminal("indicator_origin")
    VEL = lh.make_rate("velocity")
    grid1 = lh.OuterGrid.build(1.0, 2, [[-1, 1]], 5)
    grid2 = lh.OuterGrid.build(1.0, 1, [[-1, 1], [-1, 1]], 5)
    cfg = lh.SolverConfig(n_steps=8, multi_starts=0, max_iter=30, seed=0)
    rate_cfg = lh.SolverConfig(n_steps=8, multi_starts=1, max_iter=30, seed=0)
    quick_grid = lh.OuterGrid.build(omega_max=1.0, n_omega=8, upsilon_box=[[-2, 2]], n_upsilon=17)
    quick_cfg = lh.SolverConfig(seed=0)
    T = 1.0

    def gen(kind, x, grid):
        want = gen_quadratic_state_wq(x, T, 1.0)
        return Query(
            kind=kind, op="generalized", T=T,
            call=lambda w: lh.generalized_lax_hopf(w.terminal(QS), w.cost(WQ), T, x, grid, cfg),
            observe=lambda r: {"value": _value(r)},
            check=lambda o: _close(o["value"], want, TOL_GEN_REL * want, f"{kind} x={x}"),
        )

    def quickstart():
        want = 1.0 / (2.0 * LN2)
        return Query(
            kind="quickstart", op="generalized", T=T,
            call=lambda w: lh.generalized_lax_hopf(
                w.terminal(IND), w.cost(WQ), T, 1.0, quick_grid, quick_cfg),
            observe=lambda r: {"value": _value(r)},
            check=lambda o: _close(o["value"], want, TOL_QUICKSTART, "quickstart"),
        )

    def const_rate(x, r):
        rate = lh.make_rate("constant", r=r)
        want = constant_rate_value(x, r, 1.0)
        return Query(
            kind="const_rate", op="discounted", T=T,
            call=lambda w: lh.discounted_value(
                w.terminal(QS), w.cost(QUAD), w.rate(rate), T, x, grid1, rate_cfg),
            observe=lambda res: {"value": _value(res)},
            check=lambda o: _close(o["value"], want, TOL_CONST_RATE_REL * want,
                                   f"const_rate x={x} r={r}"),
        )

    def velocity_rate(x):
        c_Tx = x * x

        def observe(res):
            cert = lh.actualized_enrichment_certificate(res, QS, VEL)
            obs = {"value": _value(res), "cert": math.inf if cert is None else cert}
            traj = res.trajectory
            if traj is None:
                return {**obs, "path_value": c_Tx, "anchor_gap": 0.0}
            omega = traj.window.omega
            gap = max(abs(traj.window.T - T), abs(omega - res.omega_star),
                      abs(float(traj.terminal_state[0]) - x))
            return {**obs, "path_value": price_velocity_rate_path(
                omega, float(traj.terminal_state[0]), np.asarray(traj.velocities)[:, 0]),
                "anchor_gap": gap}

        def check(o):
            _need(o["value"] <= c_Tx + SLACK, f"velocity_rate x={x}: V={o['value']} > c={c_Tx}")
            _need(o["anchor_gap"] <= TOL_ANCHOR,
                  f"velocity_rate x={x}: path is off its window or end by {o['anchor_gap']}")
            used = _close(o["value"], o["path_value"], TOL_PATH, f"velocity_rate x={x}: V vs priced path")
            _need(o["cert"] <= TOL_CERT, f"velocity_rate x={x}: certificate {o['cert']}")
            return max(used, o["cert"] / TOL_CERT)

        return Query(
            kind="velocity_rate", op="discounted", T=T,
            call=lambda w: lh.discounted_value(
                w.terminal(QS), w.cost(QUAD), w.rate(VEL), T, x, grid1, rate_cfg),
            observe=observe, check=check,
        )

    def round_():
        qs = []
        for x in signed_strata(rng, VALUE_MIX["gen1d"], 0.5, 1.5):
            qs.append(gen("gen1d", x, grid1))
        n2 = VALUE_MIX["gen2d"]
        for radius, angle in zip(strata(rng, n2, 0.9, 1.4), strata(rng, n2, 0.0, 2.0 * math.pi)):
            qs.append(gen("gen2d", [radius * math.cos(angle), radius * math.sin(angle)], grid2))
        for _ in range(VALUE_MIX["quickstart"]):
            qs.append(quickstart())
        n_c = VALUE_MIX["const_rate"]
        for x, r in zip(signed_strata(rng, n_c, 0.9, 1.1), strata(rng, n_c, 0.5, 0.7)):
            qs.append(const_rate(x, r))
        for x in signed_strata(rng, VALUE_MIX["velocity_rate"], 0.9, 1.1):
            qs.append(velocity_rate(x))
        return qs

    return round_


# Queries per round, by kind.  Sorted by time, gen1d fills the lowest 29% of
# a run; quickstart, one fixed query, fills 29-57% and holds the median; the
# 75th percentile falls among the overlapping discounted and gen2d queries
# above it.  The discounted kinds' inputs are drawn from narrow ranges, so
# each kind stays one cluster (see README).
VALUE_MIX = {"gen1d": 4, "gen2d": 2, "quickstart": 4, "const_rate": 2, "velocity_rate": 2}


# ---------------------------------------------------------------------------
# oracle_sweeps
# ---------------------------------------------------------------------------

def _snap(x: float, step: float) -> float:
    return round(round(x / step) * step, 12)


def _oracle_sweeps(lh, rng, scratch):
    QUAD = lh.make_cost("quadratic")
    WQ = lh.make_cost("weighted_quadratic", a0=1.0, a1=1.0)
    QS = lh.make_terminal("quadratic_state")
    IND = lh.make_terminal("indicator_origin")
    T = 1.0

    def box_grid(n_t, half_width, step, dim, v_half, v_step):
        """DP grids on [-L, L]^dim with uniform velocity lattices."""
        L = _snap(half_width, step)
        return lh.DPGrids.build(0.0, T, n_t, [[-L, L]] * dim, step, [[-v_half, v_half]] * dim, v_step)

    def on_node(grids, x):
        """The state node nearest to x, so the closed form is taken at the node itself."""
        return np.array([ax[np.argmin(np.abs(ax - xi))] for ax, xi in zip(grids.state_axes, np.atleast_1d(x))])

    vgrid = np.linspace(-5.0, 5.0, 2001)
    du = float(vgrid[1] - vgrid[0])

    def dp_quad(kind, grids, x):
        x = on_node(grids, x)
        lo = float(x @ x) / 3.0
        # best lattice straight line misses u* = 2x/3 by at most du/2 per axis
        err = len(x) * 3.0 * (grids.velocity_axes[0][1] - grids.velocity_axes[0][0]) ** 2 / 8.0

        def check(o):
            v = o["value"]
            _need(lo - SLACK <= v <= lo + err + SLACK,
                  f"{kind} x={x.tolist()}: V_DP={v} outside [{lo}, {lo + err}]")
            return (v - lo) / err

        return Query(
            kind=kind, op="dp", T=T,
            call=lambda w: lh.dp_oracle(w.terminal(QS), w.cost(QUAD), grids),
            observe=lambda s: {"value": s.value_near(T, x).to_float()},
            check=check, info={"updates": dp_count_updates(grids)},
        )

    def dp_ind(x, grids):
        x = float(on_node(grids, x)[0])
        want = x * x / (2.0 * LN2)
        return Query(
            kind="dp1d_indicator", op="dp", T=T,
            call=lambda w: lh.dp_oracle(w.terminal(IND), w.cost(WQ), grids),
            observe=lambda s: {"value": s.value_near(T, x).to_float()},
            check=lambda o: _close(o["value"], want, TOL_DP_IND_REL * want, f"dp1d_indicator x={x}"),
            info={"updates": dp_count_updates(grids)},
        )

    def classic(x, n_upsilon):
        want = x * x / 3.0
        grid = lh.OuterGrid.build(omega_max=1.0, n_omega=8, upsilon_box=[[-2, 2]], n_upsilon=n_upsilon)
        return Query(
            kind="classic", op="classic", T=T,
            call=lambda w: lh.classic_lax_hopf(w.terminal(QS), w.cost(QUAD), T, x, grid),
            observe=lambda r: {"value": _value(r)},
            check=lambda o: _close(o["value"], want, TOL_CLASSIC, f"classic x={x}"),
        )

    def conjugate(duals):
        want = duals ** 2 / 2.0
        tol = du * du / 8.0 + SLACK

        def check(o):
            got = np.asarray(o["values"])
            _need(got.shape == want.shape and np.all(np.abs(got - want) <= tol),
                  f"conjugate: max |l* - p^2/2| = {np.max(np.abs(got - want))} > {tol}")
            return float(np.max(np.abs(got - want))) / tol

        return Query(
            kind="conjugate", op="conjugate", T=T,
            call=lambda w: lh.build_conjugate_table(w.cost(QUAD), 0.0, [0.0], duals, vgrid),
            observe=lambda tab: {"values": [float(v) for v in tab.values]},
            check=check, info={"points": len(duals)},
        )

    def round_():
        qs = []
        n = ORACLE_MIX["classic"]
        for x, n_upsilon in zip(signed_strata(rng, n, 0.5, 1.5), strata(rng, n, 91, 111)):
            qs.append(classic(x, int(n_upsilon)))
        for _ in range(ORACLE_MIX["conjugate"]):
            qs.append(conjugate(np.sort(strata(rng, CONJUGATE_POINTS, -4.0, 4.0))))
        # The time-step count varies a little per query (state step 0.1 / n_t
        # keeps the lattices commensurable); each kind's times stay one cluster.
        n = ORACLE_MIX["dp1d_quad"]
        for x, n_t in zip(signed_strata(rng, n, 0.5, 1.5), strata(rng, n, 18, 22)):
            n_t = int(n_t)
            qs.append(dp_quad("dp1d_quad", box_grid(n_t, 2.0, 0.1 / n_t, 1, 2, 0.1), x))
        n = ORACLE_MIX["dp1d_indicator"]
        for x, n_t in zip(signed_strata(rng, n, 0.5, 1.5), strata(rng, n, 42, 48)):
            n_t = int(n_t)
            qs.append(dp_ind(x, box_grid(n_t, 2.0, 0.1 / n_t, 1, 2, 0.1)))
        n = ORACLE_MIX["dp2d_quad"]
        for radius, angle, L in zip(strata(rng, n, 0.5, 1.2), strata(rng, n, 0.0, 2.0 * math.pi),
                                    strata(rng, n, 1.2, 1.8)):
            x = [radius * math.cos(angle), radius * math.sin(angle)]
            qs.append(dp_quad("dp2d_quad", box_grid(5, L, 0.05, 2, 2, 0.25), x))
        return qs

    return round_


CONJUGATE_POINTS = 41
# Sorted by time: conjugate fills the lowest 18%; classic and dp1d_quad, two
# tight clusters close together, fill 18-65% and hold the median;
# dp1d_indicator fills 65-88% and holds the 75th percentile; dp2d_quad is
# the top.
ORACLE_MIX = {"conjugate": 3, "classic": 4, "dp1d_quad": 4, "dp1d_indicator": 4, "dp2d_quad": 2}


# ---------------------------------------------------------------------------
# cli_batch
# ---------------------------------------------------------------------------

def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def artifact_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def _cli_batch(lh, rng, scratch):
    from laxhopf import cli  # the freshly imported package's CLI

    T = 1.0
    base = {"schema": 1, "seed": 0, "T": T}
    counter = itertools.count()

    def cli_query(kind, cfg, argv_tail, observe, check, twin):
        n = next(counter)
        cfg_path = scratch / f"{kind}-{n}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = scratch / f"{kind}-{n}"
        argv = [argv_tail[0], "--config", str(cfg_path), "--out", str(out)] + argv_tail[1:]

        def call(w):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"laxhopf {argv_tail[0]} exited {code}")
            return out

        return Query(kind=kind, T=T, call=call, observe=observe, check=check,
                     twin=twin, out_dir=out)

    def solver(raw):
        return lh.SolverConfig(seed=0, **raw)

    def outer(raw):
        return lh.OuterGrid.build(raw["omega_max"], raw["n_omega"], raw["upsilon_box"], raw["n_upsilon"])

    # run: frozen-price economy, V = x^2 / 2
    frozen_outer = {"omega_max": 1.0, "n_omega": 2, "upsilon_box": [[-2, 2], [-1, 1]], "n_upsilon": 9}
    frozen_solver = {"n_steps": 8, "multi_starts": 1, "max_iter": 60}

    def economy_twin(cfg, term):
        e = cfg["economy"]
        spec = lh.ImpetusCostSpec(scalar_cost=_impetus_scalar(e), gamma_price=e["gamma_price"],
                                  gamma_agents=tuple(e["gamma_agents"]))
        grid, scfg = outer(cfg["outer"]), solver(cfg["solver"])
        z = lh.pack_economy(e["allocations"], e["prices"])

        def twin(w):
            field = lh.impetus_cost_field(w.spec(spec), 1, 1)
            with w.op("economy"):
                return lh.generalized_lax_hopf(w.terminal(term), w.cost(field), T, z, grid, scfg)
        return twin

    def frozen(x):
        cfg = dict(base, kind="economy",
                   terminal={"name": "indicator_origin", "params": {"x0": [0.0, 1.0]}},
                   economy={"scalar_cost": "quadratic", "scalar_params": {"a": 0.5},
                            "gamma_price": 0.0, "gamma_agents": [10.0],
                            "allocations": [[x]], "prices": [[1.0]]},
                   outer=frozen_outer, solver=frozen_solver)
        want = x * x / 2.0
        term = lh.make_terminal("indicator_origin", x0=[0.0, 1.0])
        return cli_query(
            "run_frozen", cfg, ["run"],
            observe=lambda out: {"value": float(json.loads((out / "result.json").read_text())["value"])},
            check=lambda o: _close(o["value"], want, TOL_ECON_FROZEN, f"run_frozen x={x}"),
            twin=economy_twin(cfg, term),
        )

    # run: moving-price economy, V <= c(T, z) and certificate <= 1e-4
    moving_outer = {"omega_max": 1.0, "n_omega": 1, "upsilon_box": [[-1, 1], [-0.5, 0.5]], "n_upsilon": 3}
    moving_solver = {"n_steps": 4, "multi_starts": 0, "max_iter": 20}

    def moving(x, p):
        gamma_price, gamma_agent = 0.5, 2.0
        cfg = dict(base, kind="economy", terminal={"name": "quadratic_state"},
                   economy={"scalar_cost": "quadratic", "gamma_price": gamma_price,
                            "gamma_agents": [gamma_agent], "allocations": [[x]], "prices": [[p]]},
                   outer=moving_outer, solver=moving_solver)
        c_Tz = x * x + p * p

        def observe(out):
            doc = json.loads((out / "result.json").read_text())
            cert = doc["certificate_residual"]
            rows = _read_csv(out / "trajectory.csv")
            path_value, step_gap = price_economy_path(rows, gamma_agent, gamma_price)
            start = doc["start_state"]
            gap = max(step_gap, abs(float(rows[-1]["t"]) - T),
                      abs(float(rows[0]["t"]) - (T - doc["omega_star"])),
                      abs(float(rows[-1]["x_1"]) - x), abs(float(rows[-1]["x_2"]) - p),
                      abs(float(rows[0]["x_1"]) - start[0]), abs(float(rows[0]["x_2"]) - start[1]))
            return {"value": float(doc["value"]), "cert": math.inf if cert is None else float(cert),
                    "path_value": path_value, "anchor_gap": gap}

        def check(o):
            _need(o["value"] <= c_Tz + SLACK, f"run_moving: V={o['value']} > c(T,z)={c_Tz}")
            _need(o["anchor_gap"] <= TOL_ANCHOR,
                  f"run_moving: trajectory.csv is off its window, ends or steps by {o['anchor_gap']}")
            used = _close(o["value"], o["path_value"], TOL_PATH, "run_moving: V vs priced trajectory.csv")
            _need(o["cert"] <= TOL_CERT, f"run_moving: certificate {o['cert']}")
            return max(used, o["cert"] / TOL_CERT)

        return cli_query("run_moving", cfg, ["run"], observe, check,
                         twin=economy_twin(cfg, lh.make_terminal("quadratic_state")))

    # moderate: lambda = Omega Upsilon^2 a1 / (2 ln(...))
    mod_solver = {"n_steps": 8, "multi_starts": 1, "max_iter": 60}

    def moderate(omegas, upsilons):
        cfg = dict(base, kind="generalized", x=[1.0], terminal={"name": "quadratic_state"},
                   cost={"name": "weighted_quadratic"}, outer={"omega_max": 1.0},
                   moderation={"omega_grid": omegas, "upsilon_grid": [[u] for u in upsilons]},
                   solver=mod_solver)
        want = [moderation_wq(om, u, T) for om in omegas for u in upsilons]
        cost = lh.make_cost("weighted_quadratic")
        scfg = solver(mod_solver)

        def check(o):
            got = o["lambda"]
            _need(len(got) == len(want), f"moderate: {len(got)} rows, want {len(want)}")
            return max(_close(g, v, TOL_TABLE_REL * v, "moderate lambda") for g, v in zip(got, want))

        def twin(w):
            with w.op("moderation_table", cells=len(omegas) * len(upsilons)):
                return lh.build_moderation_table(w.cost(cost), T, [1.0], omegas,
                                                 [[u] for u in upsilons], scfg)

        return cli_query(
            "moderate", cfg, ["moderate"],
            observe=lambda out: {"lambda": [float(r["lambda"])
                                            for r in _read_csv(out / "moderation_table.csv")]},
            check=check, twin=twin,
        )

    # sweep: each row is x^2 / (2 ln 2)
    sweep_outer = {"omega_max": 1.0, "n_omega": 4, "upsilon_box": [[-2, 2]], "n_upsilon": 17}

    def sweep(xs, n_steps):
        sweep_solver = {"n_steps": n_steps, "multi_starts": 2}
        cfg = dict(base, kind="generalized", x=[1.0], terminal={"name": "indicator_origin"},
                   cost={"name": "weighted_quadratic"}, outer=sweep_outer, solver=sweep_solver)
        want = [x * x / (2.0 * LN2) for x in xs]
        term, cost = lh.make_terminal("indicator_origin"), lh.make_cost("weighted_quadratic")
        grid, scfg = outer(sweep_outer), solver(sweep_solver)

        def check(o):
            got = o["values"]
            _need(len(got) == len(want), f"sweep: {len(got)} rows, want {len(want)}")
            return max(_close(g, v, TOL_SWEEP_REL * v, "sweep row") for g, v in zip(got, want))

        def twin(w):
            out = []
            for x in xs:
                with w.op("generalized"):
                    out.append(lh.generalized_lax_hopf(w.terminal(term), w.cost(cost), T, [x], grid, scfg))
            return out

        return cli_query(
            "sweep", cfg, ["sweep", "--axis", "x.0", "--values=" + ",".join(repr(x) for x in xs)],
            observe=lambda out: {"values": [float(r["value"]) for r in _read_csv(out / "sweep.csv")]},
            check=check, twin=twin,
        )

    # verify: errors fall with refinement; the surface has (n_t + 1) * nodes rows
    verify_solver = {"n_steps": 16, "multi_starts": 1}

    def verify(x, half_width):
        L = _snap(half_width, 0.01)
        # nested levels: every path of the coarse lattice is a path of the fine one
        verify_levels = [
            {"n_t": 10, "state_box": [[-L, L]], "state_step": 0.01, "velocity_box": [[-2, 2]], "velocity_step": 0.1},
            {"n_t": 20, "state_box": [[-L, L]], "state_step": 0.005, "velocity_box": [[-2, 2]], "velocity_step": 0.1},
        ]
        levels = [lh.DPGrids.build(0.0, T, lv["n_t"], lv["state_box"], lv["state_step"],
                                   lv["velocity_box"], lv["velocity_step"]) for lv in verify_levels]
        finest = levels[-1]
        surface_rows = (finest.n_t + 1) * int(np.prod([len(a) for a in finest.state_axes]))
        cfg = dict(base, kind="verify", x=[x], terminal={"name": "indicator_origin"},
                   cost={"name": "weighted_quadratic"}, outer=sweep_outer, solver=verify_solver,
                   verify={"levels": verify_levels})
        term, cost = lh.make_terminal("indicator_origin"), lh.make_cost("weighted_quadratic")
        grid, scfg = outer(sweep_outer), solver(verify_solver)

        def observe(out):
            rows = _read_csv(out / "error_table.csv")
            with open(out / "value_surface.csv") as fh:
                n = sum(1 for _ in fh) - 1
            return {"errors": [float(r["error"]) for r in rows], "surface_rows": float(n)}

        def check(o):
            errs = o["errors"]
            _need(len(errs) == len(levels) and all(math.isfinite(e) for e in errs),
                  f"verify: error table {errs}")
            _need(errs[-1] <= errs[0] + SLACK, f"verify: errors do not fall {errs}")
            _need(o["surface_rows"] == surface_rows,
                  f"verify: surface has {o['surface_rows']} rows, want {surface_rows}")
            return errs[-1] / errs[0] if errs[0] else 0.0

        def twin(w):
            # convergence_study's pipeline: one formula value, one DP sweep per level
            with w.op("generalized"):
                lh.generalized_lax_hopf(w.terminal(term), w.cost(cost), T, [x], grid, scfg)
            for g in levels:
                with w.op("dp", updates=dp_count_updates(g)):
                    lh.dp_oracle(w.terminal(term), w.cost(cost), g).value_near(T, [x])

        return cli_query("verify", cfg, ["verify"], observe, check, twin=twin)

    # conjugate: |l*(p) - p^2/2| <= du^2 / 8
    n_velocity = 2001

    def conjugate(duals):
        cfg = dict(base, kind="classic", cost={"name": "quadratic"},
                   conjugate={"t": 0.0, "x": [0.0], "dual_grid": duals,
                              "velocity_box": [[-5, 5]], "n_velocity": n_velocity})
        du = 10.0 / (n_velocity - 1)
        want = np.asarray(duals) ** 2 / 2.0
        cost = lh.make_cost("quadratic")
        vgrid = np.linspace(-5, 5, n_velocity)[:, None]

        def check(o):
            got = np.asarray(o["values"])
            tol = du * du / 8.0 + SLACK
            _need(got.shape == want.shape and np.all(np.abs(got - want) <= tol),
                  "conjugate.csv deviates from p^2/2")
            return float(np.max(np.abs(got - want))) / tol

        def twin(w):
            with w.op("conjugate", points=len(duals)):
                return lh.build_conjugate_table(w.cost(cost), 0.0, [0.0], duals, vgrid)

        return cli_query(
            "conjugate", cfg, ["conjugate"],
            observe=lambda out: {"values": [float(r["conjugate"]) for r in _read_csv(out / "conjugate.csv")]},
            check=check, twin=twin,
        )

    lattice_x = [-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0]   # frozen: allocation axis of the lattice
    sweep_x = [-1.75, -1.5, -1.25, -1.0, -0.75, 0.75, 1.0, 1.25, 1.5, 1.75]   # on the sweep lattice
    verify_x = [-1.5, -1.25, -0.75, 0.5, 0.75, 1.0, 1.25, 1.5]

    def round_():
        qs = []
        for _ in range(CLI_MIX["conjugate"]):
            qs.append(conjugate(sorted(round(p, 6) for p in strata(rng, CONJUGATE_POINTS, -4.0, 4.0))))
        for _ in range(CLI_MIX["run_frozen"]):
            qs.append(frozen(float(rng.choice(lattice_x))))
        for _ in range(CLI_MIX["moderate"]):
            qs.append(moderate([0.5, 1.0], [round(u, 6) for u in strata(rng, 2, 0.3, 1.5)]))
        for n_steps in strata(rng, CLI_MIX["sweep"], 10, 24):
            qs.append(sweep([float(v) for v in rng.choice(sweep_x, 3, replace=False)], int(n_steps)))
        for L in strata(rng, CLI_MIX["verify"], 2.2, 2.5):
            qs.append(verify(float(rng.choice(verify_x)), L))
        n_m = CLI_MIX["run_moving"]
        for x, p in zip(strata(rng, n_m, 0.8, 1.0), strata(rng, n_m, 0.8, 1.0)):
            qs.append(moving(round(x, 6), round(p, 6)))
        return qs

    return round_


def _impetus_scalar(e: dict):
    """The CLI's named impetus costs ("quadratic" a e^2, "abs" |e|)."""
    if e["scalar_cost"] == "quadratic":
        a = float(e.get("scalar_params", {}).get("a", 1.0))
        return lambda v: a * v * v
    return abs


# Sorted by time: conjugate, run_frozen, moderate and sweep fill the lowest
# 30%; verify fills 30-90% and holds both the median and the 75th
# percentile; run_moving is the top.
CLI_MIX = {"conjugate": 1, "run_frozen": 1, "moderate": 2, "sweep": 2, "verify": 12, "run_moving": 2}


# ---------------------------------------------------------------------------

BUILDERS = {
    "value_queries": _value_queries,
    "oracle_sweeps": _oracle_sweeps,
    "cli_batch": _cli_batch,
}
WORKLOADS = tuple(BUILDERS)


def build_rounds(lh, workload: str, seed: int, n_rounds: int, scratch: Path):
    """The run's fixed query list: ``n_rounds`` rounds drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    make_round = BUILDERS[workload](lh, rng, scratch)
    return [make_round() for _ in range(n_rounds)]


def clear_artifacts(query: Query) -> None:
    if query.out_dir is not None:
        shutil.rmtree(query.out_dir, ignore_errors=True)
