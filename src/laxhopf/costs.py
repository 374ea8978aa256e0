"""Transaction-cost and rate fields, terminal costs, conjugation and growth checks.

A :class:`CostField` wraps a running cost ``l(t, x, u)`` together with the
flags the solvers rely on (velocity-only, state-free, declared convexity) and
an optional per-coordinate velocity box outside of which the cost is +infinity; a
:class:`RateField` wraps an interest rate ``m(t, x, u)``.  Both are batch-first:
the catalog fields carry only a batch evaluator over rows ``(t, X, U)``, and
every evaluation, the scalar :func:`eval_cost` included, goes through one
helper that also owns the box; one rule rejects NaN and -inf rows of every
field.  A scalar ``evaluator`` is kept for user fields without a batch form and
is looped row by row.  Catalog fields also carry batch ``partials``, which the
inner moderation solver uses for its exact gradient.
Conjugates are computed by exhaustive maximization over a velocity lattice; at
desk-scale dimensions this is cheap and unconditionally correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import EmptyDomainError, EvaluationFault, MisuseError, ParameterError
from .extreal import ExtReal


def _as_vec(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float))


def _integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _finite(**named) -> None:
    """Raise a MisuseError naming the first argument with an entry that is not finite; a few
    entries take a Python loop, which costs less than numpy's calls."""
    for name, value in named.items():
        small = (value := np.asarray(value)).size <= 64
        if not (all(map(math.isfinite, value.ravel().tolist())) if small else np.isfinite(value).all()):
            raise MisuseError(f"{name} must be finite, got {value.tolist()}")


def _number(low=-math.inf, above=False, integer=False, **named) -> None:
    """Raise a MisuseError naming the first argument that is not a finite number (with
    ``integer``, an integer, never a bool) at least ``low``, or above it with ``above``."""
    for name, value in named.items():
        ok = _integer(value) if integer else isinstance(value, (int, float, np.integer, np.floating))
        if not (ok and math.isfinite(value) and (value > low if above else value >= low)):
            what = "an integer" if integer else "a finite number"
            bound = "" if low == -math.inf else f" {'>' if above else '>='} {low}"
            raise MisuseError(f"{name} must be {what}{bound}, got {value!r}")


def _dims(dim: int, of: str = "x", **named) -> None:
    """Raise a MisuseError naming the first array whose last axis is not ``dim``, the state ``of``'s."""
    for name, value in named.items():
        if value.shape[-1:] != (dim,):
            raise MisuseError(f"{name} dimension {value.shape[-1]} != state dimension {dim} of {of}")


def _rows(points) -> np.ndarray:
    """``points`` as a float array of rows; a flat list is rows of one coordinate."""
    arr = np.asarray(points, dtype=float)
    return arr[:, None] if arr.ndim == 1 else arr


def _require_evaluator(fld) -> None:
    if fld.evaluator is None and fld.batch_evaluator is None:
        raise MisuseError(f"{type(fld).__name__} needs an evaluator or a batch_evaluator")


@dataclass(frozen=True)
class CostField:
    """Evaluatable transaction-cost function l(t, x, u) with metadata.

    ``batch_evaluator`` takes arrays ``(t (m,), X (m, l), U (m, l))`` and
    returns a float array where +infinity is IEEE inf; ``evaluator`` is the
    scalar form ``(t, x, u) -> float or ExtReal`` for fields without a batch
    form.  At least one of the two is required.

    ``partials`` is optional: ``(t (m,), X (m, l), U (m, l)) -> (dX, dU)``,
    the partial derivatives in x and in u of the same function the evaluators
    compute, each an (m, l) array or None where it is identically zero.  It is
    only asked for at rows of finite cost inside the domain box.  A field
    without it is differentiated by finite differences.  Whoever swaps the
    evaluator for a different function (``dataclasses.replace``) must swap or
    clear ``partials`` with it; a wrapper that only counts or times calls may
    keep it.

    ``state_free`` declares that l does not depend on x: l(t, x, u) = l(t, x', u)
    for all x, x'.  It neither implies nor follows from ``velocity_only`` (which
    also drops t).  The DP oracle then prices one row per (time step, velocity)
    instead of one per lattice node, so a field that declares it falsely makes
    the oracle price a different function, as a wrong ``partials`` makes the
    inner solver follow a different gradient; ``dataclasses.replace`` that
    brings in an x-dependent evaluator must clear it.

    ``separable`` is optional: ``(shape, a)`` declares l(t, x, u) = a(t) *
    sum_h psi(u_h), with psi the square ("square"), the absolute value
    ("abs") or the indicator of zero ("zero", the evaluator owns its
    tolerance), and ``a`` mapping times (m,) to factors (m,).  The inner
    moderation solver then solves a window in closed form instead of by descent
    (a window where some factor is not positive keeps descent), so a field
    that declares it falsely is moderated as a different function;
    ``dataclasses.replace`` that swaps the evaluator for a different function
    must clear it, while a wrapper that only counts or times calls may keep it.
    """

    evaluator: Optional[Callable] = None
    velocity_only: bool = False
    state_free: bool = False
    declared_convex_in_u: bool = False
    domain_box: Optional[np.ndarray] = None  # shape (l, 2) velocity bounds
    batch_evaluator: Optional[Callable] = None
    partials: Optional[Callable] = None
    separable: Optional[tuple] = None

    def __post_init__(self):
        _require_evaluator(self)
        if self.domain_box is not None:
            object.__setattr__(self, "domain_box", _box(self.domain_box, "domain_box"))


@dataclass(frozen=True)
class RateField:
    """Per-time-unit interest rate m(t, x, u), no sign restriction; a NaN or -inf row is a fault.

    ``evaluator``, ``batch_evaluator`` and ``partials`` follow the contract of
    :class:`CostField`, ``partials`` returning (dm/dx, dm/du).

    ``time_only`` declares that m depends on t alone: m(t, x, u) = m(t, x', u')
    for all x, x', u, u'.  The accumulation weights of a window then do not
    depend on its path, which the closed-form window solve relies on; a field
    that declares it falsely is moderated as a different function, and
    ``dataclasses.replace`` that swaps the evaluator for a different function
    must clear it.
    """

    evaluator: Optional[Callable] = None
    batch_evaluator: Optional[Callable] = None
    partials: Optional[Callable] = None
    time_only: bool = False

    def __post_init__(self):
        _require_evaluator(self)


@dataclass(frozen=True)
class TerminalCost:
    """Instantaneous cost condition c(t, x); finiteness defines the departure tube.

    ``evaluator`` maps one state (l,) to a float or an ExtReal, the optional
    ``batch_evaluator`` states (m, l) to (m,) floats; a catalog terminal is one
    function serving as both.  The cell pricer makes one scalar call per cell,
    because the benchmark's tracer counts cells from the scalar terminal calls.
    """

    evaluator: Callable
    batch_evaluator: Optional[Callable] = None

    def in_departure_tube(self, t: float, x) -> bool:
        return eval_terminal(self, t, x).is_finite


def _to_float(raw) -> float:
    return raw.to_float() if isinstance(raw, ExtReal) else float(raw)


def _domain_box(box: np.ndarray, dim: int) -> np.ndarray:
    """A cost's checked domain box; it needs one row per velocity coordinate."""
    if len(box) != dim:
        raise MisuseError(f"cost domain has {len(box)} [lo, hi] rows, velocity dimension is {dim}")
    return box


def _box(box, name: str) -> np.ndarray:
    """``box`` as a (k, 2) float array of finite [lo, hi] rows with lo <= hi."""
    arr = _numbers(box, 2)
    if arr is None or arr.shape[1:] != (2,) or not np.all(arr[:, 0] <= arr[:, 1]):
        raise MisuseError(f"{name} needs a non-empty list of finite [lo, hi] pairs with lo <= hi, got {box!r}")
    return arr


def _checked(vals, what: str, at):
    """``vals`` (an array, or a float for one row) if no row is NaN or -inf: a NaN row is an
    EvaluationFault, a -inf one too but misuse for a terminal; ``at(i)`` names row i's point."""
    ok = vals > -np.inf   # false on NaN and -inf; a bool for a float
    if ok is True or (ok is not False and ok.all()):
        return vals
    i = int(np.argmin(ok))
    bad = "NaN" if np.isnan(np.ravel(vals)[i]) else "-inf"
    msg = f"{what} evaluator returned {bad} at {at(i)}"
    if bad == "-inf" and what == "terminal":
        raise MisuseError(f"{msg}; extended reals have no negative infinity")
    raise EvaluationFault(msg)


def _field_rows(fld, what: str, t, X, U, box=None) -> np.ndarray:
    """Rows of a cost or rate field as a float array with IEEE inf.

    Runs the batch evaluator, or loops the scalar one row by row; rows whose
    velocity leaves ``box`` are +infinity, and a NaN or -infinity row is a fault.
    """
    t = np.asarray(t, dtype=float)
    X = np.asarray(X, dtype=float)
    U = np.asarray(U, dtype=float)
    box = None if box is None else _domain_box(box, U.shape[1])
    if fld.batch_evaluator is not None:
        vals = np.asarray(fld.batch_evaluator(t, X, U), dtype=float)
    else:
        vals = np.array([_to_float(fld.evaluator(float(t[i]), X[i], U[i])) for i in range(len(U))])
    if box is not None:
        vals = np.where(np.any((U < box[:, 0]) | (U > box[:, 1]), axis=1), np.inf, vals)
    return _checked(vals, what, lambda i: f"t={t[i]}, x={X[i]}, u={U[i]}")


def eval_cost_batch(cost: CostField, t: np.ndarray, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Cost rows l(t_i, X_i, U_i); a float array using IEEE inf, +inf outside the domain box."""
    return _field_rows(cost, "cost", t, X, U, cost.domain_box)


def eval_rate_batch(rate: RateField, t: np.ndarray, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Rate rows m(t_i, X_i, U_i) as a float array; raises EvaluationFault on a NaN or -inf row."""
    return _field_rows(rate, "rate", t, X, U)


def eval_cost(cost: CostField, t: float, x, u) -> ExtReal:
    """l(t, x, u) as one row of :func:`eval_cost_batch`."""
    x, u = _as_vec(x), _as_vec(u)
    _finite(t=t, x=x, u=u)
    _dims(len(x), u=u)
    row = eval_cost_batch(cost, [float(t)], x[None], u[None])
    return ExtReal(float(row[0]))


def _terminal_value(term: TerminalCost, t: float, x: np.ndarray) -> float:
    """c(t, x) as a float from one scalar evaluator call; ``x`` is an (l,) float array."""
    return _checked(_to_float(term.evaluator(t, x)), "terminal", lambda i: f"t={t}, x={x}")


def eval_terminal(term: TerminalCost, t: float, x) -> ExtReal:
    _finite(t=t, x=x)
    return ExtReal(_terminal_value(term, t, _as_vec(x)))


def eval_terminal_batch(term: TerminalCost, t: float, X: np.ndarray) -> np.ndarray:
    """Terminal rows c(t, X_i); a NaN row is an EvaluationFault and a -inf row misuse, as in eval_terminal."""
    X = np.asarray(X, dtype=float)
    if term.batch_evaluator is None:
        return np.array([_terminal_value(term, t, row) for row in X])
    return _checked(np.asarray(term.batch_evaluator(t, X), dtype=float), "terminal",
                    lambda i: f"t={t}, x={X[i]}")


# ---------------------------------------------------------------------------
# Legendre-Fenchel conjugation
# ---------------------------------------------------------------------------

def _lattice_costs(cost: CostField, t: float, x, velocity_grid, **duals):
    """The lattice points of finite cost at (t, x) and their costs; ``duals``: named dual points."""
    grid, x = _rows(velocity_grid), _as_vec(x)
    if grid.size == 0:
        raise MisuseError("legendre_fenchel needs a non-empty velocity grid")
    _finite(t=t, x=x, velocity_grid=grid, **duals)
    _dims(len(x), velocity_grid=grid, **duals)
    m = len(grid)
    lvals = eval_cost_batch(cost, np.full(m, float(t)), np.broadcast_to(x, (m, len(x))), grid)
    finite = np.isfinite(lvals)
    if not finite.any():
        raise EmptyDomainError(
            f"all velocity-grid points have infinite cost at t={t}, x={x}"
        )
    return grid[finite], lvals[finite]


def legendre_fenchel(cost: CostField, t: float, x, p, velocity_grid) -> ExtReal:
    """Conjugate l*(t, x, p) = sup_u (<p,u> - l(t,x,u)) over a velocity lattice.

    A lower bound on the true supremum, converging under grid refinement.
    Raises :class:`EmptyDomainError` when every grid point has infinite cost.
    """
    p = _as_vec(p)
    grid, lvals = _lattice_costs(cost, t, x, velocity_grid, p=p)
    return ExtReal(float((grid @ p - lvals).max()))


@dataclass(frozen=True)
class ConjugateTable:
    """Sampled slice p -> l*(t, x, p) at a fixed base point."""

    dual_grid: np.ndarray          # (m,) or (m, l)
    values: np.ndarray             # (m,)
    base_point: tuple              # (t, x)

    def midpoint_convexity_defect(self) -> float:
        """Largest violation of discrete midpoint convexity along the grid (1-D)."""
        v = self.values
        if len(v) < 3:
            return 0.0
        return float(np.max(v[1:-1] - 0.5 * (v[:-2] + v[2:]), initial=0.0))


def build_conjugate_table(cost: CostField, t: float, x, dual_grid, velocity_grid) -> ConjugateTable:
    """l*(t, x, p) at every dual point p, from one cost evaluation of the lattice."""
    dual = np.asarray(dual_grid, dtype=float)
    duals = dual if dual.ndim > 1 else dual[:, None]
    grid, lvals = _lattice_costs(cost, t, x, velocity_grid, dual_grid=duals)
    vals = np.array([float((grid @ p - lvals).max()) for p in duals])
    return ConjugateTable(dual_grid=dual, values=vals, base_point=(float(t), _as_vec(x)))


def subdifferential_check(cost: CostField, t: float, x, u, p, grid, tol: float) -> bool:
    """True iff <p,u> = l(t,x,u) + l*(t,x,p) within tol (p in the subdifferential at u)."""
    _finite(grid=grid, tol=tol)
    u = _as_vec(u)
    p = _as_vec(p)
    box = cost.domain_box
    if box is not None and not np.all((_domain_box(box, u.size)[:, 0] <= u) & (u <= box[:, 1])):
        raise MisuseError("subdifferential_check requires u inside the domain box")
    lv = eval_cost(cost, t, x, u).to_float()
    conj = legendre_fenchel(cost, t, x, p, grid).to_float()   # finite: a max over finite lattice costs
    return abs(float(p @ u) - lv - conj) <= tol   # False when lv is +inf


# ---------------------------------------------------------------------------
# Marchaud growth/convexity sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarchaudViolation:
    kind: str          # "domain-growth" | "nonnegativity" | "upper-bound" | "midpoint-convexity"
    t: float
    x: np.ndarray
    u: Optional[np.ndarray]
    detail: str


@dataclass(frozen=True)
class MarchaudReport:
    violations: list = field(default_factory=list)
    n_samples: int = 0

    @property
    def consistent(self) -> bool:
        return not self.violations

    def kinds(self) -> set:
        return {v.kind for v in self.violations}


def check_marchaud(
    cost: CostField,
    c_const: float,
    t_range: tuple,
    x_box,
    n_samples: int,
    rng=None,
    convexity_tol: float = 1e-9,
) -> MarchaudReport:
    """Sample-check the linear-growth and convexity conditions of a Marchaud cost.

    Checks, at each sampled base point (t, x) with R = c(|t| + ||x|| + 1):
    the domain box sits inside the R-ball, values are nonnegative and bounded
    by R on the domain, and midpoint convexity in u holds at sampled pairs.
    """
    _number(1, integer=True, n_samples=n_samples)
    _number(0, above=True, c_const=c_const)
    _finite(t_range=t_range, convexity_tol=convexity_tol)
    rng = np.random.default_rng(rng)
    x_box = _box(x_box, "x_box")
    ell = len(x_box)
    violations = []
    for _ in range(n_samples):
        t = float(rng.uniform(*t_range))
        x = rng.uniform(x_box[:, 0], x_box[:, 1])
        radius = c_const * (np.linalg.norm(x) + abs(t) + 1.0)
        if cost.domain_box is None:
            violations.append(
                MarchaudViolation("domain-growth", t, x, None, "unbounded velocity domain")
            )
            # sample inside the ball anyway so value checks still run
            lo, hi = -radius * np.ones(ell), radius * np.ones(ell)
        else:
            box = _domain_box(cost.domain_box, ell)
            corner = np.max(np.abs(box), axis=1)
            if np.linalg.norm(corner) > radius + 1e-12:
                violations.append(
                    MarchaudViolation(
                        "domain-growth", t, x, None,
                        f"domain box corner norm {np.linalg.norm(corner):.3g} exceeds {radius:.3g}",
                    )
                )
            lo, hi = box[:, 0], box[:, 1]
        us = rng.uniform(lo, hi, size=(8, ell))
        lv = eval_cost_batch(cost, np.full(8, t), np.broadcast_to(x, us.shape), us)
        fu, fv = us[np.isfinite(lv)], lv[np.isfinite(lv)]
        for u, v in zip(fu, fv):
            if v < -1e-12:
                violations.append(MarchaudViolation("nonnegativity", t, x, u, f"l = {v:.3g} < 0"))
            if v > radius + 1e-9:
                violations.append(MarchaudViolation(
                    "upper-bound", t, x, u, f"l = {v:.3g} exceeds {radius:.3g}"))
        mids, chords = 0.5 * (fu[:-1] + fu[1:]), 0.5 * (fv[:-1] + fv[1:])
        mv = eval_cost_batch(cost, np.full(len(mids), t), np.broadcast_to(x, mids.shape), mids)
        for u, v, chord in zip(mids, mv, chords):
            if np.isfinite(v) and v > chord + convexity_tol:
                violations.append(MarchaudViolation(
                    "midpoint-convexity", t, x, u, f"l(mid) = {v:.3g} > {chord:.3g}"))
    return MarchaudReport(violations=violations, n_samples=n_samples)


# ---------------------------------------------------------------------------
# Built-in catalogs (addressable by name in scenario configs)
# ---------------------------------------------------------------------------

def _numbers(raw, ndim: int) -> Optional[np.ndarray]:
    """``raw`` as a non-empty float array of finite numbers with at most ``ndim`` axes,
    or None.  A boolean, a string or a null is not a number."""
    try:
        arr = np.asarray(raw)
    except ValueError:   # a ragged list
        return None
    if arr.dtype.kind not in "iuf" or arr.ndim > ndim or not arr.size:
        return None
    arr = arr.astype(float)
    return arr if np.isfinite(arr).all() else None


def _param(params: dict, key: str, default, ndim: int = 0):
    """Pop catalog parameter ``key`` (``default`` when absent): for ``ndim`` 0 a finite
    float, 1 a 1-D array of finite numbers, 2 None or [lo, hi] pairs with lo <= hi.
    Anything else is a :class:`ParameterError`."""
    raw = params.pop(key, default)
    if ndim == 2:
        try:
            return None if raw is None else _box(raw, key)
        except MisuseError:
            arr = None
    else:
        arr = _numbers(raw, ndim)
    if arr is None:
        what = ("a finite number", "a finite number or a list of them",
                "[lo, hi] pairs of finite numbers with lo <= hi")[ndim]
        raise ParameterError(key, f"expected {what}, got {raw!r}")
    return float(arr) if ndim == 0 else _as_vec(arr)


def make_cost(name: str, /, **params) -> CostField:
    """Resolve a named transaction-cost function.

    Catalog: "quadratic" (a*|u|^2, a defaults to 1/2), "abs" (sum |u_h|),
    "weighted_quadratic" ((a0 + a1*t)*|u|^2/2), "indicator_zero".
    Every entry accepts an optional ``domain`` velocity box.  None of them
    depends on x, so every entry is ``state_free``; all but a quadratic with
    a <= 0 are ``separable``.
    """
    domain = _param(params, "domain", None, 2)
    if name == "quadratic":
        a = _param(params, "a", 0.5)
        _reject_extras(name, params)
        return CostField(
            velocity_only=True,
            state_free=True,
            declared_convex_in_u=a >= 0,
            domain_box=domain,
            batch_evaluator=lambda t, X, U: a * np.sum(U * U, axis=1),
            partials=lambda t, X, U: (None, 2.0 * a * U),
            separable=("square", lambda t: np.full(len(t), a)) if a > 0 else None,
        )
    if name == "abs":
        _reject_extras(name, params)
        return CostField(
            velocity_only=True,
            state_free=True,
            declared_convex_in_u=True,
            domain_box=domain,
            batch_evaluator=lambda t, X, U: np.sum(np.abs(U), axis=1),
            partials=lambda t, X, U: (None, np.sign(U)),
            separable=("abs", np.ones_like),
        )
    if name == "weighted_quadratic":
        a0 = _param(params, "a0", 1.0)
        a1 = _param(params, "a1", 1.0)
        _reject_extras(name, params)
        return CostField(
            velocity_only=False,
            state_free=True,
            declared_convex_in_u=a1 == 0 and a0 >= 0,   # a0 + a1 t >= 0 at every t
            domain_box=domain,
            batch_evaluator=lambda t, X, U: (a0 + a1 * t) * np.sum(U * U, axis=1) / 2.0,
            partials=lambda t, X, U: (None, (a0 + a1 * t)[:, None] * U),
            separable=("square", lambda t: (a0 + a1 * t) / 2.0),
        )
    if name == "indicator_zero":
        tol = _param(params, "tol", 1e-12)
        _reject_extras(name, params)
        return CostField(
            velocity_only=True,
            state_free=True,
            declared_convex_in_u=True,
            domain_box=domain,
            batch_evaluator=lambda t, X, U: np.where(
                np.all(np.abs(U) <= tol, axis=1), 0.0, np.inf
            ),
            partials=lambda t, X, U: (None, None),
            separable=("zero", np.ones_like),
        )
    raise MisuseError(f"unknown cost {name!r}")


def make_rate(name: str, /, **params) -> RateField:
    """Catalog: "zero", "constant" (r), "velocity" (m = sum of velocity components)."""
    if name == "zero":
        _reject_extras(name, params)
        return RateField(batch_evaluator=lambda t, X, U: np.zeros(len(U)),
                         partials=lambda t, X, U: (None, None), time_only=True)
    if name == "constant":
        r = _param(params, "r", 0.0)
        _reject_extras(name, params)
        return RateField(batch_evaluator=lambda t, X, U: np.full(len(U), r),
                         partials=lambda t, X, U: (None, None), time_only=True)
    if name == "velocity":
        _reject_extras(name, params)
        return RateField(batch_evaluator=lambda t, X, U: np.sum(U, axis=1),
                         partials=lambda t, X, U: (None, np.ones_like(U)))
    raise MisuseError(f"unknown rate {name!r}")


def make_terminal(name: str, /, **params) -> TerminalCost:
    """Resolve a named instantaneous cost condition.

    Catalog: "indicator_origin" (0 at (t0, x0), +inf elsewhere),
    "quadratic_state" (a*||x - x0||^2, time-independent), "zero".
    """
    if name == "indicator_origin":
        t0 = _param(params, "t0", 0.0)
        x0v = _param(params, "x0", 0.0, 1)
        tol = _param(params, "tol", 1e-9)
        _reject_extras(name, params)

        def c(t, X):
            if not abs(t - t0) <= tol:
                return np.full(X.shape[:-1], np.inf)[()]
            return np.where(np.all(np.abs(X - x0v) <= tol, axis=-1), 0.0, np.inf)[()]
    elif name == "quadratic_state":
        a = _param(params, "a", 1.0)
        x0v = _param(params, "x0", 0.0, 1)
        _reject_extras(name, params)

        def c(t, X):
            return a * np.add.reduce(np.square(X - x0v), axis=-1)
    elif name == "zero":
        _reject_extras(name, params)

        def c(t, X):
            return np.zeros(X.shape[:-1])[()]
    else:
        raise MisuseError(f"unknown terminal cost {name!r}")
    return TerminalCost(evaluator=c, batch_evaluator=c)


def _reject_extras(name: str, params: dict) -> None:
    if params:
        raise ParameterError(sorted(params)[0], f"unknown parameter for {name!r}")
