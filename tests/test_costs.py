import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laxhopf import (
    CostField,
    RateField,
    TerminalCost,
    build_conjugate_table,
    check_marchaud,
    eval_cost,
    legendre_fenchel,
    make_cost,
    make_terminal,
    subdifferential_check,
)
from laxhopf.costs import eval_cost_batch, eval_rate_batch, eval_terminal, eval_terminal_batch, make_rate
from laxhopf.errors import EmptyDomainError, EvaluationFault, MisuseError
from laxhopf.extreal import ExtReal

QUAD = make_cost("quadratic")                 # |u|^2 / 2
ABS = make_cost("abs")
WQ = make_cost("weighted_quadratic", a0=1.0, a1=1.0)
GRID = np.linspace(-10, 10, 2001)


class TestEvalCost:
    def test_quadratic_direct(self):
        assert eval_cost(QUAD, 0.0, 0.0, 2.0).value == 2.0

    def test_domain_box_infinity(self):
        boxed = make_cost("quadratic", domain=[[-1, 1]])
        assert not eval_cost(boxed, 0.0, 0.0, 2.0).is_finite

    def test_time_dependent(self):
        assert eval_cost(WQ, 1.0, 0.0, 1.0).value == 1.0

    def test_nan_is_a_fault(self):
        bad = CostField(evaluator=lambda t, x, u: math.nan)
        with pytest.raises(EvaluationFault, match="t="):
            eval_cost(bad, 0.5, 0.25, 1.0)


class TestLegendreFenchel:
    def test_quadratic_conjugate(self):
        # l = u^2/2 has l*(p) = p^2/2
        v = legendre_fenchel(QUAD, 0.0, 0.0, 3.0, np.arange(-10, 10.001, 0.01))
        assert abs(v.value - 4.5) <= 0.01

    def test_abs_conjugate_inside_unit_ball(self):
        v = legendre_fenchel(ABS, 0.0, 0.0, 0.5, np.linspace(-5, 5, 1001))
        assert abs(v.value) <= 1e-9

    def test_indicator_conjugate(self):
        ind = make_cost("indicator_zero")
        grid = np.linspace(-1, 1, 201)  # contains exactly 0
        for p in (-3.0, 0.0, 7.5):
            assert legendre_fenchel(ind, 0.0, 0.0, p, grid).value == 0.0

    def test_empty_effective_domain(self):
        ind = make_cost("indicator_zero")
        with pytest.raises(EmptyDomainError):
            legendre_fenchel(ind, 0.0, 0.0, 1.0, np.array([1.0, 2.0]))

    def test_empty_grid_is_misuse(self):
        with pytest.raises(MisuseError):
            legendre_fenchel(QUAD, 0.0, 0.0, 1.0, np.array([]))


class TestCheckMarchaud:
    def test_truncated_quadratic_consistent(self):
        K = 1.0
        trunc = CostField(
            evaluator=lambda t, x, u: min(float(u @ u), K),
            velocity_only=True,
            declared_convex_in_u=False,
            domain_box=np.array([[-1.0, 1.0]]),
        )
        report = check_marchaud(trunc, c_const=K + 2, t_range=(-1, 1),
                                x_box=[[-1, 1]], n_samples=40, rng=0)
        assert report.consistent

    def test_unbounded_domain_violation(self):
        report = check_marchaud(QUAD, c_const=100.0, t_range=(-1, 1),
                                x_box=[[-1, 1]], n_samples=5, rng=0)
        assert "domain-growth" in report.kinds()

    def test_negative_cost_violation(self):
        neg = CostField(
            evaluator=lambda t, x, u: -1.0,
            domain_box=np.array([[-1.0, 1.0]]),
        )
        report = check_marchaud(neg, c_const=10.0, t_range=(-1, 1),
                                x_box=[[-1, 1]], n_samples=5, rng=0)
        assert "nonnegativity" in report.kinds()


class TestSubdifferential:
    def test_gradient_pair(self):
        assert subdifferential_check(QUAD, 0.0, 0.0, 2.0, 2.0, GRID, tol=1e-4)

    def test_non_gradient_pair(self):
        assert not subdifferential_check(QUAD, 0.0, 0.0, 2.0, 1.0, GRID, tol=1e-4)

    def test_abs_subdifferential_at_zero(self):
        assert subdifferential_check(ABS, 0.0, 0.0, 0.0, 0.7, GRID, tol=1e-6)


class TestConjugateTable:
    def test_convex_in_p(self):
        table = build_conjugate_table(QUAD, 0.0, 0.0, np.linspace(-3, 3, 31), GRID)
        assert table.midpoint_convexity_defect() <= 1e-9

    def test_biconjugation_recovers_quadratic(self):
        # l** = l for declared-convex velocity-only costs, at grid scale
        dual = np.linspace(-6, 6, 601)
        table = build_conjugate_table(QUAD, 0.0, 0.0, dual, GRID)
        h = GRID[1] - GRID[0]
        for u in (-1.5, 0.0, 0.5, 2.0):
            bi = max(p * u - v for p, v in zip(dual, table.values))
            assert abs(bi - 0.5 * u * u) <= 2 * h + 1e-6


@settings(max_examples=50, deadline=None)
@given(
    u=st.floats(-3, 3),
    p=st.floats(-3, 3),
    t=st.floats(0, 1),
)
def test_fenchel_young_inequality(u, p, t):
    for cost in (QUAD, ABS, WQ):
        lv = eval_cost(cost, t, 0.0, u).value
        conj = legendre_fenchel(cost, t, 0.0, p, GRID).value
        # the grid conjugate lower-bounds l*, so allow the lattice quantization
        assert lv + conj >= p * u - 1e-4


class TestCatalogs:
    def test_unknown_cost(self):
        with pytest.raises(MisuseError):
            make_cost("cubical")

    def test_unknown_terminal(self):
        with pytest.raises(MisuseError):
            make_terminal("cubical")

    def test_unknown_params_rejected(self):
        with pytest.raises(MisuseError):
            make_cost("quadratic", b=3)

    def test_indicator_origin(self):
        term = make_terminal("indicator_origin")
        assert eval_terminal(term, 0.0, 0.0).value == 0.0
        assert not eval_terminal(term, 0.0, 0.5).is_finite
        assert not eval_terminal(term, 0.5, 0.0).is_finite

    def test_quadratic_state(self):
        term = make_terminal("quadratic_state")
        assert eval_terminal(term, 3.0, 2.0).value == 4.0

    def test_departure_tube(self):
        term = make_terminal("indicator_origin")
        assert term.in_departure_tube(0.0, 0.0)
        assert not term.in_departure_tube(1.0, 0.0)

    @pytest.mark.parametrize("a0, a1, convex", [(1.0, 1.0, False), (-0.3, 1.0, False), (1.0, 0.0, True),
                                                (0.0, 0.0, True), (-0.3, 0.0, False)])
    def test_weighted_quadratic_convex_only_for_a_nonnegative_constant_weight(self, a0, a1, convex):
        # (a0 + a1 t) |u|^2 / 2 is convex in u at every t only when the weight is a constant >= 0
        assert make_cost("weighted_quadratic", a0=a0, a1=a1).declared_convex_in_u is convex


class TestDomainBox:
    """A ``domain_box`` is checked when the field is built and kept as a float array.  Unchecked,
    a reversed pair priced every row +inf, a NaN bound was ignored and a flat list raised IndexError."""

    @pytest.mark.parametrize("box", [[[1, -1]], [[math.nan, 1]], [1.0, 2.0]], ids=["reversed", "nan", "flat"])
    def test_bad_box_is_misuse(self, box):
        with pytest.raises(MisuseError, match="domain_box"):
            CostField(batch_evaluator=lambda t, X, U: np.sum(U * U, axis=1), domain_box=box)

    def test_box_is_stored_as_floats(self):
        cost = CostField(batch_evaluator=lambda t, X, U: np.sum(U * U, axis=1), domain_box=[[-1, 1], [0, 2]])
        assert cost.domain_box.dtype == float and cost.domain_box.tolist() == [[-1.0, 1.0], [0.0, 2.0]]
        assert eval_cost(cost, 0.0, [0.0, 0.0], [-1.0, 2.0]).value == 5.0
        assert not eval_cost(cost, 0.0, [0.0, 0.0], [0.5, -0.1]).is_finite

    def test_subdifferential_check_needs_u_in_the_box(self):
        boxed = make_cost("quadratic", domain=[[-1, 1]])
        assert subdifferential_check(boxed, 0.0, 0.0, 0.5, 0.5, GRID, tol=1e-4)
        with pytest.raises(MisuseError, match="inside the domain box"):
            subdifferential_check(boxed, 0.0, 0.0, 1.5, 1.5, GRID, tol=1e-4)


class TestDomainWidth:
    """A cost ``domain`` needs one [lo, hi] row per velocity coordinate; numpy would broadcast."""

    BOXED = make_cost("quadratic", domain=[[-1, 1], [-0.1, 0.1]])
    MATCH = "cost domain has 2 \\[lo, hi\\] rows, velocity dimension is 1"

    def test_cost_rows(self):
        with pytest.raises(MisuseError, match=self.MATCH):
            eval_cost(self.BOXED, 0.0, [1.0], [0.5])
        with pytest.raises(MisuseError, match=self.MATCH):
            eval_cost_batch(self.BOXED, np.zeros(3), np.zeros((3, 1)), np.zeros((3, 1)))
        with pytest.raises(MisuseError, match="cost domain has 1 \\[lo, hi\\] rows, velocity dimension is 2"):
            eval_cost(make_cost("abs", domain=[[-1, 1]]), 0.0, [1.0, 0.0], [0.5, 0.5])

    def test_conjugate_and_checks(self):
        with pytest.raises(MisuseError, match=self.MATCH):
            legendre_fenchel(self.BOXED, 0.0, 0.0, 1.0, GRID)
        with pytest.raises(MisuseError, match=self.MATCH):
            subdifferential_check(self.BOXED, 0.0, 0.0, 0.5, 0.5, GRID, 1e-9)
        with pytest.raises(MisuseError, match=self.MATCH):
            check_marchaud(self.BOXED, 1.0, (0.0, 1.0), [[-1, 1]], 3, rng=0)

    def test_matching_width_prices(self):
        assert eval_cost(self.BOXED, 0.0, [0.0, 0.0], [0.5, 0.05]).value == pytest.approx(0.12625)
        assert not eval_cost(self.BOXED, 0.0, [0.0, 0.0], [0.5, 0.2]).is_finite


def _bits(v) -> str:
    return float(v).hex()


CATALOG_COSTS = [("quadratic", {}), ("quadratic", {"a": 2.0}), ("abs", {}),
                 ("weighted_quadratic", {"a0": 0.5, "a1": 1.5}), ("indicator_zero", {})]
CATALOG_RATES = [("zero", {}), ("constant", {"r": 0.6}), ("velocity", {})]


@st.composite
def rows(draw):
    ell = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(1, 6))
    coord = st.one_of(st.just(0.0), st.floats(-2, 2))
    t = [draw(st.floats(0, 1)) for _ in range(m)]
    X = [[draw(st.floats(-2, 2)) for _ in range(ell)] for _ in range(m)]
    U = [[draw(coord) for _ in range(ell)] for _ in range(m)]
    return np.array(t), np.array(X).reshape(m, ell), np.array(U).reshape(m, ell)


class TestOneEvaluationPath:
    @settings(max_examples=60, deadline=None)
    @given(data=rows(), boxed=st.booleans())
    def test_scalar_cost_is_a_batch_row(self, data, boxed):
        t, X, U = data
        domain = [[-1.0, 1.0]] * X.shape[1] if boxed else None
        for name, params in CATALOG_COSTS:
            cost = make_cost(name, domain=domain, **params)
            batch = eval_cost_batch(cost, t, X, U)
            for i in range(len(U)):
                assert _bits(eval_cost(cost, t[i], X[i], U[i]).to_float()) == _bits(batch[i])
                if boxed and np.any(np.abs(U[i]) > 1.0):
                    assert batch[i] == math.inf

    @settings(max_examples=30, deadline=None)
    @given(data=rows())
    def test_rate_row_is_a_batch_row(self, data):
        t, X, U = data
        for name, params in CATALOG_RATES:
            rate = make_rate(name, **params)
            batch = eval_rate_batch(rate, t, X, U)
            for i in range(len(U)):
                one = eval_rate_batch(rate, t[i:i + 1], X[i:i + 1], U[i:i + 1])
                assert _bits(one[0]) == _bits(batch[i])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), ell=st.integers(1, 12), t=st.floats(0, 1))
    def test_scalar_terminal_is_a_batch_row(self, data, ell, t):
        vec = st.lists(st.floats(-2, 2), min_size=ell, max_size=ell).map(np.array)
        x, x0 = data.draw(vec), data.draw(vec)
        for name, params in [("indicator_origin", {}), ("indicator_origin", {"t0": t, "x0": x.tolist()}),
                             ("quadratic_state", {}), ("quadratic_state", {"a": 0.7, "x0": x0.tolist()}),
                             ("zero", {})]:
            term = make_terminal(name, **params)
            batch = eval_terminal_batch(term, t, x[None])
            assert _bits(eval_terminal(term, t, x).to_float()) == _bits(batch[0])

    def test_field_without_evaluator_is_misuse(self):
        with pytest.raises(MisuseError):
            CostField()
        with pytest.raises(MisuseError):
            RateField()

    def test_scalar_only_field_loops_rows(self):
        cost = CostField(evaluator=lambda t, x, u: t + float(u[0]) ** 2,
                         domain_box=np.array([[-1.0, 1.0]]))
        vals = eval_cost_batch(cost, [0.5, 0.5], [[0.0], [0.0]], [[0.5], [2.0]])
        assert vals.tolist() == [0.75, math.inf]

    def test_nan_rate_is_a_fault(self):
        rate = RateField(batch_evaluator=lambda t, X, U: np.full(len(U), math.nan))
        with pytest.raises(EvaluationFault, match="rate evaluator returned NaN at t="):
            eval_rate_batch(rate, [0.5], [[0.0]], [[1.0]])

    def test_minus_inf_rate_is_a_fault(self):
        rate = RateField(batch_evaluator=lambda t, X, U: np.where(U[:, 0] > 0, -math.inf, 0.0))
        with pytest.raises(EvaluationFault, match=r"rate evaluator returned -inf at t=0\.5, x=\[0\.\], u=\[1\.\]"):
            eval_rate_batch(rate, [0.5, 0.5], [[0.0], [0.0]], [[-1.0], [1.0]])

    @staticmethod
    def _terminal(bad, batch):
        """A terminal that is ``bad`` near x = 1 and 0 elsewhere, with or without a batch form."""
        f = lambda t, x: bad if abs(x[0] - 1.0) < 0.5 else 0.0
        return TerminalCost(evaluator=f, batch_evaluator=(lambda t, X: np.array([f(t, x) for x in X])) if batch else None)

    @pytest.mark.parametrize("batch", [True, False])
    def test_minus_inf_terminal_is_misuse(self, batch):
        # one rule for every path, and the message names the point
        term = self._terminal(-math.inf, batch)
        at = r"terminal evaluator returned -inf at t=0\.5, x=\[1\.\]; extended reals have no negative infinity"
        with pytest.raises(MisuseError, match=at):
            eval_terminal_batch(term, 0.5, [[0.0], [1.0]])
        with pytest.raises(MisuseError, match=at):
            eval_terminal(term, 0.5, [1.0])
        with pytest.raises(MisuseError, match=at):
            term.in_departure_tube(0.5, [1.0])

    @pytest.mark.parametrize("batch", [True, False])
    def test_nan_terminal_is_a_fault(self, batch):
        term = self._terminal(math.nan, batch)
        at = r"terminal evaluator returned NaN at t=0\.5, x=\[1\.\]$"
        with pytest.raises(EvaluationFault, match=at):
            eval_terminal_batch(term, 0.5, [[0.0], [1.0]])
        with pytest.raises(EvaluationFault, match=at):
            eval_terminal(term, 0.5, [1.0])

    def test_extreal_terminal_values_are_read(self):
        term = TerminalCost(evaluator=lambda t, x: ExtReal(math.inf) if x[0] > 0 else ExtReal(2.0))
        assert eval_terminal_batch(term, 0.0, [[-1.0], [1.0]]).tolist() == [2.0, math.inf]

    @pytest.mark.parametrize("bad", [math.nan, -math.inf], ids=["nan", "-inf"])
    def test_bad_scalar_cost_row_names_its_point(self, bad):
        cost = CostField(evaluator=lambda t, x, u: bad if u[0] > 0 else 0.0)
        name = "NaN" if math.isnan(bad) else "-inf"
        with pytest.raises(EvaluationFault, match=rf"cost evaluator returned {name} at t=0\.5, x=\[0\.25\], u=\[1\.\]$"):
            eval_cost_batch(cost, [0.5, 0.5], [[0.25], [0.25]], [[-1.0], [1.0]])


class TestStateFree:
    def test_catalog_declares_state_free_only(self):
        for name, params in CATALOG_COSTS:
            assert make_cost(name, **params).state_free
        assert not CostField(batch_evaluator=lambda t, X, U: np.sum(U * U, axis=1)).state_free
        # state_free and velocity_only are independent declarations
        assert not WQ.velocity_only and WQ.state_free

    @settings(max_examples=60, deadline=None)
    @given(data=rows(), boxed=st.booleans(), seed=st.integers(0, 2**16))
    def test_state_free_rows_ignore_x(self, data, boxed, seed):
        t, X, U = data
        other = np.random.default_rng(seed).uniform(-10, 10, X.shape)
        domain = [[-1.0, 1.0]] * X.shape[1] if boxed else None
        for name, params in CATALOG_COSTS:
            cost = make_cost(name, domain=domain, **params)
            if cost.state_free:
                assert eval_cost_batch(cost, t, X, U).tobytes() == \
                    eval_cost_batch(cost, t, other, U).tobytes()


PSI = {"square": lambda U: U * U, "abs": np.abs}


class TestSeparable:
    def test_declared_on_convex_catalog_entries(self):
        assert make_cost("quadratic", a=0.3).separable[0] == "square"
        assert make_cost("quadratic", a=0.0).separable is None
        assert make_cost("quadratic", a=-1.0).separable is None
        assert [make_cost(n).separable[0] for n in ("weighted_quadratic", "abs", "indicator_zero")] \
            == ["square", "abs", "zero"]
        assert CostField(batch_evaluator=lambda t, X, U: np.sum(U * U, axis=1)).separable is None
        assert make_rate("zero").time_only and make_rate("constant", r=0.4).time_only
        assert not make_rate("velocity").time_only
        assert not RateField(batch_evaluator=lambda t, X, U: np.zeros(len(U))).time_only

    @settings(max_examples=60, deadline=None)
    @given(data=rows(), seed=st.integers(0, 2**16))
    # u^2 is subnormal: it has fewer than 53 significant bits, so no relative tolerance holds
    @example(data=(np.array([0.40625]), np.array([[0.0]]), np.array([[9.563777886388609e-162]])), seed=0)
    def test_declaration_prices_the_evaluator(self, data, seed):
        # l = a(t) sum_h psi(u_h); a time-only rate ignores x and u
        t, X, U = data
        for name, params in CATALOG_COSTS:
            cost = make_cost(name, **params)
            if cost.separable is None or cost.separable[0] == "zero":
                continue
            shape, a = cost.separable
            np.testing.assert_allclose(eval_cost_batch(cost, t, X, U),
                                       a(t) * np.sum(PSI[shape](U), axis=1), rtol=1e-14,
                                       atol=np.finfo(float).tiny)
        rng = np.random.default_rng(seed)
        X2, U2 = rng.uniform(-9, 9, X.shape), rng.uniform(-9, 9, U.shape)
        for rate in (make_rate("zero"), make_rate("constant", r=0.4)):
            assert eval_rate_batch(rate, t, X, U).tobytes() == eval_rate_batch(rate, t, X2, U2).tobytes()
