import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxhopf import (
    Trajectory,
    Window,
    average_transaction,
    build_trajectory,
    cumulated_cost,
    enrichment,
    interest_rates,
    make_cost,
    refine_trajectory,
    trajectory_to_csv,
)
from laxhopf.errors import DegenerateWindowError, MisuseError

QUAD = make_cost("quadratic")


class TestBuildTrajectory:
    def test_constant_velocity(self):
        traj = build_trajectory(Window(T=1.0, omega=1.0), 1.0, [1.0, 1.0])
        np.testing.assert_allclose(traj.states[:, 0], [0.0, 0.5, 1.0])
        assert traj.start_state()[0] == pytest.approx(0.0)

    def test_zero_transaction(self):
        traj = build_trajectory(Window(T=1.0, omega=1.0), 0.0, [0.0])
        np.testing.assert_allclose(traj.states, 0.0)

    def test_backward_cumulated_sum(self):
        traj = build_trajectory(Window(T=2.0, omega=2.0), 1.0, [0.0, 0.0, 1.0, 0.0])
        assert traj.start_state()[0] == pytest.approx(0.5)

    def test_zero_aperture_degenerate(self):
        with pytest.raises(DegenerateWindowError):
            build_trajectory(Window(T=1.0, omega=0.0), 1.0, [1.0])

    def test_negative_aperture_rejected(self):
        with pytest.raises(MisuseError):
            Window(T=1.0, omega=-0.5)

    def test_terminal_state_exact(self):
        traj = build_trajectory(Window(T=1.0, omega=0.7), 0.3, [0.1, -0.4, 2.0])
        assert traj.states[-1, 0] == 0.3


class TestAverageTransaction:
    def test_constant(self):
        traj = build_trajectory(Window(T=1.0, omega=1.0), 1.0, [0.75] * 4)
        assert average_transaction(traj)[0] == pytest.approx(0.75)

    def test_mean_of_velocities(self):
        traj = build_trajectory(Window(T=2.0, omega=2.0), 1.0, [0.0, 0.0, 1.0, 0.0])
        assert average_transaction(traj)[0] == pytest.approx(0.25)

    def test_cancellation(self):
        traj = build_trajectory(Window(T=1.0, omega=1.0), 0.0, [1.0, -1.0])
        assert average_transaction(traj)[0] == pytest.approx(0.0)

    def test_zero_aperture_degenerate(self):
        traj = build_trajectory(Window(T=1.0, omega=1.0), 1.0, [1.0])
        degenerate = traj.__class__(Window(T=1.0, omega=0.0), traj.terminal_state,
                                    traj.velocities)
        with pytest.raises(DegenerateWindowError):
            average_transaction(degenerate)


class TestCumulatedCost:
    def test_constant_integrand(self):
        traj = build_trajectory(Window(T=1.0, omega=1.0), 1.0, [1.0] * 8)
        assert cumulated_cost(traj, QUAD).value == pytest.approx(0.5)

    def test_time_dependent_integral(self):
        wq = make_cost("weighted_quadratic", a0=1.0, a1=1.0)
        traj = build_trajectory(Window(T=1.0, omega=1.0), 1.0, [1.0] * 100)
        assert cumulated_cost(traj, wq).value == pytest.approx(0.75, abs=1e-3)

    def test_absorbing_infinity(self):
        boxed = make_cost("quadratic", domain=[[-1, 1]])
        traj = build_trajectory(Window(T=1.0, omega=1.0), 1.0, [0.5, 2.0])
        assert not cumulated_cost(traj, boxed).is_finite
        # on a zero aperture dt = 0, and dt * inf would be NaN
        instant = Trajectory(window=Window(T=1.0, omega=0.0), terminal_state=np.array([0.0]),
                             velocities=np.array([[2.0]]))
        assert not cumulated_cost(instant, boxed).is_finite


class TestEnrichment:
    def test_arithmetic(self):
        assert enrichment(1.0, 2.0, 0.5) == pytest.approx(2.0)

    def test_flat(self):
        assert enrichment(2.0, 2.0, 1.0) == 0.0

    def test_quadratic_benchmark_ratio(self):
        assert enrichment(0.25, 0.5, 1.0) == pytest.approx(0.25)

    def test_nonpositive_aperture(self):
        with pytest.raises(MisuseError):
            enrichment(0.0, 1.0, 0.0)


class TestInterestRates:
    def test_direct_evaluation(self):
        r = interest_rates(1.0, 2.0, 1.0)
        assert r.forward == pytest.approx(1.0)
        assert r.backward == pytest.approx(0.5)
        assert r.symmetric == pytest.approx(1.0 / math.sqrt(2.0))

    def test_no_profit(self):
        assert interest_rates(1.0, 1.0, 5.0) == (0.0, 0.0, 0.0)

    def test_instantaneous_limit(self):
        h = 1e-4
        r = interest_rates(1.0, 1.0 + h, h)
        for v in r:
            assert abs(v - 1.0) <= 1e-3

    def test_undefined_markers(self):
        r = interest_rates(0.0, 1.0, 1.0)
        assert r.forward is None
        assert r.symmetric is None
        assert r.backward == pytest.approx(1.0)


velocity_lists = st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(us=velocity_lists, xT=st.floats(-5, 5), omega=st.floats(0.1, 3.0))
def test_round_trip_and_displacement(us, xT, omega):
    traj = build_trajectory(Window(T=1.0, omega=omega), xT, us)
    np.testing.assert_array_equal(traj.velocities[:, 0], np.asarray(us))
    disp = traj.terminal_state - traj.start_state()
    assert disp[0] == pytest.approx(traj.dt * sum(us), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(us=velocity_lists, xT=st.floats(-2, 2), omega=st.floats(0.1, 2.0))
def test_refinement_consistency(us, xT, omega):
    traj = build_trajectory(Window(T=1.0, omega=omega), xT, us)
    fine = refine_trajectory(traj)
    assert fine.n_steps == 2 * traj.n_steps
    np.testing.assert_allclose(fine.start_state(), traj.start_state(), atol=1e-9)
    np.testing.assert_allclose(average_transaction(fine), average_transaction(traj),
                               atol=1e-9)
    c0 = cumulated_cost(traj, QUAD).value
    c1 = cumulated_cost(fine, QUAD).value
    assert abs(c1 - c0) <= 1e-9  # piecewise-constant u: quadrature is exact here


def test_csv_export(tmp_path):
    traj = build_trajectory(Window(T=1.0, omega=1.0), 1.0, [1.0, 1.0])
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x_1,u_1"
    assert len(lines) == 4            # header + 3 nodes
    assert lines[-1].endswith(",")    # no velocity on the terminal node
