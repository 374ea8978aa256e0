"""Golden pins: full results of fixed queries, bit for bit.

Every float of each ``ValueResult`` (value, omega*, upsilon*, start state,
lambda, certificate, D, and the trajectory's window and velocities) and of a
descent moderation table is stored as ``float.hex`` in ``golden_results.json``.
A refactor that claims bitwise-equal outputs must keep these.  Rewrite the
file only for a change that means to move values:

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from laxhopf import (
    ImpetusCostSpec,
    OuterGrid,
    SolverConfig,
    build_moderation_table,
    classic_lax_hopf,
    discounted_value,
    generalized_lax_hopf,
    impetus_cost_field,
    make_cost,
    make_rate,
    make_terminal,
    pack_economy,
)

GOLDEN = Path(__file__).with_name("golden_results.json")

QS = make_terminal("quadratic_state")
IND = make_terminal("indicator_origin")
WQ = make_cost("weighted_quadratic", a0=1.0, a1=1.0)
QUAD = make_cost("quadratic")
GRID1 = OuterGrid.build(1.0, 2, [[-1, 1]], 5)
GRID2 = OuterGrid.build(1.0, 1, [[-1, 1], [-1, 1]], 5)
CFG = SolverConfig(n_steps=8, multi_starts=0, max_iter=30, seed=0)
RATE_CFG = SolverConfig(n_steps=8, multi_starts=1, max_iter=30, seed=0)
ECONOMY = impetus_cost_field(
    ImpetusCostSpec(scalar_cost=lambda e: e * e, gamma_price=0.5, gamma_agents=(2.0,)), 1, 1)


def queries():
    """name -> the call whose result is pinned."""
    return {
        "gen1d": lambda: generalized_lax_hopf(QS, WQ, 1.0, 0.8, GRID1, CFG),
        "gen1d_negative": lambda: generalized_lax_hopf(QS, WQ, 1.0, -1.2, GRID1, CFG),
        "gen2d": lambda: generalized_lax_hopf(QS, WQ, 1.0, [0.7, -0.8], GRID2, CFG),
        "quickstart": lambda: generalized_lax_hopf(
            IND, WQ, 1.0, 1.0, OuterGrid.build(1.0, 8, [[-2, 2]], 17), SolverConfig(seed=0)),
        "const_rate": lambda: discounted_value(
            QS, QUAD, make_rate("constant", r=0.6), 1.0, 0.95, GRID1, RATE_CFG),
        "velocity_rate": lambda: discounted_value(
            QS, QUAD, make_rate("velocity"), 1.0, -1.0, GRID1, RATE_CFG),
        "classic1d": lambda: classic_lax_hopf(QS, QUAD, 1.0, 0.9, GRID1),
        "run_moving": lambda: generalized_lax_hopf(
            QS, ECONOMY, 1.0, pack_economy([[0.9]], [[0.85]]),
            OuterGrid.build(1.0, 1, [[-1, 1], [-0.5, 0.5]], 3),
            SolverConfig(n_steps=4, multi_starts=0, max_iter=20, seed=0)),
        "descent_table": lambda: build_moderation_table(
            dataclasses.replace(make_cost("quadratic", domain=[[-0.8, 0.8]]), separable=None),
            1.0, [1.0], [0.5, 1.0],
            [[-0.5], [0.25], [1.0]], SolverConfig(n_steps=6, multi_starts=2, max_iter=15, seed=3)),
    }


def hexed(v):
    """A JSON form of a result with every float as float.hex."""
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, np.ndarray):
        return [hexed(a) for a in v.tolist()] if v.ndim else v.item().hex()
    if isinstance(v, (list, tuple)):
        return [hexed(a) for a in v]
    if hasattr(v, "to_float"):
        return v.to_float().hex()
    if dataclasses.is_dataclass(v):
        return {f.name: hexed(getattr(v, f.name)) for f in dataclasses.fields(v)}
    raise TypeError(type(v))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(queries()))
def test_result_is_bitwise_pinned(golden, name):
    assert hexed(queries()[name]()) == golden[name]


def test_pins_hold_a_trajectory_and_certificate(golden):
    # the pins cover the fields a refactor of the result path could drop
    for name in ("gen1d", "gen2d", "quickstart", "const_rate", "velocity_rate", "run_moving"):
        assert golden[name]["trajectory"] is not None, name
        assert golden[name]["certificate_residual"] is not None, name
    assert golden["velocity_rate"]["discount_factor"] is not None
    assert not math.isinf(float.fromhex(golden["classic1d"]["value"]))
    table = golden["descent_table"]
    assert "inf" in table["values"][0] and None in table["argmins"][0]   # an infeasible entry


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({k: hexed(q()) for k, q in sorted(queries().items())}, indent=1) + "\n")
