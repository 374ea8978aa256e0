"""Golden pins: full results of fixed queries, bit for bit.

Every float of each ``ValueResult`` (value, omega*, upsilon*, start state,
lambda, certificate, D, and the trajectory's window and velocities) and of a
descent moderation table is stored as ``float.hex`` in ``golden_results.json``.
A refactor that claims bitwise-equal outputs must keep these.  Record an
entry only for a new pin or a change that means to move its values; the
writer records the entries it is named and leaves every other one as it is:

    PYTHONPATH=src python tests/test_golden.py gen1d run_moving
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from laxhopf import economy, moderation
from laxhopf import (
    AdmissibleSpec,
    ImpetusCostSpec,
    ModerationProblem,
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
    moderate,
    pack_economy,
)
from laxhopf.trajectories import _too_fast

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
# two agents, a callable price bound and one callable agent bound
ECONOMY2 = impetus_cost_field(ImpetusCostSpec(
    lambda e: e * e, gamma_price=lambda t: 0.5 + 0.1 * t, gamma_agents=(2.0, lambda t: 1.5)), 2, 1)
BOUNDED_CFG = SolverConfig(n_steps=8, multi_starts=2, max_iter=30, seed=0)


def bounded(bound):
    """moderate on a window where the speed bound binds."""
    return moderate(ModerationProblem(WQ, 1.0, [1.0], 1.0, [1.0], AdmissibleSpec(bound)), BOUNDED_CFG)


def queries():
    """name -> the call whose result is pinned."""
    return {
        "gen1d": lambda: generalized_lax_hopf(QS, WQ, 1.0, 0.8, GRID1, CFG),
        "gen1d_negative": lambda: generalized_lax_hopf(QS, WQ, 1.0, -1.2, GRID1, CFG),
        # a tenths grid: the search reads cells that equal a priced one after round(., 12)
        "gen1d_tenths": lambda: generalized_lax_hopf(
            QS, WQ, 1.0, 0.83, OuterGrid.build(1.0, 10, [[-2, 2]], 21), CFG),
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
        "admissible_constant": lambda: bounded(1.2),
        "admissible_callable": lambda: bounded(lambda t: 1.1 + 0.2 * t),
        "economy_two_agents": lambda: generalized_lax_hopf(
            QS, ECONOMY2, 1.0, pack_economy([[0.9], [0.4]], [[0.85], [0.85]]),
            OuterGrid.build(1.0, 1, [[-1, 1], [-1, 1], [-0.5, 0.5], [-0.5, 0.5]], 2),
            SolverConfig(n_steps=4, multi_starts=0, max_iter=10, seed=0)),
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


@pytest.mark.parametrize("name", ["admissible_constant", "admissible_callable", "economy_two_agents"])
def test_wall_pins_meet_the_wall(monkeypatch, name):
    # each of these pins prices rows past a speed bound, so it pins the wall's arithmetic
    hits = []

    def recording(V, limit):
        hit = _too_fast(V, limit)
        hits.append(bool(hit.any()))
        return hit

    monkeypatch.setattr(moderation, "_too_fast", recording)
    monkeypatch.setattr(economy, "_too_fast", recording)
    queries()[name]()
    assert any(hits)


def test_writer_records_only_the_named_entries(tmp_path, monkeypatch):
    committed = json.loads(GOLDEN.read_text())
    assert json.dumps(committed, indent=1) + "\n" == GOLDEN.read_text()   # the file round-trips
    path = tmp_path / "golden_results.json"
    path.write_text(json.dumps(dict(committed, classic1d="stale", gen1d="kept"), indent=1) + "\n")
    monkeypatch.setitem(globals(), "GOLDEN", path)
    want = json.dumps(dict(committed, gen1d="kept"), indent=1) + "\n"
    record(["classic1d"])
    assert path.read_text() == want
    for names in ([], ["classic1d", "bogus"]):
        with pytest.raises(SystemExit):
            record(names)
    assert path.read_text() == want


def record(names):
    """Record the named entries; every other entry keeps its bytes."""
    known = queries()
    if not names or set(names) - set(known):
        sys.exit(f"usage: test_golden.py NAME...; names: {' '.join(sorted(known))}")
    pins = json.loads(GOLDEN.read_text())
    pins.update({name: hexed(known[name]()) for name in names})
    GOLDEN.write_text(json.dumps(dict(sorted(pins.items())), indent=1) + "\n")


if __name__ == "__main__":
    record(sys.argv[1:])
