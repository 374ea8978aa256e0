"""Fuzz of the CLI contract: any malformed config exits 0, 2 or 3, never with a traceback.

Each example takes one small valid config of a ``kind`` (or of the
``moderate`` and ``conjugate`` commands), mutates one to three of its fields
and runs ``cli.main`` in-process.  No mutation makes a count larger, so no
example can ask for a large grid.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from laxhopf.cli import main

OUTER_1D = {"omega_max": 1.0, "n_omega": 2, "upsilon_box": [[-2, 2]], "n_upsilon": 5}
SOLVER = {"n_steps": 4, "multi_starts": 1, "max_iter": 5}
COMMON = {"schema": 1, "seed": 0, "T": 1.0, "x": [1.0], "outer": OUTER_1D, "solver": SOLVER}
LEVEL = {"n_t": 5, "state_box": [[-2, 2]], "state_step": 0.04,
         "velocity_box": [[-2, 2]], "velocity_step": 0.2}

CONFIGS = {
    "classic": ("run", dict(COMMON, kind="classic", terminal={"name": "indicator_origin"},
                            cost={"name": "quadratic", "params": {"a": 0.5}})),
    "generalized": ("run", dict(
        COMMON, kind="generalized",
        terminal={"name": "quadratic_state", "params": {"a": 1.0, "x0": [0.0]}},
        cost={"name": "weighted_quadratic", "params": {"a0": 1.0, "a1": 1.0}},
        outputs={"moderation_table": {"omega_grid": [0.5, 1.0], "upsilon_grid": [[0.5], [1.0]]}})),
    "discounted": ("run", dict(
        COMMON, kind="discounted", terminal={"name": "quadratic_state"},
        cost={"name": "abs", "params": {"domain": [[-2, 2]]}},
        rate={"name": "constant", "params": {"r": 0.5}})),
    "economy": ("run", dict(
        {k: v for k, v in COMMON.items() if k != "x"}, kind="economy",
        terminal={"name": "quadratic_state"},
        economy={"scalar_cost": "quadratic", "scalar_params": {"a": 1.0}, "gamma_price": 1.0,
                 "gamma_agents": [1.0], "allocations": [[1.0]], "prices": [[1.0]],
                 "shared_prices": False},
        outer=dict(OUTER_1D, upsilon_box=[[-1, 1], [-1, 1]], n_upsilon=3, max_rounds=3))),
    "wtp": ("run", dict(COMMON, kind="wtp", terminal={"name": "quadratic_state"},
                        wtp={"velocity_bound": 1.0, "omega": 0.5, "state_box": [[-2, 2]],
                             "n_state": 21})),
    "verify": ("verify", dict(
        COMMON, kind="verify", terminal={"name": "indicator_origin", "params": {"tol": 1e-9}},
        cost={"name": "quadratic"}, verify={"levels": [LEVEL, dict(LEVEL, n_t=10, state_step=0.02)]})),
    "moderate": ("moderate", dict(
        COMMON, kind="generalized", cost={"name": "quadratic"},
        moderation={"omega_grid": [0.5, 1.0], "upsilon_grid": [[0.5], [1.5]]})),
    "conjugate": ("conjugate", dict(
        COMMON, kind="classic", cost={"name": "quadratic", "params": {"domain": [[-3, 3]]}},
        conjugate={"t": 0.0, "x": [0.0], "dual_grid": [-1, 0, 1], "velocity_box": [[-2, 2]],
                   "n_velocity": 41})),
}


def leaf_paths(node, prefix=()):
    """Every path below the root: dict keys and list indices."""
    parts = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) \
        else ()
    for key, child in parts:
        yield prefix + (key,)
        yield from leaf_paths(child, prefix + (key,))


def resolves(cfg, dotted: str) -> bool:
    node = cfg
    for part in dotted.split("."):
        if isinstance(node, list) and part.isdigit() and int(part) < len(node):
            node = node[int(part)]
        elif isinstance(node, dict) and part in node:
            node = node[part]
        else:
            return False
    return True


def mutate(value, how):
    if how == "retype":
        return 1.0 if isinstance(value, str) else "x"
    if how == "wrong_shape":
        return value[0] if isinstance(value, list) and value else [value]
    return {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": 0,
            "empty": [] if isinstance(value, list) else {} if isinstance(value, dict) else "",
            "true": True, "null": None}[how]


MUTATIONS = ["drop", "retype", "nan", "inf", "-inf", "zero", "empty", "wrong_shape", "true", "null"]


@st.composite
def mutated_configs(draw):
    name = draw(st.sampled_from(sorted(CONFIGS)))
    command, base = CONFIGS[name]
    cfg = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(leaf_paths(cfg))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = cfg
        for part in path[:-1]:
            parent = parent[part]
        how = draw(st.sampled_from(MUTATIONS))
        if how == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = mutate(parent[path[-1]], how)
    return command, base, cfg


@settings(max_examples=300, deadline=None)
@given(case=mutated_configs())
def test_any_mutation_keeps_the_exit_contract(case):
    command, base, cfg = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    msg = err.getvalue()
    assert code in (0, 2, 3), msg
    if code == 2:
        assert msg.startswith("config error: "), msg
        field = msg[len("config error: "):].split(":", 1)[0]
        assert field in ("schema", "kind") or resolves(cfg, field) or resolves(base, field), msg
