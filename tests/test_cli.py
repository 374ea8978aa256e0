import csv
import hashlib
import json

import pytest

from laxhopf import OuterGrid, cli, verify
from laxhopf.cli import main

BASE = {
    "schema": 1,
    "kind": "classic",
    "seed": 0,
    "T": 1.0,
    "x": [1.0],
    "terminal": {"name": "indicator_origin"},
    "cost": {"name": "quadratic"},
    "outer": {"omega_max": 1.0, "n_omega": 8, "upsilon_box": [[-2, 2]],
              "n_upsilon": 17},
}


def write_cfg(tmp_path, overrides=None, name="cfg.json"):
    cfg = json.loads(json.dumps(BASE))
    for key, value in (overrides or {}).items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestRun:
    def test_indicator_benchmark(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("V=0.5 omega=1 upsilon=1 cert=")
        doc = json.loads((out / "result.json").read_text())
        assert doc["value"] == pytest.approx(0.5)
        assert (out / "trajectory.csv").exists()

    def test_unknown_cost_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"cost": {"name": "cubical"}})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "cost.name" in capsys.readouterr().err

    def test_missing_field_path_diagnostic(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"outer": None})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "outer" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, field", [
        ({"outer": dict(BASE["outer"], omega_max="abc")}, "outer.omega_max"),
        ({"outer": dict(BASE["outer"], n_upsilon=0)}, "outer.n_upsilon"),
        ({"outer": dict(BASE["outer"], upsilon_box=[[1]])}, "outer.upsilon_box"),
        ({"x": []}, "x"),
        ({"T": float("nan")}, "T"),
    ])
    def test_malformed_field_exit_2(self, tmp_path, capsys, overrides, field):
        cfg = write_cfg(tmp_path, overrides)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}:")
        assert "Traceback" not in err

    def test_bad_kind_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"kind": "mystery"})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "kind" in capsys.readouterr().err

    def test_infeasible_exit_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"x": [9.0]})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert "V=inf" in capsys.readouterr().out
        assert json.loads((out / "result.json").read_text())["value"] == "inf"

    def test_generalized_kind(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "kind": "generalized",
            "cost": {"name": "weighted_quadratic", "params": {"a0": 1.0, "a1": 1.0}},
            "solver": {"n_steps": 16, "multi_starts": 2},
        })
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert "V=0.72" in capsys.readouterr().out

    def test_wtp_kind(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "kind": "wtp",
            "terminal": {"name": "quadratic_state"},
            "wtp": {"velocity_bound": 1.0, "omega": 0.5,
                    "state_box": [[-2, 2]], "n_state": 201},
        })
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert "V=0.25" in capsys.readouterr().out

    def test_wtp_unreachable_exit_3(self, tmp_path, capsys):
        # no grid point within omega * bound = 1 of x = 5 is the origin, the indicator's one finite point
        cfg = write_cfg(tmp_path, {
            "kind": "wtp", "x": [5.0], "cost": None, "outer": None,
            "wtp": {"velocity_bound": 1, "omega": 1, "state_box": [[-6, 6]], "n_state": 121},
        })
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().out == "V=inf\n"
        assert json.loads((out / "result.json").read_text()) == {"value": "inf"}

    def test_rate_overflow_exit_1(self, tmp_path, capsys):
        # the first window's accumulated rate passes the exp cap at its first midpoint
        cfg = write_cfg(tmp_path, {
            "kind": "discounted", "x": [0.5], "terminal": {"name": "quadratic_state"},
            "rate": {"name": "constant", "params": {"r": 1000}},
            "outer": {"omega_max": 1.0, "n_omega": 2, "upsilon_box": [[-1, 1]], "n_upsilon": 3},
            "solver": {"n_steps": 4, "multi_starts": 0},
        })
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: accumulated rate overflows exp at node 0 (t=0.125)\n"
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (out / "result.json").exists()


    def test_classic_kind_writes_moderation_table(self, tmp_path):
        cfg = write_cfg(tmp_path, {"outputs": {"moderation_table": {"omega_grid": [1.0],
                                                                    "upsilon_grid": [[1.0], [2.0]]}}})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "moderation_table.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["lambda"]) for r in rows] == pytest.approx([0.5, 2.0])


class TestVerify:
    def test_error_table_decreasing(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "kind": "verify",
            "solver": {"n_steps": 32, "multi_starts": 2},
            "verify": {"levels": [
                {"n_t": 10, "state_box": [[-2, 2]], "state_step": 0.01,
                 "velocity_box": [[-2, 2]], "velocity_step": 0.1},
                {"n_t": 25, "state_box": [[-2, 2]], "state_step": 0.004,
                 "velocity_box": [[-2, 2]], "velocity_step": 0.1},
            ]},
        })
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "error_table.csv") as fh:
            rows = list(csv.DictReader(fh))
        errs = [float(r["error"]) for r in rows]
        assert errs[-1] <= errs[0] + 1e-12
        assert (out / "value_surface.csv").exists()

    def test_off_grid_point_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a run started before (T, x) was checked against the grids")

        monkeypatch.setattr(verify, "generalized_lax_hopf", never)
        monkeypatch.setattr(verify, "dp_oracle", never)
        cfg = write_cfg(tmp_path, dict(with_level(), x=[5.0]))   # the levels span [-2, 2]
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: verify:") and "off the grid" in err


VERIFY = {
    "kind": "verify",
    "solver": {"n_steps": 8, "multi_starts": 0},
    "verify": {"levels": [
        {"n_t": 10, "state_box": [[-2, 2]], "state_step": 0.01,
         "velocity_box": [[-2, 2]], "velocity_step": 0.1},
    ]},
}
ECONOMY = {
    "kind": "economy",
    "terminal": {"name": "quadratic_state"},
    "cost": None,
    "x": None,
    "economy": {"scalar_cost": "quadratic", "gamma_price": 1.0, "gamma_agents": [1.0],
                "allocations": [[1.0]], "prices": [[1.0]]},
    "outer": {"omega_max": 1.0, "n_omega": 2, "upsilon_box": [[-1, 1], [-1, 1]],
              "n_upsilon": 3},
}


WTP = {
    "kind": "wtp",
    "terminal": {"name": "quadratic_state"},
    "wtp": {"velocity_bound": 1.0, "omega": 0.5, "state_box": [[-2, 2]], "n_state": 21},
}


def with_economy(**fields):
    return dict(ECONOMY, economy=dict(ECONOMY["economy"], **fields))


def with_level(**fields):
    level = dict(VERIFY["verify"]["levels"][0], **fields)
    return dict(VERIFY, verify={"levels": [VERIFY["verify"]["levels"][0], level]})


class TestTypedFields:
    @pytest.mark.parametrize("overrides, field", [
        (with_level(n_t="abc"), "verify.levels.1.n_t"),
        (with_level(n_t=0), "verify.levels.1.n_t"),
        (with_level(t0="zero"), "verify.levels.1.t0"),
        (with_level(state_step=0), "verify.levels.1.state_step"),
        (with_level(velocity_step=-0.1), "verify.levels.1.velocity_step"),
        (with_level(state_box=[[1]]), "verify.levels.1.state_box"),
        (with_level(velocity_box="wide"), "verify.levels.1.velocity_box"),
        (with_level(state_step=0.3), "verify.levels.1"),
        (dict(ECONOMY, economy=dict(ECONOMY["economy"], scalar_params={"b": 1})),
         "economy.scalar_params.b"),
        (dict(ECONOMY, economy=dict(ECONOMY["economy"], scalar_params={"a": "big"})),
         "economy.scalar_params.a"),
        ({"solver": {"n_steps": "abc"}}, "solver.n_steps"),
        ({"solver": {"grad_tol": [1e-8]}}, "solver.grad_tol"),
        ({"solver": {"max_alternations": 50}}, "solver.max_alternations"),
        ({"solver": {"multi_starts": -1}}, "solver.multi_starts"),
        ({"solver": {"seed": -1}}, "solver.seed"),
        ({"solver": {"n_steps": 0}}, "solver.n_steps"),
        ({"solver": {"max_iter": -1}}, "solver.max_iter"),
        ({"solver": {"max_backtracks": -1}}, "solver.max_backtracks"),
        ({"solver": {"step_init": 0}}, "solver.step_init"),
        ({"solver": {"step_growth": -1}}, "solver.step_growth"),
        ({"seed": -1}, "seed"),
        ({"outer": dict(BASE["outer"], max_rounds=-1)}, "outer.max_rounds"),
        # numbers are read strictly: counts are integral, and no number is a boolean or a string
        ({"solver": {"n_steps": 1.5}}, "solver.n_steps"),
        ({"solver": {"n_steps": True}}, "solver.n_steps"),
        ({"T": "1"}, "T"),
        ({"seed": 0.5}, "seed"),
        ({"x": [True]}, "x"),
        ({"outer": dict(BASE["outer"], n_omega="8")}, "outer.n_omega"),
        ({"outer": dict(BASE["outer"], refine="no")}, "outer.refine"),
        # OuterGrid.build's own range check; -0.0 is not a positive aperture either
        ({"outer": dict(BASE["outer"], omega_max=0)}, "outer"),
        ({"outer": dict(BASE["outer"], omega_max=-1)}, "outer"),
        ({"outer": dict(BASE["outer"], omega_max=-0.0)}, "outer"),
        (with_economy(shared_prices=1), "economy.shared_prices"),
        (dict(WTP, wtp=dict(WTP["wtp"], velocity_bound=-1)), "wtp.velocity_bound"),
        (dict(WTP, wtp=dict(WTP["wtp"], omega=-0.5)), "wtp.omega"),
        (VERIFY, "verify"),   # one refinement level
        # the version is the integer 1, and a box is a list of [lo, hi] pairs, never a flat list
        ({"schema": True}, "schema"),
        ({"schema": 1.0}, "schema"),
        ({"outer": dict(BASE["outer"], upsilon_box=[-2, 2])}, "outer.upsilon_box"),
        (with_level(state_box=[-2, 2]), "verify.levels.1.state_box"),
        # a terminal's x0 has one number per state coordinate; numpy would broadcast it
        ({"terminal": {"name": "quadratic_state", "params": {"x0": [0, 0]}}, "cost": {"name": "quadratic"}},
         "terminal.params.x0"),
        ({"terminal": {"name": "indicator_origin", "params": {"x0": [0, 0]}}}, "terminal.params.x0"),
        (dict(ECONOMY, terminal={"name": "quadratic_state", "params": {"x0": [0.0]}}),
         "terminal.params.x0"),
        (dict(WTP, terminal={"name": "quadratic_state", "params": {"x0": [0.0, 0.0]}}),
         "terminal.params.x0"),
        (dict(with_level(), terminal={"name": "indicator_origin", "params": {"x0": [0.0, 0.0]}}),
         "terminal.params.x0"),
        # a cost domain has one [lo, hi] pair per velocity coordinate, a wtp box one per state coordinate
        ({"cost": {"name": "quadratic", "params": {"domain": [[-1, 1], [-0.1, 0.1]]}}}, "cost.params.domain"),
        (dict(with_level(), cost={"name": "abs", "params": {"domain": [[-1, 1], [-1, 1]]}}),
         "cost.params.domain"),
        (dict(WTP, wtp=dict(WTP["wtp"], state_box=[[-1, 1], [0, 1]])), "wtp.state_box"),
        (dict(WTP, x=[1.0, 0.0], wtp=dict(WTP["wtp"], state_box=[[-1, 1]])), "wtp.state_box"),
    ])
    def test_exit_2_names_field(self, tmp_path, capsys, monkeypatch, overrides, field):
        def no_search(*args, **kwargs):   # a negative max_rounds search would never stop
            raise AssertionError("the config was accepted and the search ran")

        monkeypatch.setattr(cli, "classic_lax_hopf", no_search)
        cfg = write_cfg(tmp_path, overrides)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}:")
        assert "Traceback" not in err

    def test_typed_fields_accept_valid_values(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(
            ECONOMY, economy=dict(ECONOMY["economy"], scalar_params={"a": 2}),
            solver={"n_steps": 4.0, "multi_starts": 0, "max_iter": 5}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


CONJUGATE = {"conjugate": {"t": 0.0, "x": [0.0], "dual_grid": [-2, 0, 2],
                           "velocity_box": [[-5, 5]], "n_velocity": 201}}
TABLE = {"kind": "generalized", "solver": {"n_steps": 8, "multi_starts": 0}}


def with_conjugate(**fields):
    return {"conjugate": dict(CONJUGATE["conjugate"], **fields)}


def with_table(table):
    return dict(TABLE, outputs={"moderation_table": table})


def with_params(part, name, **params):
    return {part: {"name": name, "params": params}}


class TestTypedTableFields:
    @pytest.mark.parametrize("command, overrides, field", [
        ("conjugate", with_conjugate(t="noon"), "conjugate.t"),
        ("conjugate", with_conjugate(n_velocity="abc"), "conjugate.n_velocity"),
        ("conjugate", with_conjugate(n_velocity=1), "conjugate.n_velocity"),
        ("conjugate", with_conjugate(x="origin"), "conjugate.x"),
        ("conjugate", with_conjugate(x=[[0.0]]), "conjugate.x"),
        ("conjugate", with_conjugate(dual_grid=["a"]), "conjugate.dual_grid"),
        ("run", with_table({"omega_grid": [1.0]}), "outputs.moderation_table.upsilon_grid"),
        ("run", with_table({"omega_grid": "all", "upsilon_grid": [1.0]}),
         "outputs.moderation_table.omega_grid"),
        ("run", with_table({"omega_grid": [1.0], "upsilon_grid": [[1.0, 2.0]]}),
         "outputs.moderation_table.upsilon_grid"),
        ("run", with_table([1.0]), "outputs.moderation_table"),
        ("moderate", {"moderation": {"omega_grid": [1.0], "upsilon_grid": [["a"]]}},
         "moderation.upsilon_grid"),
        ("run", with_economy(allocations=[["a"]]), "economy.allocations"),
        ("run", with_economy(gamma_agents=["x"]), "economy.gamma_agents"),
        ("run", with_economy(prices=[[1.0, 2.0]]), "economy.prices"),
        # catalog parameters are checked, not coerced
        ("run", with_params("cost", "weighted_quadratic", a0="abc"), "cost.params.a0"),
        ("run", with_params("cost", "weighted_quadratic", a0=None), "cost.params.a0"),
        ("run", with_params("cost", "weighted_quadratic", a0=[1, 2]), "cost.params.a0"),
        ("run", with_params("cost", "weighted_quadratic", a1=float("nan")), "cost.params.a1"),
        ("run", with_params("cost", "quadratic", a=True), "cost.params.a"),
        ("run", with_params("cost", "quadratic", b=1.0), "cost.params.b"),
        ("run", with_params("cost", "quadratic", domain=[[1]]), "cost.params.domain"),
        ("run", with_params("cost", "quadratic", domain="x"), "cost.params.domain"),
        ("run", with_params("cost", "quadratic", domain=[[1, -1]]), "cost.params.domain"),
        ("run", with_params("terminal", "indicator_origin", x0="abc"), "terminal.params.x0"),
        ("run", with_params("terminal", "indicator_origin", x0=[[0.0]]), "terminal.params.x0"),
        ("run", with_params("terminal", "indicator_origin", tol="q"), "terminal.params.tol"),
        ("run", with_params("terminal", "quadratic_state", x0=[float("inf")]),
         "terminal.params.x0"),
        ("run", dict(with_params("rate", "constant", r="0.6"), kind="discounted"), "rate.params.r"),
        ("moderate", {"moderation": {"omega_grid": [0.0], "upsilon_grid": [[1.0]]}},
         "moderation.omega_grid"),
        # a box is a list of [lo, hi] pairs, never a flat list
        ("run", with_params("cost", "quadratic", domain=[-1, 1, -2, 2]), "cost.params.domain"),
        ("conjugate", with_conjugate(velocity_box=[-5, 5]), "conjugate.velocity_box"),
        # a cost domain has one [lo, hi] pair per velocity coordinate; numpy would broadcast it
        ("run", dict(with_params("cost", "quadratic", domain=[[-1, 1], [-0.1, 0.1]]), kind="generalized"),
         "cost.params.domain"),
        ("run", dict(with_params("cost", "quadratic", domain=[[-1, 1], [-0.1, 0.1]]), kind="discounted",
                     rate={"name": "zero"}), "cost.params.domain"),
        ("moderate", dict(with_params("cost", "quadratic", domain=[[-1, 1], [-0.1, 0.1]]),
                          moderation={"omega_grid": [1.0], "upsilon_grid": [[0.5]]}), "cost.params.domain"),
        ("conjugate", dict(with_params("cost", "quadratic", domain=[[-1, 1]]),
                           **with_conjugate(velocity_box=[[-5, 5], [-5, 5]], dual_grid=[[0, 0]])),
         "cost.params.domain"),
        # every config object lists its keys; a key it does not list is an unknown field
        ("run", {"wtpp": {}}, "wtpp"),
        ("run", {"terminal": {"name": "indicator_origin", "parms": {}}}, "terminal.parms"),
        ("run", {"cost": {"name": "quadratic", "param": {"a": 1.0}}}, "cost.param"),
        ("run", {"kind": "discounted", "rate": {"name": "zero", "r": 0.5}}, "rate.r"),
        ("run", {"outer": dict(BASE["outer"], n_upislon=5)}, "outer.n_upislon"),
        ("run", {"outer": dict(BASE["outer"], max_round=3)}, "outer.max_round"),
        ("run", {"solver": {"n_step": 8}}, "solver.n_step"),
        ("run", dict(TABLE, outputs={"table": {}}), "outputs.table"),
        ("run", with_table({"omega_grid": [1.0], "upsilon_grid": [1.0], "omega": [1.0]}),
         "outputs.moderation_table.omega"),
        ("run", dict(WTP, wtp=dict(WTP["wtp"], n_states=21)), "wtp.n_states"),
        ("verify", dict(VERIFY, verify=dict(VERIFY["verify"], level=[])), "verify.level"),
        ("verify", with_level(dt=0.1), "verify.levels.1.dt"),
        ("run", with_economy(gamma_prices=1.0), "economy.gamma_prices"),
        ("run", with_economy(scalar_cost="abs", scalar_params={"a": 1.0}), "economy.scalar_params.a"),
        ("conjugate", with_conjugate(n_velocities=11), "conjugate.n_velocities"),
        ("moderate", {"moderation": {"omega_grid": [1.0], "upsilon_grid": [[1.0]], "x": [1.0]}},
         "moderation.x"),
    ])
    def test_exit_2_names_field(self, tmp_path, capsys, command, overrides, field):
        cfg = write_cfg(tmp_path, overrides)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}:")
        assert "Traceback" not in err
        assert not (out / "result.json").exists()

    def test_valid_table_and_defaults(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, with_table({"omega_grid": [1.0], "upsilon_grid": [1.0, 2.0]}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "moderation_table.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 2
        conj = {"conjugate": {"dual_grid": [0.0], "velocity_box": [[-1, 1]]}}
        cfg = write_cfg(tmp_path, conj, name="conj.json")
        assert main(["conjugate", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0


class TestSweep:
    def test_closed_form_column(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--axis", "x.0", "--values", "0.5,1,2"]) == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        got = [float(r["value"]) for r in rows]
        assert got == pytest.approx([0.125, 0.5, 2.0], abs=1e-6)

    def test_failed_row_recorded(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--axis", "x.0", "--values", "1,9"]) == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["exit_code"] == "0"
        assert rows[1]["exit_code"] == "3"
        assert rows[1]["value"] == "inf"

    def test_empty_values(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--axis", "x.0", "--values", ""]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1  # header only

    def test_verify_kind_exit_2_before_any_row(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"kind": "verify", "verify": {"levels": [
            {"n_t": 5, "state_box": [[-2, 2]], "state_step": 0.02, "velocity_box": [[-2, 2]],
             "velocity_step": 0.1}] * 2}})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--axis", "x.0", "--values", "0.5,1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: kind:") and "Traceback" not in err
        assert not (out / "row_000").exists() and not (out / "sweep.csv").exists()

    def test_row_config_errors_are_reported(self, tmp_path, capsys):
        # an unknown key fails every row: each row names itself, the sweep exits 2
        cfg = write_cfg(tmp_path, {"outer": dict(BASE["outer"], max_round=3)})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--axis", "x.0", "--values", "0.5,1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[0] for line in err] == ["row 0 (x.0=0.5)", "row 1 (x.0=1.0)"]
        assert all("config error: outer.max_round: unknown field" in line for line in err)
        assert (out / "sweep.csv").read_text().splitlines()[1:] == ["0.5,inf,,2", "1.0,inf,,2"]
        # a row whose swept value is illegal is reported; the other rows ran, so the sweep exits 0
        cfg = write_cfg(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--axis", "outer.n_upsilon", "--values", "17,0"]) == 0
        err = capsys.readouterr().err
        assert err.startswith("row 1 (outer.n_upsilon=0.0): config error: outer.n_upsilon:")

    def test_bad_axis_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--axis", "nope.path", "--values", "1"]) == 2

    @pytest.mark.parametrize("axis, values, field", [
        ("x.5", "1", "--axis"),       # index past the end of x
        ("x.a", "1", "--axis"),       # non-numeric list index
        ("x.-1", "1", "--axis"),      # no negative indices: x.-1 is not the last element
        ("x.0", "1,abc", "--values"),
    ])
    def test_malformed_sweep_exit_2(self, tmp_path, capsys, axis, values, field):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--axis", axis, "--values", values]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}") and "Traceback" not in err
        assert not (out / "sweep.csv").exists()


class TestConjugateAndModerate:
    def test_conjugate_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, {"conjugate": {
            "t": 0.0, "x": [0.0], "dual_grid": [-2, 0, 2],
            "velocity_box": [[-5, 5]], "n_velocity": 2001}})
        out = tmp_path / "out"
        assert main(["conjugate", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "conjugate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["conjugate"]) for r in rows] == pytest.approx(
            [2.0, 0.0, 2.0], abs=0.01)

    def test_moderate_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, {"moderation": {
            "omega_grid": [1.0], "upsilon_grid": [[1.0], [2.0]]},
            "solver": {"n_steps": 16, "multi_starts": 1}})
        out = tmp_path / "out"
        assert main(["moderate", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "moderation_table.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["lambda"]) == pytest.approx(0.5, abs=1e-6)
        assert float(rows[1]["lambda"]) == pytest.approx(2.0, abs=1e-6)


class TestDeterminism:
    def test_identical_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "kind": "generalized",
            "cost": {"name": "weighted_quadratic"},
            "solver": {"n_steps": 16, "multi_starts": 2},
        })
        digests = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            blob = (out / "result.json").read_bytes() + \
                (out / "trajectory.csv").read_bytes()
            digests.append(hashlib.sha256(blob).hexdigest())
        assert digests[0] == digests[1]

    def test_seed_override_changes_nothing_deterministic(self, tmp_path, capsys):
        # the flag is accepted and threads through without breaking the run
        cfg = write_cfg(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--seed", "7"]) == 0

    def test_seed_flag_sets_the_solver_seed(self, tmp_path):
        assert cli._solver_cfg({"seed": 7, "solver": {"n_steps": 4}}).seed == 7
        # the velocity rate keeps the windows on the seeded multi-start descent
        discounted = {"kind": "discounted", "cost": {"name": "weighted_quadratic"},
                      "rate": {"name": "velocity"}, "solver": {"n_steps": 8, "multi_starts": 2}}
        blobs = {}
        for tag, seed, flag in (("flag", 0, ["--seed", "7"]), ("config", 7, []), ("zero", 0, [])):
            cfg = write_cfg(tmp_path, dict(discounted, seed=seed), name=f"{tag}.json")
            out = tmp_path / tag
            assert main(["run", "--config", str(cfg), "--out", str(out)] + flag) == 0
            blobs[tag] = (out / "trajectory.csv").read_bytes()
        assert blobs["flag"] == blobs["config"] != blobs["zero"]


PLANE = {"x": [1.0, 0.5], "terminal": {"name": "indicator_origin", "params": {"x0": [0.0, 0.0]}},
         "outer": {"omega_max": 1.0, "n_omega": 4, "upsilon_box": [[-2, 2], [-2, 2]], "n_upsilon": 9}}
PINNED_LEVELS = [
    {"n_t": 4, "state_box": [[-2, 2]], "state_step": 0.05, "velocity_box": [[-2, 2]], "velocity_step": 0.2},
    {"n_t": 8, "state_box": [[-2, 2]], "state_step": 0.025, "velocity_box": [[-2, 2]], "velocity_step": 0.2},
]


class TestArtifactBytes:
    """The exact bytes of each CSV artifact: +inf as "inf", a missing value as an empty
    cell, an exit code as an integer, and \\r\\n line ends."""

    @pytest.mark.parametrize("argv, overrides, name, expected", [
        (["run"], dict(PLANE, solver={"n_steps": 2}), "trajectory.csv",
         b"t,x_1,x_2,u_1,u_2\r\n0.0,0.0,0.0,1.0,0.5\r\n0.5,0.5,0.25,1.0,0.5\r\n1.0,1.0,0.5,,\r\n"),
        (["moderate"], {"cost": {"name": "quadratic", "params": {"domain": [[-1, 1]]}},
                        "moderation": {"omega_grid": [0.5, 1.0], "upsilon_grid": [[0.5], [1.5]]},
                        "solver": {"n_steps": 4}}, "moderation_table.csv",
         b"omega,upsilon_1,lambda\r\n0.5,0.5,0.125\r\n0.5,1.5,inf\r\n1.0,0.5,0.125\r\n1.0,1.5,inf\r\n"),
        (["sweep", "--axis", "x.0", "--values", "1,9"], {}, "sweep.csv",
         b"x.0,value,omega_star,exit_code\r\n1.0,0.5,1.0,0\r\n9.0,inf,,3\r\n"),
        (["conjugate"], {"cost": {"name": "quadratic", "params": {"domain": [[-1, 1], [-2, 2]]}},
                         "conjugate": {"x": [0.0, 0.0], "dual_grid": [[-1, 0.5], [2, -3]],
                                       "velocity_box": [[-2, 2], [-2, 2]], "n_velocity": 21}},
         "conjugate.csv", b"p_1,p_2,conjugate\r\n-1.0,0.5,0.62\r\n2.0,-3.0,5.5\r\n"),
        (["verify"], {"kind": "verify", "cost": {"name": "weighted_quadratic"},
                      "solver": {"n_steps": 8, "multi_starts": 0}, "verify": {"levels": PINNED_LEVELS}},
         "error_table.csv",
         b"dt,oracle_value,formula_value,error\r\n"
         b"0.25,0.7275000000000003,0.7218543009001974,0.005645699099802837\r\n"
         b"0.125,0.7240625000000002,0.7218543009001974,0.0022081990998027434\r\n"),
    ])
    def test_bytes(self, tmp_path, capsys, argv, overrides, name, expected):
        cfg = write_cfg(tmp_path, overrides)
        out = tmp_path / "o"
        assert main([argv[0], "--config", str(cfg), "--out", str(out)] + argv[1:]) == 0
        assert (out / name).read_bytes() == expected


class TestRemovedSolverKeys:
    @pytest.mark.parametrize("key", [
        "seed", "armijo", "fd_step", "grad_tol", "step_init", "step_growth", "max_backtracks",
        "quadrature_tol", "solver_tol",
    ])
    def test_exit_2_names_key(self, tmp_path, capsys, key):
        cfg = write_cfg(tmp_path, {"solver": {"n_steps": 8, key: 1}})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: solver.{key}:")
        assert "Traceback" not in err
        assert not (out / "result.json").exists()
        if key == "seed":
            assert "--seed" in err


class TestRemovedOuterKeys:
    """``refine=false`` was the grid pass alone, which is ``max_rounds: 0``; the shrink is fixed."""

    @pytest.mark.parametrize("key", ["refine", "shrink"])
    def test_exit_2_names_key(self, tmp_path, capsys, key):
        cfg = write_cfg(tmp_path, {"outer": dict(BASE["outer"], **{key: 0.5})})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: outer.{key}: unknown field")
        assert "Traceback" not in err
        assert not (out / "result.json").exists()

    def test_zero_rounds_is_the_grid_pass(self, tmp_path):
        outer = dict(BASE["outer"], n_omega=3, n_upsilon=4)
        docs = []
        for rounds in (0, 10):
            cfg = write_cfg(tmp_path, {"x": [0.7], "terminal": {"name": "quadratic_state"},
                                       "outer": dict(outer, max_rounds=rounds)})
            out = tmp_path / f"o{rounds}"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            docs.append(json.loads((out / "result.json").read_text()))
        grid = OuterGrid.build(1.0, 3, [[-2, 2]], 4)
        assert docs[0]["omega_star"] in grid.omega_values.tolist()   # a grid cell
        assert docs[0]["upsilon_star"] in grid.upsilon_lattice.tolist()
        assert docs[1]["value"] < docs[0]["value"]   # the search leaves it



class TestBlocksTheKindNeverReads:
    """A ``rate`` block is read only under ``kind: discounted``, and an ``outputs`` block
    never under ``economy``, ``wtp`` or ``verify``; elsewhere either one used to be
    ignored, malformed or not, and the run exited 0."""

    RATE = {"name": "constant", "params": {"r": 0.5}}

    @pytest.mark.parametrize("overrides", [
        {"kind": "generalized", "rate": {"nme": "constant"}},
        {"kind": "generalized", "rate": RATE},
        {"rate": RATE},
        dict(ECONOMY, rate=RATE),
        dict(WTP, rate=RATE),
        dict(with_level(), rate=RATE),
    ], ids=["generalized-misspelled", "generalized", "classic", "economy", "wtp", "verify"])
    def test_rate_exit_2(self, tmp_path, capsys, overrides):
        cfg = write_cfg(tmp_path, overrides)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: rate:")
        assert "Traceback" not in err
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("overrides", [
        dict(WTP, outputs={"bogus": 1}),
        dict(ECONOMY, outputs={"moderation_table": {"omega_grid": [1.0], "upsilon_grid": [[1.0, 0.0]]}}),
        dict(with_level(), outputs={}),
    ], ids=["wtp", "economy", "verify"])
    def test_outputs_exit_2(self, tmp_path, capsys, overrides):
        cfg = write_cfg(tmp_path, overrides)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: outputs:")
        assert not (out / "result.json").exists()

    def test_discounted_reads_its_rate(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"kind": "discounted", "rate": self.RATE,
                                   "solver": {"n_steps": 8, "multi_starts": 0}})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
