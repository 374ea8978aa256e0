"""Fast self-test of the benchmark itself.

Run from the repository root:

    python3 bench/selftest.py

For each workload it takes one query of every kind, runs it and checks its
outputs, then shows that the check rejects each output when that output alone
is perturbed.  It then runs the same queries through the traced phase and
checks the per-layer derivation: inner solves are counted where they run and
are zero on oracle_sweeps.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import copy
import shutil
import sys

import run  # sets single-threaded BLAS before numpy is imported

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def perturbed(obs: dict):
    """Each output pushed far off on its own: a scalar, or the last entry of a list."""
    for key, value in obs.items():
        bad = copy.deepcopy(obs)
        if isinstance(value, list):
            bad[key][-1] = 10.0 * abs(value[-1]) + 10.0
        else:
            bad[key] = 10.0 * abs(value) + 10.0
        yield key, bad


def one_of_each_kind(lh, workload, scratch):
    first = {}
    for q in wl.build_rounds(lh, workload, seed=0, n_rounds=1, scratch=scratch)[0]:
        first.setdefault(q.kind, q)
    return list(first.values())


def check_helpers() -> None:
    rng = np.random.default_rng(0)
    draws = wl.strata(rng, 4, 0.5, 1.5)
    assert sorted(int((d - 0.5) * 4) for d in draws) == [0, 1, 2, 3], draws
    # a host that halves its speed mid-run: the local speed follows the step
    speeds = reference.local_speeds([1.0] * 40 + [2.0] * 40)
    assert speeds[:30] == [1.0] * 30 and speeds[-30:] == [2.0] * 30, speeds
    assert all(a <= b for a, b in zip(speeds, speeds[1:])), speeds
    assert 0.0 < reference.burst() < 1.0


def main() -> int:
    check_helpers()
    import laxhopf as lh
    print(f"import laxhopf in a fresh interpreter: {run.import_seconds():.3f} s")
    scratch = run.OUT / "selftest"
    failures = []
    try:
        for workload in wl.WORKLOADS:
            shutil.rmtree(scratch, ignore_errors=True)
            scratch.mkdir(parents=True)
            queries = one_of_each_kind(lh, workload, scratch)
            for q in queries:
                result = q.call(wl.PLAIN)
                obs = q.observe(result)
                try:
                    q.check(obs)
                except wl.CheckError as exc:
                    failures.append(f"{workload}/{q.kind}: correct output rejected: {exc}")
                for key, bad in perturbed(obs):
                    try:
                        q.check(bad)
                        failures.append(f"{workload}/{q.kind}: perturbed {key!r} accepted")
                    except wl.CheckError:
                        pass
                wl.clear_artifacts(q)
                print(f"{workload:14s} {q.kind:16s} outputs {sorted(obs)} checked and perturbed")

            state = {"correct": True, "attempted": 0, "failed": 0}
            layers, _, n_spans = run.traced_phase([queries], 0, state, scratch / "trace.jsonl")
            if not state["correct"] or state["failed"]:
                failures.append(f"{workload}: traced phase {state}")
            solves = layers["moderation.solves"]
            if (solves == 0) != (workload == "oracle_sweeps"):
                failures.append(f"{workload}: moderation.solves = {solves}")
            if n_spans == 0 or layers["costs.cost_calls"] <= 0:
                failures.append(f"{workload}: no cost spans recorded")
            if workload == "cli_batch":
                for c in tracing.CLI_COMMANDS:
                    if layers[f"cli.command_s.{c}"] <= 0:
                        failures.append(f"cli_batch: no time for command {c}")
                if layers["economy.impetus_rows"] <= 0:
                    failures.append("cli_batch: impetus rows not counted")
            print(f"{workload:14s} traced: {n_spans} spans, moderation.solves={solves:.3g}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for f in failures:
        print("FAIL", f)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
