"""laxhopf benchmark: one workload, one process, one closed-loop caller.

Usage (from the repository root):

    python3 bench/run.py --workload value_queries --seed 1 --seconds 20 --trace 0

The run imports ``laxhopf`` from ``src/`` of the checkout and sets up a fixed,
seeded pool of query rounds.  One set-up is the import, timed in a fresh
interpreter, plus building the pool; it is repeated SETUP_REPEATS times back
to back before the queries and reported as a median.  The run warms up on
one query of each kind, then runs whole rounds until ``--seconds`` of query
time have passed and at least ``MIN_QUERIES`` queries have been timed.  Each query's output is checked against a closed
form or a required property; check time is excluded from every timing.

The host's speed drifts by up to 2x over minutes, far past the bounds, so
every reported time is taken at a fixed reference speed: after each query
the run times one fixed reference burst (``bench/reference.py``, independent
of ``laxhopf``), and each query and set-up time is scaled by ``REF_S`` over
the mean burst time around it.  A time is thus the seconds the same work
takes on a host where the burst takes ``REF_S``; the raw figures go to
standard error.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each query
plain and then traced, writes the spans to ``bench/out/`` and prints the
per-layer metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread: set before numpy is imported anywhere in this process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from reference import REF_S, burst as reference_burst, local_speeds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = BENCH / "out"

SETUP_REPEATS = 15    # back-to-back set-ups before an untraced run's queries; median reported
# Distinct rounds built in set-up; a run cycles through them.  cli_batch keeps
# its pool small because each of its queries writes a config file in set-up,
# and that part of set-up drifted most on a shared disk.
POOL_ROUNDS = {"value_queries": 8, "oracle_sweeps": 16, "cli_batch": 3}
MIN_QUERIES = 40      # so that TAIL_PERCENTILE has at least ten queries beyond it
TAIL_PERCENTILE = 75

END_TO_END_UNITS = {
    "queries_per_s": "1/s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# Timed in a fresh interpreter that has numpy loaded, so every repeat pays for
# every module laxhopf pulls in, as a user's first import does.  The probe
# scales the import by reference bursts taken in its own process, just
# before and after it (one untimed burst first: the first one runs cold).
IMPORT_PROBE = ("import sys, time, numpy; sys.path[:0] = sys.argv[1:3]; import reference; "
                "reference.burst(); b0 = reference.burst(); "
                "t0 = time.perf_counter(); import laxhopf; t = time.perf_counter() - t0; "
                "print(t * reference.REF_S * 2 / (b0 + reference.burst()))")


def import_seconds() -> float:
    """Time of ``import laxhopf`` in a fresh interpreter, at the reference speed."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_checked(q, result, state) -> float:
    """Check one query's outputs; a violation makes the run incorrect.

    Returns the share of its tolerance the query used (nan when it failed).
    """
    import workloads as wl
    try:
        return q.check(q.observe(result)) or 0.0
    except (wl.CheckError, OSError, KeyError, ValueError) as exc:
        state["correct"] = False
        log(f"CHECK FAILED [{q.kind}]: {exc}")
        return float("nan")
    finally:
        wl.clear_artifacts(q)


def call_plain(q, state):
    """Time one plain call; returns (result, seconds) or (None, None) when it raised."""
    import workloads as wl
    state["attempted"] += 1
    t0 = time.perf_counter()
    try:
        result = q.call(wl.PLAIN)
    except Exception:  # a failing query is counted and reported, the run goes on
        state["failed"] += 1
        log(f"QUERY FAILED [{q.kind}]:\n{traceback.format_exc()}")
        wl.clear_artifacts(q)
        return None, None
    return result, time.perf_counter() - t0


def timed_phase(rounds, seconds, state):
    """Whole rounds until ``seconds`` of query time are spent and MIN_QUERIES were attempted.

    Check time and the reference bursts are left out of the phase's clock.
    Returns the query times at the reference speed; None when every query
    failed.
    """
    durations, kinds, margins, bursts = [], [], [], []
    excluded = 0.0
    start = time.perf_counter()

    def elapsed():
        return time.perf_counter() - start - excluded

    r = 0
    while True:
        for q in rounds[r % len(rounds)]:
            result, dt = call_plain(q, state)
            t1 = time.perf_counter()
            if dt is not None:
                durations.append(dt)
                kinds.append(q.kind)
                margins.append(run_checked(q, result, state))
                bursts.append(reference_burst())
            excluded += time.perf_counter() - t1
        r += 1
        if elapsed() >= seconds and state["attempted"] >= MIN_QUERIES:
            break
    if not durations:
        return None
    speeds = local_speeds(bursts)
    scaled = [d * REF_S / v for d, v in zip(durations, speeds)]
    for kind in dict.fromkeys(kinds):
        mine = [d for d, k in zip(scaled, kinds) if k == kind]
        used = max(m for m, k in zip(margins, kinds) if k == kind)
        log(f"  {kind:16s} n={len(mine):4d} min={min(mine):.4f} "
            f"median={statistics.median(mine):.4f} max={max(mine):.4f} s at reference speed; "
            f"worst check used {used:.3g} of its tolerance")
    q1, med, q3 = statistics.quantiles(bursts, n=4) if len(bursts) > 1 else bursts * 3
    log(f"{len(durations)} queries in {r} rounds; raw: query time {sum(durations):.3f} s, "
        f"median query {statistics.median(durations):.4f} s; reference burst median {med * 1e3:.3f} ms "
        f"(quartiles {q1 * 1e3:.3f}, {q3 * 1e3:.3f})")
    return scaled


def set_up(lh, workload: str, seed: int, scratch: Path):
    """One set-up: ``import laxhopf`` in a fresh interpreter plus building the pool.

    Returns the rounds and the seconds both took at the reference speed; the
    build is scaled by one burst just before and one just after it.
    """
    import workloads as wl
    shutil.rmtree(scratch, ignore_errors=True)
    imported_s = import_seconds()
    before = reference_burst()
    t0 = time.perf_counter()
    scratch.mkdir(parents=True)
    rounds = wl.build_rounds(lh, workload, seed, POOL_ROUNDS[workload], scratch)
    built_s = time.perf_counter() - t0
    return rounds, imported_s + built_s * REF_S * 2 / (before + reference_burst())


def traced_phase(rounds, seconds, state, trace_path):
    """Each query plain, then traced; whole rounds until the budget is spent."""
    import tracing
    import workloads as wl
    tracer = tracing.Tracer()
    metas = []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        for q in rounds[r % len(rounds)]:
            result, dt = call_plain(q, state)
            if dt is None:
                continue
            meta = {"kind": q.kind, "T": q.T}
            if q.twin is None:
                run_checked(q, result, state)
                meta["plain_s"] = dt
                body = lambda q=q: _traced_op(tracer, q)
            else:
                meta.update(command=_command(q), cli_s=dt, artifact_bytes=wl.artifact_bytes(q.out_dir))
                run_checked(q, result, state)
                t0 = time.perf_counter()
                q.twin(wl.PLAIN)
                meta["twin_s"] = meta["plain_s"] = time.perf_counter() - t0
                body = lambda q=q: q.twin(tracer)
            tracer.begin_query(len(metas))
            t0 = time.perf_counter()
            with tracer.span("query", kind=q.kind):
                body()
            meta["traced_s"] = time.perf_counter() - t0
            metas.append(meta)
        r += 1
    tracer.write(trace_path, metas)
    return tracing.per_layer(tracer, metas), tracing.PER_LAYER, len(tracer.spans)


def _traced_op(tracer, q):
    with tracer.op(q.op, **q.info):
        return q.call(tracer)


def _command(q) -> str:
    return {"run_frozen": "run", "run_moving": "run"}.get(q.kind, q.kind)


def main(argv=None) -> int:
    import workloads as wl
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "laxhopf" / "__init__.py").is_file():
        log(f"laxhopf sources not found under {SRC}; run from a checkout of the repository")
        return 2
    sys.path.insert(0, str(SRC))

    scratch = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    repeat_dir = scratch.with_name(scratch.name + "-setup")
    state = {"correct": True, "attempted": 0, "failed": 0}
    try:
        import laxhopf as lh
        reference_burst()   # untimed: the first burst in a process runs cold
        rounds, first_setup_s = set_up(lh, args.workload, args.seed, scratch)
        setups = [first_setup_s]
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(set_up(lh, args.workload, args.seed, repeat_dir)[1])
                shutil.rmtree(repeat_dir, ignore_errors=True)
            log(f"set-ups at reference speed {[round(t, 4) for t in setups]} s")

        warm = {}
        for q in rounds[0]:
            warm.setdefault(q.kind, q)
        for q in warm.values():
            result, dt = call_plain(q, state)
            if dt is not None:
                run_checked(q, result, state)
        state["attempted"] = state["failed"] = 0   # warm-up is not part of the run

        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
            values, units, n_spans = traced_phase(rounds, args.seconds, state, trace_path)
            log(f"{n_spans} spans written to {trace_path}")
        else:
            durations = timed_phase(rounds, args.seconds, state)
            if durations is None:
                log("every query failed; no timing to report")
                return 1
            values = {
                "queries_per_s": len(durations) / sum(durations),
                "query_p50_s": statistics.median(durations),
                "query_tail_s": float(np.percentile(durations, TAIL_PERCENTILE)),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.rmtree(repeat_dir, ignore_errors=True)

    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for k, m in metrics.items():
        log(f"  {k:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({**state, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
