"""Spans recorded from outside the program, and the per-layer metrics derived from them.

The tracer hands the program wrapped copies of its own fields
(``dataclasses.replace`` on the cost, terminal and rate fields and on the
impetus cost spec); each wrapped evaluator records a leaf span.  The benchmark
opens an *op* span around each public call (``generalized``, ``discounted``,
``classic``, ``economy``, ``moderation_table``, ``dp``, ``conjugate``) and a
*query* span around each query.  No private name of the program is touched.

A span is ``(name, start, end, parent, query, rows, info)``: ``parent`` is
the index of the enclosing span (-1 for a query span), ``rows`` the batch size
of a leaf, ``info`` a dict for op spans and ``(t, finite)`` for scalar
terminal calls.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import time
from collections import defaultdict

LEAVES = ("cost", "terminal", "rate")
SOLVE_OPS = ("generalized", "discounted", "economy", "moderation_table")   # ops that run inner solves
CELL_OPS = ("generalized", "discounted", "economy", "classic")
CLI_COMMANDS = ("run", "moderate", "sweep", "verify", "conjugate")

# Every per-layer metric, with its unit, in the order it is printed.
PER_LAYER = {
    "costs.cost_calls": "count",
    "costs.cost_rows": "count",
    "costs.cost_s": "s",
    "costs.cost_rows_per_s": "1/s",
    "costs.terminal_calls": "count",
    "costs.terminal_s": "s",
    "costs.conjugate_points": "count",
    "costs.conjugate_s": "s",
    "moderation.solves": "count",
    "moderation.objective_calls_per_solve": "count",
    "moderation.rows_per_solve": "count",
    "moderation.solve_s": "s",
    "laxhopf_core.cells": "count",
    "laxhopf_core.infeasible_cells": "count",
    "laxhopf_core.cell_overhead_us": "us",
    "discounted.rate_rows": "count",
    "discounted.rate_s": "s",
    "economy.impetus_rows": "count",
    "economy.impetus_rows_per_s": "1/s",
    "economy.value_s": "s",
    "verify.dp_node_updates": "computed-count",
    "verify.dp_s": "s",
    "verify.dp_updates_per_s": "1/s",
    "verify.dp_cost_share": "ratio",
    **{f"cli.command_s.{c}": "s" for c in CLI_COMMANDS},
    "cli.self_s": "s",
    "cli.artifact_bytes": "B",
    "trace.overhead": "ratio",
}


def _as_float(v) -> float:
    return v.to_float() if hasattr(v, "to_float") else float(v)


class Tracer:
    """Hands the program timed copies of its fields and records spans."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.query = -1
        self.impetus_rows = defaultdict(int)   # query -> scalar impetus-cost calls

    # -- spans opened by the benchmark -------------------------------------
    @contextlib.contextmanager
    def span(self, name, **info):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1], self.query, 0, info])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    op = span

    def begin_query(self, qid: int) -> None:
        self.query = qid

    # -- leaf spans recorded by wrapped fields ------------------------------
    def _leaf(self, name, fn, batch: bool, terminal: bool = False):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def timed(*args):
            t0 = clock()
            out = fn(*args)
            t1 = clock()
            if batch:
                spans.append((name, t0, t1, stack[-1], self.query, len(args[-1]), None))
            elif terminal:
                info = (float(args[0]), math.isfinite(_as_float(out)))
                spans.append((name, t0, t1, stack[-1], self.query, 1, info))
            else:
                spans.append((name, t0, t1, stack[-1], self.query, 1, None))
            return out

        return timed

    def _wrap(self, field, name, terminal=False):
        batch = field.batch_evaluator
        return dataclasses.replace(
            field,
            evaluator=self._leaf(name, field.evaluator, batch=False, terminal=terminal),
            batch_evaluator=None if batch is None else self._leaf(name, batch, batch=True),
        )

    def cost(self, field):
        return self._wrap(field, "cost")

    def terminal(self, field):
        return self._wrap(field, "terminal", terminal=True)

    def rate(self, field):
        return self._wrap(field, "rate")

    def spec(self, spec):
        counts, scalar = self.impetus_rows, spec.scalar_cost

        def counted(e):
            counts[self.query] += 1
            return scalar(e)

        return dataclasses.replace(spec, scalar_cost=counted)

    # -- output ---------------------------------------------------------------
    def write(self, path, queries) -> None:
        with open(path, "w") as fh:
            for qid, meta in enumerate(queries):
                fh.write(json.dumps({"query": qid, **meta}) + "\n")
            for s in self.spans:
                name, start, end, parent, query, rows, info = s
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "query": query, "rows": rows,
                    "info": list(info) if isinstance(info, tuple) else info,
                }) + "\n")


def per_layer(tracer: Tracer, queries: list) -> dict:
    """Per-layer metrics from the spans of the traced queries.

    ``queries[qid]`` holds ``kind``, ``T``, ``plain_s`` and ``traced_s`` and,
    for CLI queries, ``command``, ``cli_s``, ``twin_s`` and ``artifact_bytes``.
    Counts and seconds are per query unless the name says otherwise.
    """
    spans = tracer.spans
    child = defaultdict(float)     # span index -> time covered by leaf spans
    for s in spans:
        if s[0] in LEAVES and s[3] >= 0:
            child[s[3]] += s[2] - s[1]

    tot = defaultdict(float)
    econ_ops, econ_s, econ_cost_s = 0, 0.0, 0.0
    for i, s in enumerate(spans):
        name, start, end, parent, query, rows, info = s
        dur = end - start
        if name in LEAVES:
            op = spans[parent][0] if parent >= 0 else None
            tot[f"{name}_calls"] += 1
            tot[f"{name}_rows"] += rows
            tot[f"{name}_s"] += dur
            if name == "cost" and op in SOLVE_OPS:
                tot["solve_cost_calls"] += 1
                tot["solve_cost_rows"] += rows
            if name == "cost" and op == "dp":
                tot["dp_cost_s"] += dur
            if name == "cost" and op == "economy":
                econ_cost_s += dur
            if name == "terminal" and info is not None and op in CELL_OPS:
                t, finite = info
                tot["cells"] += 1
                tot["infeasible_cells"] += not finite
                if op == "classic":
                    tot["classic_cells"] += 1
                elif finite and t < queries[query]["T"] - 1e-12:
                    tot["solves"] += 1      # a finite-terminal cell with Omega > 0
            continue
        self_s = dur - child[i]
        if name in SOLVE_OPS:
            tot["solve_self_s"] += self_s
            tot["solves"] += info.get("cells", 0)
        if name == "classic":
            tot["classic_self_s"] += self_s
        if name == "economy":
            econ_ops += 1
            econ_s += dur
        if name == "dp":
            tot["dp_ops"] += 1
            tot["dp_s"] += dur
            tot["dp_updates"] += info.get("updates", 0)
        if name == "conjugate":
            tot["conjugate_points"] += info.get("points", 0)
            tot["conjugate_s"] += dur

    n = max(len(queries), 1)
    solves = tot["solves"]
    impetus = sum(tracer.impetus_rows.values())

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "costs.cost_calls": tot["cost_calls"] / n,
        "costs.cost_rows": tot["cost_rows"] / n,
        "costs.cost_s": tot["cost_s"] / n,
        "costs.cost_rows_per_s": ratio(tot["cost_rows"], tot["cost_s"]),
        "costs.terminal_calls": tot["terminal_calls"] / n,
        "costs.terminal_s": tot["terminal_s"] / n,
        "costs.conjugate_points": tot["conjugate_points"] / n,
        "costs.conjugate_s": tot["conjugate_s"] / n,
        "moderation.solves": solves / n,
        "moderation.objective_calls_per_solve": ratio(tot["solve_cost_calls"], solves),
        "moderation.rows_per_solve": ratio(tot["solve_cost_rows"], solves),
        "moderation.solve_s": ratio(tot["solve_self_s"], solves),
        "laxhopf_core.cells": tot["cells"] / n,
        "laxhopf_core.infeasible_cells": tot["infeasible_cells"] / n,
        "laxhopf_core.cell_overhead_us": 1e6 * ratio(tot["classic_self_s"], tot["classic_cells"]),
        "discounted.rate_rows": tot["rate_rows"] / n,
        "discounted.rate_s": tot["rate_s"] / n,
        "economy.impetus_rows": impetus / n,
        "economy.impetus_rows_per_s": ratio(impetus, econ_cost_s),
        "economy.value_s": ratio(econ_s, econ_ops),
        "verify.dp_node_updates": tot["dp_updates"] / n,
        "verify.dp_s": tot["dp_s"] / n,
        "verify.dp_updates_per_s": ratio(tot["dp_updates"], tot["dp_s"]),
        "verify.dp_cost_share": ratio(tot["dp_cost_s"], tot["dp_s"]),
    }
    cli = [q for q in queries if "command" in q]
    for c in CLI_COMMANDS:
        times = [q["cli_s"] for q in cli if q["command"] == c]
        out[f"cli.command_s.{c}"] = ratio(sum(times), len(times))
    out["cli.self_s"] = ratio(sum(q["cli_s"] - q["twin_s"] for q in cli), len(cli))
    out["cli.artifact_bytes"] = ratio(sum(q["artifact_bytes"] for q in cli), len(cli))
    out["trace.overhead"] = ratio(sum(q["traced_s"] for q in queries),
                                  sum(q["plain_s"] for q in queries)) - 1.0
    return out
