"""Spans recorded around calls into treeq's public functions.

A span is (operation, span id, parent span id, name, start ns, end ns). Spans
stay in memory until the run ends. Counters are kept per operation next to
the spans, so ratios are taken where the work happens.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

#: per-layer timing metric -> names of the spans it sums, per operation
LAYER_TIMES = {
    "lang.parse_ms": ("lang.parse",),
    "lang.validate_ms": ("lang.validate",),
    "bindings.bgp_ms": ("bindings.bgp",),
    "engine.seeds_ms": ("engine.seeds",),
    "search.ms": ("search.bft", "search.bft_m", "search.molesp"),
    "search.bft_ms": ("search.bft",),
    "search.bft_m_ms": ("search.bft_m",),
    "search.molesp_ms": ("search.molesp",),
    "bindings.join_ms": ("bindings.join",),
    "bindings.project_ms": ("bindings.project",),
    "trees.classify_ms": ("trees.classify",),
}

#: per-operation counters, reported as their mean over the first operations
COUNTERS = (
    "bindings.bgp_rows",
    "engine.seed_nodes",
    "bindings.join_rows_max",
    "bindings.join_rows_out",
    "search.provenances_built",
    "search.trees_pruned",
    "search.queue_pops",
    "search.results_found",
)


def share_name(metric: str) -> str:
    """``lang.parse_ms`` -> ``lang.parse_share``, ``search.ms`` -> ``search.share``."""
    return metric[:-2] + "share"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: dict[int, dict[str, int]] = {}
        self._next_id = 1
        self._stack = [0]
        self._op = -1

    @contextmanager
    def operation(self, op: int):
        self._op = op
        self.counts[op] = dict.fromkeys(COUNTERS, 0)
        with self.span("op"):
            yield

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((self._op, sid, parent, name, start, end))

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def add(self, counter: str, value: int) -> None:
        self.counts[self._op][counter] += value

    def peak(self, counter: str, value: int) -> None:
        c = self.counts[self._op]
        c[counter] = max(c[counter], value)

    def write(self, path: Path) -> None:
        keys = ("op", "id", "parent", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")

    def op_latencies_ms(self) -> dict[int, float]:
        return {s[0]: (s[5] - s[4]) / 1e6 for s in self.spans if s[3] == "op"}

    def layer_metrics(self, count_ops: int) -> dict[str, float]:
        """Per-layer medians per operation, their shares of traced latency,
        the counters' means over the first ``count_ops`` operations, and
        coverage: the layers' self time over the traced latency."""
        durations: dict[int, int] = {}
        child_ns: dict[int, int] = {}
        for _, sid, parent, _, start, end in self.spans:
            durations[sid] = end - start
            child_ns[parent] = child_ns.get(parent, 0) + end - start
        latency = self.op_latencies_ms()
        ops = sorted(latency)
        per_op: dict[str, dict[int, float]] = {name: dict.fromkeys(ops, 0.0) for name in LAYER_TIMES}
        layer_self_ns = 0
        for op, sid, _, name, _, _ in self.spans:
            if name == "op":
                continue
            layer_self_ns += durations[sid] - child_ns.get(sid, 0)
            for metric, names in LAYER_TIMES.items():
                if name in names:
                    per_op[metric][op] += durations[sid] / 1e6
        total_ms = sum(latency.values())
        out: dict[str, float] = {"trace.latency_ms": statistics.median(latency.values())}
        for metric, values in per_op.items():
            out[metric] = statistics.median(values.values())
            out[share_name(metric)] = sum(values.values()) / total_ms
        first = ops[:count_ops]
        for counter in COUNTERS:
            out[counter] = statistics.fmean(self.counts[op][counter] for op in first)
        built = sum(self.counts[op]["search.provenances_built"] for op in first)
        found = sum(self.counts[op]["search.results_found"] for op in first)
        out["search.results_per_provenance"] = found / built if built else 0.0
        out["trace.coverage_frac"] = layer_self_ns / 1e6 / total_ms
        return out
