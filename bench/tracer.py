"""Spans around the package's public functions, recorded from outside.

A span is [name, start, end, parent, request]: times from
time.perf_counter, parent the index of the enclosing span (-1 for
none). Spans and counts stay in memory until the run writes them.
Wrappers replace a function where the calling module binds it, only
inside `installed`, so the benchmark's own checks are never traced.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict
from typing import Callable, Iterator

# Counts taken from a traced call's (args, result).
Counter = Callable[[tuple, object], dict[str, int]]


def _parse_counts(args: tuple, model) -> dict[str, int]:
    # The CLI decodes the file as UTF-8 and the benchmark writes ASCII,
    # so characters are bytes.
    return {"model.parse_bytes": len(args[0]), "model.nodes": len(model.nodes), "model.leaves": len(model.leaves)}


def _phi_counts(args: tuple, phi) -> dict[str, int]:
    return {
        "multi.phi_pairs": sum(len(v) for v in phi.pairs.values()),
        "multi.phi_supports": sum(len(v) for v in phi.supports.values()),
    }


# (module, attribute, span name, counter): the module's binding of the
# attribute is the one replaced.
Wraps = list[tuple[str, str, str, Counter | None]]

# Functions the package calls inside a solve or an evaluation.
INTERNAL_WRAPS: Wraps = [
    ("fdplace.single", "postorder", "model.postorder", None),
    ("fdplace.multi", "postorder", "model.postorder", None),
    ("fdplace.metrics", "postorder", "model.postorder", None),
    ("fdplace.model", "postorder", "model.postorder", None),
    ("fdplace.multi", "subtree_stats", "model.subtree_stats", None),
    ("fdplace.single", "label_children", "single.label_children", None),
    ("fdplace.single", "select_heavy", "single.select_heavy", None),
    ("fdplace.multi", "build_phi", "multi.build_phi", _phi_counts),
    ("fdplace.metrics", "failure_aggregate", "metrics.failure_aggregate", None),
]

# A CLI request run in-process through fdplace.cli.main.
REQUEST_WRAPS: Wraps = [
    ("fdplace.cli", "parse_model", "model.parse", _parse_counts),
    ("fdplace.cli", "solve_fast", "single.solve_fast", None),
    ("fdplace.cli", "solve_multi", "multi.solve", None),
    ("fdplace.cli", "failure_aggregate", "metrics.failure_aggregate", None),
    ("fdplace.cli", "multi_aggregate", "metrics.multi_aggregate", None),
    ("fdplace.cli", "parse_placement", "metrics.parse_placement", None),
    ("fdplace.cli", "parse_multi_placement", "metrics.parse_placement", None),
] + INTERNAL_WRAPS

# The library path of workloads.query, traced only to price the tracer.
QUERY_WRAPS: Wraps = [
    ("workloads", "solve_fast", "single.solve_fast", None),
    ("workloads", "solve_multi", "multi.solve", None),
] + INTERNAL_WRAPS

# Model generation and rendering during set-up.
SETUP_WRAPS: Wraps = [
    ("workloads", "random_model", "generate.random_model", None),
    ("workloads", "render_model", "generate.render_model", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: list[tuple[int, str, int]] = []
        self.request = -1
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, self.request]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn: Callable, name: str, counter: Counter | None) -> Callable:
        spans = self.spans
        opened = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, opened[-1] if opened else -1, self.request]
            spans.append(record)
            opened.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                opened.pop()
            # Counts are taken after the span has closed, so their small
            # cost falls in the parent's self time.
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts.append((self.request, key, value))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, wraps: Wraps) -> Iterator[None]:
        saved = []
        try:
            for module_name, attr, name, counter in wraps:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, counter))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def violations(self) -> int:
        """Spans that start before or end after their parent."""
        bad = 0
        for _name, start, end, parent, _req in self.spans:
            if parent >= 0:
                p = self.spans[parent]
                if start < p[1] or end > p[2]:
                    bad += 1
        return bad

    def totals(self, requests: set[int]) -> dict[str, float]:
        """Per span name over the given requests: '<name>_s' total time,
        '<name>_self_s' time not covered by child spans, '<name>_calls'
        span count; plus every count recorded."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, req in self.spans:
            if parent >= 0 and req in requests:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, req) in enumerate(self.spans):
            if req not in requests:
                continue
            out[name + "_s"] += end - start
            out[name + "_self_s"] += end - start - child_time[index]
            out[name + "_calls"] += 1
        for req, key, value in self.counts:
            if req in requests:
                out[key] += value
        return out
