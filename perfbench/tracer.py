"""Outside-in tracing of the botimpact layers.

A wrapper goes on every name a caller looks up: a module global, the same
function imported by name into another module, or a class attribute.
``uninstall`` puts every original back.  Counts come only from arguments
and return values, so nothing inside the package changes.

A span's self time is its duration minus the time its wrapped children
covered.  The bookkeeping a wrapper does after its call (counting from a
return value) is charged to nobody, so it does not inflate the parent.
Spans stay in memory until ``write_spans`` is called at the end of a pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

import numpy as np

MARKER = "__perfbench_original__"


class _Frame:
    __slots__ = ("span_id", "start", "child")

    def __init__(self, span_id: int, start: float) -> None:
        self.span_id = span_id
        self.start = start
        self.child = 0.0


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.spans: list[dict] = []
        self._stack = [_Frame(0, time.perf_counter())]
        self._next_id = 1
        self._installed: list[tuple[object, str, object]] = []

    # -- accounting ----------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def _push(self) -> _Frame:
        frame = _Frame(self._next_id, time.perf_counter())
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _pop(self, name: str, frame: _Frame, end: float | None) -> float:
        """Close ``frame``; returns its self time."""
        now = time.perf_counter()
        end = now if end is None else end
        self._stack.pop()
        own = (end - frame.start) - frame.child
        self.self_s[name] += own
        self._stack[-1].child += now - frame.start
        return own

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Span around each call of ``fn``; ``after(tracer, args, result)`` counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._push()
            parent = tracer._stack[-2].span_id
            end = None
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter()
                if after is not None:
                    after(tracer, args, result)
                return result
            finally:
                tracer._pop(name, frame, end)
                tracer.calls[name] += 1
                tracer.spans.append({
                    "id": frame.span_id, "parent": parent, "name": name,
                    "start": frame.start, "end": end if end is not None else time.perf_counter(),
                })

        return wrapper

    def wrap_generator(self, name: str, fn: Callable, items: str) -> Callable:
        """Span over each ``next`` of the generator ``fn`` returns.

        A generator's time is scattered over its consumer's loop, so each call
        is recorded as one span with its busy time and item count.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._iterate(name, fn(*args, **kwargs), items)

        return wrapper

    def _iterate(self, name: str, gen, items: str):
        self.calls[name] += 1
        record = {"id": self._next_id, "parent": self._stack[-1].span_id, "name": name,
                  "start": time.perf_counter(), "busy_s": 0.0, "items": 0}
        self._next_id += 1
        try:
            while True:
                frame = self._push()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    record["busy_s"] += self._pop(name, frame, None)
                record["items"] += 1
                self.counts[items] += 1
                yield item
        finally:
            gen.close()
            record["end"] = time.perf_counter()
            self.spans.append(record)

    def wrap_counter(self, name: str, fn: Callable) -> Callable:
        """Call count only: for functions called too often to time."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` and every other binding of the same object.

        Bindings are searched in the loaded ``botimpact`` modules, so a name
        imported with ``from .x import f`` is wrapped where the caller finds it.
        """
        original = getattr(owner, attr)
        wrapper = make(original)
        setattr(wrapper, MARKER, original)
        sites = [(owner, attr)]
        for module in _package_modules():
            sites += [(module, key) for key, value in vars(module).items()
                      if value is original and (module, key) != (owner, attr)]
        for site, key in sites:
            self._installed.append((site, key, original))
            setattr(site, key, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            site, key, original = self._installed.pop()
            setattr(site, key, original)

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "botimpact" or name.startswith("botimpact."))]


def leftover_wrappers() -> list[str]:
    """Names in the loaded package that still point at a wrapper."""
    from botimpact.graph import DirectedGraph

    found = []
    for module in _package_modules() + [DirectedGraph]:
        for key, value in vars(module).items():
            if hasattr(value, MARKER):
                found.append(f"{getattr(module, '__name__', module)}.{key}")
    return found


# -- what each layer records ---------------------------------------------------------


def _after_load_edge_list(t: Tracer, args, graph) -> None:
    t.count("graph.edges_loaded", graph.edge_count)


def _after_infer(t: Tracer, args, posterior) -> None:
    t.count("botdetect.bp_iterations", posterior.iterations)
    t.count("botdetect.unconverged_days", int(not posterior.converged))
    graph = args[0]
    src, tgt, _ = graph.edge_arrays()
    keys = np.minimum(src, tgt) * graph.node_count + np.maximum(src, tgt)
    t.count("botdetect.factor_pairs", np.unique(keys).size)


def _after_preprocess(t: Tracer, args, result) -> None:
    t.count("opinion.reclassified", len(result[1].reclassified))


def _after_solve(t: Tracer, args, solution) -> None:
    t.count(f"opinion.solves.{solution.method}")
    t.count("opinion.gmres_iterations", solution.iterations)
    t.count("opinion.unknowns", args[0].v1.size)
    t.maximum("opinion.max_residual", solution.residual_norm)


def _after_ghic(t: Tracer, args, result) -> None:
    t.count("ghic.reverted", result.reverted)


def _after_series(t: Tracer, args, series) -> None:
    t.count("ghic.days_computed", len(series.entries))
    t.count("ghic.skipped_days", len(series.skipped_days))


def install_layers(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the per-layer metrics name."""
    # import_module, because the package rebinds the name ``ghic`` to the function
    accounts, botdetect, ghic, graph, ingest, opinion, pipeline, report = (
        importlib.import_module(f"botimpact.{name}")
        for name in ("accounts", "botdetect", "ghic", "graph", "ingest", "opinion",
                     "pipeline", "report")
    )

    def span(name, after=None):
        return lambda fn: tracer.wrap(name, fn, after)

    tracer.install(ingest, "load_tweets",
                   lambda fn: tracer.wrap_generator("ingest.load_tweets", fn,
                                                    "ingest.tweets_yielded"))
    tracer.install(ingest, "load_profiles",
                   lambda fn: tracer.wrap_generator("ingest.load_profiles", fn,
                                                    "ingest.profiles_yielded"))
    for name in ("build_follower_network", "build_daily_retweet_network"):
        tracer.install(ingest, name, span(f"ingest.{name}"))

    tracer.install(graph, "load_edge_list", span("graph.load_edge_list", _after_load_edge_list))
    tracer.install(graph, "save_edge_list", span("graph.save_edge_list"))
    tracer.install(graph.DirectedGraph, "induced_subgraph", span("graph.induced_subgraph"))
    tracer.install(graph.DirectedGraph, "add_interaction",
                   lambda fn: tracer.wrap_counter("graph.add_interaction", fn))

    tracer.install(botdetect, "infer_bot_probabilities",
                   span("botdetect.infer_bot_probabilities", _after_infer))

    tracer.install(opinion, "preprocess_wellposed",
                   span("opinion.preprocess_wellposed", _after_preprocess))
    tracer.install(opinion, "assemble_system", span("opinion.assemble_system"))
    tracer.install(opinion, "solve_equilibrium", span("opinion.solve_equilibrium", _after_solve))
    tracer.install(opinion, "solve_network",
                   lambda fn: tracer.wrap_counter("opinion.solve_network", fn))

    tracer.install(ghic, "ghic", span("ghic.ghic", _after_ghic))
    tracer.install(ghic, "daily_ghic_series", span("ghic.daily_ghic_series", _after_series))

    for name in ("build_account_records", "group_summary", "retweet_leaderboard",
                 "follower_overlap", "co_partisan_fraction"):
        tracer.install(accounts, name, span(f"accounts.{name}"))

    tracer.install(report, "build_report", span("report.build_report"))
    for name in ("stage_build", "stage_detect", "stage_classify", "stage_ghic"):
        tracer.install(pipeline, name, span(f"pipeline.{name}"))
