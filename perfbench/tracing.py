"""Spans recorded around hurstlab's public functions, from outside the package.

Each layer is wrapped at the name its caller looks up (``run_grid`` finds
``run_cell`` in ``hurstlab.montecarlo``, ``loglog_fit`` finds ``ols_fit`` in
``hurstlab.base``, and so on), so the wrapped call sits exactly on the
boundary between two modules. The originals are restored when the traced
phase ends. Spans stay in memory until :meth:`Tracer.write` is called.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (holder path, attribute, span name). The span name is <module>.<function>,
# with <module> the hurstlab module that defines the function.
WRAP_POINTS = (
    ("hurstlab.cli", "main", "cli.main"),
    ("hurstlab.montecarlo", "run_cell", "montecarlo.run_cell"),
    ("hurstlab.montecarlo", "derive_stream", "sampling.derive_stream"),
    ("hurstlab.montecarlo", "exponential_sample", "sampling.exponential_sample"),
    ("hurstlab.montecarlo", "estimate_rsal", "rs.estimate_rsal"),
    ("hurstlab.montecarlo", "estimate_dfa", "dfa.estimate_dfa"),
    ("hurstlab.montecarlo", "estimate_vtp", "vtp.estimate_vtp"),
    ("hurstlab.cli", "estimate_rsal", "rs.estimate_rsal"),
    ("hurstlab.cli", "estimate_dfa", "dfa.estimate_dfa"),
    ("hurstlab.cli", "estimate_vtp", "vtp.estimate_vtp"),
    ("hurstlab.rs", "rs_statistic", "rs.rs_statistic"),
    ("hurstlab.dfa", "dfa_statistic", "dfa.dfa_statistic"),
    ("hurstlab.base.WindowPolicy", "windows", "base.windows"),
    ("hurstlab.base", "ols_fit", "regression.ols_fit"),
    ("hurstlab.cli", "read_series_file", "report.read_series_file"),
    ("hurstlab.cli", "estimates_to_json", "report.estimates_to_json"),
    ("hurstlab.cli", "report_to_json", "report.report_to_json"),
    ("hurstlab.cli", "plot_data_files", "report.plot_data_files"),
)

# lru caches read through cache_info(): (holder path, attribute, metric name).
CACHES = (
    ("hurstlab.vtp", "_gather_plan", "vtp.plan_cache.hit_ratio"),
    ("hurstlab.rs", "expected_rs", "rs.expected_rs.hit_ratio"),
)

ROOT_SPAN = "cli.main"
# A new series starts each time a stream is derived; its spans share an id.
SERIES_ROOT_SPAN = "sampling.derive_stream"
MODULES = ("cli", "montecarlo", "sampling", "base", "regression", "rs", "dfa",
           "vtp", "report")


def clear_caches() -> None:
    """Empty every functools cache defined at module level in hurstlab."""
    for name, module in list(sys.modules.items()):
        if name == "hurstlab" or name.startswith("hurstlab."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _resolve(path: str, modules: dict):
    """The object at a dotted path such as ``hurstlab.base.WindowPolicy``."""
    head, _, attr = path.rpartition(".")
    if path in modules:
        return modules[path]
    return getattr(_resolve(head, modules), attr)


class Tracer:
    """Records (span id, parent id, trace id, name, start ns, end ns, error)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list[int]] = []  # [span id, trace id] per open span
        self._next_span = 0
        self._next_trace = 0
        self._seen_errors: list[BaseException] = []
        self.errors: Counter = Counter()
        self._patched: list[tuple] = []
        self._caches: dict = {}  # metric -> cached function
        self._cache_marks: dict = {}  # metric -> (hits, misses) at last look
        self._cache_totals: dict = {}  # metric -> [hits, misses] while traced
        self.missing: list[str] = []

    def _new_trace(self) -> int:
        self._next_trace += 1
        return self._next_trace

    def _wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        series_root = name == SERIES_ROOT_SPAN

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                trace_id = self._new_trace()
            else:
                if series_root:
                    parent[1] = self._new_trace()
                trace_id = parent[1]
            span_id = self._next_span
            self._next_span += 1
            stack.append([span_id, trace_id])
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                if not any(seen is exc for seen in self._seen_errors):
                    self._seen_errors.append(exc)
                    self.errors[error] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent[0] if parent else None, trace_id,
                              name, start, end, error))

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every WRAP_POINTS entry; missing ones are remembered, not fatal."""
        for holder_path, attr, name in WRAP_POINTS:
            try:
                holder = _resolve(holder_path, modules)
                original = getattr(holder, attr)
            except AttributeError:
                self.missing.append(f"{holder_path}.{attr}")
                continue
            self._patched.append((holder, attr, original))
            setattr(holder, attr, self._wrap(name, original))
        for holder_path, attr, metric in CACHES:
            try:
                cached = getattr(_resolve(holder_path, modules), attr)
                cached.cache_info
            except AttributeError:
                self.missing.append(f"{holder_path}.{attr}.cache_info")
                continue
            self._caches[metric] = cached
            self._cache_totals[metric] = [0, 0]
        self._mark_caches()

    def _mark_caches(self) -> None:
        for metric, cached in self._caches.items():
            info = cached.cache_info()
            self._cache_marks[metric] = (info.hits, info.misses)

    def _fold_caches(self) -> None:
        """Add the hits and misses since the last look to the totals."""
        for metric, cached in self._caches.items():
            info = cached.cache_info()
            hits, misses = self._cache_marks[metric]
            self._cache_totals[metric][0] += info.hits - hits
            self._cache_totals[metric][1] += info.misses - misses
        self._mark_caches()

    def clear_caches(self) -> None:
        """:func:`clear_caches`, keeping the hit counts seen so far."""
        self._fold_caches()
        clear_caches()
        self._mark_caches()

    def uninstall(self, modules: dict) -> dict[str, float]:
        """Restore the originals; return each cache's hit ratio while traced."""
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()
        self._fold_caches()
        return {metric: hits / (hits + misses) if hits + misses else 0.0
                for metric, (hits, misses) in self._cache_totals.items()}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ns and self ns (total minus children)."""
        child_ns: defaultdict = defaultdict(int)
        for _, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for span_id, _, _, name, start, end, _ in self.spans:
            row = out[name]
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[span_id]
        return dict(out)

    def write(self, path) -> None:
        """One JSON array per line: id, parent, trace, name, start ns, end ns,
        error class (null when the call returned)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "trace", "name", "start_ns",
                                 "end_ns", "error"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def layer_metrics(tracer: Tracer, cache_ratios: dict[str, float],
                  expected_idle: frozenset[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics from a finished trace, and the layers flagged idle.

    A wrapped layer that recorded no calls, or a wrap point that no longer
    exists, is flagged unless the workload never reaches it
    (``expected_idle``): a refactor that bypasses an entry point then shows
    up instead of reading as free.
    """
    rows = tracer.summary()
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0}
    root_ns = rows.get(ROOT_SPAN, empty)["total_ns"]
    series = rows.get(SERIES_ROOT_SPAN, empty)["calls"] or rows.get(ROOT_SPAN, empty)["calls"]

    def per_call(name: str, scale_ns: float) -> float:
        row = rows.get(name, empty)
        return row["total_ns"] / row["calls"] / scale_ns if row["calls"] else 0.0

    def per_series(name: str) -> float:
        return rows.get(name, empty)["calls"] / series if series else 0.0

    def share(ns: float) -> float:
        return ns / root_ns if root_ns else 0.0

    m = {}
    for name in ("sampling.derive_stream", "sampling.exponential_sample",
                 "base.windows", "regression.ols_fit", "rs.estimate_rsal",
                 "rs.rs_statistic", "dfa.estimate_dfa", "dfa.dfa_statistic",
                 "vtp.estimate_vtp"):
        m[f"{name}.us_per_call"] = (per_call(name, 1e3), "us")
    for name in ("regression.ols_fit", "rs.rs_statistic", "dfa.dfa_statistic"):
        m[f"{name}.calls_per_series"] = (per_series(name), "calls/series")
    for metric, ratio in sorted(cache_ratios.items()):
        m[metric] = (ratio, "ratio")
    for _, _, metric in CACHES:
        m.setdefault(metric, (0.0, "ratio"))
    m["montecarlo.run_cell.self_share"] = (
        share(rows.get("montecarlo.run_cell", empty)["self_ns"]), "frac")
    for name in ("report.read_series_file", "report.estimates_to_json"):
        m[f"{name}.ms_per_call"] = (per_call(name, 1e6), "ms")
    for name in ("report.report_to_json", "report.plot_data_files"):
        m[f"{name}.ms"] = (per_call(name, 1e6), "ms")
    root = rows.get(ROOT_SPAN, empty)
    m["cli.main.self_ms_per_call"] = (
        root["self_ns"] / root["calls"] / 1e6 if root["calls"] else 0.0, "ms")
    for module in MODULES:
        self_ns = sum(r["self_ns"] for n, r in rows.items() if n.split(".")[0] == module)
        m[f"{module}.self_share"] = (share(self_ns), "frac")
    m["errors.count"] = (sum(tracer.errors.values()), "count")

    names = {name for _, _, name in WRAP_POINTS}
    flagged = sorted(n for n in names - expected_idle if not rows.get(n, empty)["calls"])
    flagged += [f"missing:{p}" for p in tracer.missing]
    m["trace.idle_layers"] = (len(flagged), "count")
    return m, flagged
