"""Per-layer spans recorded from outside the program.

The traced benchmark round replaces public functions of each pipeline
layer with thin wrappers that record spans. A target is patched where
its caller looks it up: for a ``from X import f`` binding that is the
attribute of the importing module (``repro.experiments.datasets
.generate_task_requests``), for a method the class attribute. Nothing
under ``src/`` knows it is being traced.

A span is ``{run, id, parent, name, pid, start_s, end_s, attrs}``.
Times come from ``time.perf_counter`` (CLOCK_MONOTONIC, one clock for
every process on the host), so spans of forked workers line up with
their parent's. Spans stay in memory and are written as JSON lines when
the process ends; a forked supervisor worker leaves through
``os._exit``, so the wrapped ``run_one`` writes that worker's spans as
it returns. Workers started with ``spawn`` re-import the program
without these wrappers and are not traced; their time shows as the
parent's ``core.mapreduce.fold`` span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from pathlib import Path

__all__ = ["Tracer", "install", "layer_metrics", "self_times"]

#: The root span ``drive.py`` opens around the entry point.
ROOT = "run"


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._count = 0
        # (owner, key, original, owner had its own binding)
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- spans ----------------------------------------------------------------

    def start(self, name: str, **attrs: object) -> dict:
        self._count += 1
        span = {
            "run": self.run,
            "id": f"{os.getpid()}-{self._count}",
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "pid": os.getpid(),
            "start_s": time.perf_counter(),
            "end_s": None,
            "attrs": attrs,
        }
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end_s"] = time.perf_counter()
        if span["id"] in self._stack:
            del self._stack[self._stack.index(span["id"]):]
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs: object):
        span = self.start(name, **attrs)
        try:
            yield span["attrs"]
        except BaseException as exc:
            span["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            self.end(span)

    def dump(self, directory: str | Path) -> None:
        """Append this process's finished spans to ``spans-<pid>.jsonl``."""
        pid = os.getpid()
        mine = [s for s in self.spans if s["pid"] == pid]
        self.spans = []
        if mine:
            path = Path(directory) / f"spans-{pid}.jsonl"
            with open(path, "a") as fh:
                fh.write("".join(json.dumps(s) + "\n" for s in mine))

    # -- patching -------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        key: str,
        name: str,
        *,
        tags: dict | None = None,
        attrs: Callable[..., dict] | None = None,
        iterate: bool = False,
        after: Callable[[], None] | None = None,
    ) -> bool:
        """Replace ``owner.key`` (or ``owner[key]``) with a span wrapper.

        ``tags`` are attributes every span starts with;
        ``attrs(result, args, kwargs)`` adds attributes once the call has
        returned, outside the span's interval. With ``iterate`` the
        target returns an iterator and every ``next()`` on it is one
        span. ``after`` runs once the span is closed. Returns False, and
        patches nothing, when the target does not exist.
        """
        if isinstance(owner, dict):
            if key not in owner:
                return False
            raw, own = owner[key], True
        else:
            try:
                raw = inspect.getattr_static(owner, key)
            except AttributeError:
                return False
            own = key in vars(owner)
        spec = (name, dict(tags or {}), attrs, iterate, after)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrapper(raw.__func__, *spec))
        elif callable(raw):
            wrapped = self._wrapper(raw, *spec)
        else:
            return False
        self._patches.append((owner, key, raw, own))
        if isinstance(owner, dict):
            owner[key] = wrapped
        else:
            setattr(owner, key, wrapped)
        return True

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, key, raw, own = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = raw
            elif own:
                setattr(owner, key, raw)
            else:
                delattr(owner, key)

    def _wrapper(self, fn, name, tags, attrs, iterate, after):
        tracer = self
        if iterate:

            @functools.wraps(fn)
            def iterating(*args, **kwargs):
                return tracer._spans_per_item(fn(*args, **kwargs), name, attrs)

            return iterating

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.start(name, **tags)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["attrs"]["error"] = type(exc).__name__
                tracer.end(span)
                if after is not None:
                    after()
                raise
            tracer.end(span)
            if attrs is not None:
                span["attrs"].update(attrs(result, args, kwargs))
            if after is not None:
                after()
            return result

        return wrapper

    def _spans_per_item(self, iterable: Iterable, name: str, attrs):
        iterator = iter(iterable)
        while True:
            span = self.start(name)
            try:
                item = next(iterator)
            except StopIteration:
                self.end(span)
                return
            except BaseException as exc:
                span["attrs"]["error"] = type(exc).__name__
                self.end(span)
                raise
            self.end(span)
            if attrs is not None:
                span["attrs"].update(attrs(item, (), {}))
            yield item


# -- what is traced -----------------------------------------------------------


def _rows(result, args, kwargs) -> dict:
    if isinstance(result, dict):
        return {"rows": sum(len(table) for table in result.values())}
    return {"rows": len(result)}


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _put_bytes(result, args, kwargs) -> dict:
    cache, key = args[0], args[1]
    entry = getattr(cache, "_entry_dir", None)
    if entry is None or not entry(key).is_dir():
        return {}
    return {"bytes": _tree_bytes(entry(key))}


def _hit(result, args, kwargs) -> dict:
    from repro.core.diskcache import MISS

    return {"hit": result is not MISS}


def _scheduled(result, args, kwargs) -> dict:
    return {"scheduled": int(result.counts.get("scheduled", 0))}


def _shards(result, args, kwargs) -> dict:
    return {"shards": result.num_shards, "bytes": _tree_bytes(Path(result.root))}


#: (module, class or "", attribute, span name, options).
TARGETS: tuple[tuple[str, str, str, str, dict], ...] = (
    ("repro.experiments.datasets", "", "generate_google_jobs", "synth.generate", {"attrs": _rows}),
    ("repro.experiments.datasets", "", "generate_all_grids", "synth.generate", {"attrs": _rows}),
    ("repro.experiments.datasets", "", "generate_task_requests", "synth.generate", {"attrs": _rows}),
    ("repro.synth.sharded", "", "iter_task_requests", "synth.generate", {"attrs": _rows, "iterate": True}),
    ("repro.experiments.datasets", "", "grid_jobs_to_job_table", "traces.convert", {}),
    ("repro.sim.cluster", "ClusterSimulator", "run", "sim.run", {"attrs": _scheduled}),
    ("repro.experiments.datasets", "", "all_machine_series", "hostload.series", {}),
    ("repro.core.diskcache", "DiskCache", "put", "core.diskcache.put", {"attrs": _put_bytes}),
    ("repro.core.diskcache", "DiskCache", "put_path", "core.diskcache.put", {"attrs": _put_bytes}),
    ("repro.core.diskcache", "DiskCache", "get", "core.diskcache.get", {"attrs": _hit}),
    ("repro.core.diskcache", "DiskCache", "get_path", "core.diskcache.get_path", {"attrs": _hit}),
    ("repro.core.shard", "ShardWriter", "append", "core.shard.write", {}),
    ("repro.core.shard", "ShardWriter", "close", "core.shard.write", {"attrs": _shards}),
    ("repro.core.shard", "ShardedTable", "open", "core.shard.open", {}),
    ("repro.experiments.datasets", "", "map_reduce", "core.mapreduce.fold", {}),
    ("repro.experiments.datasets", "", "map_shards", "core.mapreduce.fold", {}),
    ("repro.core.mapreduce", "", "map_reduce", "core.mapreduce.fold", {}),
    ("repro.experiments.base", "ExperimentResult", "render", "experiments.render", {}),
    ("repro.experiments.supervisor", "", "warm_datasets", "experiments.supervisor.warm", {}),
    ("repro.experiments.runner", "", "run_supervised", "experiments.supervisor.run", {}),
    ("repro.analysis.engine", "", "summarize_module", "analysis.summarize", {}),
    ("repro.analysis.engine", "", "build_project_graph", "analysis.graph", {}),
    ("repro.analysis.engine", "", "build_project_context", "analysis.project", {}),
    ("repro.analysis.engine", "", "_analyze_file", "analysis.analyze", {}),
    ("repro.analysis.cache", "LintCache", "get", "analysis.cache", {}),
    ("repro.analysis.cache", "LintCache", "put", "analysis.cache", {}),
    ("repro.analysis.checkers.suppressions", "", "suppression_diagnostics", "analysis.rule.REP701", {}),
)


def _owner(module: str, cls: str):
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


def install(tracer: Tracer, flush_dir: str | Path) -> list[str]:
    """Patch every layer target; returns the targets that do not exist."""
    missing = []
    for module, cls, attr, name, options in TARGETS:
        owner = _owner(module, cls)
        if owner is None or not tracer.wrap(owner, attr, name, **options):
            missing.append(".".join(filter(None, (module, cls, attr))))

    registry = _owner("repro.experiments.registry", "")
    experiments = getattr(registry, "EXPERIMENTS", None)
    if isinstance(experiments, dict):
        for exp_id in list(experiments):
            tracer.wrap(experiments, exp_id, "experiments.analysis", tags={"id": exp_id})
    else:
        missing.append("repro.experiments.registry.EXPERIMENTS")

    supervisor = _owner("repro.experiments.supervisor", "")
    main_pid = os.getpid()

    def flush_worker() -> None:
        if os.getpid() != main_pid:
            tracer.dump(flush_dir)

    if supervisor is None or not tracer.wrap(
        supervisor, "run_one", "experiments.supervisor.attempt", after=flush_worker
    ):
        missing.append("repro.experiments.supervisor.run_one")

    lint_registry = _owner("repro.analysis.registry", "")
    all_checkers = getattr(lint_registry, "all_checkers", None)
    if all_checkers is None:
        missing.append("repro.analysis.registry.all_checkers")
    else:
        for checker in all_checkers():
            if getattr(checker, "runs_after_all", False):
                continue  # REP701 runs through suppression_diagnostics
            rule = f"analysis.rule.{checker.rule.id}"
            if not tracer.wrap(type(checker), "check", rule, iterate=True):
                missing.append(f"{type(checker).__qualname__}.check")
    return missing


# -- from spans to per-layer metrics -----------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part covered by its children.

    Only children in the span's own process count: a forked worker runs
    beside its parent, so the parent's span is waiting, not idle.
    """
    children: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    out = {}
    for span in spans:
        lo, hi = span["start_s"], span["end_s"]
        inner = [
            (max(c["start_s"], lo), min(c["end_s"], hi))
            for c in children[span["id"]]
            if c["pid"] == span["pid"] and c["end_s"] > lo and c["start_s"] < hi
        ]
        out[span["id"]] = (hi - lo) - _covered(inner)
    return out


def layer_metrics(spans: list[dict], main_pid: int) -> dict[str, float]:
    """Per-layer values of one traced run, keyed by metric name.

    Every ``<span name>_s`` is the summed self time of the spans of that
    name, over every traced process. The root span's self time is the
    work no layer span covers (``trace.unattributed_s``).
    """
    selves = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    metrics: dict[str, float] = defaultdict(float)
    for span in spans:
        name = span["name"]
        if name == ROOT:
            if span["pid"] == main_pid:
                metrics["trace.unattributed_s"] += selves[span["id"]]
                metrics["trace.work_s"] += span["end_s"] - span["start_s"]
            continue
        metrics[f"{name}_s"] += selves[span["id"]]
        attrs = span["attrs"]
        parent = by_id.get(span["parent"])
        if (
            name == "experiments.analysis"
            and parent is not None
            and parent["name"] == name
            and parent["attrs"].get("id") == "scorecard"
        ):
            metrics["experiments.scorecard_rerun_s"] += span["end_s"] - span["start_s"]
        if name == "synth.generate":
            metrics["synth.rows"] += attrs.get("rows", 0)
        elif name == "sim.run":
            metrics["sim.tasks_scheduled"] += attrs.get("scheduled", 0)
        elif name == "core.diskcache.put":
            metrics["core.diskcache.put_bytes"] += attrs.get("bytes", 0)
        elif name in ("core.diskcache.get", "core.diskcache.get_path"):
            metrics["core.diskcache.lookups"] += 1
            metrics["core.diskcache.hits"] += bool(attrs.get("hit"))
        elif name == "core.shard.write":
            metrics["core.shard.bytes"] += attrs.get("bytes", 0)
            metrics["core.shard.shards"] += attrs.get("shards", 0)
        elif name == "core.mapreduce.fold":
            metrics["core.mapreduce.calls"] += 1
        elif name == "analysis.analyze":
            metrics["analysis.files"] += 1
    lookups = metrics["core.diskcache.lookups"]
    hits = metrics.pop("core.diskcache.hits", 0.0)
    metrics["core.diskcache.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["trace.spans"] = len(spans)
    return dict(metrics)
