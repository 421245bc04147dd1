"""Span recording around the public calls of each layer.

The traced run installs wrappers from this file around public functions
and methods of ``repro`` (see :func:`install_layer_wrappers`).  Each
wrapper records one span -- name, start, end, parent span and session id --
into an in-memory :class:`SpanRecorder`; nothing is written until
:meth:`SpanRecorder.write` runs at the end of the benchmark.  A span's
*self time* is its duration minus the time its direct child spans cover;
per-layer ``busy_s`` figures are sums of self time, so layers nested inside
one another are not counted twice.

Wrappers record only in the process that installed them: shard-worker
processes forked from a traced server inherit the patched classes, but call
straight through (their counters come from ``worker_stats()`` instead).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Callable, Iterable

import numpy as np

#: span tuple fields, in order (also the JSONL keys).
FIELDS = ("id", "parent", "session", "name", "start", "end", "child_s")


class _Frame:
    """An open span on one thread's stack."""

    __slots__ = ("id", "name", "child_s")

    def __init__(self, span_id: int, name: str) -> None:
        self.id = span_id
        self.name = name
        self.child_s = 0.0


class SpanRecorder:
    """Thread-safe in-memory span store with per-thread parent stacks."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._sessions = itertools.count(1)
        self._local = threading.local()
        #: objects whose counters are read at report time (learners).
        self.learners: dict[int, object] = {}
        self.update_reuse = 0
        self.update_ci_tests = 0

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. a server's start-up)."""
        self.spans = []
        self.learners = {}
        self.update_reuse = 0
        self.update_ci_tests = 0

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.session = 0
        return local

    def new_session(self) -> int:
        """Start a new session id on the calling thread."""
        state = self._state()
        state.session = next(self._sessions)
        return state.session

    def call(self, name: str, fn: Callable, args, kwargs,
             skip_under: frozenset = frozenset()):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        state = self._state()
        stack = state.stack
        parent = stack[-1] if stack else None
        if parent is not None and parent.name in skip_under:
            return fn(*args, **kwargs)
        frame = _Frame(next(self._ids), name)
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += end - start
            self.spans.append((frame.id, parent.id if parent else 0,
                               state.session, name, start, end,
                               frame.child_s))

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Open a benchmark-owned root span (a new session) around a call."""
        self.new_session()
        return self.call(name, fn, args, kwargs)

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(FIELDS, span))) + "\n")

    # ------------------------------------------------------------- summaries
    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, self-time sum and inclusive durations."""
        out: dict[str, dict] = {}
        for _, _, _, name, start, end, child_s in self.spans:
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                        "durations": []})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_s
            row["durations"].append(end - start)
        return out

    def root_share(self, root: str) -> float:
        """Share of the ``root`` spans' wall time covered by named children.

        The children are the spans whose parent is a ``root`` span; the
        rest of a root's time ran in code no wrapper names.
        """
        roots = {s[0]: s[5] - s[4] for s in self.spans if s[3] == root}
        total = sum(roots.values())
        if not total:
            return 0.0
        covered = sum(s[5] - s[4] for s in self.spans if s[1] in roots)
        return covered / total


def _install(recorder: SpanRecorder, owner, attribute: str, name: str,
             skip_under: frozenset = frozenset(),
             opens_session: bool = False,
             after: Callable | None = None) -> Callable:
    """Replace ``owner.attribute`` with a span-recording wrapper.

    Returns an undo callable restoring the original attribute.
    """
    original = owner.__dict__[attribute]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if os.getpid() != recorder.pid:
            return original(*args, **kwargs)
        if opens_session:
            recorder.new_session()
        result = recorder.call(name, original, args, kwargs, skip_under)
        if after is not None:
            after(recorder, args, result)
        return result

    setattr(owner, attribute, wrapper)
    return lambda: setattr(owner, attribute, original)


def _after_update(recorder: SpanRecorder, args, result) -> None:
    """Count trace reuse and CI tests of one ``CausalModelLearner.update``."""
    learner, model = args[0], args[1]
    recorder.learners[id(learner)] = learner
    if result is not model and result.decision_trace is not None \
            and result.decision_trace is model.decision_trace:
        recorder.update_reuse += 1
    recorder.update_ci_tests += int(result.ci_tests_performed)


def _after_learn(recorder: SpanRecorder, args, result) -> None:
    recorder.learners[id(args[0])] = args[0]


def install_layer_wrappers(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap the public calls of every layer; returns an uninstall callable.

    Layer names follow the ``repro`` package names.  Engine query calls
    made from inside ``CausalInferenceEngine.answer`` stay part of the
    ``inference.answer`` span rather than counting as ``inference.batch``.
    """
    from repro.discovery.pipeline import CausalModelLearner
    from repro.inference import engine as engine_module
    from repro.inference.engine import CausalInferenceEngine
    from repro.service import gateway as gateway_module
    from repro.service.batcher import RequestBatcher
    from repro.service.service import QueryService
    from repro.service.sharding import ShardedQueryService
    from repro.stats.independence import MixedCITest
    from repro.systems.base import ConfigurableSystem

    under_answer = frozenset({"inference.answer"})
    plan = [
        (CausalModelLearner, "learn", "discovery.learn",
         {"after": _after_learn}),
        (CausalModelLearner, "update", "discovery.update",
         {"after": _after_update}),
        (MixedCITest, "test", "stats.ci_test", {}),
        (MixedCITest, "test_batch", "stats.ci_test", {}),
        (engine_module, "fit_structural_equations", "scm.fit", {}),
        (CausalInferenceEngine, "refresh", "inference.refresh", {}),
        (CausalInferenceEngine, "answer", "inference.answer", {}),
        *[(CausalInferenceEngine, method, "inference.batch",
           {"skip_under": under_answer})
          for method in ("interventional_expectations_batch",
                         "predict_batch", "causal_effects_batch",
                         "satisfaction_probability", "repair_set")],
        (ConfigurableSystem, "measure", "systems.measure", {}),
        (gateway_module, "decode_envelope", "protocol.decode",
         {"opens_session": True}),
        (gateway_module, "request_from_wire", "protocol.decode", {}),
        (gateway_module, "response_to_wire", "protocol.encode", {}),
        (gateway_module, "encode_envelope", "protocol.encode", {}),
        (QueryService, "submit", "service.submit", {}),
        (ShardedQueryService, "submit", "service.submit", {}),
        (ShardedQueryService, "observe", "sharding.observe", {}),
        (RequestBatcher, "dispatch", "batcher.dispatch",
         {"opens_session": True}),
    ]
    undo = [_install(recorder, owner, attribute, name, **options)
            for owner, attribute, name, options in plan]

    def uninstall() -> None:
        for restore in reversed(undo):
            restore()

    return uninstall


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer figures computed from the recorded spans and counters."""
    rows = recorder.by_name()

    def calls(name: str) -> float:
        return float(rows.get(name, {}).get("calls", 0))

    def busy(name: str) -> float:
        return float(rows.get(name, {}).get("self_s", 0.0))

    def p50_ms(name: str) -> float:
        durations = rows.get(name, {}).get("durations")
        return float(np.median(durations)) * 1000.0 if durations else 0.0

    lookups = hits = 0
    for learner in recorder.learners.values():
        counters = learner.ci_cache.counters
        lookups += counters.total_lookups
        hits += counters.hits + counters.stale_reused
    updates = calls("discovery.update")
    return {
        "discovery.learn.busy_s": busy("discovery.learn"),
        "discovery.update.calls": updates,
        "discovery.update.busy_s": busy("discovery.update"),
        "discovery.update.p50_ms": p50_ms("discovery.update"),
        "discovery.update.ci_tests": float(recorder.update_ci_tests),
        "discovery.update.trace_reuse_ratio":
            recorder.update_reuse / updates if updates else 0.0,
        "stats.ci_test.calls": calls("stats.ci_test"),
        "stats.ci_test.busy_s": busy("stats.ci_test"),
        "stats.ci_cache.lookups": float(lookups),
        "stats.ci_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "scm.fit.calls": calls("scm.fit"),
        "scm.fit.busy_s": busy("scm.fit"),
        "inference.refresh.busy_s": busy("inference.refresh"),
        "inference.answer.busy_s": busy("inference.answer"),
        "inference.batch.calls": calls("inference.batch"),
        "inference.batch.busy_s": busy("inference.batch"),
        "systems.measure.calls": calls("systems.measure"),
        "systems.measure.busy_s": busy("systems.measure"),
        "protocol.decode.busy_s": busy("protocol.decode"),
        "protocol.encode.busy_s": busy("protocol.encode"),
        "service.submit.p50_ms": p50_ms("service.submit"),
        "batcher.dispatch.calls": calls("batcher.dispatch"),
        "batcher.dispatch.busy_s": busy("batcher.dispatch"),
        "sharding.observe.busy_s": busy("sharding.observe"),
        "trace.spans": float(len(recorder.spans)),
    }


def top_level_seconds(recorder: SpanRecorder,
                      names: Iterable[str]) -> float:
    """Summed duration of parentless spans with one of ``names``."""
    wanted = set(names)
    return sum(s[5] - s[4] for s in recorder.spans
               if s[1] == 0 and s[3] in wanted)
