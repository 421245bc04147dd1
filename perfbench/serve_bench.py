"""serve-read and serve-mixed: open-loop wire traffic into a gateway.

The server (``serve_server.py``) runs in its own process; this process is
the load generator.  Inputs come from ``--seed``: the Poisson arrival
schedule, the subject of each read, the ``mixed_workload`` request streams
and (serve-mixed) the ``drifting_measurement_stream`` observe batches.  All
frames are encoded before timing starts, and one thread drives every
connection through a selector, sending each frame when it is due and
timing its reply from that due time.  ``TCP_NODELAY`` is set on the
generator's sockets only.

Phases:

* ``warmup`` -- reads at the workload's base rate, not counted in latency;
* ``reference`` (serve-read) / ``main`` (serve-mixed) -- the latency phase;
  serve-mixed spends its whole run here, reads beside observe batches;
* ``ladder-<rate>`` (serve-read) -- rising offered read rates until one
  misses the p99 latency limit or builds a growing backlog, twice in a row
  (``ladder-<rate>-retry``); the capacity is interpolated within that
  step;
* ``probes`` (serve-mixed) -- after a final ``quiesce``, a fixed probe set
  checked against an in-process registry that observed the same batches.

Every wire answer of serve-read is checked against
``RequestBatcher.serial_dispatch`` on an identically fitted registry.
"""

from __future__ import annotations

import collections
import json
import math
import os
import selectors
import socket
import statistics
import subprocess
import sys
import time

import numpy as np

from common import derived_seed, host_scaled, percentile_ms, speed_probe
from serve_server import subject_specs

HERE = os.path.dirname(os.path.abspath(__file__))
READY_TIMEOUT_S = 120.0
GRACE_S = 5.0


# ---------------------------------------------------------------- server
class Server:
    """A running ``serve_server.py`` process and its control pipe."""

    def __init__(self, workload_name: str, trace: bool, spans: str = ""):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_server.py"),
             "--workload", workload_name, "--trace", str(int(trace)),
             "--spans", spans],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self.port = int(self._reply("ready")["port"])
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _reply(self, key: str) -> dict:
        """Read the server's next JSON line, which must carry ``key``."""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(READY_TIMEOUT_S):
                raise TimeoutError(f"server sent no {key!r} line")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited before {key!r} "
                               f"(code {self.proc.poll()})")
        message = json.loads(line)
        if key not in message:
            raise RuntimeError(f"unexpected server line: {line!r}")
        return message

    def command(self, verb: str, reply_key: str) -> dict:
        self.proc.stdin.write(verb + "\n")
        self.proc.stdin.flush()
        return self._reply(reply_key)

    def stop(self) -> dict:
        """Stop the server and return its report."""
        try:
            report = self.command("stop", "report")["report"]
            self.proc.wait(timeout=60)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


# -------------------------------------------------------------- generator
class Phase:
    """One phase's schedule and, after :meth:`Wire.drive`, its outcomes."""

    def __init__(self, name: str, rate: float, seconds: float):
        self.name = name
        self.rate = rate
        self.seconds = seconds
        #: (due offset s, connection, frame, payload tag) sorted by due.
        self.schedule: list[tuple[float, int, bytes, object]] = []
        self.start = 0.0
        self.sent: list[float] = []
        self.received: list[float | None] = []
        self.replies: list[bytes | None] = []

    def add(self, due: float, connection: int, frame: bytes, tag) -> None:
        self.schedule.append((due, connection, frame, tag))

    def latencies(self, connection: int | None = None) -> list[float]:
        """Reply time minus due time of every answered request."""
        return [received - (self.start + due)
                for (due, conn, _, _), received
                in zip(self.schedule, self.received)
                if received is not None
                and (connection is None or conn == connection)]


class Wire:
    """The generator's connections, driven by one thread via a selector."""

    def __init__(self, port: int, connections: int):
        self.selector = selectors.DefaultSelector()
        self.socks = []
        for index in range(connections):
            sock = socket.create_connection(("127.0.0.1", port), timeout=10)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            self.selector.register(sock, selectors.EVENT_READ, index)
            self.socks.append(sock)
        self.outgoing = [bytearray() for _ in self.socks]
        self.incoming = [bytearray() for _ in self.socks]
        #: per connection, the (phase, index) of each unanswered frame.
        self.waiting = [collections.deque() for _ in self.socks]
        self.writable = [False] * len(self.socks)
        self.late_max_s = 0.0

    def close(self) -> None:
        for sock in self.socks:
            self.selector.unregister(sock)
            sock.close()
        self.selector.close()

    def _flush(self, index: int) -> None:
        buffer = self.outgoing[index]
        if buffer:
            try:
                del buffer[:self.socks[index].send(buffer)]
            except BlockingIOError:
                pass
        want = bool(buffer)
        if want != self.writable[index]:
            self.writable[index] = want
            events = selectors.EVENT_READ | (selectors.EVENT_WRITE
                                             if want else 0)
            self.selector.modify(self.socks[index], events, index)

    def _receive(self, index: int, current: Phase) -> int:
        """Take complete reply frames; returns how many belong to
        ``current`` (a late reply to an earlier phase still lands there)."""
        try:
            data = self.socks[index].recv(1 << 18)
        except BlockingIOError:
            return 0
        if not data:
            raise ConnectionError("gateway closed a generator connection")
        now = time.perf_counter()
        buffer = self.incoming[index]
        buffer += data
        answered = 0
        while len(buffer) >= 4:
            length = int.from_bytes(buffer[:4], "big")
            if len(buffer) < 4 + length:
                break
            phase, position = self.waiting[index].popleft()
            phase.received[position] = now
            phase.replies[position] = bytes(buffer[4:4 + length])
            del buffer[:4 + length]
            answered += phase is current
        return answered

    def drive(self, phase: Phase) -> None:
        """Send the phase's frames on schedule; wait for their replies."""
        count = len(phase.schedule)
        phase.sent = [0.0] * count
        phase.received = [None] * count
        phase.replies = [None] * count
        phase.start = start = time.perf_counter() + 0.002
        outstanding = 0
        next_index = 0
        deadline = None
        while True:
            now = time.perf_counter()
            while next_index < count \
                    and start + phase.schedule[next_index][0] <= now:
                due, index, frame, _ = phase.schedule[next_index]
                self.outgoing[index] += frame
                self.waiting[index].append((phase, next_index))
                phase.sent[next_index] = now
                self.late_max_s = max(self.late_max_s, now - start - due)
                self._flush(index)
                next_index += 1
                outstanding += 1
            if next_index < count:
                timeout = start + phase.schedule[next_index][0] - now
            elif not outstanding:
                return
            else:
                if deadline is None:
                    deadline = now + GRACE_S
                if now >= deadline:
                    return
                timeout = deadline - now
            for key, mask in self.selector.select(max(timeout, 0.0)):
                if mask & selectors.EVENT_WRITE:
                    self._flush(key.data)
                if mask & selectors.EVENT_READ:
                    outstanding -= self._receive(key.data, phase)


def poisson_offsets(rng: np.random.Generator, rate: float,
                    seconds: float) -> list[float]:
    """Arrival offsets of a Poisson process of ``rate`` over ``seconds``."""
    expected = int(rate * seconds * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=expected))
    return [float(t) for t in offsets[offsets < seconds]]


class Inputs:
    """Everything the generator sends, built from the seed before timing."""

    def __init__(self, workload: dict, seed: int, budget_requests: int):
        from repro.service import mixed_workload, registry_from_specs
        from repro.systems.registry import get_system

        self.specs = subject_specs(workload)
        self.subjects = list(self.specs)
        registry = registry_from_specs(self.specs)
        self.systems = {s: get_system(s) for s in self.subjects}
        per_subject = budget_requests // len(self.subjects) + 64
        self.pools = {
            subject: collections.deque(mixed_workload(
                subject, registry.get(subject).engine,
                self.systems[subject].objectives, per_subject,
                seed=derived_seed(seed, 1, position)))
            for position, subject in enumerate(self.subjects)}
        self.rng = np.random.default_rng(derived_seed(seed, 2))
        #: serve-mixed's fixed probe set, asked after the final quiesce.
        self.probes = [
            request for position, subject in enumerate(self.subjects)
            for request in mixed_workload(
                subject, registry.get(subject).engine,
                self.systems[subject].objectives,
                workload.get("probes_per_subject", 0),
                seed=derived_seed(seed, 4, position))]
        self._frames: dict[int, bytes] = {}

    def query_frame(self, request) -> bytes:
        from repro.service.protocol import encode_envelope, request_to_wire

        frame = self._frames.get(id(request))
        if frame is None:
            frame = encode_envelope({"op": "query",
                                     "request": request_to_wire(request)})
            self._frames[id(request)] = frame
        return frame

    def reads(self, phase: Phase, connections: list[int]) -> None:
        """Add Poisson reads at the phase's rate, subjects drawn at random."""
        offsets = poisson_offsets(self.rng, phase.rate, phase.seconds)
        for i, offset in enumerate(offsets):
            subject = self.subjects[int(self.rng.integers(len(self.subjects)))]
            request = self.pools[subject].popleft()
            phase.add(offset, connections[i % len(connections)],
                      self.query_frame(request), request)


def _decode(reply: bytes | None):
    """``(envelope, response)`` of one reply; ``None`` parts on failure."""
    from repro.service.protocol import (
        ProtocolError,
        decode_envelope,
        response_from_wire,
    )

    if reply is None:
        return None, None
    try:
        envelope = decode_envelope(reply)
        if not envelope.get("ok") or envelope.get("op") != "query":
            return envelope, None
        return envelope, response_from_wire(envelope.get("response"))
    except ProtocolError:
        return None, None


def _step_summary(phase: Phase, limit_ms: float) -> dict:
    """Latency, backlog growth and completion rate of one ladder step."""
    latencies = phase.latencies()
    summary = {"rate": phase.rate, "sent": len(phase.schedule),
               "answered": len(latencies)}
    if not latencies or len(latencies) < len(phase.schedule):
        summary.update(p99_ms=math.inf, backlog=True, passed=False,
                       completed_per_s=0.0)
        return summary
    # A growing backlog shows as latency climbing through the step.
    quarter = max(len(latencies) // 4, 1)
    early = statistics.median(latencies[:quarter])
    late = statistics.median(latencies[-quarter:])
    backlog = late > 2.0 * early + 0.010
    half = phase.start + phase.seconds / 2.0
    end = phase.start + phase.seconds
    done = sum(1 for received in phase.received if half <= received < end)
    p99 = percentile_ms(latencies, 99)
    summary.update(p50_ms=percentile_ms(latencies, 50), p99_ms=p99,
                   backlog=backlog, passed=p99 <= limit_ms and not backlog,
                   completed_per_s=done / (phase.seconds / 2.0))
    return summary


def capacity(steps: list[dict], limit_ms: float) -> float:
    """Highest offered rate meeting the limit, interpolated in the ladder.

    Between the last passing step and the first failing one: when the
    failing step built a backlog the tier was saturated, and its
    completion rate is the capacity; otherwise the rate where p99 crosses
    the limit, linearly interpolated.
    """
    low_rate, low_p99 = 0.0, 0.0
    for step in steps:
        if step["passed"]:
            low_rate, low_p99 = step["rate"], step["p99_ms"]
            continue
        high = step["rate"]
        if step["backlog"] or not math.isfinite(step["p99_ms"]):
            return min(max(step["completed_per_s"], low_rate), high)
        share = (limit_ms - low_p99) / (step["p99_ms"] - low_p99)
        return low_rate + (high - low_rate) * share
    return low_rate


# -------------------------------------------------------------- workloads
def _plan(workload: dict, seconds: float) -> dict:
    """Phase durations of one run: the latency phase, then ladder steps."""
    ladder = workload.get("ladder_rates", [])
    share = workload["reference_share"] if ladder else 1.0
    return {"main_s": seconds * share,
            "step_s": seconds * (1.0 - share) / max(len(ladder), 1)}


def _measure(name: str, workload: dict, inputs: Inputs, server: Server,
             seconds: float) -> dict:
    """Run the phases of one pass against a started server."""
    mixed = name == "serve-mixed"
    plan = _plan(workload, seconds)
    base_rate = workload["read_rate"] if mixed else workload["reference_rate"]
    read_conns = [0] if mixed else [0, 1]

    wire = Wire(server.port, 2)
    phases: list[Phase] = []
    steps: list[dict] = []
    attempts: list[dict] = []
    try:
        warmup = Phase("warmup", base_rate, workload["warmup_s"])
        inputs.reads(warmup, read_conns)
        wire.drive(warmup)
        phases.append(warmup)

        main = Phase("main" if mixed else "reference", base_rate,
                     plan["main_s"])
        inputs.reads(main, read_conns)
        if mixed:
            _add_observes(main, observe_batches(inputs, workload, seconds),
                          workload["observe_period_s"])
            main.schedule.sort(key=lambda entry: entry[0])
        wire.drive(main)
        phases.append(main)

        for rate in workload.get("ladder_rates", []):
            # A failing step is run once more: a few seconds of host
            # slowdown rarely hits both attempts, while a tier that cannot
            # carry the rate fails both.  The last attempt counts.
            for attempt in range(2):
                step = Phase(f"ladder-{rate}" + ("-retry" if attempt else ""),
                             rate, plan["step_s"])
                inputs.reads(step, read_conns)
                wire.drive(step)
                phases.append(step)
                summary = _step_summary(step, workload["latency_limit_ms"])
                attempts.append(summary)
                if summary["passed"]:
                    break
            steps.append(summary)
            if not summary["passed"]:
                break

        if mixed:
            server.command("quiesce", "quiesced")
            probes = Phase("probes", 0.0, 0.0)
            for request in inputs.probes:
                probes.add(0.0, 0, inputs.query_frame(request), request)
            wire.drive(probes)
            phases.append(probes)
    finally:
        late_ms = wire.late_max_s * 1e3
        wire.close()

    main_latencies = main.latencies(0 if mixed else None)
    outcome = {
        "phases": phases, "steps": steps, "attempts": attempts,
        "late_ms": late_ms,
        "latency_p50_ms": percentile_ms(main_latencies, 50)
        if main_latencies else math.inf,
        "latency_p90_ms": percentile_ms(main_latencies, 90)
        if main_latencies else math.inf,
        "read_p99_ms": percentile_ms(main_latencies, 99)
        if main_latencies else math.inf,
    }
    if mixed:
        # Reads run far below their limit here; the write path is what
        # saturates, so its capacity is observes acked per second of
        # median observe latency.
        observe_latencies = main.latencies(1)
        outcome["observe_p50_ms"] = (percentile_ms(observe_latencies, 50)
                                     if observe_latencies else math.inf)
        outcome["capacity_per_s"] = 1e3 / outcome["observe_p50_ms"]
    else:
        outcome["capacity_per_s"] = capacity(
            steps, workload["latency_limit_ms"])
    return outcome


def observe_batches(inputs: Inputs, workload: dict,
                    seconds: float) -> list[tuple[str, list]]:
    """serve-mixed's ``(subject, batch)`` observe stream, in send order.

    Subjects take turns; each subject's batches come from its own
    ``drifting_measurement_stream``, whose regime shifts halfway through.
    The stream is seeded by the workload, not by ``--seed``, so every run
    folds the same writes and only the read traffic varies.
    """
    from repro.service import drifting_measurement_stream

    subjects = inputs.subjects
    rounds = math.ceil(seconds / workload["observe_period_s"]
                       / len(subjects)) + 1
    streams = [drifting_measurement_stream(
        inputs.systems[subject], rounds, workload["observe_batch"],
        seed=derived_seed(workload["observe_seed"], 3, position),
        drift_rounds=[int(rounds * workload["drift"]["at_fraction"])],
        drift_scale=workload["drift"]["scale"])
        for position, subject in enumerate(subjects)]
    return [(subject, streams[position][round_index])
            for round_index in range(rounds)
            for position, subject in enumerate(subjects)]


def _add_observes(phase: Phase, batches: list, period: float) -> None:
    """Schedule one observe batch every ``period`` on connection 1."""
    from repro.service.protocol import encode_envelope
    from repro.service.store import measurement_to_dict

    for index, (subject, batch) in enumerate(batches):
        if index * period >= phase.seconds:
            return
        frame = encode_envelope({
            "op": "observe", "subject": subject,
            "measurements": [measurement_to_dict(m) for m in batch]})
        phase.add(index * period, 1, frame, ("observe", subject, batch))


def _check(name: str, inputs: Inputs, outcome: dict) -> dict:
    """Decode every reply, count failures and compare against a reference."""
    from repro.service import (
        RequestBatcher,
        canonical_answers,
        registry_from_specs,
    )
    from repro.service.store import measurement_from_dict, measurement_to_dict

    phases = {}
    answered: dict[str, list] = collections.defaultdict(list)
    probe_answers: dict[str, list] = collections.defaultdict(list)
    acked: list[tuple[str, list]] = []
    attempted = failed = 0
    for phase in outcome["phases"]:
        ok = bad = 0
        for (_, _, _, tag), reply in zip(phase.schedule, phase.replies):
            envelope, response = _decode(reply)
            if isinstance(tag, tuple):
                good = envelope is not None and envelope.get("ok") \
                    and envelope.get("op") == "observe"
                if good:
                    acked.append((tag[1], tag[2]))
            else:
                good = response is not None and response.error is None
                if good:
                    target = probe_answers if phase.name == "probes" \
                        else answered
                    target[tag.subject].append((tag, response))
            ok += bool(good)
            bad += not good
        phases[phase.name] = {"sent": len(phase.schedule), "ok": ok,
                              "failed": bad}
        attempted += len(phase.schedule)
        failed += bad

    registry = registry_from_specs(inputs.specs)
    batcher = RequestBatcher()
    mismatches = 0
    if name == "serve-read":
        checked = answered
    else:
        for subject, batch in acked:
            registry.observe(subject, [
                measurement_from_dict(measurement_to_dict(m))
                for m in batch])
        checked = probe_answers
    compared = 0
    for subject, pairs in checked.items():
        expected = canonical_answers(batcher.serial_dispatch(
            registry.get(subject), [request for request, _ in pairs]))
        got = canonical_answers([response for _, response in pairs])
        mismatches += sum(a != b for a, b in zip(expected, got))
        compared += len(pairs)
    expected_checks = len(inputs.probes) if name == "serve-mixed" else \
        compared
    return {"phases": phases, "attempted": attempted, "failed": failed,
            "mismatches": mismatches, "compared": compared,
            "complete": compared == expected_checks}


def run(name: str, workload: dict, seed: int, seconds: float, trace: bool,
        out_dir: str) -> dict:
    base_rate = workload.get("read_rate", workload.get("reference_rate"))
    plan = _plan(workload, seconds)
    budget = int(1.3 * (base_rate * (workload["warmup_s"] + plan["main_s"])
                        + (sum(workload.get("ladder_rates", []))
                           + max(workload.get("ladder_rates", [0])))
                        * plan["step_s"]))
    passes = [False, True] if trace else [False]
    results = []
    setups: list[float] = []
    scaled_setups: list[float] = []
    for traced in passes:
        inputs = Inputs(workload, seed, budget)
        repeats = 1 if trace else workload["setup_repeats"]
        spans = os.path.join(os.path.abspath(out_dir),
                             f"{name}-seed{seed}.spans.jsonl") if traced \
            else ""
        for attempt in range(repeats):
            probe = speed_probe()
            server = Server(name, traced, spans)
            setups.append(server.setup_s)
            scaled_setups.append(host_scaled(server.setup_s, probe,
                                             speed_probe()))
            if attempt < repeats - 1:
                server.stop()
        try:
            outcome = _measure(name, workload, inputs, server, seconds)
        finally:
            report = server.stop()
        outcome["report"] = report
        outcome["check"] = _check(name, inputs, outcome)
        results.append(outcome)
    return _result(name, workload, seed, results, setups, scaled_setups,
                   trace)


def _result(name: str, workload: dict, seed: int, results: list,
            setups: list, scaled_setups: list, trace: bool) -> dict:
    limit_late = workload["max_generator_late_ms"]
    attempted = sum(r["check"]["attempted"] for r in results)
    failed = sum(r["check"]["failed"] + r["check"]["mismatches"]
                 for r in results)
    valid = all(r["late_ms"] <= limit_late for r in results)
    complete = all(r["check"]["complete"] for r in results)
    first = results[0]
    check = first["check"]
    quality = 100.0 * (check["compared"] - check["mismatches"]) \
        / max(check["compared"], 1)
    detail = {
        "workload": name, "seed": seed, "valid_generator": valid,
        "setup_samples_s": setups,
        "scaled_setup_samples_s": scaled_setups,
        "passes": [{
            "traced": i == 1,
            "phases": r["check"]["phases"],
            "ladder": r["attempts"],
            "mismatches": r["check"]["mismatches"],
            "compared": r["check"]["compared"],
            "late_ms_max": r["late_ms"],
            "read_p50_ms": r["latency_p50_ms"],
            "read_p90_ms": r["latency_p90_ms"],
            "read_p99_ms": r["read_p99_ms"],
            "read_capacity_qps": r["capacity_per_s"],
            **({"observe_p50_ms": r["observe_p50_ms"]}
               if "observe_p50_ms" in r else {}),
            "server": {k: v for k, v in r["report"].items()
                       if k != "layers"},
        } for i, r in enumerate(results)],
    }
    result = {"correct": failed == 0 and valid and complete,
              "attempted": attempted, "failed": failed, "detail": detail}
    if not trace:
        result["end_to_end"] = {
            "setup_s": statistics.median(scaled_setups),
            "peak_rss_mb": first["report"]["peak_rss_mb"],
            "latency_p50_ms": first["latency_p50_ms"],
            "latency_p90_ms": first["latency_p90_ms"],
            "capacity_per_s": first["capacity_per_s"],
            "answer_quality_pct": quality,
        }
        return result

    traced = results[1]
    report = traced["report"]
    layers = dict(report["layers"])
    layers.update(report["counters"])
    phases = traced["check"]["phases"]
    sent = sum(p["sent"] for p in phases.values())
    bad = sum(p["failed"] for p in phases.values())
    round_trips = [
        received - sent_at
        for phase in traced["phases"]
        for sent_at, received in zip(phase.sent, phase.received)
        if received is not None]
    rtt_p50 = percentile_ms(round_trips, 50) if round_trips else 0.0
    covered = report["span_seconds"]
    overhead = traced["latency_p50_ms"] - first["latency_p50_ms"]
    layers.update({
        "gateway.wire_ms_p50": rtt_p50 - layers["service.submit.p50_ms"],
        "client.sent": float(sent),
        "client.ok": float(sent - bad),
        "client.failed": float(bad),
        "client.late_ms_max": traced["late_ms"],
        "trace.overhead_ms": overhead,
        "trace.overhead_pct": 100.0 * overhead / first["latency_p50_ms"],
        "trace.named_share": covered / sum(round_trips)
        if round_trips else 0.0,
    })
    result["per_layer"] = layers
    return result
