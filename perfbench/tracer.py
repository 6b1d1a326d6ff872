"""The traced run: spans around each layer's entry points, counter deltas.

The program's own tracer (``XServer.tracer``) stays off.  Instead this
module wraps the public entry points of each layer, from the
benchmark's side, for the traced segment of a ``--trace 1`` run and
removes the wrappers afterwards.  Each wrapper records a span (name,
start, end, parent span, operation id, thread) and feeds per-name call
counts, inclusive time and self time (inclusive minus the time of the
child spans on the same thread).  Spans stay in memory, capped at
:data:`MAX_SPANS`, and are written out when the run ends together with
the per-layer aggregates and the counter deltas read from
``server.stats()``, ``router.stats()`` and the supervisors.

A ``--trace 1`` run first runs the workload untraced for a third of its
time, so the tracing overhead is reported against an untraced base
measured in the same process on the same stack.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

from harness import closed_loop, loop_metrics

#: Spans kept for the dump; aggregates cover every span regardless.
MAX_SPANS = 50_000
#: Share of a traced run spent untraced first (the overhead base).
UNTRACED_SHARE = 1 / 3

SPAN_FIELDS = ("name", "op", "thread", "start_ns", "end_ns", "parent")


class Tracer:
    """Span recorder shared by every wrapper of one traced segment."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Operation id, bumped by the recorder before each operation.
        self.op_id = 0
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        #: name -> [calls, inclusive_ns, self_ns]
        self.stats: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        #: Counts the wrappers' hooks add (bytes, entries, ...).
        self.counts: Counter = Counter()
        self._patches: List[tuple] = []
        self.servers: List[object] = []
        self.supervisors: List[object] = []

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.active = Counter()
        return stack

    def active(self, name: str) -> int:
        """How many spans called *name* are open on this thread."""
        self._stack()
        return self._local.active[name]

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None,
             before: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a module function or a class's
        method) by a span-recording wrapper.  ``before(args)`` may
        return a token; ``after(token, args, result, inclusive_ns)``
        runs once the span has closed."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            active = tracer._local.active
            token = before(args) if before is not None else None
            parent = stack[-1][0] if stack else -1
            entry = [-1, 0]
            stack.append(entry)
            active[name] += 1
            started = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                ended = time.perf_counter_ns()
                stack.pop()
                active[name] -= 1
                inclusive = ended - started
                if stack:
                    stack[-1][1] += inclusive
                with tracer._lock:
                    stat = tracer.stats[name]
                    stat[0] += 1
                    stat[1] += inclusive
                    stat[2] += inclusive - entry[1]
                    if len(tracer.spans) < MAX_SPANS:
                        entry[0] = len(tracer.spans)
                        tracer.spans.append((
                            name, tracer.op_id, threading.current_thread().name,
                            started, ended, parent,
                        ))
                    else:
                        tracer.dropped_spans += 1
            if after is not None:
                after(token, args, result, inclusive)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def self_s(self, *names: str) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats) / 1e9

    def inclusive_s(self, *names: str) -> float:
        return sum(self.stats[n][1] for n in names if n in self.stats) / 1e9

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0


# -- the entry points ---------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark names."""
    from repro.core.subsystems.restart import RestartController
    from repro.core.wm import Swm
    from repro.session import places, router as router_mod, store as store_mod
    from repro.session.supervisor import Supervisor
    from repro.xrm.database import ResourceDatabase
    from repro.xserver import window as window_mod
    from repro.xserver.server import XServer
    from repro.xserver.wire import codec, frames, resilience, tcp, transport

    def register(kind):
        def after(token, args, result, inclusive):
            getattr(tracer, kind).append(args[0])
        return after

    tracer.wrap(XServer, "__init__", "setup.server", after=register("servers"))
    tracer.wrap(Supervisor, "__init__", "setup.supervisor",
                after=register("supervisors"))

    # xserver.window / xserver.region
    tracer.wrap(window_mod.Window, "child_at_in_root", "window.hit_test")
    tracer.wrap(window_mod.Window, "clip_region", "region.clip")

    # xserver.server: the request chokepoint, both transports.  The
    # wire's copy only ever runs for requests that arrived over TCP.
    def wire_dispatch_after(token, args, result, inclusive):
        tracer.count("wire.dispatch_ns", inclusive)

    tracer.wrap(transport, "dispatch_request", "server.dispatch")
    tracer.wrap(resilience, "dispatch_request", "server.dispatch",
                after=wire_dispatch_after)
    for method in ("motion", "button_press", "button_release"):
        tracer.wrap(XServer, method, "server.input")

    # core.wm
    def events_after(token, args, result, inclusive):
        tracer.count("wm.events", result or 0)

    def requests_before(args):
        return args[0].server.stats().total_requests()

    def manage_after(token, args, result, inclusive):
        tracer.count("wm.manage_requests",
                     args[0].server.stats().total_requests() - token)

    tracer.wrap(Swm, "process_pending", "wm.pump", after=events_after)
    tracer.wrap(Swm, "manage", "wm.manage", before=requests_before,
                after=manage_after)
    tracer.wrap(Swm, "unmanage", "wm.unmanage")

    # xrm
    tracer.wrap(ResourceDatabase, "get", "xrm.lookup")

    # session.places / session.store
    def entries_after(token, args, result, inclusive):
        tracer.count("places.entries", len(result))

    def bytes_after(token, args, result, inclusive):
        tracer.count("store.bytes_written", os.path.getsize(result.path))

    tracer.wrap(places, "collect_entries", "places.snapshot", after=entries_after)
    tracer.wrap(places, "format_places", "places.snapshot")
    tracer.wrap(store_mod.SessionStore, "save", "store.save", after=bytes_after)

    # core.subsystems.restart
    def adopted_after(token, args, result, inclusive):
        tracer.count("restart.adopted", result.total_recovered())

    tracer.wrap(RestartController, "adopt_existing", "restart.adopt",
                after=adopted_after)

    # session.router
    tracer.wrap(router_mod.DisplayRouter, "pump", "router.pump")
    tracer.wrap(router_mod.DisplayRouter, "migrate", "router.migrate")

    # xserver.wire.codec / frames, in every namespace that calls them
    def encoded_after(token, args, result, inclusive):
        payload = result[1] if isinstance(result, tuple) else result
        tracer.count("codec.bytes", len(payload))
        if tracer.active("tcp.request"):
            tracer.count("codec.in_request_ns", inclusive)

    def codec_time_after(token, args, result, inclusive):
        if tracer.active("tcp.request"):
            tracer.count("codec.in_request_ns", inclusive)

    for module in (codec, tcp, resilience):
        for fn in ("encode_request", "encode_event", "encode_value"):
            if fn in vars(module):
                tracer.wrap(module, fn, "codec.encode", after=encoded_after)
        for fn in ("decode_request", "decode_event", "decode_value", "decode_error"):
            if fn in vars(module):
                tracer.wrap(module, fn, "codec.decode", after=codec_time_after)
    for module in (frames, tcp, resilience):
        tracer.wrap(module, "encode_frame", "codec.encode", after=codec_time_after)
    tracer.wrap(frames.FrameDecoder, "feed", "codec.decode", after=codec_time_after)

    # xserver.wire.tcp
    tracer.wrap(tcp.TcpTransport, "request", "tcp.request")


# -- counters ---------------------------------------------------------------


def server_counters(servers) -> Counter:
    """The summed server.stats() counters the per-layer metrics use."""
    total: Counter = Counter()
    for server in servers:
        stats = server.stats()
        for kind, counts in stats.cache_counters().items():
            for key, value in counts.items():
                total[f"cache.{kind}.{key}"] += value
        total["requests"] += stats.total_requests()
        total["delivered"] += stats.delivered_count()
        total["coalesced"] += stats.coalesced_count()
        total["dropped"] += stats.dropped_count()
        total["batched"] += stats.batched_count()
        total["batch_coalesced"] += stats.batch_coalesced_count()
        total["damage_rects"] += stats.damage_rect_count()
        for key in ("frames_in", "frames_out", "bytes_in", "bytes_out"):
            total[f"tcp.{key}"] += stats.wire_count("tcp", key)
        total["pings_out"] += stats.wire_count(None, "pings_out")
    return total


def router_counters(routers) -> Counter:
    total: Counter = Counter()
    for router in routers:
        stats = router.stats()
        for key in ("heartbeats", "migrations", "evacuations", "recoveries"):
            total[key] += stats[key]
    return total


def layer_metrics(tracer: Tracer, ops: int, servers0: Counter, servers1: Counter,
                  router0: Counter, router1: Counter, restarts: int) -> Dict[str, tuple]:
    """name -> (value, unit) for every per-layer metric."""
    d = servers1 - servers0  # counters only grow; Counter drops zeros
    r = router1 - router0
    per = float(ops)

    def ratio(kind):
        hits, misses = d[f"cache.{kind}.hits"], d[f"cache.{kind}.misses"]
        return hits / (hits + misses) if hits + misses else 1.0

    manages = tracer.calls("wm.manage")
    request_s = tracer.inclusive_s("tcp.request")
    # Time a request waited on the socket and the loop: its inclusive
    # time minus the server's dispatch of wire requests and minus the
    # client's own encoding and decoding inside it.
    wait_s = (request_s - tracer.counts["wire.dispatch_ns"] / 1e9
              - tracer.counts["codec.in_request_ns"] / 1e9)
    m = {
        "window.stacking_index.misses": (d["cache.stacking_index.misses"] / per, "count/op"),
        "window.stacking_index.hit_ratio": (ratio("stacking_index"), "ratio"),
        "window.geometry.misses": (d["cache.geometry.misses"] / per, "count/op"),
        "window.visibility.misses": (d["cache.visibility.misses"] / per, "count/op"),
        "window.interest.misses": (d["cache.interest.misses"] / per, "count/op"),
        "window.hit_test_s": (tracer.self_s("window.hit_test") / per, "s/op"),
        "region.misses": (d["cache.region.misses"] / per, "count/op"),
        "region.hit_ratio": (ratio("region"), "ratio"),
        "region.damage_rects": (d["damage_rects"] / per, "count/op"),
        "region.clip_s": (tracer.self_s("region.clip") / per, "s/op"),
        "server.requests": (d["requests"] / per, "count/op"),
        "server.dispatch_s": (tracer.self_s("server.dispatch") / per, "s/op"),
        "server.input_s": (tracer.self_s("server.input") / per, "s/op"),
        "pipeline.delivered": (d["delivered"] / per, "count/op"),
        "pipeline.coalesced": (d["coalesced"] / per, "count/op"),
        "pipeline.dropped": (d["dropped"] / per, "count/op"),
        "batch.ops": (d["batched"] / per, "count/op"),
        "batch.coalesced": (d["batch_coalesced"] / per, "count/op"),
        "wm.events": (tracer.counts["wm.events"] / per, "count/op"),
        "wm.pump_s": (tracer.self_s("wm.pump") / per, "s/op"),
        "wm.manage_s": (tracer.self_s("wm.manage") / per, "s/op"),
        "wm.requests_per_manage": (
            tracer.counts["wm.manage_requests"] / manages if manages else 0.0,
            "count/manage"),
        "wm.unmanage_s": (tracer.self_s("wm.unmanage") / per, "s/op"),
        "xrm.lookups": (tracer.calls("xrm.lookup") / per, "count/op"),
        "xrm.lookup_s": (tracer.self_s("xrm.lookup") / per, "s/op"),
        "places.snapshot_s": (tracer.self_s("places.snapshot") / per, "s/op"),
        "places.entries": (tracer.counts["places.entries"] / per, "count/op"),
        "store.saves": (tracer.calls("store.save") / per, "count/op"),
        "store.save_s": (tracer.self_s("store.save") / per, "s/op"),
        "store.bytes_written": (tracer.counts["store.bytes_written"] / per, "B/op"),
        "restart.adopt_s": (tracer.self_s("restart.adopt") / per, "s/op"),
        "restart.adopted": (tracer.counts["restart.adopted"] / per, "count/op"),
        "supervisor.restarts": (restarts / per, "count/op"),
        "router.pump_s": (tracer.self_s("router.pump") / per, "s/op"),
        "router.migrate_s": (tracer.self_s("router.migrate") / per, "s/op"),
        "router.heartbeats": (r["heartbeats"] / per, "count/op"),
        "router.migrations": (r["migrations"] / per, "count/op"),
        "router.evacuations": (r["evacuations"] / per, "count/op"),
        "router.recoveries": (r["recoveries"] / per, "count/op"),
        "codec.encode_s": (tracer.self_s("codec.encode") / per, "s/op"),
        "codec.decode_s": (tracer.self_s("codec.decode") / per, "s/op"),
        "codec.bytes": (tracer.counts["codec.bytes"] / per, "B/op"),
        "tcp.frames_in": (d["tcp.frames_in"] / per, "count/op"),
        "tcp.frames_out": (d["tcp.frames_out"] / per, "count/op"),
        "tcp.bytes_in": (d["tcp.bytes_in"] / per, "B/op"),
        "tcp.bytes_out": (d["tcp.bytes_out"] / per, "B/op"),
        "tcp.request_s": (request_s / per, "s/op"),
        "tcp.wait_s": (max(0.0, wait_s) / per, "s/op"),
        "resilience.pings_out": (d["pings_out"] / per, "count/op"),
    }
    return m


def traced_run(bench, recorder, opts, root: str) -> dict:
    """Untraced base segment, then the traced segment; returns the
    per-layer metrics and writes the span dump.  The closing drills of
    ``drag`` and ``remote`` stay out of traced runs: they exist to give
    those workloads the §7 latencies, and their seconds of adoption
    would swamp the layer costs of the loop."""
    base_s = opts.seconds * UNTRACED_SHARE
    next_round = closed_loop(recorder, base_s, bench.round)
    base = loop_metrics(recorder, bench.loop_kinds)
    base_ops = len(recorder.latencies(bench.loop_kinds))
    base_busy = base_ops / base["ops_per_s"]
    marks = {kind: len(v) for kind, v in recorder.samples.items()}
    attempted0 = recorder.total_attempted()

    tracer = Tracer()
    servers, supervisors, routers = bench.stack()
    tracer.servers.extend(servers)
    tracer.supervisors.extend(supervisors)
    restarts0 = {id(s): s.restarts for s in supervisors}
    counters0 = server_counters(servers)
    router0 = router_counters(routers)
    install(tracer)
    recorder.tracer = tracer
    try:
        closed_loop(recorder, opts.seconds - base_s, bench.round,
                    start_round=next_round)
    finally:
        recorder.tracer = None
        tracer.unwrap_all()
    counters1 = server_counters(tracer.servers)
    router1 = router_counters(routers)
    restarts = sum(s.restarts - restarts0.get(id(s), 0) for s in tracer.supervisors)
    ops = recorder.total_attempted() - attempted0
    bench.final_checks()

    traced = [ns for kind in bench.loop_kinds
              for ns in recorder.samples.get(kind, [])[marks.get(kind, 0):]]
    traced_raw = [ns for kind in bench.loop_kinds
                  for ns in recorder.raw.get(kind, [])[marks.get(kind, 0):]]
    traced_ops_per_s = len(traced) / (sum(traced) / 1e9)
    metrics = layer_metrics(tracer, ops, counters0, counters1, router0, router1,
                            restarts)
    # Span times are raw wall time; put them on the reference scale the
    # end-to-end figures use (see harness.py).
    scale = sum(traced) / sum(traced_raw)
    for name, (value, unit) in metrics.items():
        if unit == "s/op":
            metrics[name] = (value * scale, unit)
    metrics["tracing.ops_per_s"] = (traced_ops_per_s, "ops/s")
    metrics["tracing.untraced_ops_per_s"] = (base["ops_per_s"], "ops/s")
    metrics["tracing.overhead_pct"] = (
        100.0 * (base["ops_per_s"] / traced_ops_per_s - 1.0), "%")
    metrics["tracing.spans"] = (sum(s[0] for s in tracer.stats.values()) / ops, "count/op")

    dump = {
        "workload": bench.name, "seed": opts.seed, "seconds": opts.seconds,
        "traced_ops": ops,
        "untraced_base": {"ops": base_ops, "busy_s": base_busy,
                          "ops_per_s": base["ops_per_s"]},
        "traced": {"ops": len(traced), "busy_s": sum(traced) / 1e9,
                   "raw_busy_s": sum(traced_raw) / 1e9,
                   "ops_per_s": traced_ops_per_s},
        "reference_scale": scale,
        "layers": {name: {"calls": s[0], "inclusive_s": s[1] / 1e9, "self_s": s[2] / 1e9}
                   for name, s in sorted(tracer.stats.items())},
        "counters": {"server": dict(counters1 - counters0),
                     "router": dict(router1 - router0),
                     "supervisor_restarts": restarts,
                     "wrappers": dict(tracer.counts)},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "span_fields": list(SPAN_FIELDS),
        "spans": tracer.spans,
        "spans_dropped": tracer.dropped_spans,
    }
    path = opts.spans_out or os.path.join(
        root, ".perfbench_out", f"trace-{bench.name}-seed{opts.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dump, handle)
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
