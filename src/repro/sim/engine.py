"""Engines that drive file-system operation generators.

``DirectEngine``
    Executes each yielded command immediately against the in-process
    servers, advancing a virtual clock by network latency plus metered
    service time.  Single-threaded: use it for functional tests and for
    the single-client latency experiments (Figs. 6, 7, 10, 12).

``EventEngine``
    Schedules the same generators on the discrete-event simulator.  Each
    server is a FIFO queue; concurrent client processes contend for it, so
    saturation and scalability emerge.  Used for the closed-loop
    throughput experiments (Figs. 1, 8, 9, 11, 13).

Both engines implement the same tiny protocol: ``run(gen)`` drives a
generator to completion and returns its value; ``now`` is the virtual
clock in microseconds.

Hot path: both engines dispatch on the integer ``tag`` class attribute of
the yielded command (see :mod:`repro.sim.rpc`) instead of an
``isinstance`` chain, read the meter's ``total_us`` attribute directly
instead of calling ``snapshot()``, and cache cost-model constants that are
fixed for the engine's lifetime.  None of this may change virtual-time
arithmetic — the determinism golden test pins ``engine.now`` bit-for-bit.

Observability (:mod:`repro.obs`) is attached per engine with
``attach_observability(tracer, metrics, telemetry)``.  With a tracer,
every RPC becomes a span on the issuing client's track with child
``queue``/``serve`` spans on the server's track (enqueue→dispatch wait is
its own phase) and ``kv.*`` spans for each metered store operation;
``SpanBegin``/``SpanEnd`` commands from the client wrappers bracket whole
file-system ops.  With a metrics registry, the engines feed per-server
request counters, queue-wait/service histograms and — on the event
engine — queue-depth and busy-fraction samplers.  With a telemetry sink
(:class:`~repro.obs.telemetry.TelemetrySink`) the same hook points feed
the online windowed aggregator: op completions with latency and error
class at span close, per-server service intervals and batch shapes at
RPC complete, queue-depth samples on arrival, and retry/gaveup/crash
marks.  With nothing attached every hook is a single ``is None`` test,
so plain runs are unaffected.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Generator
from heapq import heappush

from repro.common.errors import FSError, QuorumFailed, ServerDown
from repro.obs.tracer import KVTraceSink

from .cluster import Cluster, ServerNode
from .costmodel import CostModel
from .faults import F_DROP, FaultState, RetryPolicy
from .rpc import (
    TAG_BATCH,
    TAG_DELAY,
    TAG_MARK,
    TAG_PARALLEL,
    TAG_QUORUM,
    TAG_RPC,
    TAG_SPAN_BEGIN,
    TAG_SPAN_CAPTURE,
    TAG_SPAN_END,
    Batch,
    LocalCharge,
    Mark,
    Parallel,
    Quorum,
    Rpc,
    Sleep,
    SpanBegin,
    SpanCapture,
    SpanEnd,
)
from .simulator import Simulator

__all__ = [
    "Batch",
    "DirectEngine",
    "EventEngine",
    "LocalCharge",
    "Mark",
    "Parallel",
    "Quorum",
    "Rpc",
    "Sleep",
    "SpanBegin",
    "SpanCapture",
    "SpanEnd",
    "make_engine",
]


def _response_bytes(rpc: Rpc, result) -> int:
    """Wire size of a response: the declared size, or — for raw byte
    payloads like dirent lists and data blocks — the actual size."""
    if rpc.recv_bytes:
        return rpc.recv_bytes
    if isinstance(result, (bytes, bytearray)):
        return len(result)
    return 0


class _ClientState:
    """Per-logical-client connection and link bookkeeping."""

    __slots__ = ("last_server", "rpcs_issued", "downlink_free", "track", "spans")

    def __init__(self, track: str = "client") -> None:
        self.last_server: str | None = None
        self.rpcs_issued = 0
        #: absolute time at which the client's downlink is next idle
        self.downlink_free = 0.0
        #: trace track name and open-span stack [(Span|None, name, start_us)]
        self.track = track
        self.spans: list[tuple] = []


class _ObservableEngine:
    """Shared observability plumbing for both engines.

    ``self.tracer`` / ``self.metrics`` stay ``None`` until a run opts in;
    every instrumentation site guards on that, so the default cost is one
    attribute test.
    """

    tracer = None
    metrics = None
    #: online windowed aggregator (:class:`repro.obs.telemetry.TelemetrySink`)
    telemetry = None
    #: fault-injection runtime (:mod:`repro.sim.faults`); stays ``None``
    #: until :meth:`attach_faults`, and every fault hook guards on that —
    #: an un-attached engine's virtual time is bit-identical to before
    faults: FaultState | None = None
    retry: RetryPolicy | None = None
    #: on-path "switch" nodes (Fletch-style lookup caches): maps server
    #: name -> one-way latency in µs.  RPCs to a switch node skip the
    #: connection-switch charge, never displace ``last_server``, and pay
    #: the switch half-RTT instead of the network half-RTT.  Stays ``None``
    #: unless a deployment registers one, so every existing system's
    #: virtual-time arithmetic is untouched (one extra ``is None`` test).
    switch_nodes: dict | None = None

    def register_switch_node(self, name: str, rtt_us: float) -> None:
        """Mark ``name`` as an on-path switch node with the given RTT."""
        if self.switch_nodes is None:
            self.switch_nodes = {}
        self.switch_nodes[name] = rtt_us / 2.0

    def attach_observability(self, tracer=None, metrics=None,
                             telemetry=None) -> None:
        """Opt this engine (and its cluster's meters) into observability."""
        if tracer is not None:
            self.tracer = tracer
        if metrics is not None:
            self.metrics = metrics
            self.cluster.attach_metrics(metrics)
        if telemetry is not None:
            self.telemetry = telemetry

    def attach_faults(self, schedule, retry: RetryPolicy | None = None) -> None:
        """Opt this engine into fault injection.

        ``schedule`` is a :class:`~repro.sim.faults.FaultSchedule`; its
        crash/restart events are processed lazily as virtual time passes.
        An empty schedule attached here changes nothing — the determinism
        goldens stay bit-identical (pinned by a test).
        """
        unknown = sorted(s for s in schedule.servers() if s not in self.cluster)
        if unknown:
            raise ValueError(f"fault schedule names unknown servers: {unknown}")
        self.faults = FaultState(schedule, self)
        self.retry = retry if retry is not None else RetryPolicy()

    # -- fault-event instrumentation ---------------------------------------------
    def _fault_transition(self, name: str, server: str, t: float,
                          counter: str, up: int, **args) -> None:
        """Crash/recover instant on the server's own track + counters."""
        if self.tracer is not None:
            self.tracer.instant(name, t, server, None, dict(args))
        if self.metrics is not None:
            self.metrics.counter(counter).inc()
            self.metrics.timeseries(f"{server}.up").sample(t, up)
        if self.telemetry is not None:
            self.telemetry.mark(name, t)

    def _fault_mark(self, state: _ClientState, name: str, server: str,
                    t: float, counter: str | None = None, **args) -> None:
        """Client-side retry/gaveup instant + counter at time ``t``."""
        if self.tracer is not None:
            parent = state.spans[-1][0] if state.spans else None
            a = {"server": server}
            a.update(args)
            self.tracer.instant(name, t, state.track, parent, a)
        if self.metrics is not None:
            self.metrics.counter(counter if counter is not None else name).inc()
        if self.telemetry is not None:
            self.telemetry.mark(name, t)

    def instant_mark(self, name: str) -> None:
        """Driver-side instant at the current time: counter + telemetry mark.

        For load sources (the open-loop driver) that sit outside any client
        track — arrival/shed/abandon accounting attaches to no span, so
        there is no tracer instant, only the counter and the mark.
        """
        if self.metrics is not None:
            self.metrics.counter(name).inc()
        if self.telemetry is not None:
            self.telemetry.mark(name, self.now)

    # -- span stack driven by SpanBegin/SpanEnd/Mark commands -------------------
    def _span_begin(self, state: _ClientState, cmd: SpanBegin) -> None:
        span = None
        if self.tracer is not None:
            parent = state.spans[-1][0] if state.spans else None
            span = self.tracer.begin(cmd.name, cmd.cat, self.now, state.track,
                                     parent, dict(cmd.args))
        state.spans.append((span, cmd.name, self.now))

    def _span_end(self, state: _ClientState, cmd: SpanEnd | None = None) -> None:
        if not state.spans:
            return
        span, name, t0 = state.spans.pop()
        if span is not None:
            self.tracer.end(span, self.now)
        if self.metrics is not None:
            self.metrics.counter(name).inc()
            self.metrics.histogram(name + "_us").record(self.now - t0)
        if self.telemetry is not None and not state.spans:
            # outermost span only: one op completion, not one per nesting
            self.telemetry.op_complete(
                name, t0, self.now,
                cmd.error if cmd is not None else None)

    def _mark(self, state: _ClientState, cmd: Mark) -> None:
        if self.tracer is not None:
            parent = state.spans[-1][0] if state.spans else None
            self.tracer.instant(cmd.name, self.now, state.track, parent,
                                dict(cmd.args))
        if self.metrics is not None:
            self.metrics.counter(cmd.name).inc()
        if self.telemetry is not None:
            self.telemetry.mark(cmd.name, self.now)

    # -- server-side instrumentation ---------------------------------------------
    def _rpc_span(self, state: _ClientState, rpc: Rpc):
        """Open the client-side span of one RPC at the current time."""
        parent = state.spans[-1][0] if state.spans else None
        return self.tracer.begin(f"rpc.{rpc.method}", "rpc", self.now,
                                 state.track, parent, {"server": rpc.server})

    # -- batched RPC execution (shared by both engines) ---------------------------
    def _exec_batch(self, node: ServerNode, batch: Batch, span=None,
                    start: float = 0.0):
        """Dispatch every sub-op of a batch in order under one group-commit
        scope.  Returns ``(results, first_err)`` — a failing sub-op yields
        ``None`` in its slot and the first error is reported after the
        whole batch ran (Parallel semantics).

        With a tracer attached (the caller passes its batch ``span`` and
        the service ``start`` time) every sub-op gets a ``batch.<method>``
        child span on the server track, positioned by the meter's running
        total so the per-record KV breakdown nests under it.
        """
        results = []
        first_err: FSError | None = None
        gc = node.group_commit
        ctx = gc() if gc is not None else None
        if ctx is not None:
            ctx.__enter__()
        meter = node.meter
        # the per-dispatch KV sink the caller installed; its running meter
        # total is the only clock inside a service period
        sink = meter.trace
        trace_records = span is not None and sink is not None
        base = meter.total_us if trace_records else 0.0
        rec_span = None
        try:
            ops = node._ops
            for i, rpc in enumerate(batch.rpcs):
                if trace_records:
                    rec_span = self.tracer.begin(
                        f"batch.{rpc.method}", "record",
                        start + (meter.total_us - base), batch.server, span,
                        {"index": i})
                    sink.parent = rec_span
                try:
                    fn = ops.get(rpc.method)
                    if fn is None:
                        result = node.dispatch(rpc.method, rpc.args, rpc.kwargs)
                    elif rpc.kwargs:
                        result = fn(*rpc.args, **rpc.kwargs)
                    else:
                        result = fn(*rpc.args)
                except FSError as e:
                    result = None
                    if first_err is None:
                        first_err = e
                results.append(result)
                if trace_records:
                    self.tracer.end(rec_span, start + (meter.total_us - base))
                    sink.parent = span
        finally:
            if ctx is not None:
                ctx.__exit__(None, None, None)
        return results, first_err

    def _batch_span(self, state: _ClientState, batch: Batch):
        """Open the client-side span of one batched round trip, and link
        every captured deferred-op span (``batch.origins``) to it."""
        parent = state.spans[-1][0] if state.spans else None
        span = self.tracer.begin(f"rpc.batch[{len(batch.rpcs)}]", "rpc", self.now,
                                 state.track, parent, {"server": batch.server})
        origins = batch.origins
        if origins:
            link = self.tracer.link
            for origin in origins:
                link(origin, span, "batch-flush")
        return span

    def _record_batch(self, batch: Batch, span, arrive: float, start: float,
                      service: float) -> None:
        """Server-side queue/serve phases and batch-shape metrics."""
        n = len(batch.rpcs)
        server = batch.server
        if self.tracer is not None:
            if start > arrive:
                self.tracer.complete("queue", "queue", arrive, start, server, span)
            self.tracer.complete(f"serve.batch[{n}]", "serve", start,
                                 start + service, server, span)
        if self.metrics is not None:
            m = self.metrics
            m.counter(f"{server}.requests").inc()
            m.counter(f"{server}.batches").inc()
            m.counter(f"{server}.batched_ops").inc(n)
            m.histogram(f"{server}.batch_size").record(n)
            for rpc in batch.rpcs:
                m.counter(f"{server}.op.{rpc.method}").inc()
            m.histogram(f"{server}.queue_wait_us").record(start - arrive)
            m.histogram(f"{server}.service_us").record(service)
        if self.telemetry is not None:
            self.telemetry.rpc_complete(server, arrive, start, service,
                                        n_ops=n, batch=True)

    def _record_service(self, rpc: Rpc, rpc_span, arrive: float, start: float,
                        service: float) -> None:
        """Record the queue/serve phases of a dispatch on the server track."""
        if self.tracer is not None:
            if start > arrive:
                self.tracer.complete("queue", "queue", arrive, start,
                                     rpc.server, rpc_span)
            self.tracer.complete(f"serve.{rpc.method}", "serve", start,
                                 start + service, rpc.server, rpc_span)
        if self.metrics is not None:
            self.metrics.counter(f"{rpc.server}.requests").inc()
            self.metrics.counter(f"{rpc.server}.op.{rpc.method}").inc()
            self.metrics.histogram(f"{rpc.server}.queue_wait_us").record(start - arrive)
            self.metrics.histogram(f"{rpc.server}.service_us").record(service)
        if self.telemetry is not None:
            self.telemetry.rpc_complete(rpc.server, arrive, start, service)


class DirectEngine(_ObservableEngine):
    """Synchronous executor with a virtual clock.

    The clock models the latency a *single* client observes: every RPC
    costs one RTT plus the server's metered service time; switching to a
    different server than the previous request costs ``conn_switch_us``
    (§4.2.1 observation 2: more connections slow the client down).
    """

    def __init__(self, cluster: Cluster, cost: CostModel):
        self.cluster = cluster
        self.cost = cost
        self.now = 0.0
        self._client = _ClientState()
        self._nodes = cluster._nodes
        # one half-RTT per direction of every RPC; dividing once here gives
        # bit-identical sums (same double, same additions)
        self._half_rtt = cost.rtt_us / 2.0

    # -- protocol -------------------------------------------------------------
    def run(self, gen: Generator):
        send = gen.send
        throw = gen.throw
        send_value = None
        exc: BaseException | None = None
        while True:
            try:
                cmd = throw(exc) if exc is not None else send(send_value)
            except StopIteration as stop:
                return stop.value
            exc = None
            send_value = None
            try:
                tag = cmd.tag
            except AttributeError:
                raise TypeError(f"unknown engine command: {cmd!r}") from None
            if tag == TAG_RPC:
                try:
                    send_value = (self._do_rpc(cmd) if self.faults is None
                                  else self._do_rpc_f(cmd))
                except FSError as e:
                    exc = e
            elif tag == TAG_PARALLEL:
                results = []
                first_err: FSError | None = None
                base = self.now
                uplink = 0.0
                downlink_free = base
                slowest = base
                transfer_us = self.cost.transfer_us
                rpc_fn = self._do_rpc if self.faults is None else self._do_rpc_f
                for rpc in cmd.rpcs:
                    # the client's uplink serializes request payloads: each
                    # branch departs once its payload (and all earlier ones)
                    # is on the wire ...
                    if rpc.send_bytes:
                        uplink += transfer_us(rpc.send_bytes)
                    self.now = base + uplink
                    try:
                        results.append(rpc_fn(rpc, single=False, transfers=False))
                    except FSError as e:
                        results.append(None)
                        if first_err is None:
                            first_err = e
                    # ... and the downlink serializes response payloads
                    arrive = max(self.now, downlink_free)
                    nbytes = _response_bytes(rpc, results[-1])
                    if nbytes:
                        arrive += transfer_us(nbytes)
                    downlink_free = arrive
                    slowest = max(slowest, arrive)
                self.now = slowest
                if first_err is not None:
                    exc = first_err
                else:
                    send_value = results
            elif tag == TAG_DELAY:  # Sleep and LocalCharge advance time alike
                self.now += cmd.us
            elif tag == TAG_SPAN_BEGIN:
                self._span_begin(self._client, cmd)
            elif tag == TAG_SPAN_END:
                self._span_end(self._client, cmd)
            elif tag == TAG_MARK:
                self._mark(self._client, cmd)
            elif tag == TAG_SPAN_CAPTURE:
                client = self._client
                send_value = client.spans[-1][0] if client.spans else None
            elif tag == TAG_BATCH:
                try:
                    send_value = (self._do_batch(cmd) if self.faults is None
                                  else self._do_batch_f(cmd))
                except FSError as e:
                    exc = e
            elif tag == TAG_QUORUM:
                try:
                    send_value = self._do_quorum(cmd)
                except FSError as e:
                    exc = e
            else:
                raise TypeError(f"unknown engine command: {cmd!r}")

    def _do_quorum(self, cmd: Quorum):
        """Fan out the branches, resume at the k-th successful completion.

        Each branch gets exactly one attempt (no retry policy — see
        :class:`~repro.sim.rpc.Quorum`): a dropped request or down server
        is a failed vote at ``send + timeout_us``.  All branches execute
        against their servers (their queue/service effects happen), but
        the clock resumes at the k-th success; slower successes are
        reported as ``None``, matching "still in flight at resume".
        """
        cost = self.cost
        base = self.now
        uplink = 0.0
        downlink_free = base
        transfer_us = cost.transfer_us
        faults = self.faults
        n = len(cmd.rpcs)
        results: list = [None] * n
        finishes: list[tuple[float, int, bool, FSError | None]] = []
        for i, rpc in enumerate(cmd.rpcs):
            # the client's uplink serializes request payloads, exactly as
            # a Parallel fan-out does
            if rpc.send_bytes:
                uplink += transfer_us(rpc.send_bytes)
            t0 = base + uplink
            self.now = t0
            ok = True
            err: FSError | None = None
            result = None
            dropped = False
            if faults is not None:
                fate, extra = faults.wire_fate()
                if fate == F_DROP:
                    dropped = True
                elif extra:
                    self.now += extra
            if dropped:
                # request loss: the server never executes it, the vote
                # fails when the client's timeout fires
                ok = False
                self.now = t0 + cost.timeout_us
            else:
                try:
                    result = self._do_rpc(rpc, single=False, transfers=False)
                except ServerDown as e:
                    ok, err = False, e
                    self.now = max(self.now, t0 + cost.timeout_us)
                except FSError as e:
                    # an application error (e.g. NotLeader) is a fast
                    # failed vote: the response did come back
                    ok, err = False, e
            arrive = self.now
            if ok:
                arrive = arrive if arrive > downlink_free else downlink_free
                nbytes = _response_bytes(rpc, result)
                if nbytes:
                    arrive += transfer_us(nbytes)
                downlink_free = arrive
                results[i] = result
            finishes.append((arrive, i, ok, err))
        succ = sorted(t for t, _, ok, _ in finishes if ok)
        if len(succ) >= cmd.k:
            resume = succ[cmd.k - 1]
            self.now = resume
            for t, i, ok, _ in finishes:
                if not ok or t > resume:
                    results[i] = None
            return results
        # quorum unreachable: the client learns it when the
        # (n - k + 1)-th branch fails
        fails = sorted(t for t, _, ok, _ in finishes if not ok)
        self.now = fails[n - cmd.k]
        if n == 1:
            first = finishes[0][3]
            if first is not None:
                raise first
        raise QuorumFailed(
            f"{cmd.rpcs[0].method}: {len(succ)} of {cmd.k} votes")

    def _do_rpc(self, rpc: Rpc, single: bool = True, transfers: bool = True):
        cost = self.cost
        node = self._nodes[rpc.server]
        client = self._client
        half = self._half_rtt
        sw = self.switch_nodes
        on_path = sw is not None and rpc.server in sw
        if on_path:
            # switch node: on the wire path already — near-zero latency, no
            # connection churn, and the established server stays connected
            half = sw[rpc.server]
        elif single:
            if client.last_server is not None and client.last_server != rpc.server:
                self.now += cost.conn_switch_us
            client.last_server = rpc.server
        client.rpcs_issued += 1
        rpc_span = None
        if self.tracer is not None:
            rpc_span = self._rpc_span(client, rpc)
        # request wire time (unless the caller accounted it) + half RTT out
        if transfers and rpc.send_bytes:
            self.now += cost.transfer_us(rpc.send_bytes)
        self.now += half
        # FIFO service: parallel branches hitting one server queue up
        arrive = self.now
        faults = self.faults
        if faults is not None:
            faults.advance(arrive)
            if faults.is_down(rpc.server, arrive):
                # the request dies with the server; _do_rpc_f times out
                if rpc_span is not None:
                    self.tracer.end(rpc_span, arrive)
                raise ServerDown(rpc.server)
        start = arrive if arrive > node.next_free else node.next_free
        meter = node.meter
        before = meter.total_us
        if self.tracer is not None and meter.policy is not None:
            meter.trace = KVTraceSink(self.tracer, rpc.server, rpc_span, start)
        result = None
        try:
            fn = node._ops.get(rpc.method)
            if fn is None:
                result = node.dispatch(rpc.method, rpc.args, rpc.kwargs)
            elif rpc.kwargs:
                result = fn(*rpc.args, **rpc.kwargs)
            else:
                result = fn(*rpc.args)
        finally:
            meter.trace = None
            service = meter.total_us - before + cost.server_overhead_us
            node.requests_served += 1
            node.busy_us += service
            node.next_free = start + service
            self.now = start + service
            telemetry = self.telemetry
            if self.tracer is None and self.metrics is None:
                if telemetry is not None:
                    telemetry.rpc_complete(rpc.server, arrive, start, service)
            else:
                self._record_service(rpc, rpc_span, arrive, start, service)
            # response wire time + half RTT back
            if transfers:
                nbytes = rpc.recv_bytes
                if not nbytes and isinstance(result, (bytes, bytearray)):
                    nbytes = len(result)
                if nbytes:
                    self.now += cost.transfer_us(nbytes)
            self.now += half
            if rpc_span is not None:
                self.tracer.end(rpc_span, self.now)
        return result

    def _do_batch(self, batch: Batch):
        """One round trip carrying every sub-op of the batch.

        Wire model mirrors ``_do_rpc``: one optional connection switch, the
        summed request payloads on the uplink, one half-RTT out, a single
        FIFO queue entry at the server, then the summed response payloads
        and one half-RTT back.  Service time is the metered cost of all
        sub-ops plus a single ``server_overhead_us`` — the per-request
        parse/dispatch work is what batching amortizes.
        """
        cost = self.cost
        node = self._nodes[batch.server]
        client = self._client
        if client.last_server is not None and client.last_server != batch.server:
            self.now += cost.conn_switch_us
        client.last_server = batch.server
        client.rpcs_issued += 1
        span = None
        if self.tracer is not None:
            span = self._batch_span(client, batch)
        send_bytes = 0
        for rpc in batch.rpcs:
            send_bytes += rpc.send_bytes
        if send_bytes:
            self.now += cost.transfer_us(send_bytes)
        self.now += self._half_rtt
        arrive = self.now
        faults = self.faults
        if faults is not None:
            faults.advance(arrive)
            if faults.is_down(batch.server, arrive):
                if span is not None:
                    self.tracer.end(span, arrive)
                raise ServerDown(batch.server)
        start = arrive if arrive > node.next_free else node.next_free
        meter = node.meter
        before = meter.total_us
        if self.tracer is not None and meter.policy is not None:
            meter.trace = KVTraceSink(self.tracer, batch.server, span, start)
        try:
            results, first_err = self._exec_batch(node, batch, span, start)
        finally:
            meter.trace = None
        service = meter.total_us - before + cost.server_overhead_us
        node.requests_served += 1
        node.busy_us += service
        node.next_free = start + service
        self.now = start + service
        telemetry = self.telemetry
        if self.tracer is None and self.metrics is None:
            if telemetry is not None:
                telemetry.rpc_complete(batch.server, arrive, start, service,
                                       n_ops=len(batch.rpcs), batch=True)
        else:
            self._record_batch(batch, span, arrive, start, service)
        recv_bytes = 0
        for rpc, result in zip(batch.rpcs, results):
            recv_bytes += _response_bytes(rpc, result)
        if recv_bytes:
            self.now += cost.transfer_us(recv_bytes)
        self.now += self._half_rtt
        if span is not None:
            self.tracer.end(span, self.now)
        if first_err is not None:
            raise first_err
        return results

    # -- fault-aware wrappers (installed only when faults are attached) -----------
    def _do_rpc_f(self, rpc: Rpc, single: bool = True, transfers: bool = True):
        """Fault-aware ``_do_rpc``: wire-fate draw + timeout/retry loop.

        A dropped request is lost before the server sees it (no spurious
        side effects on retried non-idempotent ops); a down server
        swallows the request on arrival.  Either way the client burns
        ``timeout_us`` from the send, then backs off and re-issues until
        the retry policy is exhausted and :class:`ServerDown` surfaces.
        """
        cost = self.cost
        faults = self.faults
        policy = self.retry
        attempt = 0
        while True:
            t0 = self.now
            fate, extra = faults.wire_fate()
            if fate != F_DROP:
                if extra:
                    self.now += extra
                try:
                    return self._do_rpc(rpc, single, transfers)
                except ServerDown:
                    self.now = max(self.now, t0 + cost.timeout_us)
            else:
                # request loss on the wire: the server never executes it
                self.now = t0 + cost.timeout_us
            if attempt >= policy.max_retries:
                self._fault_mark(self._client, "client.gaveup", rpc.server,
                                 self.now)
                raise ServerDown(rpc.server)
            self._fault_mark(self._client, "client.retry", rpc.server,
                             self.now, counter="client.retries",
                             attempt=attempt + 1)
            self.now += policy.backoff_us(attempt, faults.rng)
            attempt += 1

    def _do_batch_f(self, batch: Batch):
        """Fault-aware ``_do_batch``.

        A dropped batch loses the *response*: the server applies the
        whole batch, the client times out and retries — the at-least-once
        delivery case the FMS's idempotent ``create_batch`` dedup turns
        into exactly-once.
        """
        cost = self.cost
        faults = self.faults
        policy = self.retry
        attempt = 0
        while True:
            t0 = self.now
            fate, extra = faults.wire_fate()
            if extra:
                self.now += extra
            try:
                results = self._do_batch(batch)
                if fate != F_DROP:
                    return results
                # response lost: result (and any deferred error) discarded
                self.now = max(self.now, t0 + cost.timeout_us)
            except ServerDown:
                self.now = max(self.now, t0 + cost.timeout_us)
            except FSError:
                if fate != F_DROP:
                    raise
                self.now = max(self.now, t0 + cost.timeout_us)
            if attempt >= policy.max_retries:
                self._fault_mark(self._client, "client.gaveup", batch.server,
                                 self.now)
                raise ServerDown(batch.server)
            self._fault_mark(self._client, "client.retry", batch.server,
                             self.now, counter="client.retries",
                             attempt=attempt + 1)
            self.now += policy.backoff_us(attempt, faults.rng)
            attempt += 1

    def reset_clock(self) -> None:
        self.now = 0.0
        self._client = _ClientState()
        self.cluster.reset_load()


class _Proc:
    """Preallocated continuation slots for one spawned client process.

    The stepping hot path used to pack a fresh five-item argument tuple
    ``(gen, state, on_done, value, exc)`` for every scheduled resume.  A
    proc is allocated once per generator; every resume event carries the
    same preallocated ``slot`` tuple and the resume value/exception ride
    in the slots.  A process is blocked on exactly one continuation at a
    time (one delay, one response, or one parallel join), so slot reuse
    cannot clobber an in-flight resume.
    """

    __slots__ = ("gen", "state", "on_done", "value", "exc", "slot")

    def __init__(self, gen, state, on_done):
        self.gen = gen
        self.state = state
        self.on_done = on_done
        self.value = None
        self.exc = None
        #: the one (proc,) argument tuple every resume event reuses
        self.slot = (self,)


class EventEngine(_ObservableEngine):
    """Discrete-event executor for many concurrent client processes."""

    def __init__(self, cluster: Cluster, cost: CostModel):
        self.cluster = cluster
        self.cost = cost
        self.sim = Simulator()
        self._n_clients = 0
        # run() calls share one logical client, so consecutive synchronous
        # operations see the same connection state the Direct engine models
        self._default_client = _ClientState("client0")
        #: per-server finish times of outstanding requests (metrics only)
        self._backlog: dict[str, deque] = {}
        #: per-server (last sample ts, busy_us at that ts) for busy-fraction
        self._util_mark: dict[str, tuple[float, float]] = {}
        self._nodes = cluster._nodes
        self._half_rtt = cost.rtt_us / 2.0

    @property
    def now(self) -> float:
        return self.sim.now

    # -- public API -----------------------------------------------------------
    def run(self, gen: Generator):
        """Drive one generator to completion (convenience for tests)."""
        box: dict = {}

        def done(value, exc):
            box["value"] = value
            box["exc"] = exc

        self.spawn(gen, done, client=self._default_client)
        self.sim.run()
        if box.get("exc") is not None:
            raise box["exc"]
        return box.get("value")

    def spawn(
        self,
        gen: Generator,
        on_done: Callable | None = None,
        client: _ClientState | None = None,
    ) -> None:
        """Start a generator as a simulator process."""
        state = client if client is not None else self.new_client()
        proc = _Proc(gen, state, on_done)
        # after(0.0, ...) routes to the ready queue; append directly
        self.sim._ready.append((self._step, proc.slot))

    def new_client(self) -> _ClientState:
        self._n_clients += 1
        return _ClientState(f"client{self._n_clients}")

    # -- stepping machinery --------------------------------------------------------
    def _step(self, proc: _Proc) -> None:
        # synchronous commands (spans, marks, captures) are handled in
        # place and loop straight into the next send — no recursion, no
        # simulator event, no time advance
        gen = proc.gen
        state = proc.state
        send_value = proc.value
        exc = proc.exc
        proc.value = proc.exc = None
        while True:
            try:
                cmd = gen.throw(exc) if exc is not None else gen.send(send_value)
            except StopIteration as stop:
                on_done = proc.on_done
                if on_done is not None:
                    on_done(stop.value, None)
                return
            except FSError as e:
                on_done = proc.on_done
                if on_done is not None:
                    on_done(None, e)
                else:  # pragma: no cover - surfacing a bug in an op generator
                    raise
                return
            try:
                tag = cmd.tag
            except AttributeError:
                raise TypeError(f"unknown engine command: {cmd!r}") from None
            if tag == TAG_RPC:
                self._issue(proc, cmd, single=True)
                return
            if tag == TAG_DELAY:  # Sleep and LocalCharge advance time alike
                sim = self.sim
                now = sim.now
                t = now + cmd.us
                if t <= now:
                    # zero-delay continuation: ready queue, scheduling order
                    sim._ready.append((self._step, proc.slot))
                    return
                heap = sim._heap
                if not sim._ready and (not heap or heap[0][0] > t):
                    # uncontended delay: this event would be the very next
                    # one popped, so advance the clock in place and keep
                    # stepping — same instant, same order, no heap churn
                    sim.now = t
                    send_value = None
                    exc = None
                    continue
                sim._seq = seq = sim._seq + 1
                heappush(heap, (t, seq, self._step, proc.slot))
                return
            if tag == TAG_PARALLEL:
                rpcs = cmd.rpcs
                n = len(rpcs)
                if n == 0:
                    proc.value = []
                    self.sim._ready.append((self._step, proc.slot))
                    return
                pending = {"n": n, "results": [None] * n, "err": None}
                # the client uplink serializes request payloads: branch i
                # cannot dispatch before the preceding payloads are on the wire
                uplink = 0.0
                transfer_us = self.cost.transfer_us
                for i, rpc in enumerate(rpcs):
                    self._issue(proc, rpc, single=False,
                                group=(pending, i), extra_delay=uplink)
                    if rpc.send_bytes:
                        uplink += transfer_us(rpc.send_bytes)
                return
            if tag == TAG_QUORUM:
                rpcs = cmd.rpcs
                pending = {
                    "total": len(rpcs),
                    "need": cmd.k,
                    "ok": 0,
                    "fail": 0,
                    "results": [None] * len(rpcs),
                    "first_err": None,
                    "resolved": False,
                    "method": rpcs[0].method,
                    # routes branch completions to _join_quorum (and marks
                    # the group single-attempt for _retry_rpc)
                    "join": self._join_quorum,
                }
                uplink = 0.0
                transfer_us = self.cost.transfer_us
                for i, rpc in enumerate(rpcs):
                    self._issue(proc, rpc, single=False,
                                group=(pending, i), extra_delay=uplink)
                    if rpc.send_bytes:
                        uplink += transfer_us(rpc.send_bytes)
                return
            if tag == TAG_SPAN_BEGIN:
                self._span_begin(state, cmd)
            elif tag == TAG_SPAN_END:
                self._span_end(state, cmd)
            elif tag == TAG_MARK:
                self._mark(state, cmd)
            elif tag == TAG_SPAN_CAPTURE:
                exc = None
                send_value = state.spans[-1][0] if state.spans else None
                continue
            elif tag == TAG_BATCH:
                self._issue_batch(proc, cmd)
                return
            else:
                raise TypeError(f"unknown engine command: {cmd!r}")
            exc = None
            send_value = None

    def _issue(self, proc: _Proc, rpc: Rpc, single: bool, group=None,
               extra_delay: float = 0.0, attempt: int = 0) -> None:
        cost = self.cost
        state = proc.state
        faults = self.faults
        if faults is not None:
            fate, extra = faults.wire_fate()
            if fate == F_DROP:
                # request loss: never delivered, the client times out from
                # the send and the retry machinery takes over
                if single:
                    state.last_server = rpc.server
                state.rpcs_issued += 1
                self._retry_rpc(proc, rpc, single, group, attempt,
                                self.sim.now)
                return
            if extra:
                extra_delay += extra
        if rpc.send_bytes:
            delay = cost.transfer_us(rpc.send_bytes) + extra_delay
        else:
            delay = extra_delay
        half = self._half_rtt
        sw = self.switch_nodes
        if sw is not None and rpc.server in sw:
            # on-path switch node: no connection churn, near-zero latency
            half = sw[rpc.server]
        elif single:
            if state.last_server is not None and state.last_server != rpc.server:
                delay += cost.conn_switch_us
            state.last_server = rpc.server
        state.rpcs_issued += 1
        rpc_span = None
        if self.tracer is not None:
            rpc_span = self._rpc_span(state, rpc)
        # inlined sim.at(): the deliver time is now + delay + half-RTT with
        # every term non-negative, so it is never in the past; == now (a
        # zero-RTT cost model) routes to the ready queue exactly as at()
        sim = self.sim
        now = sim.now
        deliver_at = now + delay + half
        args = (proc, rpc, single, group, rpc_span, attempt)
        if deliver_at > now:
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (deliver_at, seq, self._deliver, args))
        else:
            sim._ready.append((self._deliver, args))

    def _deliver(self, proc: _Proc, rpc: Rpc, single: bool, group,
                 rpc_span, attempt: int = 0) -> None:
        cost = self.cost
        sim = self.sim
        state = proc.state
        faults = self.faults
        if faults is not None:
            now = sim.now
            faults.advance(now)
            if faults.is_down(rpc.server, now):
                # arrived at a dead server: the request is lost, the
                # client perceives a timeout measured from the arrival
                if rpc_span is not None:
                    self.tracer.end(rpc_span, now + cost.timeout_us)
                self._retry_rpc(proc, rpc, single, group, attempt, now)
                return
        node: ServerNode = self._nodes[rpc.server]
        arrive = sim.now
        start = arrive if arrive > node.next_free else node.next_free
        meter = node.meter
        before = meter.total_us
        tracer = self.tracer
        if tracer is not None and meter.policy is not None:
            meter.trace = KVTraceSink(tracer, rpc.server, rpc_span, start)
        err: FSError | None = None
        result = None
        try:
            fn = node._ops.get(rpc.method)
            if fn is None:
                result = node.dispatch(rpc.method, rpc.args, rpc.kwargs)
            elif rpc.kwargs:
                result = fn(*rpc.args, **rpc.kwargs)
            else:
                result = fn(*rpc.args)
        except FSError as e:
            err = e
        finally:
            meter.trace = None
        service = meter.total_us - before + cost.server_overhead_us
        finish = start + service
        node.next_free = finish
        node.requests_served += 1
        node.busy_us += service
        telemetry = self.telemetry
        if tracer is None and self.metrics is None:
            # telemetry-only fast path: one folded sink call per request
            if telemetry is not None:
                telemetry.rpc_complete(
                    rpc.server, arrive, start, service,
                    depth=self._arrival_depth(rpc.server, arrive, finish))
        else:
            self._record_service(rpc, rpc_span, arrive, start, service)
            if self.metrics is not None or telemetry is not None:
                self._sample_server(rpc.server, node, arrive, finish)
        # the response reaches the client after the wire latency, then its
        # payload must cross the client's (serialized) downlink
        half = self._half_rtt
        sw = self.switch_nodes
        if sw is not None and rpc.server in sw:
            half = sw[rpc.server]
        reach_client = finish + half
        nbytes = rpc.recv_bytes
        if not nbytes and isinstance(result, (bytes, bytearray)):
            nbytes = len(result)
        respond_at = reach_client if reach_client > state.downlink_free \
            else state.downlink_free
        if nbytes:
            respond_at += cost.transfer_us(nbytes)
        state.downlink_free = respond_at
        if rpc_span is not None:
            self.tracer.end(rpc_span, respond_at)
        # inlined sim.at(): respond_at >= arrive + service + half-RTT, so
        # it can only equal `now` (== arrive) under a zero-cost model —
        # then the ready queue preserves at()'s ordering exactly
        if single:
            proc.value = result
            proc.exc = err
            if respond_at > arrive:
                sim._seq = seq = sim._seq + 1
                heappush(sim._heap, (respond_at, seq, self._step, proc.slot))
            else:
                sim._ready.append((self._step, proc.slot))
        else:
            pending, idx = group
            join = pending.get("join")
            if join is None:
                join = self._join
            args = (proc, pending, idx, result, err)
            if respond_at > arrive:
                sim._seq = seq = sim._seq + 1
                heappush(sim._heap, (respond_at, seq, join, args))
            else:
                sim._ready.append((join, args))

    def _issue_batch(self, proc: _Proc, batch: Batch,
                     attempt: int = 0) -> None:
        """Send one batched round trip: like ``_issue`` for a single RPC,
        with the sub-ops' request payloads summed on the uplink."""
        cost = self.cost
        state = proc.state
        faults = self.faults
        lost = None
        delay = 0.0
        if faults is not None:
            fate, extra = faults.wire_fate()
            if fate == F_DROP:
                # batches lose the *response*: the server executes the
                # flush, the client times out — retry must be idempotent
                lost = (attempt, self.sim.now)
            elif extra:
                delay = extra
        send_bytes = 0
        for rpc in batch.rpcs:
            send_bytes += rpc.send_bytes
        if send_bytes:
            delay += cost.transfer_us(send_bytes)
        if state.last_server is not None and state.last_server != batch.server:
            delay += cost.conn_switch_us
        state.last_server = batch.server
        state.rpcs_issued += 1
        span = None
        if self.tracer is not None:
            span = self._batch_span(state, batch)
        sim = self.sim
        now = sim.now
        deliver_at = now + delay + self._half_rtt
        args = (proc, batch, span, attempt, lost)
        if deliver_at > now:
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (deliver_at, seq, self._deliver_batch, args))
        else:
            sim._ready.append((self._deliver_batch, args))

    def _deliver_batch(self, proc: _Proc, batch: Batch, span,
                       attempt: int = 0, lost=None) -> None:
        """Server-side half of a batched round trip: one FIFO queue entry,
        every sub-op served back-to-back under one group-commit scope."""
        cost = self.cost
        sim = self.sim
        state = proc.state
        faults = self.faults
        if faults is not None:
            now = sim.now
            faults.advance(now)
            if faults.is_down(batch.server, now):
                if span is not None:
                    self.tracer.end(span, now + cost.timeout_us)
                self._retry_batch(proc, batch, attempt, now)
                return
        node: ServerNode = self._nodes[batch.server]
        arrive = sim.now
        start = arrive if arrive > node.next_free else node.next_free
        meter = node.meter
        before = meter.total_us
        tracer = self.tracer
        if tracer is not None and meter.policy is not None:
            meter.trace = KVTraceSink(tracer, batch.server, span, start)
        try:
            results, first_err = self._exec_batch(node, batch, span, start)
        finally:
            meter.trace = None
        service = meter.total_us - before + cost.server_overhead_us
        finish = start + service
        node.next_free = finish
        node.requests_served += 1
        node.busy_us += service
        telemetry = self.telemetry
        if self.tracer is None and self.metrics is None:
            if telemetry is not None:
                telemetry.rpc_complete(
                    batch.server, arrive, start, service,
                    n_ops=len(batch.rpcs), batch=True,
                    depth=self._arrival_depth(batch.server, arrive, finish))
        else:
            self._record_batch(batch, span, arrive, start, service)
            if self.metrics is not None or telemetry is not None:
                self._sample_server(batch.server, node, arrive, finish)
        if lost is not None:
            # the server served the batch, but its response never reaches
            # the client: time out from the send and retry
            l_attempt, t0 = lost
            if span is not None:
                self.tracer.end(span, t0 + cost.timeout_us)
            self._retry_batch(proc, batch, l_attempt, t0)
            return
        reach_client = finish + self._half_rtt
        recv_bytes = 0
        for rpc, result in zip(batch.rpcs, results):
            recv_bytes += _response_bytes(rpc, result)
        respond_at = reach_client if reach_client > state.downlink_free \
            else state.downlink_free
        if recv_bytes:
            respond_at += cost.transfer_us(recv_bytes)
        state.downlink_free = respond_at
        if span is not None:
            self.tracer.end(span, respond_at)
        if first_err is not None:
            proc.value = None
            proc.exc = first_err
        else:
            proc.value = results
        if respond_at > arrive:
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (respond_at, seq, self._step, proc.slot))
        else:
            sim._ready.append((self._step, proc.slot))

    # -- timeout + retry scheduling (fault injection only) -------------------------
    def _retry_rpc(self, proc: _Proc, rpc: Rpc, single: bool, group,
                   attempt: int, base_t: float) -> None:
        """One failed RPC attempt: the client perceives the loss
        ``timeout_us`` after ``base_t``, then backs off and re-issues —
        or gives up with :class:`ServerDown` once the policy is spent."""
        sim = self.sim
        state = proc.state
        policy = self.retry
        fail_at = base_t + self.cost.timeout_us
        if group is not None and group[0].get("join") is not None:
            # quorum branch: single attempt by design — a lost request or
            # down server is a failed vote when the timeout fires, never a
            # backoff+retry (which would turn millisecond failovers into
            # tens of milliseconds per dead replica)
            pending, idx = group
            at = fail_at if fail_at > sim.now else sim.now
            sim.at(at, pending["join"], proc, pending, idx, None,
                   ServerDown(rpc.server))
            return
        if attempt >= policy.max_retries:
            self._fault_mark(state, "client.gaveup", rpc.server, fail_at)
            err = ServerDown(rpc.server)
            at = fail_at if fail_at > sim.now else sim.now
            if group is None:
                proc.value = None
                proc.exc = err
                sim.at(at, self._step, proc)
            else:
                pending, idx = group
                sim.at(at, self._join, proc, pending, idx, None, err)
            return
        self._fault_mark(state, "client.retry", rpc.server, fail_at,
                         counter="client.retries", attempt=attempt + 1)
        t = fail_at + policy.backoff_us(attempt, self.faults.rng)
        at = t if t > sim.now else sim.now
        sim.at(at, self._issue, proc, rpc, single, group, 0.0, attempt + 1)

    def _retry_batch(self, proc: _Proc, batch: Batch, attempt: int,
                     base_t: float) -> None:
        """Batch flavor of :meth:`_retry_rpc` (batches are never inside a
        Parallel group, so a give-up always resumes the generator)."""
        sim = self.sim
        state = proc.state
        policy = self.retry
        fail_at = base_t + self.cost.timeout_us
        if attempt >= policy.max_retries:
            self._fault_mark(state, "client.gaveup", batch.server, fail_at)
            err = ServerDown(batch.server)
            at = fail_at if fail_at > sim.now else sim.now
            proc.value = None
            proc.exc = err
            sim.at(at, self._step, proc)
            return
        self._fault_mark(state, "client.retry", batch.server, fail_at,
                         counter="client.retries", attempt=attempt + 1)
        t = fail_at + policy.backoff_us(attempt, self.faults.rng)
        at = t if t > sim.now else sim.now
        sim.at(at, self._issue_batch, proc, batch, attempt + 1)

    def _arrival_depth(self, name: str, arrive: float, finish: float) -> int:
        """Queue depth on arrival (requests ahead still queued or in
        service), maintained as a deque of in-flight finish times."""
        backlog = self._backlog.get(name)
        if backlog is None:
            backlog = self._backlog[name] = deque()
        while backlog and backlog[0] <= arrive:
            backlog.popleft()
        depth = len(backlog)
        backlog.append(finish)
        return depth

    def _sample_server(self, name: str, node: ServerNode, arrive: float,
                       finish: float) -> None:
        """Per-server queue depth and busy-fraction over the window since
        the previous sample."""
        depth = self._arrival_depth(name, arrive, finish)
        if self.telemetry is not None:
            self.telemetry.queue_depth(name, arrive, depth)
        metrics = self.metrics
        if metrics is None:
            return
        metrics.timeseries(f"{name}.queue_depth").sample(arrive, depth)
        last_ts, last_busy = self._util_mark.get(name, (0.0, 0.0))
        if finish > last_ts:
            frac = min(1.0, (node.busy_us - last_busy) / (finish - last_ts))
            metrics.timeseries(f"{name}.utilization").sample(finish, frac)
            self._util_mark[name] = (finish, node.busy_us)

    def _join_quorum(self, proc: _Proc, pending, idx, result, err) -> None:
        """One quorum branch completed.  Resume the client at the k-th
        success; once resolved, late branches are ignored (their server
        effects already happened, the client has moved on)."""
        if pending["resolved"]:
            return
        if err is None:
            pending["results"][idx] = result
            pending["ok"] += 1
            if pending["ok"] >= pending["need"]:
                pending["resolved"] = True
                # snapshot: still-in-flight branches stay None for the
                # client even though their effects land later
                proc.value = list(pending["results"])
                proc.exc = None
                self._step(proc)
            return
        pending["fail"] += 1
        if pending["first_err"] is None:
            pending["first_err"] = err
        if pending["total"] - pending["fail"] < pending["need"]:
            pending["resolved"] = True
            proc.value = None
            if pending["total"] == 1 and pending["first_err"] is not None:
                proc.exc = pending["first_err"]
            else:
                proc.exc = QuorumFailed(
                    f"{pending['method']}: {pending['ok']} of "
                    f"{pending['need']} votes")
            self._step(proc)

    def _join(self, proc: _Proc, pending, idx, result, err) -> None:
        pending["results"][idx] = result
        if err is not None and pending["err"] is None:
            pending["err"] = err
        pending["n"] -= 1
        if pending["n"] == 0:
            if pending["err"] is not None:
                proc.value = None
                proc.exc = pending["err"]
            else:
                proc.value = pending["results"]
                proc.exc = None
            self._step(proc)


def make_engine(kind: str, cluster: Cluster, cost: CostModel):
    """The engine a deployment's ``engine_kind`` names."""
    if kind == "direct":
        return DirectEngine(cluster, cost)
    if kind == "event":
        return EventEngine(cluster, cost)
    raise ValueError(f"unknown engine kind: {kind!r}")
