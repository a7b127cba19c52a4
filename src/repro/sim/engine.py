"""Engines that drive file-system operation generators.

The timing plane is one rule: a request costs wire time out, a FIFO wait
at its server, the *metered* service time of the KV work the handler
really did, and wire time back.  This module writes that rule down once.
Two thin drivers feed it:

``DirectEngine``
    Executes each yielded command immediately against the in-process
    servers, advancing a virtual clock.  Single-threaded: use it for
    functional tests and for the single-client latency experiments
    (Figs. 6, 7, 10, 12).

``EventEngine``
    Schedules the same generators on the discrete-event simulator.  Each
    server is a FIFO queue; concurrent client processes contend for it, so
    saturation and scalability emerge.  Used for the closed-loop
    throughput experiments (Figs. 1, 8, 9, 11, 13).

Both implement the same tiny protocol: ``run(gen)`` drives a generator to
completion and returns its value; ``now`` is the virtual clock in
microseconds.  One attempt of an ``Rpc`` or ``Batch`` flows through three
stages:

1. **Send half** (``EventEngine._issue``): wire-fate draw, payload on the
   client uplink, switch-node or connection-switch charge,
   ``rpcs_issued``, the rpc span (opened at the issue instant, so the
   connection switch is ``network`` time in the trace); the request
   arrives at ``issue + delay + half_rtt``.  One rule splits the drivers:
   ``DirectEngine`` runs inline only a lone request with no fault
   schedule attached, and a ``Parallel`` with no schedule and no switch
   node (its branches then arrive in index order).  No attempt can be
   lost there, so ``_issue``'s sum in the same order, without the
   wire-fate draw, is the whole send.  Every other command — anything
   under a schedule, the empty one too, every ``Quorum``, a switch-node
   ``Parallel`` — Direct hands, one at a time, to one ``EventEngine``
   over the same cluster, clock, client and sinks.  With no schedule,
   tracer or registry attached, ``EventEngine._step`` sends a lone
   request itself, with no wire-fate draw and no span.
2. **Arrival → serve → reply** (``_serve``, shared: Direct calls it
   inline, and it is the event driver's one arrival callback, which
   also schedules the client's resume): down-server check at
   the *arrival* (DESIGN §8), FIFO queue start, ``KVTraceSink``, op-table
   or ``_exec_batch`` dispatch (the only ``Rpc``/``Batch`` branch) — in
   one WAL group commit when the server logs to a WAL — meter
   delta plus ``server_overhead_us``, node bookkeeping, the obs record,
   and the response leg

       respond_at = max(finish + half_rtt, downlink_free) + transfer_us(nbytes)

   — the response reaches the client after the wire latency, then its
   payload crosses the client's serialized downlink.  One formula for a
   lone response and a fan-out branch alike.
3. **Retry / join** (``EventEngine._retry`` and ``_FanOut.add``): one
   timeout-and-backoff decision for every lost attempt, and one join for
   ``Parallel`` and ``Quorum``.  The two fan-outs differ in a
   ``need``/single-attempt pair, not in code: ``Parallel`` needs every
   branch, lets each retry under the policy, and resumes after the
   *slowest* one (raising the first error only then); ``Quorum`` needs
   ``k``, gives each branch exactly one attempt, and resumes at the k-th
   success — or at the failure that puts ``k`` out of reach.

Hot path: both drivers dispatch on the integer ``tag`` class attribute of
the yielded command (see :mod:`repro.sim.rpc`) instead of an
``isinstance`` chain, settle a request's KV ledger once and read the
meter's total from its slot, and cache cost-model constants that are
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
from repro.kv.api import GroupCommit
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


#: result classes that are their own wire payload (dirent lists, data
#: blocks): a response with no declared ``recv_bytes`` is sized by them.
#: Tested with ``isinstance``: an identity test on ``type(value)`` or
#: ``value.__class__`` spares the builtin call but measured 1.6-3.4 %
#: slower end to end on ``read_mostly`` (CHANGES.md, PR 17)
_RAW = (bytes, bytearray)


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


class _EngineCore:
    """What both drivers share: the dispatch core (``_serve``) and the
    observability and fault plumbing.

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
    #: a tracer or metrics registry is attached: the sinks that want
    #: per-event detail (cache hit/miss marks, span captures for batch
    #: links).  Derived by :meth:`attach_observability`, so the clients'
    #: hot paths test one plain attribute
    obs_detailed = False

    def __init__(self, cluster: Cluster, cost: CostModel):
        self.cluster = cluster
        self.cost = cost
        self._nodes = cluster._nodes
        # one half-RTT per direction of every RPC; dividing once here gives
        # bit-identical sums (same double, same additions)
        self._half_rtt = cost.rtt_us / 2.0

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
        self.obs_detailed = self.tracer is not None or self.metrics is not None

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

    # -- the shared core: one attempt from its issue span to respond_at -----------
    def _open_span(self, state: _ClientState, cmd: Rpc | Batch, t: float):
        """Open the client-side span of one round trip at its issue
        instant ``t``; a batch's span is also the link target of every
        captured deferred-op span (``batch.origins``)."""
        parent = state.spans[-1][0] if state.spans else None
        batch = cmd.tag == TAG_BATCH
        name = f"rpc.batch[{len(cmd.rpcs)}]" if batch else f"rpc.{cmd.method}"
        span = self.tracer.begin(name, "rpc", t, state.track, parent,
                                 {"server": cmd.server})
        if batch and cmd.origins:
            link = self.tracer.link
            for origin in cmd.origins:
                link(origin, span, "batch-flush")
        return span

    def _exec_batch(self, node: ServerNode, batch: Batch, span, start: float):
        """Dispatch every sub-op of a batch in order.  Returns ``(results,
        first_err, recv_bytes)`` — a failing sub-op yields ``None`` in its
        slot and the first error is reported after the whole batch ran
        (Parallel semantics); ``recv_bytes`` is the summed wire size of the
        responses.

        With a tracer attached every sub-op gets a ``batch.<method>``
        child span of the batch ``span`` on the server track, positioned
        from the service ``start`` by the meter's running total so the
        per-record KV breakdown nests under it.
        """
        results = []
        first_err: FSError | None = None
        recv_bytes = 0
        meter = node.meter
        # the per-dispatch KV sink the caller installed; its running meter
        # total (read settled: a record's KV spans land under its span) is
        # the only clock inside a service period
        sink = meter.trace
        trace_records = span is not None and sink is not None
        base = meter.total_us if trace_records else 0.0
        rec_span = None
        ops = node._ops
        for i, rpc in enumerate(batch.rpcs):
            if trace_records:
                rec_span = self.tracer.begin(
                    f"batch.{rpc.method}", "record",
                    start + (meter.total_us - base), batch.server, span,
                    {"index": i})
                sink.parent = rec_span
            nbytes = rpc.recv_bytes
            try:
                fn = ops[rpc.method]
                result = fn(*rpc.args, **rpc.kwargs) if rpc.kwargs \
                    else fn(*rpc.args)
                if not nbytes and isinstance(result, _RAW):
                    nbytes = len(result)
            except FSError as e:
                result = None
                if first_err is None:
                    first_err = e
            results.append(result)
            recv_bytes += nbytes
            if trace_records:
                self.tracer.end(rec_span, start + (meter.total_us - base))
                sink.parent = span
        return results, first_err, recv_bytes

    def _record(self, cmd: Rpc | Batch, span, arrive: float, start: float,
                service: float) -> None:
        """Server-side queue/serve phases of one dispatch on the server
        track, per-server request metrics (plus the batch shape), and the
        telemetry service interval."""
        server = cmd.server
        batch = cmd.tag == TAG_BATCH
        rpcs = cmd.rpcs if batch else (cmd,)
        n = len(rpcs)
        if self.tracer is not None:
            if start > arrive:
                self.tracer.complete("queue", "queue", arrive, start, server, span)
            label = f"batch[{n}]" if batch else cmd.method
            self.tracer.complete(f"serve.{label}", "serve", start,
                                 start + service, server, span)
        if self.metrics is not None:
            m = self.metrics
            m.counter(f"{server}.requests").inc()
            if batch:
                m.counter(f"{server}.batches").inc()
                m.counter(f"{server}.batched_ops").inc(n)
                m.histogram(f"{server}.batch_size").record(n)
            for rpc in rpcs:
                m.counter(f"{server}.op.{rpc.method}").inc()
            m.histogram(f"{server}.queue_wait_us").record(start - arrive)
            m.histogram(f"{server}.service_us").record(service)
        if self.telemetry is not None:
            self.telemetry.rpc_complete(server, arrive, start, service,
                                        n_ops=n, batch=batch)

    def _arrival_depth(self, name: str, arrive: float, finish: float):
        """Queue depth an arriving request finds, for the telemetry sink.
        ``None`` here: only the event engine has queues worth sampling."""
        return None

    def _serve(self, state: _ClientState, cmd: Rpc | Batch, span,
               arrive: float, half: float, lost_at: float | None = None,
               proc: _Proc | None = None, branch=None, attempt: int = 0):
        """Server half and response leg of one attempt that reaches
        ``cmd.server`` at ``arrive`` — the timing rule both drivers share.

        With no ``proc`` (``DirectEngine``'s inline paths) it returns
        ``(value, err, respond_at)``: the handler's result (a ``Batch``'s
        result list), the :class:`FSError` it raised (a batch's first),
        and the instant the response has fully crossed the client's
        downlink.

        With a ``proc`` it is ``EventEngine``'s arrival callback (``sim.now
        == arrive``): it schedules the client's resume, or the ``branch``'s
        join, at ``respond_at``.  When no response will come — the server
        is down at the arrival, or ``lost_at`` says this batch's response
        was dropped on the wire at that send time — it hands the lost
        ``attempt`` to ``_retry`` with the instant the client's timeout
        fires.  Only a fault schedule loses an attempt, and under one
        every attempt is served with a ``proc``.
        """
        cost = self.cost
        server = cmd.server
        tracer = self.tracer
        faults = self.faults
        if faults is not None:
            faults.advance(arrive)
            if faults.is_down(server, arrive):
                # the request dies with the server; the client perceives a
                # timeout measured from the arrival (DESIGN §8)
                fail_at = arrive + cost.timeout_us
                if span is not None:
                    tracer.end(span, fail_at)
                self._retry(proc, cmd, branch, attempt, fail_at)
                return None
        node: ServerNode = self._nodes[server]
        # FIFO service: requests hitting one server queue up
        start = arrive if arrive > node.next_free else node.next_free
        meter = node.meter
        # a charge made outside any request is not this one's
        before = meter.settle() if meter.pending else meter._total_us
        if tracer is not None and meter.policy is not None:
            meter.trace = KVTraceSink(tracer, server, span, start)
        # one request of a WAL-backed server is one group commit: its
        # records replay whole or not at all (DESIGN §8)
        group = None
        logged = node.logged
        if logged is not None and logged.store._wal is not None:
            group = GroupCommit(logged.store, logged.counters)
            group.__enter__()
        err: FSError | None = None
        try:
            if cmd.tag == TAG_BATCH:
                # one queue entry, every sub-op served back-to-back; the
                # single server_overhead_us below is the per-request
                # parse/dispatch work that batching amortizes
                value, err, nbytes = self._exec_batch(node, cmd, span, start)
            else:
                nbytes = cmd.recv_bytes
                try:
                    fn = node._ops[cmd.method]
                    value = fn(*cmd.args, **cmd.kwargs) if cmd.kwargs \
                        else fn(*cmd.args)
                    if not nbytes and isinstance(value, _RAW):
                        nbytes = len(value)
                except FSError as e:
                    value = None
                    err = e
        finally:
            if group is not None:
                group.__exit__(None, None, None)
            if meter.pending:  # priced while the request's KV sink is in
                meter.settle()
            meter.trace = None
        service = meter._total_us - before + cost.server_overhead_us
        finish = start + service
        node.next_free = finish
        node.requests_served += 1
        node.busy_us += service
        if tracer is not None or self.metrics is not None:
            self._record(cmd, span, arrive, start, service)
        elif self.telemetry is not None:
            # telemetry-only fast path: one folded sink call per request
            batch = cmd.tag == TAG_BATCH
            self.telemetry.rpc_complete(
                server, arrive, start, service,
                n_ops=len(cmd.rpcs) if batch else 1, batch=batch,
                depth=self._arrival_depth(server, arrive, finish))
        if lost_at is not None:
            # the server applied the whole batch, but its response never
            # reaches the client: time out from the send.  The retry is the
            # at-least-once case the servers' per-client reply cache
            # (behind apply_batch) turns into exactly-once
            fail_at = lost_at + cost.timeout_us
            if span is not None:
                tracer.end(span, fail_at)
            self._retry(proc, cmd, branch, attempt, fail_at)
            return None
        # the response reaches the client after the wire latency, then its
        # payload must cross the client's (serialized) downlink
        respond_at = finish + half
        if respond_at < state.downlink_free:
            respond_at = state.downlink_free
        if nbytes:
            respond_at += cost.transfer_us(nbytes)
        state.downlink_free = respond_at
        if span is not None:
            tracer.end(span, respond_at)
        if proc is None:
            return value, err, respond_at
        if branch is None:
            proc.value = value
            proc.exc = err
            fn = self._step_cb
            args = proc.slot
        else:
            fn = self._join
            args = (proc, branch[0], branch[1], value, err)
        # inlined sim.at(): respond_at >= arrive + service + half-RTT, so
        # it can only equal `now` (== arrive) under a zero-cost model —
        # then the ready queue preserves at()'s ordering exactly
        sim = self.sim
        if respond_at > arrive:
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (respond_at, seq, fn, args))
        else:
            sim._ready.append((fn, args))
        return None


class DirectEngine(_EngineCore):
    """Synchronous executor with a virtual clock.

    The clock models the latency a *single* client observes: every RPC
    costs one RTT plus the server's metered service time; switching to a
    different server than the previous request costs ``conn_switch_us``
    (§4.2.1 observation 2: more connections slow the client down).
    """

    def __init__(self, cluster: Cluster, cost: CostModel):
        super().__init__(cluster, cost)
        self.now = 0.0
        self._client = _ClientState()
        #: the EventEngine that runs every command this driver does not
        #: run inline; built on the first such command
        self._events: _FaultDriver | None = None

    # -- protocol -------------------------------------------------------------
    def run(self, gen: Generator):
        """Drive ``gen`` to completion.

        With no fault schedule attached, a lone ``Rpc``/``Batch`` and,
        on an engine with no switch node, a ``Parallel`` run inline: no
        attempt can be lost and the branches arrive in index order, so the
        one-attempt send half and ``_serve`` are the whole story (DESIGN
        "Engine design").  Every other command — anything under a
        schedule, the empty one included, every ``Quorum``, a switch-node
        ``Parallel`` — goes to :meth:`_hand_over`.
        """
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
            if tag == TAG_RPC or tag == TAG_BATCH:
                if self.faults is not None:
                    send_value, exc = self._hand_over(cmd)
                    continue
                # _issue's send half, for the one attempt there is
                state = self._client
                server = cmd.server
                t = self.now
                delay = 0.0
                if cmd.send_bytes:
                    delay = self.cost.transfer_us(cmd.send_bytes) + delay
                half = self._half_rtt
                sw = self.switch_nodes
                if sw is not None and server in sw:
                    half = sw[server]
                else:
                    if state.last_server is not None and state.last_server != server:
                        delay += self.cost.conn_switch_us
                    state.last_server = server
                state.rpcs_issued += 1
                span = None
                if self.tracer is not None:
                    span = self._open_span(state, cmd, t)
                send_value, exc, self.now = self._serve(
                    state, cmd, span, t + delay + half, half)
            elif tag == TAG_DELAY:  # Sleep and LocalCharge advance time alike
                self.now += cmd.us
            elif tag == TAG_PARALLEL and self.faults is None \
                    and self.switch_nodes is None:
                # every branch's send half, then _serve in index order (the
                # arrival order: each branch waits behind the earlier
                # payloads); the join is _FanOut.add's Parallel rule folded:
                # values in branch order, the clock at the slowest branch,
                # the error of the first by (respond_at, index) — or, when
                # the fan-out settles, a (value, err) pair per branch
                state = self._client
                t = end = self.now
                half = self._half_rtt
                uplink = err_at = 0.0
                settle = cmd.settle
                spans = None
                if self.tracer is not None:
                    # opened at the issue instant before any branch is
                    # served, as _issue does, so span ids match Event's
                    spans = [self._open_span(state, rpc, t) for rpc in cmd.rpcs]
                values = []
                for i, rpc in enumerate(cmd.rpcs):
                    delay = uplink
                    if rpc.send_bytes:
                        wire = self.cost.transfer_us(rpc.send_bytes)
                        delay = wire + delay
                        uplink += wire
                    state.rpcs_issued += 1
                    value, err, at = self._serve(
                        state, rpc, spans[i] if spans is not None else None,
                        t + delay + half, half)
                    if at > end:
                        end = at
                    if settle:
                        values.append((value, err))
                        continue
                    values.append(value)
                    if err is not None and (exc is None or at < err_at):
                        exc = err
                        err_at = at
                self.now = end
                if exc is None:
                    send_value = values
            elif tag == TAG_PARALLEL or tag == TAG_QUORUM:
                send_value, exc = self._hand_over(cmd)
            elif tag == TAG_SPAN_BEGIN:
                self._span_begin(self._client, cmd)
            elif tag == TAG_SPAN_END:
                self._span_end(self._client, cmd)
            elif tag == TAG_MARK:
                self._mark(self._client, cmd)
            elif tag == TAG_SPAN_CAPTURE:
                client = self._client
                send_value = client.spans[-1][0] if client.spans else None
            else:
                raise TypeError(f"unknown engine command: {cmd!r}")

    def _hand_over(self, cmd):
        """Run one command on the event driver from ``self.now``, with this
        engine's client, sinks, faults, retry policy and switch nodes.
        Returns its ``(value, exc)``; the clock moves to the instant the
        client resumes.  The simulator then drains what is left — a
        ``Quorum``'s late branches — so its schedule is empty between
        commands and the next one may start at an earlier clock."""
        events = self._events
        if events is None:
            events = self._events = _FaultDriver(self.cluster, self.cost)
        for name in _SHARED:
            setattr(events, name, getattr(self, name))
        sim = events.sim
        sim.now = self.now
        box = []
        events.spawn(_one(cmd), lambda value, exc: box.append((value, exc, sim.now)),
                     self._client)
        sim.run()
        value, exc, self.now = box[0]
        return value, exc


#: what a DirectEngine lends its event driver for one command
_SHARED = ("tracer", "metrics", "telemetry", "obs_detailed", "faults", "retry",
           "switch_nodes")


def _one(cmd):
    """A generator that yields one command and returns its result."""
    return (yield cmd)


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


class _FanOut:
    """Join state of one ``Parallel`` or ``Quorum`` fan-out.

    ``Parallel`` is the ``need = n`` case that waits for every branch and
    raises the first error only after the slowest one (or, settling,
    resumes with every branch's ``(value, err)`` pair); ``Quorum`` resolves
    early, at the k-th success or at the failure that makes ``k``
    unreachable, and its branches get a single attempt (no retry policy —
    burning ``max_retries`` backoffs per dead replica would turn a
    millisecond failover into tens of milliseconds).  A vote fails when
    its response comes back with an application error (e.g. ``NotLeader``)
    or, for a lost request or dead server, when the client's timeout fires.
    """

    __slots__ = ("cmd", "results", "need", "quorum", "settle", "ok", "left",
                 "err", "resolved")

    def __init__(self, cmd: Parallel | Quorum) -> None:
        n = len(cmd.rpcs)
        self.cmd = cmd
        self.results: list = [None] * n
        self.quorum = cmd.tag == TAG_QUORUM
        self.settle = not self.quorum and cmd.settle
        self.need = cmd.k if self.quorum else n
        self.ok = 0
        #: branches that have not finished yet
        self.left = n
        self.err: FSError | None = None
        self.resolved = False

    def add(self, idx: int, value, err: FSError | None):
        """Count one finished branch.  Returns the ``(value, exc)`` pair
        to resume the client with once the fan-out resolves, else
        ``None``.  Feed branches in completion-time order."""
        if self.resolved:
            # a late Quorum branch: its server effects already happened,
            # the client has moved on
            return None
        self.left -= 1
        if self.settle:
            # every branch's outcome goes back to the client; none raises
            self.results[idx] = (value, err)
        elif err is None:
            self.results[idx] = value
            self.ok += 1
        elif self.err is None:
            self.err = err
        if not self.quorum:
            if self.left:
                return None
            outcome = (None, self.err) if self.err is not None \
                else (self.results, None)
        elif self.ok >= self.need:
            # snapshot: still-in-flight branches stay None for the client
            # even though their effects land later
            outcome = (list(self.results), None)
        elif self.ok + self.left < self.need:
            # quorum unreachable: the client learns it when the
            # (n - k + 1)-th branch fails.  A lone branch re-raises its own
            # error so callers can tell e.g. NotLeader from an unreachable
            # server
            outcome = (None, self.err if len(self.results) == 1 else QuorumFailed(
                f"{self.cmd.rpcs[0].method}: {self.ok} of {self.need} votes"))
        else:
            return None
        self.resolved = True
        return outcome


class EventEngine(_EngineCore):
    """Discrete-event executor for many concurrent client processes."""

    def __init__(self, cluster: Cluster, cost: CostModel):
        super().__init__(cluster, cost)
        self.sim = Simulator()
        self._n_clients = 0
        # run() calls share one logical client, so consecutive synchronous
        # operations see the same connection state the Direct engine models
        self._default_client = _ClientState("client0")
        #: per-server finish times of outstanding requests (metrics only)
        self._backlog: dict[str, deque] = {}
        #: per-server (last sample ts, busy_us at that ts) for busy-fraction
        self._util_mark: dict[str, tuple[float, float]] = {}
        #: the resume and arrival callbacks, bound once: every scheduled
        #: event reuses these two objects instead of binding a fresh one
        self._step_cb = self._step
        self._serve_cb = self._serve

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
        self.sim._ready.append((self._step_cb, proc.slot))

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
            if tag == TAG_RPC or tag == TAG_BATCH:
                if self.faults is not None or self.obs_detailed:
                    self._issue(proc, cmd)
                    return
                # _issue's send half for the one attempt there is: no wire
                # fate to draw, no span to open (DESIGN "Engine design")
                sim = self.sim
                now = sim.now
                server = cmd.server
                delay = 0.0
                if cmd.send_bytes:
                    delay = self.cost.transfer_us(cmd.send_bytes) + delay
                half = self._half_rtt
                sw = self.switch_nodes
                if sw is not None and server in sw:
                    half = sw[server]
                else:
                    if state.last_server is not None and state.last_server != server:
                        delay += self.cost.conn_switch_us
                    state.last_server = server
                state.rpcs_issued += 1
                deliver_at = now + delay + half
                args = (state, cmd, None, deliver_at, half, None, proc)
                if deliver_at > now:
                    sim._seq = seq = sim._seq + 1
                    heappush(sim._heap, (deliver_at, seq, self._serve_cb, args))
                else:
                    sim._ready.append((self._serve_cb, args))
                return
            if tag == TAG_DELAY:  # Sleep and LocalCharge advance time alike
                sim = self.sim
                now = sim.now
                t = now + cmd.us
                if t <= now:
                    # zero-delay continuation: ready queue, scheduling order
                    sim._ready.append((self._step_cb, proc.slot))
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
                heappush(heap, (t, seq, self._step_cb, proc.slot))
                return
            if tag == TAG_PARALLEL or tag == TAG_QUORUM:
                rpcs = cmd.rpcs
                if not rpcs:
                    proc.value = []
                    self.sim._ready.append((self._step_cb, proc.slot))
                    return
                join = _FanOut(cmd)
                # the client uplink serializes request payloads: branch i
                # cannot dispatch before the preceding payloads are on the wire
                uplink = 0.0
                transfer_us = self.cost.transfer_us
                for i, rpc in enumerate(rpcs):
                    self._issue(proc, rpc, (join, i), uplink)
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
            else:
                raise TypeError(f"unknown engine command: {cmd!r}")
            exc = None
            send_value = None

    def _issue(self, proc: _Proc, cmd: Rpc | Batch, branch=None,
               delay: float = 0.0, attempt: int = 0) -> None:
        """Send half of one attempt: schedule its arrival at the server.
        ``branch`` is the ``(join, index)`` of a fan-out branch, which
        pays no connection switch and first waits ``delay`` behind the
        earlier branches' request payloads."""
        cost = self.cost
        state = proc.state
        sim = self.sim
        now = sim.now
        server = cmd.server
        lost_at = None
        faults = self.faults
        if faults is not None:
            fate, extra = faults.wire_fate()
            if fate == F_DROP:
                lost_at = now
            elif extra:
                delay += extra
        if cmd.send_bytes:
            delay = cost.transfer_us(cmd.send_bytes) + delay
        half = self._half_rtt
        sw = self.switch_nodes
        if sw is not None and server in sw:
            # on-path switch node: no connection churn, near-zero latency
            half = sw[server]
        elif branch is None:
            if state.last_server is not None and state.last_server != server:
                delay += cost.conn_switch_us
            state.last_server = server
        state.rpcs_issued += 1
        if lost_at is not None and cmd.tag == TAG_RPC:
            # request loss: never delivered, the client times out from the
            # send (a dropped Batch loses its *response* instead — _serve
            # times it out once the server has applied it, so the retry
            # must be idempotent)
            self._retry(proc, cmd, branch, attempt, now + cost.timeout_us)
            return
        span = None
        if self.tracer is not None:
            span = self._open_span(state, cmd, now)
        # inlined sim.at(): the deliver time is now + delay + half-RTT with
        # every term non-negative, so it is never in the past; == now (a
        # zero-RTT cost model) routes to the ready queue exactly as at()
        deliver_at = now + delay + half
        args = (state, cmd, span, deliver_at, half, lost_at, proc, branch,
                attempt)
        if deliver_at > now:
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (deliver_at, seq, self._serve_cb, args))
        else:
            sim._ready.append((self._serve_cb, args))

    def _retry(self, proc: _Proc, cmd: Rpc | Batch, branch, attempt: int,
               fail_at: float) -> None:
        """One lost attempt, noticed by the client at ``fail_at``: back
        off and re-issue, or resume the client (join the branch) with
        :class:`ServerDown` once the policy is spent.  A ``Quorum`` branch
        gets no retry: its lost attempt simply is a failed vote.
        ``fail_at`` may already lie in the past — a dropped batch is timed
        from its send but only known lost once served — hence the clamps
        to the current instant."""
        sim = self.sim
        now = sim.now
        server = cmd.server
        if branch is None or not branch[0].quorum:
            faults = self.faults
            if attempt < self.retry.max_retries:
                faults.retries += 1
                self._fault_mark(proc.state, "client.retry", server, fail_at,
                                 counter="client.retries", attempt=attempt + 1)
                t = fail_at + self.retry.backoff_us(attempt, faults.rng)
                sim.at(t if t > now else now, self._issue, proc, cmd, branch,
                       0.0, attempt + 1)
                return
            faults.gaveups += 1
            self._fault_mark(proc.state, "client.gaveup", server, fail_at)
        err = ServerDown(server)
        at = fail_at if fail_at > now else now
        if branch is None:
            proc.value = None
            proc.exc = err
            sim.at(at, self._step_cb, proc)
        else:
            sim.at(at, self._join, proc, branch[0], branch[1], None, err)

    def _join(self, proc: _Proc, join: _FanOut, idx: int, value, err) -> None:
        outcome = join.add(idx, value, err)
        if outcome is not None:
            proc.value, proc.exc = outcome
            self._step(proc)

    # -- queue sampling (metrics/telemetry only) ---------------------------------
    def _record(self, cmd: Rpc | Batch, span, arrive: float, start: float,
                service: float) -> None:
        super()._record(cmd, span, arrive, start, service)
        if self.metrics is not None or self.telemetry is not None:
            self._sample_server(cmd.server, arrive, start + service)

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

    def _sample_server(self, name: str, arrive: float, finish: float) -> None:
        """Per-server queue depth and busy-fraction over the window since
        the previous sample."""
        depth = self._arrival_depth(name, arrive, finish)
        if self.telemetry is not None:
            self.telemetry.queue_depth(name, arrive, depth)
        metrics = self.metrics
        if metrics is None:
            return
        metrics.timeseries(f"{name}.queue_depth").sample(arrive, depth)
        node = self._nodes[name]
        last_ts, last_busy = self._util_mark.get(name, (0.0, 0.0))
        if finish > last_ts:
            frac = min(1.0, (node.busy_us - last_busy) / (finish - last_ts))
            metrics.timeseries(f"{name}.utilization").sample(finish, frac)
            self._util_mark[name] = (finish, node.busy_us)


class _FaultDriver(EventEngine):
    """The EventEngine behind a DirectEngine's non-inline commands.  Direct
    has no queues worth sampling, so its driver samples none either."""

    _record = _EngineCore._record
    _arrival_depth = _EngineCore._arrival_depth


def make_engine(kind: str, cluster: Cluster, cost: CostModel):
    """The engine a deployment's ``engine_kind`` names."""
    if kind == "direct":
        return DirectEngine(cluster, cost)
    if kind == "event":
        return EventEngine(cluster, cost)
    raise ValueError(f"unknown engine kind: {kind!r}")
