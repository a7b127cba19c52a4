"""Virtual-time span tracer.

Spans record *virtual* microseconds from the engine clock, never wall
time, so a trace of the same workload is bit-identical across runs.  The
engines create the spans: one per file-system operation (via the
``SpanBegin``/``SpanEnd`` commands the client wrappers yield when a tracer
is attached), one per RPC, and — inside an RPC — one per queue wait,
service period, and metered KV operation.  Instant events mark
zero-duration facts such as lease-cache hits and misses.

Spans carry an explicit parent reference because the event engine
interleaves many client processes: a per-process span context lives in the
engine, not in a global stack.  ``repro.obs.export`` turns the finished
spans into Chrome trace-event JSON loadable in Perfetto.

With no tracer attached the engines skip every call in here — the null
pattern :mod:`repro.kv.meter` uses — so tracing costs nothing unless a
run opts in.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed phase of work on a named track (client process, server)."""

    span_id: int
    name: str
    cat: str
    start_us: float
    track: str
    parent: "Span | None" = None
    end_us: float | None = None
    args: dict = field(default_factory=dict)
    #: outbound causal links [(target Span, kind)] — e.g. a deferred op
    #: span pointing at the batch flush span that made it durable
    links: list = field(default_factory=list)

    @property
    def duration_us(self) -> float:
        return (self.end_us if self.end_us is not None else self.start_us) - self.start_us


@dataclass
class Instant:
    """A zero-duration event (cache hit/miss, error, ...)."""

    name: str
    ts_us: float
    track: str
    parent: Span | None = None
    args: dict = field(default_factory=dict)


class Tracer:
    """Collects spans and instants; the engines drive all timestamps."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self._next_id = 1

    # -- recording ---------------------------------------------------------
    def begin(self, name: str, cat: str, ts_us: float, track: str,
              parent: Span | None = None, args: dict | None = None) -> Span:
        """Open a span at virtual time ``ts_us``; close it with :meth:`end`."""
        span = Span(self._next_id, name, cat, ts_us, track, parent,
                    args=args or {})
        self._next_id += 1
        self.spans.append(span)
        return span

    def end(self, span: Span, ts_us: float) -> Span:
        span.end_us = ts_us
        return span

    def complete(self, name: str, cat: str, start_us: float, end_us: float,
                 track: str, parent: Span | None = None,
                 args: dict | None = None) -> Span:
        """Record a span whose start and end are both already known."""
        span = self.begin(name, cat, start_us, track, parent, args)
        span.end_us = end_us
        return span

    def instant(self, name: str, ts_us: float, track: str,
                parent: Span | None = None, args: dict | None = None) -> Instant:
        inst = Instant(name, ts_us, track, parent, args or {})
        self.instants.append(inst)
        return inst

    def link(self, src: Span, dst: Span, kind: str = "link") -> None:
        """Record a causal edge from ``src`` to ``dst`` (beyond parenthood).

        Exported as Chrome flow events, and consumed by
        :mod:`repro.obs.analyze` to attribute a deferred op's latency to
        the batch round trip that actually carried it.
        """
        src.links.append((dst, kind))

    # -- inspection ----------------------------------------------------------
    def finished_spans(self) -> list[Span]:
        return [s for s in self.spans if s.end_us is not None]

    def find(self, name_prefix: str = "", cat: str | None = None) -> list[Span]:
        return [
            s for s in self.spans
            if s.name.startswith(name_prefix) and (cat is None or s.cat == cat)
        ]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent is span]


class KVTraceSink:
    """Turns :class:`~repro.kv.meter.Meter` charges into child KV spans.

    The engines install one on a server's meter for the duration of a
    dispatch: each metered charge becomes a ``kv.<op>`` span laid end to
    end from the service start time, so the KV breakdown of a request is
    visible under its service span.
    """

    __slots__ = ("tracer", "track", "parent", "t")

    def __init__(self, tracer: Tracer, track: str, parent: Span | None, t0: float):
        self.tracer = tracer
        self.track = track
        self.parent = parent
        self.t = t0

    def kv(self, op: str, nbytes: int, cost_us: float) -> None:
        args = {"bytes": nbytes} if nbytes else None
        self.tracer.complete(f"kv.{op}", "kv", self.t, self.t + cost_us,
                             self.track, self.parent, args)
        self.t += cost_us
