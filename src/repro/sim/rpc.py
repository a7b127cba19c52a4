"""RPC command objects yielded by file-system operation generators.

Every file-system operation in this repository — LocoFS's and every
baseline's — is written once as a *generator* that yields these commands
and receives results back via ``send()``.  The generator does not know
which engine drives it: the :class:`~repro.sim.engine.DirectEngine`
executes commands immediately against in-process servers while advancing a
virtual clock (functional tests, single-client latency), and the
:class:`~repro.sim.engine.EventEngine` schedules them on the discrete-event
simulator with per-server FIFO queues (closed-loop throughput).

The command classes are deliberately *not* dataclasses: they sit on the
hottest allocation path in the simulator (one ``Rpc`` per round trip, for
millions of round trips per run), so each is a plain ``__slots__`` class
with a class-level integer ``tag``.  The engines dispatch on ``cmd.tag``
with integer comparisons instead of walking an ``isinstance`` chain, and
:class:`Sleep`/:class:`LocalCharge` share one tag because the engines
treat them identically (both just advance virtual time by ``us``).
"""

from __future__ import annotations

#: engine dispatch tags (class attribute ``tag`` of every command class)
TAG_RPC = 0
TAG_PARALLEL = 1
TAG_DELAY = 2  # Sleep and LocalCharge: advance time, nothing else
TAG_SPAN_BEGIN = 3
TAG_SPAN_END = 4
TAG_MARK = 5
TAG_BATCH = 6
TAG_SPAN_CAPTURE = 7
TAG_QUORUM = 8

#: shared default for Rpc.kwargs — never mutate (handlers receive a copy
#: via ``**kwargs`` unpacking, so sharing one empty dict is safe)
_NO_KWARGS: dict = {}


class Rpc:
    """One request/response round trip to a named server.

    ``send_bytes``/``recv_bytes`` describe payload sizes beyond the tiny
    request header; they are charged as wire-transfer time on top of the
    RTT (relevant only for the object-store data path — metadata payloads
    are far below the bandwidth limit, per the paper's §2.2.1 analysis).
    """

    __slots__ = ("server", "method", "args", "kwargs", "send_bytes", "recv_bytes")
    tag = TAG_RPC

    def __init__(self, server: str, method: str, args: tuple = (),
                 kwargs: dict | None = None, send_bytes: int = 0,
                 recv_bytes: int = 0):
        self.server = server
        self.method = method
        self.args = args
        self.kwargs = _NO_KWARGS if kwargs is None else kwargs
        self.send_bytes = send_bytes
        self.recv_bytes = recv_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Rpc({self.server!r}, {self.method!r}, {self.args!r}, "
                f"{self.kwargs!r}, send_bytes={self.send_bytes}, "
                f"recv_bytes={self.recv_bytes})")


class Batch:
    """N sub-operations to *one* server in a single round trip.

    The write-behind client (LocoFS-B) coalesces adjacent small metadata
    writes and ships them together: the batch pays one connection switch,
    one RTT, and one queue entry at the server, while service time is the
    sum of the sub-operations' metered KV costs (amortized via the store's
    ``multi_*``/group-commit paths) plus a single per-request overhead.
    Sub-operations execute in order under the server's group-commit scope;
    a failing sub-op does not abort the rest — the first error is raised
    in the issuing generator after the whole batch completes, mirroring
    :class:`Parallel` semantics.  Resumes with the list of per-op results
    (``None`` for failed entries).

    ``origins`` optionally carries the open op spans (see
    :class:`SpanCapture`) of the deferred operations this batch flushes;
    the engines link each origin to the batch's flush span so the trace
    records which round trip made every write-behind op durable.  It is
    ``None`` on untraced runs — the field costs nothing unless a tracer
    is attached.

    ``send_bytes`` is the summed request payload of the sub-operations,
    fixed at construction, so the engines put an ``Rpc`` and a ``Batch``
    on the client uplink with the same code.
    """

    __slots__ = ("server", "rpcs", "origins", "send_bytes")
    tag = TAG_BATCH

    def __init__(self, server: str, rpcs: list[Rpc], origins: list | None = None):
        self.server = server
        self.rpcs = rpcs
        self.origins = origins
        send_bytes = 0
        for rpc in rpcs:
            send_bytes += rpc.send_bytes
        self.send_bytes = send_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Batch({self.server!r}, {self.rpcs!r})"


class Parallel:
    """Fan out several RPCs concurrently; resumes with the list of results.

    Latency is the slowest branch (each target server still queues its own
    request).  If any branch raised, the first error is re-raised in the
    issuing generator *after* all branches complete.
    """

    __slots__ = ("rpcs",)
    tag = TAG_PARALLEL

    def __init__(self, rpcs: list[Rpc]):
        self.rpcs = rpcs

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Parallel({self.rpcs!r})"


class Quorum:
    """Fan out RPCs and resume as soon as ``k`` of them succeed.

    The replication primitive (DESIGN §13).  Differs from
    :class:`Parallel` in two load-bearing ways:

    * **Early resume** — the issuing generator continues at the virtual
      time of the k-th *successful* completion, not the slowest branch.
      A replica that is down or slow does not delay the quorum; its
      branch keeps occupying its server in the background (the engines
      still account its queue/service time), but the client moves on.
    * **Single attempt per branch** — no retry policy.  A branch against
      a down server fails at ``arrive + timeout_us`` and counts as a
      failed vote immediately; burning ``max_retries`` exponential
      backoffs per dead replica would turn a millisecond failover into
      tens of milliseconds.  Callers that need retries (the replication
      client's propose loop) retry the *whole quorum round* with fresh
      leadership information instead.

    Resumes with a list of per-branch results aligned with ``rpcs``:
    branches that had completed by resume time hold their result,
    branches that failed hold ``None``, branches still in flight hold
    ``None`` as well (their effects on the servers still happen).  If
    fewer than ``k`` branches can succeed, raises
    :class:`~repro.common.errors.QuorumFailed` — except for the
    single-branch case (``len(rpcs) == 1``), where the branch's own
    error is re-raised so callers can distinguish e.g. ``NotLeader``
    from an unreachable server.
    """

    __slots__ = ("rpcs", "k")
    tag = TAG_QUORUM

    def __init__(self, rpcs: list[Rpc], k: int):
        if not 1 <= k <= len(rpcs):
            raise ValueError(f"quorum k={k} outside 1..{len(rpcs)}")
        self.rpcs = rpcs
        self.k = k

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Quorum({self.rpcs!r}, k={self.k})"


class Sleep:
    """Advance virtual time without doing work (think-time, backoff)."""

    __slots__ = ("us",)
    tag = TAG_DELAY

    def __init__(self, us: float):
        self.us = us

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Sleep({self.us!r})"


class LocalCharge:
    """Charge client-side compute time (e.g. FUSE layer, checksums)."""

    __slots__ = ("us",)
    tag = TAG_DELAY

    def __init__(self, us: float):
        self.us = us

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LocalCharge({self.us!r})"


class SpanBegin:
    """Open an observability span for the enclosing logical operation.

    Costs no virtual time.  Only yielded when the engine has a tracer or
    metrics registry attached (see ``FSClientBase.op_generator``), so the
    plain fast path never pays a generator round trip for it.
    """

    __slots__ = ("name", "cat", "args")
    tag = TAG_SPAN_BEGIN

    def __init__(self, name: str, cat: str = "op", args: dict | None = None):
        self.name = name
        self.cat = cat
        self.args = {} if args is None else args

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SpanBegin({self.name!r}, {self.cat!r}, {self.args!r})"


class SpanEnd:
    """Close the innermost span opened by :class:`SpanBegin` (no time cost).

    ``error`` carries the failure class (e.g. ``"FSError"``,
    ``"ServerUnavailable"``) when the operation is unwinding with an
    exception, so the telemetry layer can count the completion as an error
    for its op class.  ``None`` on the success path.
    """

    __slots__ = ("error",)
    tag = TAG_SPAN_END

    def __init__(self, error: str | None = None):
        self.error = error

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SpanEnd({self.error!r})" if self.error else "SpanEnd()"


class Mark:
    """A zero-duration observability event (cache hit/miss, retry, ...).

    Recorded as a trace instant and/or a counter increment; costs no
    virtual time.  Like :class:`SpanBegin`, only yielded when a run has
    observability attached.
    """

    __slots__ = ("name", "args")
    tag = TAG_MARK

    def __init__(self, name: str, args: dict | None = None):
        self.name = name
        self.args = {} if args is None else args

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Mark({self.name!r}, {self.args!r})"


class SpanCapture:
    """Resume with the innermost open :class:`~repro.obs.tracer.Span`.

    A write-behind client yields this while deferring an operation so it
    can remember *which op span* the deferred work belongs to; when the
    batch later flushes, the engines link each captured origin span to the
    flush span (see ``Batch.origins``).  Costs no virtual time; resumes
    with ``None`` when no tracer is attached or no span is open.  Like
    :class:`SpanBegin`, only yielded when a run has observability attached.
    """

    __slots__ = ()
    tag = TAG_SPAN_CAPTURE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "SpanCapture()"
