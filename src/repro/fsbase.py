"""Common client facade shared by LocoFS and every baseline system.

Each system implements the ``_g_<op>`` generator methods (yielding
:mod:`repro.sim.rpc` commands); this base class provides the public
synchronous wrappers that drive them through the attached engine, plus the
``op_generator`` hook the throughput harness uses to run the same
operations as concurrent simulator processes.

Running every system through one interface is what lets a single
semantics test-suite and a single benchmark harness cover all six systems.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.common.types import Credentials, DirEntry, ROOT_CRED, StatResult
from repro.sim.rpc import SpanBegin, SpanEnd

#: op -> "client.<op>" span names, built once (op_generator is the hot path)
_SPAN_NAMES: dict = {}

#: the success-path SpanEnd, shared (commands are read-only to the engines)
_SPAN_END = SpanEnd()


def _span_name(op: str) -> str:
    name = _SPAN_NAMES.get(op)
    if name is None:
        name = _SPAN_NAMES[op] = "client." + op
    return name


class _OpMethods(dict):
    """op name -> the client's bound ``_g_<op>``, resolved on first use
    (a ``getattr`` and a string concat per op saved on the harness hot
    path); a name outside ``GENERATOR_OPS`` raises ``ValueError``."""

    __slots__ = ("_client",)

    def __init__(self, client: "FSClientBase"):
        super().__init__()
        self._client = client

    def __missing__(self, op: str):
        client = self._client
        if op not in client._GENERATOR_OP_SET:
            raise ValueError(f"unknown operation {op!r}")
        fn = self[op] = getattr(client, "_g_" + op)
        return fn


class FSClientBase:
    """Engine-driven file-system client."""

    #: operation names accepted by :meth:`op_generator`
    GENERATOR_OPS = (
        "mkdir",
        "rmdir",
        "readdir",
        "create",
        "unlink",
        "stat",
        "stat_dir",
        "stat_file",
        "open",
        "chmod",
        "chown",
        "access",
        "truncate",
        "rename",
        "write",
        "read",
    )
    #: frozenset mirror for O(1) membership in op_generator (GENERATOR_OPS
    #: stays a tuple: tests and harnesses iterate it in order)
    _GENERATOR_OP_SET = frozenset(GENERATOR_OPS)

    def __init__(self, engine, cred: Credentials = ROOT_CRED):
        self._engine = engine
        self.cred = cred
        self._op_methods = _OpMethods(self)
        #: the object carrying the plain-attribute virtual clock ``now``:
        #: the event engine keeps it on its simulator, the direct engine on
        #: itself — resolved once so clock reads (``now_us``, ``now_s``, the
        #: clients' hot paths) skip the engine's property
        self._clock = getattr(engine, "sim", engine)

    # -- engine plumbing ---------------------------------------------------------
    def _run(self, gen: Generator):
        return self._engine.run(gen)

    @property
    def now_us(self) -> float:
        return self._clock.now

    @property
    def now_s(self) -> float:
        return self._clock.now / 1_000_000.0

    @property
    def _obs_active(self) -> bool:
        """True when the engine has any observability sink attached."""
        engine = self._engine
        return (engine.tracer is not None or engine.metrics is not None
                or engine.telemetry is not None)

    def op_generator(self, op: str, *args, **kwargs) -> Generator:
        """Raw operation generator for the throughput harness."""
        gen = self._op_methods[op](*args, **kwargs)
        engine = self._engine
        telemetry = engine.telemetry
        if engine.tracer is None and engine.metrics is None:
            if telemetry is None:
                return gen
            return self._g_telemetry(op, telemetry, gen)
        return self._g_traced(op, args, gen)

    def op_raw(self, op: str, *args, **kwargs) -> Generator:
        """The bare ``_g_<op>`` generator, no observability bracket.

        For driver loops that hoist the telemetry bracket out of the
        per-op path (see :meth:`op_bracket`); everyone else wants
        :meth:`op_generator`.
        """
        return self._op_methods[op](*args, **kwargs)

    def op_function(self, op: str):
        """The generator function behind :meth:`op_raw`: the bound
        ``_g_<op>``, for a harness loop that resolves its ops once and
        issues them with nothing attached."""
        return self._op_methods[op]

    def op_bracket(self):
        """``(telemetry, clock)`` when a hoisted bracket applies, else ``(None, None)``.

        A tight driver loop (the throughput harness) that issues many ops
        back-to-back can skip the per-op wrapper generator entirely: when
        this returns a sink, drive :meth:`op_raw` and surround each op with
        ``telemetry.op_complete(name, t0, clock.now)`` directly — the same
        feed :meth:`op_generator` would produce, minus a generator frame
        per op.  Returns ``(None, None)`` when a tracer or metrics registry
        is attached (spans must flow) or when nothing is attached.
        """
        engine = self._engine
        telemetry = engine.telemetry
        if engine.tracer is None and engine.metrics is None and telemetry is not None:
            return telemetry, self._clock
        return None, None

    def _g_telemetry(self, op: str, telemetry,
                     gen: Generator) -> Generator:
        """Telemetry-only bracket: the span-close hook without the spans.

        With no tracer and no metrics attached, SpanBegin/SpanEnd commands
        would travel through the engine just to be folded into one
        ``op_complete`` call at the close — so this wrapper makes that
        call directly and yields no span commands at all, which keeps the
        attached-run overhead within its budget (pinned as a call count by
        ``tests/test_telemetry.py::test_attached_sink_call_count_budget``).
        """
        name = _span_name(op)
        clock = self._clock
        t0 = clock.now
        try:
            result = yield from gen
        except GeneratorExit:  # closing, not failing: nothing to report
            raise
        except BaseException as exc:
            telemetry.op_complete(name, t0, clock.now, type(exc).__name__)
            raise
        telemetry.op_complete(name, t0, clock.now)
        return result

    def _g_traced(self, op: str, args: tuple, gen: Generator) -> Generator:
        """Bracket one operation in a ``client.<op>`` span.

        A failing op still closes its span at the time the error surfaced,
        with the failure class carried on the SpanEnd so telemetry counts
        it as an error for the op class rather than a completion.
        """
        detail = {"path": args[0]} if args and isinstance(args[0], str) else {}
        yield SpanBegin(_span_name(op), "op", detail)
        try:
            result = yield from gen
        except GeneratorExit:  # closing, not failing: nothing to report
            raise
        except BaseException as exc:
            yield SpanEnd(error=type(exc).__name__)
            raise
        yield _SPAN_END
        return result

    # -- public API -----------------------------------------------------------------
    def mkdir(self, path: str, mode: int = 0o755) -> None:
        """Create a directory."""
        self._run(self.op_generator("mkdir", path, mode))

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        self._run(self.op_generator("rmdir", path))

    def readdir(self, path: str) -> list[DirEntry]:
        """List a directory (files and sub-directories)."""
        return self._run(self.op_generator("readdir", path))

    def create(self, path: str, mode: int = 0o644) -> None:
        """Create an empty file (the harness's ``touch``)."""
        self._run(self.op_generator("create", path, mode))

    def unlink(self, path: str) -> None:
        """Remove a file."""
        self._run(self.op_generator("unlink", path))

    def stat(self, path: str) -> StatResult:
        """stat either a file or a directory."""
        return self._run(self.op_generator("stat", path))

    def stat_dir(self, path: str) -> StatResult:
        """stat a path known to be a directory (the harness's dir-stat)."""
        return self._run(self.op_generator("stat_dir", path))

    def stat_file(self, path: str) -> StatResult:
        """stat a path known to be a file (the harness's file-stat)."""
        return self._run(self.op_generator("stat_file", path))

    def open(self, path: str, want: int = 4) -> dict:
        """Open a file, checking access; returns a handle dict."""
        return self._run(self.op_generator("open", path, want))

    def chmod(self, path: str, mode: int) -> None:
        self._run(self.op_generator("chmod", path, mode))

    def chown(self, path: str, uid: int, gid: int) -> None:
        self._run(self.op_generator("chown", path, uid, gid))

    def access(self, path: str, want: int = 4) -> bool:
        return self._run(self.op_generator("access", path, want))

    def truncate(self, path: str, size: int) -> None:
        self._run(self.op_generator("truncate", path, size))

    def rename(self, old: str, new: str) -> None:
        """Rename a file or directory."""
        self._run(self.op_generator("rename", old, new))

    def write(self, path: str, offset: int, data: bytes) -> int:
        """Write file data; returns bytes written."""
        return self._run(self.op_generator("write", path, offset, data))

    def read(self, path: str, offset: int, length: int) -> bytes:
        """Read file data."""
        return self._run(self.op_generator("read", path, offset, length))
