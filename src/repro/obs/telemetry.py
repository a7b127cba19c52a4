"""Streaming, bounded-memory telemetry over virtual-time windows.

The post-hoc analysis layer (:mod:`repro.obs.analyze`) retains every span
in memory, which is fine for paper-scale experiments and collapses at the
10M-op runs the roadmap targets.  This module is the online alternative:
lightweight hooks at span-close / RPC-complete points in both engines feed
a :class:`TelemetrySink`, which aggregates everything into fixed-width
virtual-time windows held in a bounded ring — a 10M-op run produces
kilobytes of telemetry instead of gigabytes of spans.

Per window the sink tracks:

* per-op-type completion counts and error counts (throughput, error rate),
* a mergeable log-bucket latency sketch per op type
  (:class:`LogSketch` — p50/p95/p99/p999 per window, and any span of
  windows can be merged into one sketch for horizon quantiles),
* per-server busy microseconds (service intervals are *split* across the
  windows they overlap, so busy fraction is exact), request counts, queue
  wait, sampled queue depth, and batch occupancy,
* mark counts (retries, gaveups, crash/recover transitions).

**Bounded memory.**  Windows are indexed from virtual time zero.  When a
sample lands past the last slot of a full ring, adjacent window *pairs*
are merged (sketches add bucket-wise — that is what mergeability buys)
and the window width doubles, so the ring always covers the whole run at
the finest affordable resolution.  Memory is ``O(max_windows × (op types
+ servers))`` regardless of how many operations the run performs.

**Determinism.**  The sink is a passive observer: it never touches the
engines' virtual-time arithmetic, so telemetry-attached runs are
clock-identical to unattached ones, and unattached runs are bit-identical
to the determinism goldens (both pinned by tests).
"""

from __future__ import annotations

import math

from .metrics import bucketed_quantile

#: shared sketch layout — every sketch uses the same buckets, which is the
#: invariant that makes any two sketches mergeable
SKETCH_LO = 0.1
SKETCH_HI = 1e9
SKETCH_BUCKETS_PER_DECADE = 8

_LOG_G = 1.0 / SKETCH_BUCKETS_PER_DECADE
_LOG_LO = math.log10(SKETCH_LO)
_NB = int(math.ceil((math.log10(SKETCH_HI) - _LOG_LO) / _LOG_G))
#: [underflow] + _NB log-scale buckets + [overflow]
SKETCH_BUCKETS = _NB + 2

#: default initial window width; short runs keep it, long runs double it
DEFAULT_WINDOW_US = 256.0
DEFAULT_MAX_WINDOWS = 256

#: pending hook events folded per burst; caps the ingest buffer (and the
#: transient memory it holds) while keeping the amortized fold cheap
INGEST_BUFFER = 4096


class LogSketch:
    """Mergeable fixed-layout log-bucket quantile sketch (microseconds).

    The layout (``SKETCH_LO``/``SKETCH_HI``/``SKETCH_BUCKETS_PER_DECADE``)
    is module-level and shared by every instance, so ``merge`` is plain
    bucket-wise addition — two windows' sketches combine into the exact
    sketch of their union, with no resolution loss.
    """

    __slots__ = ("counts", "count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.counts = [0] * SKETCH_BUCKETS
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    @staticmethod
    def bucket_bounds(idx: int) -> tuple[float, float]:
        if idx == 0:
            return (0.0, SKETCH_LO)
        if idx == SKETCH_BUCKETS - 1:
            return (SKETCH_HI, math.inf)
        return (10.0 ** (_LOG_LO + (idx - 1) * _LOG_G),
                10.0 ** (_LOG_LO + idx * _LOG_G))

    def record(self, value: float) -> None:
        if value < SKETCH_LO:
            idx = 0
        elif value >= SKETCH_HI:
            idx = SKETCH_BUCKETS - 1
        else:
            idx = 1 + int((math.log10(value) - _LOG_LO) / _LOG_G)
        self.counts[idx] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def merge(self, other: "LogSketch") -> "LogSketch":
        """Fold ``other`` into this sketch (bucket-wise; exact)."""
        if other.count:
            counts = self.counts
            for i, c in enumerate(other.counts):
                if c:
                    counts[i] += c
            self.count += other.count
            self.total += other.total
            if other.minimum < self.minimum:
                self.minimum = other.minimum
            if other.maximum > self.maximum:
                self.maximum = other.maximum
        return self

    def quantile(self, q: float) -> float:
        return bucketed_quantile(q, self.counts, self.count, self.minimum,
                                 self.maximum, self.bucket_bounds)

    def count_above(self, threshold: float) -> float:
        """Estimated number of recorded values strictly above ``threshold``.

        Buckets entirely above the threshold count in full; the straddling
        bucket contributes a linearly interpolated share.  This is what
        latency SLOs evaluate ("ops slower than the objective").
        """
        if self.count == 0 or threshold >= self.maximum:
            return 0.0
        if threshold < self.minimum:
            return float(self.count)
        above = 0.0
        for idx, c in enumerate(self.counts):
            if c == 0:
                continue
            lo, hi = self.bucket_bounds(idx)
            lo = max(lo, self.minimum)
            hi = min(hi, self.maximum)
            if threshold <= lo:
                above += c
            elif threshold < hi:
                above += c * (hi - threshold) / (hi - lo)
        return above

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def to_sparse(self) -> list:
        """``[[bucket index, count], ...]`` for the nonzero buckets."""
        return [[i, c] for i, c in enumerate(self.counts) if c]

    @classmethod
    def from_sparse(cls, sparse, minimum: float = math.inf,
                    maximum: float = -math.inf, total: float = 0.0) -> "LogSketch":
        sk = cls()
        for i, c in sparse:
            sk.counts[i] = c
            sk.count += c
        sk.minimum = minimum
        sk.maximum = maximum
        sk.total = total
        return sk

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.count else math.nan,
            "max": self.maximum if self.count else math.nan,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }


class _ServerCell:
    """Per-(window, server) aggregates."""

    __slots__ = ("busy_us", "requests", "queue_wait_us", "batches",
                 "batched_ops", "depth_sum", "depth_n", "depth_max")

    def __init__(self) -> None:
        self.busy_us = 0.0
        self.requests = 0
        self.queue_wait_us = 0.0
        self.batches = 0
        self.batched_ops = 0
        self.depth_sum = 0
        self.depth_n = 0
        self.depth_max = 0

    def merge(self, other: "_ServerCell") -> None:
        self.busy_us += other.busy_us
        self.requests += other.requests
        self.queue_wait_us += other.queue_wait_us
        self.batches += other.batches
        self.batched_ops += other.batched_ops
        self.depth_sum += other.depth_sum
        self.depth_n += other.depth_n
        if other.depth_max > self.depth_max:
            self.depth_max = other.depth_max

    def snapshot(self) -> dict:
        return {
            "busy_us": self.busy_us,
            "requests": self.requests,
            "queue_wait_us": self.queue_wait_us,
            "batches": self.batches,
            "batched_ops": self.batched_ops,
            "depth_mean": (self.depth_sum / self.depth_n
                           if self.depth_n else 0.0),
            "depth_max": self.depth_max,
        }


class _Window:
    """One virtual-time window of aggregated telemetry."""

    __slots__ = ("ops", "errors", "marks", "sketches", "servers")

    def __init__(self) -> None:
        self.ops: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.marks: dict[str, int] = {}
        self.sketches: dict[str, LogSketch] = {}
        self.servers: dict[str, _ServerCell] = {}

    def merge(self, other: "_Window") -> None:
        for d_mine, d_other in ((self.ops, other.ops),
                                (self.errors, other.errors),
                                (self.marks, other.marks)):
            for k, v in d_other.items():
                d_mine[k] = d_mine.get(k, 0) + v
        for op, sk in other.sketches.items():
            mine = self.sketches.get(op)
            if mine is None:
                self.sketches[op] = sk
            else:
                mine.merge(sk)
        for name, cell in other.servers.items():
            mine_c = self.servers.get(name)
            if mine_c is None:
                self.servers[name] = cell
            else:
                mine_c.merge(cell)

    def empty(self) -> bool:
        return not (self.ops or self.errors or self.marks or self.servers)


class TelemetrySink:
    """Online windowed telemetry fed by the engines' observability hooks.

    Attach with ``engine.attach_observability(telemetry=sink)``.  All
    timestamps are virtual microseconds; the sink is a pure observer and
    never advances or perturbs engine time.
    """

    __slots__ = ("window_us", "initial_window_us", "max_windows", "_windows",
                 "_total_ops", "_total_errors", "_c_lo", "_c_hi", "_c_win",
                 "_cs_win", "_cs_key", "_cs_sk", "_buf")

    def __init__(self, window_us: float | None = None,
                 max_windows: int = DEFAULT_MAX_WINDOWS):
        if max_windows < 2:
            raise ValueError("max_windows must be at least 2")
        self.window_us = float(window_us) if window_us else DEFAULT_WINDOW_US
        self.initial_window_us = self.window_us
        self.max_windows = max_windows
        self._windows: list[_Window] = []
        #: totals maintained run-wide (cheap; avoids a full-ring walk)
        self._total_ops = 0
        self._total_errors = 0
        #: pending hook events, folded in bursts (see :meth:`_drain`) —
        #: an append is ~10x cheaper than an eager fold on the hot path,
        #: and the burst fold runs with hot caches; bounded at
        #: ``INGEST_BUFFER`` entries so memory stays O(windows) + O(1)
        self._buf: list[tuple] = []
        #: [_c_lo, _c_hi) bounds of the most recently addressed window —
        #: hooks arrive in near-monotonic virtual time, so almost every
        #: lookup hits the same window as the one before it
        self._c_lo = math.inf
        self._c_hi = -math.inf
        self._c_win: _Window | None = None
        #: (window, op name) -> sketch of the last completion recorded;
        #: single-op workloads hit this on nearly every op
        self._cs_win: _Window | None = None
        self._cs_key: str | None = None
        self._cs_sk: LogSketch | None = None

    # -- window addressing --------------------------------------------------
    def _window_at(self, ts_us: float) -> _Window:
        if self._c_lo <= ts_us < self._c_hi:
            return self._c_win
        idx = int(ts_us / self.window_us) if ts_us > 0.0 else 0
        w = self._window_index(idx)
        width = self.window_us  # _window_index may have doubled it
        lo = int(ts_us / width) * width if ts_us > 0.0 else 0.0
        self._c_lo = lo
        self._c_hi = lo + width
        self._c_win = w
        return w

    def _window_index(self, idx: int) -> _Window:
        windows = self._windows
        while idx >= self.max_windows:
            self._halve()
            windows = self._windows
            idx = int(idx // 2)
        while len(windows) <= idx:
            windows.append(_Window())
        return windows[idx]

    def _halve(self) -> None:
        """Merge adjacent window pairs and double the window width."""
        old = self._windows
        merged: list[_Window] = []
        for i in range(0, len(old), 2):
            w = old[i]
            if i + 1 < len(old):
                w.merge(old[i + 1])
            merged.append(w)
        self._windows = merged
        self.window_us *= 2.0
        self._c_lo = math.inf  # cached bounds no longer match any window
        self._c_hi = -math.inf
        self._cs_win = None  # merged-away windows may be cached here

    # -- engine-facing hooks -------------------------------------------------
    # Hooks append one tagged tuple and return; the fold into windows
    # happens in :meth:`_drain` — when the buffer fills or on the first
    # query.  Results are identical to eager folding (the buffer keeps
    # call order), but the per-op/per-RPC cost on the engines' hot paths
    # drops to a tuple append, and the deferred fold runs as a tight
    # burst over contiguous data instead of one cold cache excursion per
    # simulated request.

    def op_complete(self, name: str, start_us: float, end_us: float,
                    error: str | None = None) -> None:
        """One finished file-system op (span-close hook).

        Successful ops count toward throughput and record their latency;
        failed ops count as errors for their op class (latency of a
        failure is retry-policy noise, not service behaviour).
        """
        buf = self._buf
        buf.append((0, name, start_us, end_us, error))
        if len(buf) >= INGEST_BUFFER:
            self._drain()

    def rpc_complete(self, server: str, arrive_us: float, start_us: float,
                     service_us: float, n_ops: int = 1,
                     batch: bool = False, depth: int | None = None) -> None:
        """One served request (RPC-complete hook, both engines).

        The service interval ``[start, start + service)`` is split across
        every window it overlaps, so per-window busy fractions are exact
        even when one long batch straddles a boundary.  ``depth`` — the
        arrival queue depth, when the engine knows it — folds the
        :meth:`queue_depth` sample into this same cell update, sparing the
        fold a second window lookup.
        """
        buf = self._buf
        buf.append((1, server, arrive_us, start_us, service_us, n_ops,
                    batch, depth))
        if len(buf) >= INGEST_BUFFER:
            self._drain()

    def queue_depth(self, server: str, ts_us: float, depth: int) -> None:
        """Sampled queue depth on request arrival (event engine)."""
        buf = self._buf
        buf.append((2, server, ts_us, depth))
        if len(buf) >= INGEST_BUFFER:
            self._drain()

    def mark(self, name: str, ts_us: float) -> None:
        """A zero-duration fact: retry, gaveup, crash, recover, ..."""
        buf = self._buf
        buf.append((3, name, ts_us))
        if len(buf) >= INGEST_BUFFER:
            self._drain()

    # -- deferred fold --------------------------------------------------------
    def _drain(self) -> None:
        """Fold every buffered hook event into the window ring, in order."""
        buf = self._buf
        if not buf:
            return
        self._buf = []
        op_now = self._op_complete_now
        rpc_now = self._rpc_complete_now
        queue_now = self._queue_depth_now
        mark_now = self._mark_now
        for e in buf:
            tag = e[0]
            if tag == 0:
                op_now(e[1], e[2], e[3], e[4])
            elif tag == 1:
                rpc_now(e[1], e[2], e[3], e[4], e[5], e[6], e[7])
            elif tag == 2:
                queue_now(e[1], e[2], e[3])
            else:
                mark_now(e[1], e[2])

    def _op_complete_now(self, name: str, start_us: float, end_us: float,
                         error: str | None = None) -> None:
        if self._c_lo <= end_us < self._c_hi:
            w = self._c_win
        else:
            w = self._window_at(end_us)
        if error is not None:
            w.errors[name] = w.errors.get(name, 0) + 1
            self._total_errors += 1
            return
        ops = w.ops
        try:
            ops[name] += 1
        except KeyError:
            ops[name] = 1
        self._total_ops += 1
        if w is self._cs_win and name == self._cs_key:
            sk = self._cs_sk
        else:
            sk = w.sketches.get(name)
            if sk is None:
                sk = w.sketches[name] = LogSketch()
            self._cs_win = w
            self._cs_key = name
            self._cs_sk = sk
        # LogSketch.record, inlined (one call per completed op adds up)
        value = end_us - start_us
        if value < SKETCH_LO:
            idx = 0
        elif value >= SKETCH_HI:
            idx = SKETCH_BUCKETS - 1
        else:
            idx = 1 + int((math.log10(value) - _LOG_LO) / _LOG_G)
        sk.counts[idx] += 1
        sk.count += 1
        sk.total += value
        if value < sk.minimum:
            sk.minimum = value
        if value > sk.maximum:
            sk.maximum = value

    def _rpc_complete_now(self, server: str, arrive_us: float,
                          start_us: float, service_us: float, n_ops: int,
                          batch: bool, depth: int | None) -> None:
        if self._c_lo <= arrive_us < self._c_hi:
            w = self._c_win
        else:
            w = self._window_at(arrive_us)
        try:
            cell = w.servers[server]
        except KeyError:
            cell = w.servers[server] = _ServerCell()
        cell.requests += 1
        cell.queue_wait_us += start_us - arrive_us
        if batch:
            cell.batches += 1
            cell.batched_ops += n_ops
        if depth is not None:
            cell.depth_sum += depth
            cell.depth_n += 1
            if depth > cell.depth_max:
                cell.depth_max = depth
        end_us = start_us + service_us
        if self._c_lo <= start_us and end_us < self._c_hi and w is self._c_win:
            # fast path: the whole service interval sits in the arrive
            # window (start >= arrive always, so only the top edge matters)
            cell.busy_us += service_us
            return
        t = start_us
        while t < end_us:
            width = self.window_us
            w = self._window_at(t)
            # _window_at may have doubled the width; recompute the edge
            width = self.window_us
            edge = (int(t / width) + 1) * width
            hi = end_us if end_us < edge else edge
            cell2 = w.servers.get(server)
            if cell2 is None:
                cell2 = w.servers[server] = _ServerCell()
            cell2.busy_us += hi - t
            t = hi
        if service_us <= 0.0:
            # still make the server visible in the window it was touched
            w = self._window_at(start_us)
            if server not in w.servers:
                w.servers[server] = cell

    def _queue_depth_now(self, server: str, ts_us: float,
                         depth: int) -> None:
        if self._c_lo <= ts_us < self._c_hi:
            w = self._c_win
        else:
            w = self._window_at(ts_us)
        cell = w.servers.get(server)
        if cell is None:
            cell = w.servers[server] = _ServerCell()
        cell.depth_sum += depth
        cell.depth_n += 1
        if depth > cell.depth_max:
            cell.depth_max = depth

    def _mark_now(self, name: str, ts_us: float) -> None:
        w = self._window_at(ts_us)
        w.marks[name] = w.marks.get(name, 0) + 1

    # -- queries --------------------------------------------------------------
    # Every query drains the pending buffer first, so readers always see
    # a state identical to eager folding.

    @property
    def total_ops(self) -> int:
        self._drain()
        return self._total_ops

    @property
    def total_errors(self) -> int:
        self._drain()
        return self._total_errors

    @property
    def n_windows(self) -> int:
        self._drain()
        return len(self._windows)

    def horizon_us(self) -> float:
        """Virtual time covered by the allocated windows."""
        self._drain()
        return len(self._windows) * self.window_us

    def op_names(self) -> list[str]:
        self._drain()
        names: set[str] = set()
        for w in self._windows:
            names.update(w.ops)
            names.update(w.errors)
        return sorted(names)

    def server_names(self) -> list[str]:
        self._drain()
        names: set[str] = set()
        for w in self._windows:
            names.update(w.servers)
        return sorted(names)

    def window_range(self, lo_us: float | None = None,
                     hi_us: float | None = None) -> tuple[int, int]:
        """Window index range [i0, i1) overlapping ``[lo_us, hi_us)``."""
        self._drain()
        n = len(self._windows)
        i0 = 0 if lo_us is None else max(0, int(lo_us / self.window_us))
        i1 = n if hi_us is None else min(n, int(math.ceil(hi_us / self.window_us)))
        return i0, max(i0, i1)

    def merged_sketch(self, op: str, lo_us: float | None = None,
                      hi_us: float | None = None) -> LogSketch:
        """One sketch covering every window overlapping ``[lo_us, hi_us)``."""
        out = LogSketch()
        i0, i1 = self.window_range(lo_us, hi_us)
        for w in self._windows[i0:i1]:
            sk = w.sketches.get(op)
            if sk is not None:
                out.merge(sk)
        return out

    def count_ops(self, op: str | None = None, lo_us: float | None = None,
                  hi_us: float | None = None,
                  errors: bool = False) -> int:
        """Completed-op (or error) count for one op class (or all)."""
        total = 0
        i0, i1 = self.window_range(lo_us, hi_us)
        for w in self._windows[i0:i1]:
            d = w.errors if errors else w.ops
            if op is None:
                total += sum(d.values())
            else:
                total += d.get(op, 0)
        return total

    def mark_total(self, name: str, lo_us: float | None = None,
                   hi_us: float | None = None) -> int:
        total = 0
        i0, i1 = self.window_range(lo_us, hi_us)
        for w in self._windows[i0:i1]:
            total += w.marks.get(name, 0)
        return total

    def mark_series(self, prefix: str) -> dict[str, list[int]]:
        """Per-window counts for every mark name starting with ``prefix``.

        The offered-rate exporter uses this (``prefix="offered."``) to
        build one Perfetto counter track per tenant; each series has one
        entry per window, zeros included, so callers can align series
        against window boundaries without re-deriving indices.
        """
        self._drain()
        n = len(self._windows)
        out: dict[str, list[int]] = {}
        for i, w in enumerate(self._windows):
            for name, count in w.marks.items():
                if name.startswith(prefix):
                    series = out.get(name)
                    if series is None:
                        series = out[name] = [0] * n
                    series[i] = count
        return dict(sorted(out.items()))

    def heat_timelines(self) -> dict:
        """Per-server windowed busy-fraction and queue-depth series.

        Same shape as :func:`repro.obs.analyze.heat_timelines`, so the
        Perfetto counter-track exporter and the dashboard consume either
        source interchangeably — this one without retaining any spans.
        """
        self._drain()  # before sizing: folding may extend/halve the ring
        servers: dict[str, dict] = {}
        n = len(self._windows)
        width = self.window_us
        for name in self.server_names():
            busy = [0.0] * n
            depth = [0.0] * n
            for i, w in enumerate(self._windows):
                cell = w.servers.get(name)
                if cell is not None:
                    busy[i] = min(1.0, cell.busy_us / width)
                    depth[i] = (cell.depth_sum / cell.depth_n
                                if cell.depth_n else 0.0)
            servers[name] = {"busy": busy, "queue_depth": depth}
        return {"window_us": width, "servers": servers}

    # -- export ----------------------------------------------------------------
    def snapshot(self, include_sketches: bool = True) -> dict:
        """JSON-ready dump: O(windows), regardless of how many ops ran.

        ``windows`` is a sparse list — empty windows are elided and each
        entry carries its index — so idle stretches cost nothing.
        """
        self._drain()  # before indexing: folding may extend/halve the ring
        windows = []
        for i, w in enumerate(self._windows):
            if w.empty():
                continue
            entry: dict = {"i": i}
            if w.ops:
                entry["ops"] = dict(sorted(w.ops.items()))
            if w.errors:
                entry["errors"] = dict(sorted(w.errors.items()))
            if w.marks:
                entry["marks"] = dict(sorted(w.marks.items()))
            if w.sketches:
                lat = {}
                for op, sk in sorted(w.sketches.items()):
                    d = {"count": sk.count,
                         "p50": sk.quantile(0.50), "p95": sk.quantile(0.95),
                         "p99": sk.quantile(0.99), "p999": sk.quantile(0.999),
                         "min": sk.minimum, "max": sk.maximum,
                         "total": sk.total}
                    if include_sketches:
                        d["buckets"] = sk.to_sparse()
                    lat[op] = d
                entry["latency"] = lat
            if w.servers:
                entry["servers"] = {name: cell.snapshot()
                                    for name, cell in sorted(w.servers.items())}
            windows.append(entry)
        totals = {
            "ops": {op: self.count_ops(op) for op in self.op_names()},
            "errors": {},
            "marks": {},
        }
        mark_names: set[str] = set()
        for w in self._windows:
            mark_names.update(w.marks)
        for name in sorted(mark_names):
            totals["marks"][name] = self.mark_total(name)
        for op in self.op_names():
            n = self.count_ops(op, errors=True)
            if n:
                totals["errors"][op] = n
        latency_totals = {}
        for op in self.op_names():
            sk = self.merged_sketch(op)
            if sk.count:
                latency_totals[op] = sk.snapshot()
        return {
            "schema": 1,
            "window_us": self.window_us,
            "initial_window_us": self.initial_window_us,
            "max_windows": self.max_windows,
            "n_windows": len(self._windows),
            "windows": windows,
            "totals": totals,
            "latency": latency_totals,
            "heat": self.heat_timelines(),
        }

    def clear(self) -> None:
        self._buf.clear()
        self._windows.clear()
        self.window_us = self.initial_window_us
        self._total_ops = 0
        self._total_errors = 0
        self._c_lo = math.inf
        self._c_hi = -math.inf
        self._c_win = None
        self._cs_win = None
        self._cs_key = None
        self._cs_sk = None
