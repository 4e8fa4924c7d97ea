"""Sweep-scope span tracing: what the *engine* spends its wall-clock on.

The machine-level :class:`~repro.telemetry.tracer.EventTracer` answers
"what did the simulated core do"; this layer answers "where did the
sweep's wall-clock go" — batch scheduling, cache probes, worker
lifetimes, retries, checkpoint passes, superblock compiles — across the
parent process *and* every supervised worker.

One :class:`SpanTracer` lives per process.  It records **spans**
(begin/end with nesting) and **instants** as plain dicts:

* timestamps come from ``time.perf_counter_ns()`` (monotonic, immune to
  wall-clock steps); each tracer also records a one-shot *clock anchor*
  pairing a monotonic reading with ``time.time_ns()``, which is how
  :mod:`repro.telemetry.collate` aligns per-worker clocks onto one
  sweep timeline;
* every record carries ``pid`` and a small ``tid`` — either the
  recording thread (compressed to 0, 1, 2, …) or an explicit *lane*
  (the engine gives each in-flight cell attempt its own lane so
  concurrent cells render as parallel swimlanes in Perfetto);
* the buffer is **bounded**: past ``capacity`` completed spans, the
  tracer either spills the buffer to a JSONL file (``spill_path`` set —
  one JSON object per line, append-only, crash-tolerant) or drops the
  oldest records and counts them in :attr:`SpanTracer.dropped`.

Workers ship their buffers home with :meth:`SpanTracer.shipment` — a
plain picklable dict carrying the clock anchor, the drained spans, and
any captured machine event rings.

Instrumented subsystems never hold a tracer reference.  They call the
module-level helpers, which are no-ops until someone *installs* a
tracer (:func:`install`/:func:`uninstall`):

``with spans.maybe("snapshot.capture", pages=n): ...``
    Records a span iff a tracer is installed; otherwise the context
    manager is shared, allocation-free, and does nothing.

``spans.attach_machine_tracer(machine, label)``
    Attaches a bounded :class:`EventTracer` ring to a machine iff the
    installed collection asked for machine-event capture; the captured
    rings ride along in the shipment so the collator can place
    capchecks/squashes/violations on the sweep timeline.

The disabled path — no tracer installed, the default — is one module
global ``is None`` test per site.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

#: Bumped when the span record / shipment layout changes.
SPAN_SCHEMA = 1

#: The engine's default name for the span spill file (lives next to the
#: sweep journal under the cell-cache directory).
SPILL_FILENAME = "spans.jsonl"


@dataclass(frozen=True)
class TraceOptions:
    """How one traced sweep collects: buffer sizes and spill location."""

    capacity: int = 65536          # per-process span buffer (records)
    machine_capacity: int = 4096   # per-machine event ring shipped back
    spill_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(
                f"span capacity must be >= 1, got {self.capacity}")
        if self.machine_capacity < 0:
            raise ValueError(f"machine ring capacity must be >= 0, "
                             f"got {self.machine_capacity}")


class _SpanHandle:
    """An open span returned by :meth:`SpanTracer.begin`."""

    __slots__ = ("name", "category", "start_ns", "tid", "args", "closed")

    def __init__(self, name: str, category: str, start_ns: int, tid: int,
                 args: Dict[str, object]) -> None:
        self.name = name
        self.category = category
        self.start_ns = start_ns
        self.tid = tid
        self.args = args
        self.closed = False


class SpanTracer:
    """Bounded per-process buffer of engine spans and instants."""

    def __init__(self, capacity: int = 65536,
                 spill_path: Optional[Union[str, Path]] = None,
                 process_label: str = "engine") -> None:
        if capacity < 1:
            raise ValueError(f"span capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.spill_path = Path(spill_path) if spill_path else None
        self.process_label = process_label
        self.pid = os.getpid()
        # The clock anchor: one (wall, monotonic) pair taken atomically
        # enough for trace purposes.  Collation maps any monotonic span
        # timestamp from this process to the wall clock via
        # ``wall_ns + (t - mono_ns)``.
        self.anchor_wall_ns = time.time_ns()
        self.anchor_mono_ns = time.perf_counter_ns()
        self._records: List[Dict[str, object]] = []
        self.spilled = 0
        self.dropped = 0
        self._spill_drained = 0  # spilled lines already returned by drain()
        self._thread_tids: Dict[int, int] = {}

    # -- recording -----------------------------------------------------------

    def _tid(self, tid: Optional[int]) -> int:
        if tid is not None:
            return tid
        ident = threading.get_ident()
        known = self._thread_tids.get(ident)
        if known is None:
            known = self._thread_tids[ident] = len(self._thread_tids)
        return known

    def begin(self, name: str, category: str = "engine",
              tid: Optional[int] = None, **args) -> _SpanHandle:
        """Open a span; close it with :meth:`end` (any order, any time)."""
        return _SpanHandle(name, category, time.perf_counter_ns(),
                           self._tid(tid), dict(args))

    def end(self, handle: _SpanHandle, **args) -> None:
        """Close an open span, merging any late-arriving args."""
        if handle.closed:
            return
        handle.closed = True
        if args:
            handle.args.update(args)
        now = time.perf_counter_ns()
        self._append({
            "ph": "X",
            "name": handle.name,
            "cat": handle.category,
            "start_ns": handle.start_ns,
            "dur_ns": max(0, now - handle.start_ns),
            "pid": self.pid,
            "tid": handle.tid,
            "args": handle.args,
        })

    @contextmanager
    def span(self, name: str, category: str = "engine",
             tid: Optional[int] = None, **args):
        handle = self.begin(name, category, tid, **args)
        try:
            yield handle
        finally:
            self.end(handle)

    def instant(self, name: str, category: str = "engine",
                tid: Optional[int] = None, **args) -> None:
        self._append({
            "ph": "i",
            "name": name,
            "cat": category,
            "start_ns": time.perf_counter_ns(),
            "dur_ns": 0,
            "pid": self.pid,
            "tid": self._tid(tid),
            "args": dict(args),
        })

    def _append(self, record: Dict[str, object]) -> None:
        self._records.append(record)
        if len(self._records) < self.capacity:
            return
        if self.spill_path is not None:
            self._spill()
        else:
            # No spill target: keep the newest half, count the rest.
            keep = self.capacity // 2
            self.dropped += len(self._records) - keep
            del self._records[:len(self._records) - keep]

    def _spill(self) -> None:
        """Append the buffered records to the spill file and clear."""
        records, self._records = self._records, []
        try:
            self.spill_path.parent.mkdir(parents=True, exist_ok=True)
            with self.spill_path.open("a") as handle:
                for record in records:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
                handle.flush()
            self.spilled += len(records)
        except OSError:
            # Unwritable spill target degrades to drop-oldest.
            self.dropped += len(records)

    # -- introspection / export ----------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def clock(self) -> Dict[str, object]:
        """The clock anchor the collator aligns this process with."""
        return {
            "pid": self.pid,
            "label": self.process_label,
            "wall_ns": self.anchor_wall_ns,
            "mono_ns": self.anchor_mono_ns,
        }

    def drain(self) -> List[Dict[str, object]]:
        """All retained records (spilled ones first, re-read from disk),
        clearing the in-memory buffer."""
        records: List[Dict[str, object]] = []
        if self.spilled > self._spill_drained and self.spill_path is not None:
            try:
                lines = self.spill_path.read_text().splitlines()
            except OSError:
                lines = []
            # The spill file survives (repro status tails it); remember
            # how far this drain read so a later drain never duplicates.
            for line in lines[self._spill_drained:]:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    continue  # truncated trailing line
            self._spill_drained = len(lines)
        records.extend(self._records)
        self._records = []
        return records

    def shipment(self) -> Dict[str, object]:
        """The picklable per-process bundle the collator consumes."""
        return {
            "schema": SPAN_SCHEMA,
            "clock": self.clock(),
            "spans": self.drain(),
            "machines": collect_machine_rings(),
        }


# -- module-level plumbing (the instrumented subsystems' view) ----------------


_CURRENT: Optional[SpanTracer] = None
_MACHINE_CAPACITY: int = 0
_MACHINE_RINGS: List[Dict[str, object]] = []


@contextmanager
def _noop():
    yield None


_NOOP = _noop


def install(tracer: SpanTracer, machine_capacity: int = 0) -> None:
    """Make ``tracer`` the process-wide current span tracer.

    ``machine_capacity > 0`` additionally arms machine-event capture:
    every subsequently simulated machine (each core of a cell) gets a
    bounded :class:`EventTracer` ring that ships with the tracer's
    :meth:`~SpanTracer.shipment`.
    """
    global _CURRENT, _MACHINE_CAPACITY
    _CURRENT = tracer
    _MACHINE_CAPACITY = machine_capacity


def uninstall() -> Optional[SpanTracer]:
    global _CURRENT, _MACHINE_CAPACITY
    tracer, _CURRENT = _CURRENT, None
    _MACHINE_CAPACITY = 0
    return tracer


def current() -> Optional[SpanTracer]:
    return _CURRENT


def maybe(name: str, category: str = "engine", **args):
    """A span iff a tracer is installed; a shared no-op otherwise."""
    tracer = _CURRENT
    if tracer is None:
        return _NOOP()
    return tracer.span(name, category, **args)


def instant(name: str, category: str = "engine", **args) -> None:
    tracer = _CURRENT
    if tracer is not None:
        tracer.instant(name, category, **args)


def attach_machine_tracer(machine, label: str) -> None:
    """Attach a capture ring to ``machine`` iff capture is armed.

    No-op (one global test) when tracing is off.  Attaching an event
    tracer makes the machine take the exact per-instruction path
    (superblock replay requires no observer), which is slower but — by
    the differential suite — simulates identically.
    """
    if _CURRENT is None or not _MACHINE_CAPACITY:
        return
    from .tracer import EventTracer

    ring = EventTracer(capacity=_MACHINE_CAPACITY)
    machine.attach(ring)
    _MACHINE_RINGS.append({
        "label": label,
        "machine": machine,
        "tracer": ring,
        "start_ns": time.perf_counter_ns(),
    })


def collect_machine_rings() -> List[Dict[str, object]]:
    """Drain every captured ring into plain dicts (for a shipment)."""
    collected: List[Dict[str, object]] = []
    while _MACHINE_RINGS:
        entry = _MACHINE_RINGS.pop(0)
        machine = entry["machine"]
        tracer = entry["tracer"]
        cycles = int(getattr(machine.timing, "now", 0))
        events = [event.to_json_obj() for event in tracer.records()]
        if cycles <= 0:
            cycles = max((event["ts"] for event in events), default=0)
        collected.append({
            "label": entry["label"],
            "start_ns": entry["start_ns"],
            "end_ns": time.perf_counter_ns(),
            "cycles": cycles,
            "emitted": tracer.emitted,
            "dropped": tracer.dropped,
            "events": events,
        })
    return collected
