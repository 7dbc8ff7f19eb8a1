"""Discrete-event kernel: simulation clock, future event list, RNG substreams.

The calendar keeps a heap of (fire_time, insertion_seq, handle) tuples, so
simultaneous events dispatch in insertion (FIFO) order. Cancellation is lazy:
a cancelled handle stays in the heap and is skipped when popped, which keeps
cancel O(1) and the hot loop branch-cheap.

Time is a float in model minutes. The kernel knows nothing about trading
days; callers impose day structure by scheduling their own close events.
"""

from __future__ import annotations

import hashlib
import heapq

import numpy as np

_PENDING = 0
_FIRED = 1
_CANCELLED = 2


class SimulationFault(RuntimeError):
    """A model logic bug: bad schedule time or a dispatcher crash."""


class EventHandle:
    """Ticket for a scheduled event; lets the owner cancel or inspect it."""

    __slots__ = ("id", "fire_time", "kind", "target", "_status")

    def __init__(self, eid, fire_time, kind, target):
        self.id = eid
        self.fire_time = fire_time
        self.kind = kind
        self.target = target
        self._status = _PENDING

    @property
    def cancelled(self):
        return self._status == _CANCELLED

    @property
    def fired(self):
        return self._status == _FIRED

    def __repr__(self):
        state = ("pending", "fired", "cancelled")[self._status]
        return f"EventHandle(id={self.id}, t={self.fire_time}, kind={self.kind!r}, {state})"


class EventCalendar:
    """Simulation clock plus future event list."""

    __slots__ = ("now", "_heap", "_seq")

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0

    def __len__(self):
        # Counts cancelled-but-unpopped entries too; only used for diagnostics.
        return len(self._heap)

    def schedule(self, at, kind, target=None):
        """Schedule an event at absolute time `at`; returns its handle.

        `at == now` is legal (zero-delay event, fires before anything later);
        `at < now` signals a model bug and raises SimulationFault.
        """
        if at < self.now:
            raise SimulationFault(
                f"schedule into the past: at={at} < now={self.now} (kind={kind!r})"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(seq, at, kind, target)
        heapq.heappush(self._heap, (at, seq, handle))
        return handle

    def cancel(self, handle):
        """Cancel a pending event. Returns True iff this call removed it.

        Cancelling an already-fired or already-cancelled handle is a no-op
        returning False, so double-cancel is harmless.
        """
        if handle._status != _PENDING:
            return False
        handle._status = _CANCELLED
        return True

    def run_until(self, t_end, dispatcher):
        """Dispatch events in (time, insertion) order through t_end inclusive.

        The clock equals each event's fire time while the dispatcher runs and
        is left at t_end afterwards. A dispatcher exception aborts the run
        wrapped in SimulationFault naming the clock value and event kind.
        """
        if t_end < self.now:
            raise SimulationFault(f"run_until into the past: {t_end} < now={self.now}")
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] <= t_end:
            at, _, handle = pop(heap)
            if handle._status != _PENDING:
                continue
            handle._status = _FIRED
            self.now = at
            try:
                dispatcher(handle)
            except SimulationFault:
                raise
            except Exception as exc:
                raise SimulationFault(
                    f"dispatcher failed at t={at} on event kind={handle.kind!r}: {exc}"
                ) from exc
        self.now = t_end
        return self.now


def derive_substream_seed(master_seed, name):
    """Hash (master_seed, name) to a 64-bit stream seed.

    sha256 keeps distinct names statistically independent and makes the
    mapping stable across platforms and Python hash randomization.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream:
    """Named deterministic uniform stream backed by PCG64.

    Draws are buffered in blocks; uniform() hands out one float64 in [0, 1)
    per call at roughly the cost of a list index.
    """

    __slots__ = ("name", "seed", "_gen", "_buf", "_pos", "_block")

    def __init__(self, master_seed, name, block=1024):
        self.name = name
        self.seed = derive_substream_seed(master_seed, name)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))
        self._block = block
        self._buf = self._gen.random(block)
        self._pos = 0

    def uniform(self):
        pos = self._pos
        if pos == self._block:
            self._buf = self._gen.random(self._block)
            pos = 0
        self._pos = pos + 1
        return self._buf.item(pos)
