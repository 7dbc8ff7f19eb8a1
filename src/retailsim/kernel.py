"""Discrete-event kernel: simulation clock, future event list, RNG substreams.

The calendar keeps a heap of (fire_time, seq, kind, target) tuples, so
simultaneous events dispatch in insertion (FIFO) order. `kind` is opaque
here; the model puts each event's handler there. `schedule` returns the
event's seq as a token. A target holds at most one pending event: the owner
stores the token in `target.pending`, and an event whose target no longer
holds its token is stale and is dropped when popped. Superseding or clearing
`pending` therefore cancels in O(1), with no handle object per event.

Time is a float in model minutes. The kernel knows nothing about trading
days; callers impose day structure by scheduling their own close events.

numpy is imported when the first `RngStream` is built, not with the module:
the CLI imports the kernel for every command, and only commands that
simulate draw random numbers.
"""

from __future__ import annotations

import heapq


class SimulationFault(RuntimeError):
    """A model logic bug: bad schedule time or a dispatcher crash."""


class EventCalendar:
    """Simulation clock plus future event list."""

    __slots__ = ("now", "heap", "_seq")

    def __init__(self):
        self.now = 0.0
        self.heap = []
        self._seq = 0

    def __len__(self):
        # Counts stale-but-unpopped entries too; perfbench's tracer reads it.
        return len(self.heap)

    def schedule(self, at, kind, target=None):
        """Schedule an event at absolute time `at`; returns its seq token.

        `at == now` is legal (zero-delay event, fires before anything later);
        `at < now` signals a model bug and raises SimulationFault. An event
        with a target fires only if `target.pending` still equals the token.
        """
        if at < self.now:
            raise SimulationFault(
                f"schedule into the past: at={at} < now={self.now} (kind={kind!r})"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self.heap, (at, seq, kind, target))
        return seq

    def run_until(self, t_end, dispatcher):
        """Dispatch live events in (time, seq) order through t_end inclusive.

        Each live event clears its target's `pending` and then calls
        `dispatcher(kind, target)`. The clock equals the event's fire time
        while the dispatcher runs and is left at t_end afterwards. A
        dispatcher exception aborts the run wrapped in SimulationFault naming
        the clock value and the event kind, by its `__name__` if it has one.
        """
        if t_end < self.now:
            raise SimulationFault(f"run_until into the past: {t_end} < now={self.now}")
        heap = self.heap
        pop = heapq.heappop
        while heap and heap[0][0] <= t_end:
            at, seq, kind, target = pop(heap)
            if target is not None:
                if target.pending != seq:
                    continue
                target.pending = None
            self.now = at
            try:
                dispatcher(kind, target)
            except SimulationFault:
                raise
            except Exception as exc:
                name = getattr(kind, "__name__", kind)
                raise SimulationFault(
                    f"dispatcher failed at t={at} on event {name!r}: {exc}"
                ) from exc
        self.now = t_end
        return self.now


def hash_seed(text):
    """The first 64 bits of sha256(text) as an unsigned int.

    sha256 keeps distinct texts statistically independent and makes the
    mapping stable across platforms and Python hash randomization. hashlib
    is imported here, not at module level, because it loads OpenSSL and
    only commands that simulate derive seeds.
    """
    import hashlib

    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def derive_substream_seed(master_seed, name):
    """Hash (master_seed, name) to a 64-bit stream seed."""
    return hash_seed(f"{master_seed}:{name}")


_BLOCK = 1024  # draws fetched from numpy per refill


class RngStream:
    """Named deterministic uniform stream backed by PCG64.

    Draws are generated in blocks and kept as a list of Python floats in
    reverse order, so uniform() hands out the next float64 in [0, 1) with one
    list pop.
    """

    __slots__ = ("_gen", "_buf")

    def __init__(self, master_seed, name):
        import numpy as np

        self._gen = np.random.Generator(np.random.PCG64(derive_substream_seed(master_seed, name)))
        self._buf = []

    def uniform(self):
        try:
            return self._buf.pop()
        except IndexError:
            self._buf = self._gen.random(_BLOCK)[::-1].tolist()
            return self._buf.pop()
