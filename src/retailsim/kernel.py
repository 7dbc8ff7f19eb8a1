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

Each `RngStream` is NumPy's `Generator(PCG64(seed)).random()` stream, bit
for bit, but the kernel generates it itself: a stream is PCG64's 128-bit
state and increment as Python ints, seeded by a port of NumPy's
`SeedSequence`, and each refill computes a block of steps at once on numpy's
uint64 arrays, so no process loads `numpy.random` (or, through it, OpenSSL).
numpy is imported at the first refill, not with the module: the CLI imports
the kernel for every command, and only commands that simulate draw random
numbers. Reference: O'Neill (2014), PCG, HMC-CS-2014-0905.
"""

from __future__ import annotations

import functools
import heapq
import sys


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
        `at < now` or NaN raises SimulationFault, a model bug. An event
        with a target fires only if `target.pending` still equals the token.
        """
        if not at >= self.now:
            name = getattr(kind, "__name__", kind)
            raise SimulationFault(f"schedule into the past: at={at} < now={self.now} on {name!r}")
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
    mapping stable across platforms and Python hash randomization. It comes
    from CPython's own module (`_sha2` from 3.12, `_sha256` before), which
    does not load OpenSSL as hashlib does; hashlib serves a build without it.
    """
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

    return int.from_bytes(sha256(text.encode("utf-8")).digest()[:8], "big")


def derive_substream_seed(master_seed, name):
    """Hash (master_seed, name) to a 64-bit stream seed."""
    return hash_seed(f"{master_seed}:{name}")


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seed_sequence_words(entropy):
    """NumPy's `SeedSequence(entropy).generate_state(8)`, for entropy < 2**128.

    O'Neill's `seed_seq_fe` with a pool of four uint32 words: the entropy's
    little-endian words are hashed into the pool, each pool word is mixed
    into every other, and the output hashes the pool cyclically.
    """
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix((entropy >> shift) & _MASK32) for shift in (0, 32, 64, 96)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                mixed = (0xCA01F9DD * pool[i_dst] - 0x4973F715 * hashmix(pool[i_src])) & _MASK32
                pool[i_dst] = mixed ^ (mixed >> 16)
    words, hash_const = [], 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    return words


def _pcg64_seed(entropy):
    """The 128-bit (state, increment) that `PCG64(entropy)` starts from."""
    w = seed_sequence_words(entropy)
    # The words pair little-endian into four uint64s.
    seed_hi, seed_lo, seq_hi, seq_lo = (w[i] | (w[i + 1] << 32) for i in range(0, 8, 2))
    inc = ((((seq_hi << 64) | seq_lo) << 1) | 1) & _MASK128
    # setseq seeding: step from 0, add the seed, step again.
    return ((inc + ((seed_hi << 64) | seed_lo)) * _PCG_MULT + inc) & _MASK128, inc


_BLOCK = 2048  # draws per refill


@functools.cache
def refill_table():
    """numpy and G_1 .. G_BLOCK, G_j = 1 + M + ... + M**(j-1), as read-only uint64 (hi, lo).

    Built at a process's first refill, or by a parallel sweep before it forks.
    """
    import numpy as np

    geo, g = [], 0
    for _ in range(_BLOCK):
        g = (g * _PCG_MULT + 1) & _MASK128  # G_(j+1) = M * G_j + 1
        geo.append(g)
    hi = np.array([g >> 64 for g in geo], dtype=np.uint64)
    lo = np.array([g & _MASK64 for g in geo], dtype=np.uint64)
    hi.flags.writeable = lo.flags.writeable = False
    return np, hi, lo


def _block(state, inc):
    """The `_BLOCK` draws after PCG64 state `state`, last first, and the new state.

    After j steps from s the state is s_j = M**j * s + G_j * inc; as
    M**j = (M - 1) * G_j + 1, also s_j = G_j * k + s with k = (M - 1) * s + inc,
    one multiply-add of the table for the whole block. numpy has no
    64 x 64 -> 128-bit multiply, so the high word of lo * (k mod 2**64) is
    summed from the products of 32-bit halves. Every constant is an np.uint64,
    so nothing is promoted to float under numpy 1.x's value-based casting.
    """
    np, g_hi, g_lo = refill_table()
    u64 = np.uint64
    k = ((_PCG_MULT - 1) * state + inc) & _MASK128
    m32, s32, k_lo, s_lo = u64(_MASK32), u64(32), u64(k & _MASK64), u64(state & _MASK64)
    k0, k1 = u64(k & _MASK32), u64((k >> 32) & _MASK32)
    # The cross terms, which reach only the high word.
    hi = g_hi * k_lo
    hi += g_lo * u64(k >> 64)
    # The high word of g_lo * k_lo, from the 32-bit halves a1:a0 and k1:k0.
    a0, a1 = g_lo & m32, g_lo >> s32
    p01, p10 = a0 * k1, a1 * k0
    a1 *= k1  # p11
    hi += a1
    hi += np.right_shift(p01, s32, out=a1)
    hi += np.right_shift(p10, s32, out=a1)
    a0 *= k0  # p00
    a0 >>= s32
    p01 &= m32
    p10 &= m32
    a0 += p01
    a0 += p10  # the middle column, whose carry reaches the high word
    a0 >>= s32
    hi += a0
    # The low word, then s with the carry out of its low word.
    lo = g_lo * k_lo
    lo += s_lo
    hi += u64(state >> 64)
    hi += lo < s_lo
    # Each state's XSL-RR output, as `(x >> 11) * 2**-53`.
    x = hi ^ lo
    rot = hi >> u64(58)
    right = x >> rot
    np.subtract(u64(64), rot, out=rot)
    rot &= u64(63)
    x <<= rot
    x |= right
    x >>= u64(11)
    return (x * 2.0**-53)[::-1].tolist(), (int(hi[-1]) << 64) | int(lo[-1])


class RngStream:
    """Named deterministic uniform stream: `Generator(PCG64(seed)).random()`.

    The seed is `derive_substream_seed(master_seed, name)`. The stream is
    PCG64's (state, increment) and a list of the block's floats in reverse
    order, so uniform() hands out the next float64 in [0, 1) with one list
    pop, and a refill computes the next `_BLOCK` draws from the state.
    """

    __slots__ = ("_state", "_inc", "_buf")

    def __init__(self, master_seed, name):
        self._state, self._inc = _pcg64_seed(derive_substream_seed(master_seed, name))
        self._buf = []

    def uniform(self):
        try:
            return self._buf.pop()
        except IndexError:
            self._buf, self._state = _block(self._state, self._inc)
            return self._buf.pop()
