"""The RNG layer against a from-spec reference that shares no code with numpy.

Every seeded output rests on this chain: sha256 of "master:name" gives a
64-bit stream seed; numpy's `SeedSequence` pools it (O'Neill's `seed_seq_fe`
hashmix and mix, as the NumPy `SeedSequence` documentation gives them) into
the 128-bit state and increment of a PCG64 `setseq` generator; each draw is
the XSL-RR output of one LCG step, mapped to [0, 1) as `(x >> 11) * 2**-53`.
If a numpy upgrade changed any link, these tests name the layer at fault
before any digest does. Reference: O'Neill (2014), HMC-CS-2014-0905.
"""

import hashlib

import pytest

from retailsim.kernel import _BLOCK, RngStream, derive_substream_seed

MASK32 = 0xFFFFFFFF
MASK128 = (1 << 128) - 1
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
POOL_SIZE = 4
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seed_sequence_words(entropy, n_words):
    """`SeedSequence(entropy).generate_state(n_words)` as uint32 words."""
    words = []  # little-endian 32-bit words, at most POOL_SIZE of them here
    while True:
        words.append(entropy & MASK32)
        entropy >>= 32
        if not entropy:
            break
    assert len(words) <= POOL_SIZE
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * MULT_A) & MASK32
        value = (value * hash_const) & MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(POOL_SIZE)]
    for i_src in range(POOL_SIZE):
        for i_dst in range(POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))

    out, hash_const = [], INIT_B
    for i in range(n_words):
        value = pool[i % POOL_SIZE] ^ hash_const
        hash_const = (hash_const * MULT_B) & MASK32
        value = (value * hash_const) & MASK32
        out.append(value ^ (value >> 16))
    return out


def reference_uniforms(master_seed, name, count):
    """The first `count` draws of the stream named `name` under `master_seed`."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    words = seed_sequence_words(int.from_bytes(digest[:8], "big"), 8)
    # generate_state(4, uint64) pairs the words little-endian; the first two
    # uint64s are the seed (high, low) and the last two the sequence.
    u64 = [words[i] | (words[i + 1] << 32) for i in range(0, 8, 2)]
    init_state, init_seq = (u64[0] << 64) | u64[1], (u64[2] << 64) | u64[3]
    inc = ((init_seq << 1) | 1) & MASK128
    state = inc  # setseq seeding: step from 0, add the seed, step again
    state = ((state + init_state) * PCG_MULT + inc) & MASK128
    draws = []
    for _ in range(count):
        state = (state * PCG_MULT + inc) & MASK128
        xored = ((state >> 64) ^ state) & 0xFFFFFFFFFFFFFFFF
        rot = state >> 122
        x = ((xored >> rot) | (xored << (64 - rot))) & 0xFFFFFFFFFFFFFFFF
        draws.append((x >> 11) * 2.0**-53)
    return draws


@pytest.mark.parametrize(
    "master_seed, name",
    [(0, "arrivals"), (7, "service.pay"), (2**63 - 1, "patience"), (12345, "")],
)
def test_uniform_matches_the_spec_across_two_block_boundaries(master_seed, name):
    count = 2 * _BLOCK + 5
    stream = RngStream(master_seed, name)
    assert [stream.uniform() for _ in range(count)] == reference_uniforms(
        master_seed, name, count
    )


@pytest.mark.parametrize("master_seed, name", [(0, "arrivals"), (7, "a:b"), (2**64, "é")])
def test_substream_seed_is_the_first_64_bits_of_sha256(master_seed, name):
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    assert derive_substream_seed(master_seed, name) == int.from_bytes(digest[:8], "big")
