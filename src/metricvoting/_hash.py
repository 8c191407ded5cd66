"""Keyed hashing and per-trial RNG streams.

Two primitives back everything randomized:

* ``pair_uniform`` -- a stateless splitmix64-style hash mapping a seed word
  and an index pair to a uniform float in [0, 1).  Used for lazily derived
  pairwise distances, where materializing a matrix is impossible.
* ``trial_uniforms`` -- counter-based (Philox) streams keyed by
  (seed, trial index), so trials are reproducible and order-independent
  regardless of how they are scheduled across workers or batched.
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64
_MASK = (1 << 64) - 1
_GOLD = U64(0x9E3779B97F4A7C15)
_C1 = U64(0xBF58476D1CE4E5B9)
_C2 = U64(0x94D049BB133111EB)
_INV53 = 2.0**-53


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer applied to the uint64 array ``z`` in place, with
    ``tmp`` (same shape) as the only scratch; uint64 ufuncs wrap mod 2^64."""
    z += _GOLD
    for shift, mult in ((30, _C1), (27, _C2)):
        np.right_shift(z, U64(shift), out=tmp)
        z ^= tmp
        z *= mult
    np.right_shift(z, U64(31), out=tmp)
    z ^= tmp
    return z


def mix64(x):
    """splitmix64 finalizer; accepts uint64 scalars or arrays (wraps mod 2^64)."""
    z = np.array(x, dtype=U64)
    _mix64_inplace(z, np.empty_like(z))
    return z if z.ndim else z[()]


def seed_word(*parts: int) -> np.uint64:
    """Chain-mix integers into a single well-mixed 64-bit word."""
    w = U64(0)
    for p in parts:
        w = mix64(w ^ U64(p & _MASK))
    return U64(w)


def pair_uniform(word: np.uint64, a, b):
    """Uniform [0,1) keyed by (word, a, b); a, b must fit in 32 bits.

    Broadcasts like a numpy ufunc over integer arrays.
    """
    a = np.asarray(a, dtype=U64)
    b = np.asarray(b, dtype=U64)
    key = np.left_shift(a, U64(32), out=np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=U64))
    key |= b
    return key_uniform(word, key, np.empty_like(key))


def key_uniform(word: np.uint64, key: np.ndarray, scratch: np.ndarray):
    """``pair_uniform`` of the built key ``(a << 32) | b``: hashes ``key`` in
    place, overwriting ``scratch`` (same shape), and returns the floats."""
    key ^= word
    _mix64_inplace(key, scratch)
    key >>= U64(11)
    return key * _INV53


def trial_uniforms(seed: int, start: int, count: int, n: int) -> np.ndarray:
    """(count, n) uniforms: row i is ``Generator(Philox(key=k)).random(n)``
    bit for bit, for the uint64 key words k = (seed, start + i).  One bit
    generator is re-keyed per trial by setting its state, which skips the
    OS-entropy ``SeedSequence`` that ``Philox(key=...)`` builds."""
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    key = [seed & _MASK, 0]
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    out = np.empty((count, n))
    for i in range(count):
        key[1] = (start + i) & _MASK
        bitgen.state = state
        gen.random(out=out[i])
    return out
