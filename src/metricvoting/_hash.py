"""Keyed hashing and per-trial RNG streams.

Two primitives back everything randomized:

* ``_mix64_inplace`` -- the splitmix64 finalizer, hashing uint64 keys in
  place.  ``seed_word`` chains it over integers, and the two-cluster
  distance keys its index pairs with it, never materializing a matrix.
* ``trial_uniforms`` -- counter-based (Philox) streams keyed by
  (seed, trial index), so trials are reproducible and order-independent
  regardless of how they are scheduled across workers or batched.
"""

from __future__ import annotations

import functools

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


def seed_word(*parts: int) -> np.uint64:
    """Chain-mix integers into a single well-mixed 64-bit word."""
    w = np.zeros((), U64)
    for p in parts:
        w ^= U64(p & _MASK)
        _mix64_inplace(w, np.empty_like(w))
    return w[()]


@functools.cache
def _unseeded():
    """Zero seed words, for a bit generator whose state is set before use;
    made on first use, as importing ``numpy.random`` takes some 6 MB."""
    class Unseeded(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype)
    return Unseeded()


def trial_uniforms(seed: int, start: int, count: int, n: int) -> np.ndarray:
    """(count, n) uniforms: row i is ``Generator(Philox(key=k)).random(n)``
    bit for bit, for the uint64 key words k = (seed, start + i).  One bit
    generator, built from ``_unseeded()`` rather than a ``SeedSequence``, is
    re-keyed per trial by setting its state.  A seed or trial index outside
    [0, 2^64) is refused, never wrapped."""
    if not (0 <= seed <= _MASK and 0 <= start and start + count - 1 <= _MASK):
        raise ValueError(f"seed {seed} and trial indices {start}..{start + count - 1} must lie in [0, 2^64)")
    bitgen = np.random.Philox(_unseeded())
    gen = np.random.Generator(bitgen)
    key = [seed, 0]
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    out = np.empty((count, n))
    for i in range(count):
        key[1] = start + i
        bitgen.state = state
        gen.random(out=out[i])
    return out
