"""Deterministic counter-based randomness.

Every certificate the toolkit emits must be reproducible from (prime, seed)
alone, independently of thread count or evaluation order.  The generator here
is a splitmix64-style counter PRF: stream keys are derived by hashing labels
into the seed, and each draw depends only on (key, counter).  Forked streams
never share state, so per-point randomness can be consumed in any order.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    # splitmix64 finalizer
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _mix_array(z: np.ndarray) -> np.ndarray:
    """`_mix` on a uint64 array; numpy's uint64 arithmetic wraps mod 2**64."""
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z = z * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _draws(keys: np.ndarray, counter: int, count: int) -> np.ndarray:
    """(len(keys), count) uint64 array: draws counter+1..counter+count of
    each key, as `FieldRng.next_uint64` makes them."""
    ctrs = np.arange(counter + 1, counter + count + 1, dtype=np.uint64)
    return _mix_array(keys[:, None] + ctrs * np.uint64(_GOLDEN))


def _rejected(draws: np.ndarray, n: int) -> np.ndarray:
    """Mask of the rows holding a draw that `FieldRng.below(n)` rejects."""
    limit = (1 << 64) - ((1 << 64) % n)
    if limit == 1 << 64:
        return np.zeros(len(draws), dtype=bool)
    return (draws >= np.uint64(limit)).any(axis=1)


def _fold(key: int, token) -> int:
    if isinstance(token, str):
        acc = _mix(len(token) + 1)
        for i, b in enumerate(token.encode("utf-8")):
            acc = _mix(acc ^ ((b + 1) * _GOLDEN + i))
        token_val = acc
    elif isinstance(token, int):
        token_val = _mix((token & _MASK64) ^ _GOLDEN)
    else:
        raise TypeError(f"rng labels must be int or str, got {type(token)!r}")
    return _mix((key + _GOLDEN) ^ token_val)


def derive_seed(seed, *labels) -> int:
    """Fixed splitting rule: hash labels into a seed, giving a child seed."""
    key = _mix(seed & _MASK64) if isinstance(seed, int) else _fold(0, seed)
    for lab in labels:
        key = _fold(key, lab)
    return key


def below_table(seed: int, label: str, start: int, rows: int, count: int, n: int) -> np.ndarray:
    """(rows, count) int64 array whose row i is the first `count` draws of
    FieldRng(seed, label, start + i).below(n), for n < 2**63.

    The keys and draws are computed on uint64 arrays, with the part of
    `derive_seed` before the index computed once; a row holding a draw that
    `below` rejects is drawn again by `FieldRng` itself.
    """
    prefix = np.uint64((derive_seed(seed, label) + _GOLDEN) & _MASK64)
    index = np.arange(rows, dtype=np.uint64) + np.uint64(start & _MASK64)
    keys = _mix_array(prefix ^ _mix_array(index ^ np.uint64(_GOLDEN)))
    draws = _draws(keys, 0, count)
    out = (draws % np.uint64(n)).astype(np.int64)
    for i in np.flatnonzero(_rejected(draws, n)):
        rng = FieldRng(seed, label, start + int(i))
        out[i] = [rng.below(n) for _ in range(count)]
    return out


class FieldRng:
    """Seeded stream of uniform draws; `fork` gives independent substreams."""

    __slots__ = ("_key", "_ctr")

    def __init__(self, seed, *labels):
        self._key = derive_seed(seed, *labels)
        self._ctr = 0

    def fork(self, *labels) -> "FieldRng":
        return FieldRng(self._key, "fork", *labels)

    def next_uint64(self) -> int:
        self._ctr += 1
        return _mix((self._key + self._ctr * _GOLDEN) & _MASK64)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n); exact via rejection sampling."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_uint64()
            if v < limit:
                return v % n

    def below_many(self, n: int, count: int) -> np.ndarray:
        """The next `count` draws of `below(n)`, for n < 2**63, as an int64
        array computed on uint64 arrays; if `below` would reject one of
        them, all `count` are drawn by `below` itself."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        draws = _draws(np.array([self._key], dtype=np.uint64), self._ctr, count)
        if _rejected(draws, n)[0]:
            return np.array([self.below(n) for _ in range(count)], dtype=np.int64)
        self._ctr += count
        return (draws[0] % np.uint64(n)).astype(np.int64)
