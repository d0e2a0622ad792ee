"""Dense word-set kernels.

A length-n word over the ring is a row of n symbol indices 4a + b, the
same indices as ``Poly.symbols``; a word set is a uint8 array of such rows,
kept unique and lexicographically sorted (the canonical export order,
which is the order of the (a, b) pairs).  Ring operations on rows are
lookups in the symbol tables of ``ring``.

When n <= 16 a row packs into one uint64 key, 4 bits a symbol and
big-endian, so key order equals row order.  The 4 bits of symbol 4a + b
are two 2-bit Z4 lanes, a above b, and ring addition is Z4 addition in
each lane, so packed words add lane-wise with no table and no unpacking
(``_add_keys``).  Span closure keeps its running set as one sorted key
array, from the zero word to the finished code, and unpacks it to rows
once at the end.  Larger n falls back to rows and row-wise np.unique.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceeded
from .ring import ADD, COMPLEMENT, MUL

_PACK_LIMIT = 16  # max row width (symbols) for the single-key fast path

# The low and the high bit of every 2-bit Z4 lane of a key.
_LANE_LOW = np.uint64(0x5555_5555_5555_5555)
_LANE_HIGH = np.uint64(0xAAAA_AAAA_AAAA_AAAA)

_ADD16 = np.frombuffer(ADD, dtype=np.uint8).reshape(16, 16)
_MUL16 = np.frombuffer(MUL, dtype=np.uint8).reshape(16, 16)
_COMPLEMENT = np.frombuffer(COMPLEMENT, dtype=np.uint8)


def _pack(rows: np.ndarray) -> np.ndarray:
    width = rows.shape[1]
    keys = np.zeros(rows.shape[0], dtype=np.uint64)
    for k in range(width):
        keys |= rows[:, k].astype(np.uint64) << np.uint64(4 * (width - 1 - k))
    return keys


def _unpack(keys: np.ndarray, width: int) -> np.ndarray:
    rows = np.empty((keys.shape[0], width), dtype=np.uint8)
    for k in range(width):
        rows[:, k] = (keys >> np.uint64(4 * (width - 1 - k))).astype(np.uint8) & 15
    return rows


def _add_keys(keys: np.ndarray, d: np.uint64) -> np.ndarray:
    """The packed word ``d`` added to every packed word of ``keys``.

    In each lane the low bits add, their carry landing in the lane's high
    bit, and the high bit also takes the xor of both high bits; no carry
    leaves a lane, so this is Z4 addition in all lanes at once.
    """
    return ((keys & _LANE_LOW) + (d & _LANE_LOW)) ^ ((keys ^ d) & _LANE_HIGH)


def _has_key(keys: np.ndarray, key: np.uint64) -> bool:
    """Membership in a sorted key array."""
    i = np.searchsorted(keys, key)
    return bool(i < keys.size and keys[i] == key)


def canonical(rows: np.ndarray) -> np.ndarray:
    """Deduplicate and sort rows lexicographically."""
    if rows.shape[1] <= _PACK_LIMIT:
        return _unpack(np.unique(_pack(rows)), rows.shape[1])
    return np.unique(rows, axis=0)


def contains(rows: np.ndarray, row: np.ndarray) -> bool:
    """Membership test; ``rows`` must be canonical."""
    if rows.shape[1] <= _PACK_LIMIT:
        return _has_key(_pack(rows), _pack(row.reshape(1, -1))[0])
    return bool((rows == row).all(axis=1).any())


def same_set(canonical_rows: np.ndarray, image_rows: np.ndarray) -> bool:
    """Whether ``image_rows`` holds exactly the words of ``canonical_rows``.

    ``image_rows`` must be the image of ``canonical_rows`` under a map that
    permutes words (roll, reverse, complement, RC), so its rows are
    distinct and as many as the set's; sorting them is then enough, with
    no deduplication.
    """
    if canonical_rows.shape[1] <= _PACK_LIMIT:
        return np.array_equal(_pack(canonical_rows), np.sort(_pack(image_rows)))
    return np.array_equal(canonical_rows, canonical(image_rows))


def scalar_orbit(row: np.ndarray) -> np.ndarray:
    """Distinct multiples r*v over all 16 ring scalars r."""
    return np.unique(_MUL16[:, row], axis=0)


def _union_translates(rows: np.ndarray, deltas: np.ndarray, cap: int) -> np.ndarray:
    """Canonical form of the union of (rows + d) over all delta rows.

    Translates are merged one at a time, with the cap checked after each,
    so the working set never holds much more than the cap.
    """
    acc = rows[:0]
    for d in deltas:
        acc = np.unique(np.concatenate([acc, _ADD16[rows, d]]), axis=0)
        if acc.shape[0] > cap:
            raise CapExceeded(f"code grew past cap={cap}")
    return acc


def span_closure(vectors, cap: int) -> np.ndarray:
    """Smallest shift-closed submodule containing the given rows.

    Each step replaces the running set S by S + R*v; since S starts as the
    zero module and module sums stay modules, a vector already in S can be
    skipped outright, and one pass over the vectors is enough.  Raises
    CapExceeded as soon as the set outgrows ``cap``.
    """
    width = vectors[0].size
    if width > _PACK_LIMIT:
        rows = np.zeros((1, width), dtype=np.uint8)
        for v in vectors:
            if not contains(rows, v):
                rows = _union_translates(rows, scalar_orbit(v), cap)
        return rows
    keys = np.zeros(1, dtype=np.uint64)
    for v in vectors:
        if _has_key(keys, _pack(v.reshape(1, -1))[0]):
            continue
        acc = keys  # the translate by the zero multiple, the smallest key
        for d in np.unique(_pack(_MUL16[:, v]))[1:]:
            acc = np.union1d(acc, _add_keys(keys, d))
            if acc.size > cap:
                raise CapExceeded(f"code grew past cap={cap}")
        keys = acc
    return _unpack(keys, width)


def roll_rows(rows: np.ndarray, shift: int = 1) -> np.ndarray:
    """Cyclic shift by ``shift`` symbols (right rotation for +1)."""
    return np.roll(rows, shift, axis=1)


def reverse_rows(rows: np.ndarray) -> np.ndarray:
    return rows[:, ::-1]


def complement_rows(rows: np.ndarray) -> np.ndarray:
    """(1+u) - x symbolwise."""
    return _COMPLEMENT[rows]


def rc_rows(rows: np.ndarray) -> np.ndarray:
    return reverse_rows(complement_rows(rows))
