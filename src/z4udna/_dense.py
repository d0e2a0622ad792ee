"""Dense word-set kernels.

A length-n word over the ring is a row of 2n base-4 digits
``[a0, b0, a1, b1, ...]``; a word set is a uint8 array of such rows,
kept unique and lexicographically sorted (the canonical export order).
When 2n <= 32 the rows pack into single uint64 keys, big-endian in the
digits so key order equals row order; larger n falls back to row-wise
np.unique.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceeded

_PACK_LIMIT = 32  # max row width (digits) for the single-key fast path


def _pack(rows: np.ndarray) -> np.ndarray:
    width = rows.shape[1]
    keys = np.zeros(rows.shape[0], dtype=np.uint64)
    for k in range(width):
        keys |= rows[:, k].astype(np.uint64) << np.uint64(2 * (width - 1 - k))
    return keys


def _unpack(keys: np.ndarray, width: int) -> np.ndarray:
    rows = np.empty((keys.shape[0], width), dtype=np.uint8)
    for k in range(width):
        rows[:, k] = (keys >> np.uint64(2 * (width - 1 - k))).astype(np.uint8) & 3
    return rows


def canonical(rows: np.ndarray) -> np.ndarray:
    """Deduplicate and sort rows lexicographically."""
    if rows.shape[1] <= _PACK_LIMIT:
        return _unpack(np.unique(_pack(rows)), rows.shape[1])
    return np.unique(rows, axis=0)


def contains(rows: np.ndarray, row: np.ndarray) -> bool:
    """Membership test; ``rows`` must be canonical."""
    if rows.shape[1] <= _PACK_LIMIT:
        keys = _pack(rows)
        key = _pack(row.reshape(1, -1))[0]
        i = np.searchsorted(keys, key)
        return bool(i < keys.size and keys[i] == key)
    return bool((rows == row).all(axis=1).any())


def same_set(canonical_rows: np.ndarray, other_rows: np.ndarray) -> bool:
    return np.array_equal(canonical_rows, canonical(other_rows))


def scalar_orbit(row: np.ndarray) -> np.ndarray:
    """Distinct multiples r*v over all 16 ring scalars r."""
    va = row[0::2].astype(np.int64)
    vb = row[1::2].astype(np.int64)
    out = np.empty((16, row.size), dtype=np.uint8)
    i = 0
    for ra in range(4):
        for rb in range(4):
            out[i, 0::2] = (ra * va) % 4
            out[i, 1::2] = (ra * vb + rb * va) % 4
            i += 1
    return np.unique(out, axis=0)


def _union_translates(rows: np.ndarray, deltas: np.ndarray, cap: int) -> np.ndarray:
    """Canonical form of the union of (rows + d) over all delta rows."""
    width = rows.shape[1]
    if width <= _PACK_LIMIT:
        acc = None
        for d in deltas:
            part = np.sort(_pack((rows + d) % 4))
            acc = part if acc is None else np.union1d(acc, part)
            if acc.size > cap:
                raise CapExceeded(f"code grew past cap={cap}")
        return _unpack(acc, width)
    parts = [(rows + d) % 4 for d in deltas]
    merged = np.unique(np.concatenate(parts), axis=0)
    if merged.shape[0] > cap:
        raise CapExceeded(f"code grew past cap={cap}")
    return merged


def span_closure(vectors, cap: int) -> np.ndarray:
    """Smallest shift-closed submodule containing the given rows.

    Each step replaces the running set S by S + R*v; since S starts as the
    zero module and module sums stay modules, a vector already in S can be
    skipped outright, and one pass over the vectors is enough.
    """
    width = vectors[0].size
    rows = np.zeros((1, width), dtype=np.uint8)
    for v in vectors:
        if contains(rows, v):
            continue
        rows = _union_translates(rows, scalar_orbit(v), cap)
    return rows


def roll_rows(rows: np.ndarray, shift: int = 1) -> np.ndarray:
    """Cyclic shift by ``shift`` symbols (right rotation for +1)."""
    m, width = rows.shape
    n = width // 2
    return np.roll(rows.reshape(m, n, 2), shift, axis=1).reshape(m, width)


def reverse_rows(rows: np.ndarray) -> np.ndarray:
    m, width = rows.shape
    n = width // 2
    return rows.reshape(m, n, 2)[:, ::-1, :].reshape(m, width)


def complement_rows(rows: np.ndarray) -> np.ndarray:
    # (1+u) - (a + ub) componentwise: both digits map t -> (1 - t) mod 4.
    # uint8 underflow is harmless because 256 = 0 mod 4.
    return (1 - rows) % 4


def rc_rows(rows: np.ndarray) -> np.ndarray:
    return reverse_rows(complement_rows(rows))
