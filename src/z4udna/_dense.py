"""Dense word-set kernels.

A length-n word over the ring is a row of n symbol indices 4a + b, the
same indices as ``Poly.symbols``; a word set is a uint8 array of such rows,
kept unique and lexicographically sorted (the canonical export order,
which is the order of the (a, b) pairs).  Ring operations on rows are
lookups in the symbol tables of ``ring``.  When n <= 16 the rows pack into
single uint64 keys, 4 bits a symbol and big-endian, so key order equals
row order; larger n falls back to row-wise np.unique.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceeded
from .ring import ADD, COMPLEMENT, MUL

_PACK_LIMIT = 16  # max row width (symbols) for the single-key fast path

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
    return np.unique(_MUL16[:, row], axis=0)


def _union_translates(rows: np.ndarray, deltas: np.ndarray, cap: int) -> np.ndarray:
    """Canonical form of the union of (rows + d) over all delta rows."""
    width = rows.shape[1]
    if width <= _PACK_LIMIT:
        acc = None
        for d in deltas:
            part = np.sort(_pack(_ADD16[rows, d]))
            acc = part if acc is None else np.union1d(acc, part)
            if acc.size > cap:
                raise CapExceeded(f"code grew past cap={cap}")
        return _unpack(acc, width)
    merged = np.unique(np.concatenate([_ADD16[rows, d] for d in deltas]), axis=0)
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
    return np.roll(rows, shift, axis=1)


def reverse_rows(rows: np.ndarray) -> np.ndarray:
    return rows[:, ::-1]


def complement_rows(rows: np.ndarray) -> np.ndarray:
    """(1+u) - x symbolwise."""
    return _COMPLEMENT[rows]


def rc_rows(rows: np.ndarray) -> np.ndarray:
    return reverse_rows(complement_rows(rows))
