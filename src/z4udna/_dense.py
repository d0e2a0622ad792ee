"""Dense span closure: ``span_closure`` takes rows and returns the sorted,
distinct rows of their span, which ``Code`` keeps as they are.

A length-n word over the ring is a row of n symbol indices 4a + b, the
same indices as ``Poly.symbols``.  Inside this module, and nowhere else, a
word set is one sorted array of packed keys, a key to a word, 4 bits a
symbol and big-endian, so key order is the lexicographic order of the rows
(the canonical word order).  A uint64 key holds up to 16 symbols, a Python
int in an object array more.  The 4 bits of symbol 4a + b are two 2-bit
Z4 lanes, a above b, and ring addition is Z4 addition in each lane, so
packed words add lane-wise with no table (``_add_keys``), under lane masks
of the key's own type; nothing else depends on the width.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceeded
from .ring import MUL

_PACK_LIMIT = 16  # max word width (symbols) that fits one uint64 key

_MUL16 = np.frombuffer(MUL, dtype=np.uint8).reshape(16, 16)


def _key_type(width: int):
    """The key dtype for words of ``width`` symbols, and the low and the
    high bit of each of its 2-bit Z4 lanes."""
    low, high = int("5" * width, 16), int("a" * width, 16)
    if width <= _PACK_LIMIT:
        return np.uint64, np.uint64(low), np.uint64(high)
    return object, low, high


def _pack(rows: np.ndarray) -> np.ndarray:
    """One key per row."""
    width = rows.shape[1]
    dtype = _key_type(width)[0]
    keys = np.zeros(rows.shape[0], dtype=dtype)
    for k in range(width):
        keys |= rows[:, k].astype(dtype) << (4 * (width - 1 - k))
    return keys


def _unpack(keys: np.ndarray, width: int) -> np.ndarray:
    """The rows of ``width`` symbols that ``keys`` pack."""
    if keys.dtype == object:
        # each Python int read once, as big-endian bytes of two symbols
        # each, behind one zero nibble when the width is odd
        size = (width + 1) // 2
        data = b"".join([k.to_bytes(size, "big") for k in keys.tolist()])
        octets = np.frombuffer(data, dtype=np.uint8).reshape(keys.size, size)
        nibbles = np.stack((octets >> 4, octets & 15), axis=2).reshape(keys.size, 2 * size)
        return np.ascontiguousarray(nibbles[:, 2 * size - width:])
    rows = np.empty((keys.size, width), dtype=np.uint8)
    for k in range(width):
        rows[:, k] = (keys >> (4 * (width - 1 - k))) & 15
    return rows


def _add_keys(keys: np.ndarray, d, low, high) -> np.ndarray:
    """The packed word ``d`` added to every packed word of ``keys``.

    ``low`` and ``high`` are the lane masks of ``_key_type``.  In each lane
    the low bits add, their carry landing in the lane's high bit, and the
    high bit also takes the xor of both high bits; no carry leaves a lane,
    so this is Z4 addition in all lanes at once.
    """
    return ((keys & low) + (d & low)) ^ ((keys ^ d) & high)


def span_closure(vectors, cap: int) -> np.ndarray:
    """The sorted, distinct rows of the R-span of the given rows: every
    sum of ring multiples r*v of them.

    The span is shift-closed only if the vectors are (``enumerate_code``
    passes all n shifts of each generator).  Each step replaces the running
    set S by S + R*v, merging the cosets S + d over the distinct multiples
    d of v in key order.  S holds 0 and the running union holds S, so the
    union holds d iff it already holds the coset S + d, which is then
    skipped; one pass over the vectors is enough, since module sums stay
    modules.  A new coset is disjoint from the union and holds |S| words,
    so the union's next size is known before the merge: CapExceeded is
    raised then, if that size passes ``cap``, and no set larger than
    ``cap`` is ever built.  A merge that does not grow the union by
    exactly |S| raises RuntimeError.  The keys are unpacked once, at the
    end.
    """
    vectors = np.asarray(vectors, dtype=np.uint8)
    width = vectors.shape[1]
    dtype, low, high = _key_type(width)
    keys = np.zeros(1, dtype=dtype)
    for v in vectors:
        acc = keys
        for d in np.unique(_pack(_MUL16[:, v])):
            i = acc.searchsorted(d)
            if i < acc.size and acc[i] == d:
                continue  # the union holds the whole coset S + d
            size = acc.size + keys.size
            if size > cap:
                raise CapExceeded(f"code grew past cap={cap}")
            acc = np.union1d(acc, _add_keys(keys, d, low, high))
            if acc.size != size:
                raise RuntimeError("a span closure merge did not add one whole coset")
        keys = acc
    return _unpack(keys, width)
