"""Dense word-set kernels.

A length-n word over the ring is a row of n symbol indices 4a + b, the
same indices as ``Poly.symbols``.  A word set is stored as one sorted
array of packed keys, a key to a word, 4 bits a symbol and big-endian, so
key order equals the lexicographic order of the rows (the canonical export
order, which is the order of the (a, b) pairs).  Ring operations on rows
are lookups in the symbol tables of ``ring``.

The word width picks the key type: a uint64 up to 16 symbols, a Python
int in an object array above that.  The 4 bits of symbol 4a + b are two
2-bit Z4 lanes, a above b, and ring addition is Z4 addition in each lane,
so packed words add lane-wise with no table and no unpacking
(``_add_keys``), under lane masks of the key's own type and width.  The
same arithmetic serves both key types; nothing else depends on the width.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceeded
from .ring import COMPLEMENT, MUL

_PACK_LIMIT = 16  # max word width (symbols) that fits one uint64 key

_MUL16 = np.frombuffer(MUL, dtype=np.uint8).reshape(16, 16)
_COMPLEMENT = np.frombuffer(COMPLEMENT, dtype=np.uint8)


def _key_type(width: int):
    """The key dtype for words of ``width`` symbols, and the low and the
    high bit of each of its 2-bit Z4 lanes."""
    low, high = int("5" * width, 16), int("a" * width, 16)
    if width <= _PACK_LIMIT:
        return np.uint64, np.uint64(low), np.uint64(high)
    return object, low, high


def pack(rows: np.ndarray) -> np.ndarray:
    """One key per row."""
    width = rows.shape[1]
    dtype = _key_type(width)[0]
    keys = np.zeros(rows.shape[0], dtype=dtype)
    for k in range(width):
        keys |= rows[:, k].astype(dtype) << (4 * (width - 1 - k))
    return keys


def unpack(keys: np.ndarray, width: int) -> np.ndarray:
    """The rows of ``width`` symbols that ``keys`` pack."""
    rows = np.empty((keys.shape[0], width), dtype=np.uint8)
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


def has_key(keys: np.ndarray, key) -> bool:
    """Membership in a sorted key array."""
    i = np.searchsorted(keys, key)
    return bool(i < keys.size and keys[i] == key)


def canonical(rows: np.ndarray) -> np.ndarray:
    """The sorted keys of the distinct rows."""
    return np.unique(pack(rows))


def same_set(keys: np.ndarray, image_rows: np.ndarray) -> bool:
    """Whether ``image_rows`` holds exactly the words of sorted ``keys``.

    ``image_rows`` must be the image of the set under a map that permutes
    words (roll, reverse, complement, RC), so its rows are distinct and as
    many as the set's; sorting their keys is then enough, with no
    deduplication.
    """
    return np.array_equal(keys, np.sort(pack(image_rows)))


def span_closure(vectors, cap: int) -> np.ndarray:
    """Sorted keys of the R-span of the given rows: every sum of ring
    multiples r*v of them.

    The span is shift-closed only if the vectors are (``enumerate_code``
    passes all n shifts of each generator).  Each step replaces the running
    set S by S + R*v; since S starts as the zero module and module sums
    stay modules, a vector already in S can be skipped outright, and one
    pass over the vectors is enough.  Raises CapExceeded as soon as the set
    outgrows ``cap``.
    """
    width = vectors[0].size
    _, low, high = _key_type(width)
    keys = pack(np.zeros((1, width), dtype=np.uint8))
    for v in vectors:
        if has_key(keys, pack(v.reshape(1, -1))[0]):
            continue
        acc = keys  # the translate by the zero multiple, the smallest key
        for d in np.unique(pack(_MUL16[:, v]))[1:]:
            acc = np.union1d(acc, _add_keys(keys, d, low, high))
            if acc.size > cap:
                raise CapExceeded(f"code grew past cap={cap}")
        keys = acc
    return keys


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
