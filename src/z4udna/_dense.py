"""Dense span closure: ``span_closure`` takes rows and returns the sorted,
distinct rows of their span, which ``Code`` keeps as they are.

A length-n word over the ring is a row of n symbol indices 4a + b, the
same indices as ``Poly.symbols``.  Inside this module, and nowhere else, a
word set is one sorted array of packed keys, a key to a word: its symbols
as big-endian nibbles, left-padded into ceil(n/16) 64-bit words, held as
one uint64 for one word and as an ``np.void`` of their bytes for more, so
key order is the lexicographic order of the rows (the canonical order).
The 4 bits of symbol 4a + b are two 2-bit Z4 lanes, a above b, and ring
addition is Z4 addition in each lane, so keys add lane-wise on their
64-bit words with no table (``_add_keys``).
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceeded
from .ring import MUL

# the low and the high bit of every 2-bit Z4 lane of a 64-bit word, which
# read the same in either byte order
_LOW = np.uint64(0x5555555555555555)
_HIGH = np.uint64(0xAAAAAAAAAAAAAAAA)

_MUL16 = np.frombuffer(MUL, dtype=np.uint8).reshape(16, 16)


def _pack(rows: np.ndarray) -> np.ndarray:
    """One key per row."""
    count, width = rows.shape
    nibbles = np.zeros((count, width + -width % 16), dtype=np.uint8)
    nibbles[:, -width:] = rows
    octets = nibbles[:, 0::2] << 4 | nibbles[:, 1::2]
    dtype = np.dtype(np.uint64 if octets.shape[1] == 8 else (np.void, octets.shape[1]))
    return octets.view(dtype.newbyteorder(">"))[:, 0].astype(dtype)


def _unpack(keys: np.ndarray, width: int) -> np.ndarray:
    """The rows of ``width`` symbols that ``keys`` pack."""
    octets = keys.astype(keys.dtype.newbyteorder(">")).view(np.uint8).reshape(keys.size, -1)
    nibbles = np.stack((octets >> 4, octets & 15), axis=2).reshape(keys.size, -1)
    return np.ascontiguousarray(nibbles[:, -width:])


def _lanes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and the high lane bits of ``keys``: a row of 64-bit words a key."""
    words = keys.view(np.uint64).reshape(keys.size, -1)
    return words & _LOW, words & _HIGH


def _add_keys(lanes, d, dtype: np.dtype) -> np.ndarray:
    """The keys of ``dtype`` whose ``_lanes`` are ``lanes``, each plus the
    one key whose lanes are ``d``.

    In each lane the low bits add, their carry landing in the lane's high
    bit, and the high bit also takes the xor of both high bits; no carry
    leaves a lane, so this is Z4 addition in all lanes at once.
    """
    (low, high), (d_low, d_high) = lanes, d
    return ((low + d_low) ^ high ^ d_high).view(dtype).reshape(-1)


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
    keys = _pack(np.zeros((1, vectors.shape[1]), dtype=np.uint8))
    for v in vectors:
        acc, lanes = keys, None
        multiples = np.unique(_pack(_MUL16[:, v]))
        for j, d in enumerate(multiples):
            i = acc.searchsorted(d)
            if i < acc.size and acc[i] == d:
                continue  # the union holds the whole coset S + d
            size = acc.size + keys.size
            if size > cap:
                raise CapExceeded(f"code grew past cap={cap}")
            if lanes is None:  # a vector already in the span needs none
                lanes, (d_low, d_high) = _lanes(keys), _lanes(multiples)
            acc = np.union1d(acc, _add_keys(lanes, (d_low[j], d_high[j]), keys.dtype))
            if acc.size != size:
                raise RuntimeError("a span closure merge did not add one whole coset")
        keys = acc
    return _unpack(keys, vectors.shape[1])
