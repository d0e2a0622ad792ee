"""Dense span closure: ``span_closure`` takes rows and returns the sorted,
distinct rows of their span, which ``Code`` keeps as they are.

A length-n word over the ring is a row of n symbol indices 4a + b, the
same indices as ``Poly.symbols``.  Inside this module, and nowhere else, a
word set is one sorted array of keys, a key to a word: the row's own
bytes, left-padded with zeros into ceil(n/8) 64-bit words and read
big-endian, held as one uint64 up to n = 8 and as an ``np.void`` of the
bytes above, so key order is the lexicographic order of the rows (the
canonical order).  Words add symbolwise through the ring's ``ADD`` table.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceeded
from .ring import ADD, MUL

_ADD = np.frombuffer(ADD, dtype=np.uint8)
_MUL16 = np.frombuffer(MUL, dtype=np.uint8).reshape(16, 16)


def _pack(rows: np.ndarray) -> np.ndarray:
    """One key per row."""
    count, width = rows.shape
    octets = np.zeros((count, width + -width % 8), dtype=np.uint8)
    octets[:, -width:] = rows
    dtype = np.dtype(np.uint64 if octets.shape[1] == 8 else (np.void, octets.shape[1]))
    return octets.view(dtype.newbyteorder(">"))[:, 0].astype(dtype)


def _unpack(keys: np.ndarray, width: int) -> np.ndarray:
    """The rows of ``width`` symbols that ``keys`` pack."""
    octets = keys.astype(keys.dtype.newbyteorder(">")).view(np.uint8).reshape(keys.size, -1)
    return np.ascontiguousarray(octets[:, -width:])


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
    keys = _pack(np.zeros((1, width), dtype=np.uint8))
    for v in vectors:
        acc, high = keys, None
        multiples = np.unique(_pack(_MUL16[:, v]))
        for j, d in enumerate(multiples):
            i = acc.searchsorted(d)
            if i < acc.size and acc[i] == d:
                continue  # the union holds the whole coset S + d
            size = acc.size + keys.size
            if size > cap:
                raise CapExceeded(f"code grew past cap={cap}")
            if high is None:  # a vector already in the span needs none
                # the keys' 64-bit words, a row of them a key: each byte is
                # a symbol index below 16, so a shift by 4 moves it to the
                # byte's high half with no carry into the next byte, and
                # or-ing in d indexes ADD bytewise, in either byte order
                high = keys.view(np.uint64).reshape(keys.size, -1) << 4
                d_words = multiples.view(np.uint64).reshape(multiples.size, -1)
            coset = _ADD.take((high | d_words[j]).view(np.uint8)).view(keys.dtype)
            acc = np.union1d(acc, coset.reshape(-1))
            if acc.size != size:
                raise RuntimeError("a span closure merge did not add one whole coset")
        keys = acc
    return _unpack(keys, width)
