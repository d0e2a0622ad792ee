"""In-memory spans and counts at the layer boundaries of z4udna.

The tracer wraps public functions of the package from outside: every
module or class attribute that *is* a target function (the function in its
home module and each alias made by ``from .cyclic import enumerate_code``
and the like) is replaced by one wrapper, and ``uninstall`` puts every
original back.  Nothing inside ``src/z4udna`` changes.

A span is ``[group, start, end, parent, outcome]``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``outcome`` is ``None``, a small
value a target records (the size of an enumerated code), or the name of
the exception the call raised.  ``ring`` is not wrapped: its calls take well
under a microsecond, so a wrapper would cost more than the call.  ``_dense``
is reached only through ``cyclic.enumerate_code`` and is measured there.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


def _codebook_size(args, kwargs, result):
    book = args[0] if args else kwargs.get("codebook")
    size = len(set(book)) if isinstance(book, (list, tuple, set, frozenset)) else None
    return (size, result)


def _cli_group(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return "cli.main." + (argv[0] if argv else "none")


# (module, attribute, group, outcome hook).  Spans: calls whose time is
# attributed to a layer.
SPAN_TARGETS = [
    ("poly", "factor_xn_minus_1_f2", "poly.factor", None),
    ("poly", "factor_xn_minus_1_z4", "poly.factor", None),
    ("poly", "hensel_lift", "poly.factor", None),
    ("cyclic", "enumerate_code", "cyclic.enumerate_code",
     lambda args, kwargs, result: len(result)),
    ("cyclic", "validate", "cyclic.validate", None),
    ("cyclic", "Code.is_shift_closed", "cyclic.closure", None),
    ("cyclic", "Code.is_reversible", "cyclic.closure", None),
    ("cyclic", "Code.is_complement_closed", "cyclic.closure", None),
    ("cyclic", "Code.is_rc_closed", "cyclic.closure", None),
    ("cyclic", "Code.is_dna_code", "cyclic.closure", None),
    ("cyclic", "render_code_export", "cyclic.render", None),
    ("conditions", "sweep", "conditions.sweep", None),
    ("conditions", "format_sweep_report", "conditions.format", None),
    ("conditions", "predict", "conditions.predict", None),
    ("conditions", "cross_validate", "conditions.cross_validate", None),
    ("conditions", "check_reversible_single", "conditions.check", None),
    ("conditions", "check_reversible_double", "conditions.check", None),
    ("conditions", "check_rc_single", "conditions.check", None),
    ("conditions", "check_rc_double", "conditions.check", None),
    ("dna", "min_letterwise_distance", "dna.min_letterwise_distance", _codebook_size),
    ("dna", "check_hamming_constraint", "dna.check_hamming_constraint", _codebook_size),
    ("dna", "check_reverse_constraint", "dna.check_reverse_constraint", _codebook_size),
    ("dna", "check_rc_constraint", "dna.check_rc_constraint", _codebook_size),
    ("dna", "check_gc_constraint", "dna.check_gc_constraint", None),
    ("dna", "read_codebook", "dna.read_codebook", None),
    ("dna", "render_codebook", "dna.render_codebook", None),
    ("cli", "main", _cli_group, None),
]

# Counted only: polynomial calls are too many and too short for spans.
COUNT_TARGETS = [
    ("poly", "Poly.__mul__", "poly.Poly.__mul__"),
    ("poly", "poly_divmod", "poly.poly_divmod"),
    ("poly", "poly_mod_xn", "poly.poly_mod_xn"),
    ("poly", "reciprocal", "poly.reciprocal"),
    ("poly", "self_reciprocal_constant", "poly.self_reciprocal_constant"),
    ("poly", "divides", "poly.divides"),
]

# The T31/T32 boundary alone, whose calls give the check latency.
CHECK_TARGETS = [t for t in SPAN_TARGETS
                 if t[1] in ("check_reversible_single", "check_reversible_double")]

# The boundaries an untraced run marks: T31/T32, and the calls of a pass
# that take from a millisecond to a fraction of a second.  They cut each
# pass into the same stretches every time, so a stretch can be compared
# with itself from pass to pass.
MARK_TARGETS = CHECK_TARGETS + [t for t in SPAN_TARGETS
                                if t[2] in ("cyclic.enumerate_code", "cyclic.render")
                                or t[0] in ("dna", "cli")]

SIZE_BUCKETS = (16, 256, 4096, 65536)

# Pairs a full scan compares, from the codebook size m: every unordered
# pair for the distance and Hamming checks, every ordered pair for the
# reverse and reverse-complement checks.  Early exits are not counted.
_FULL_SCAN_PAIRS = {
    "dna.min_letterwise_distance": lambda m, result: m * (m - 1) // 2,
    "dna.check_hamming_constraint": lambda m, result: m * (m - 1) // 2 if result else 0,
    "dna.check_reverse_constraint": lambda m, result: m * m if result else 0,
    "dna.check_rc_constraint": lambda m, result: m * m if result else 0,
}


def package_owners(package_name: str) -> list:
    """The package's loaded modules and the classes defined in them."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == package_name or name.startswith(package_name + ".")]
    owners = list(modules)
    for module in modules:
        owners.extend(v for v in vars(module).values()
                      if isinstance(v, type) and v.__module__ == module.__name__)
    return owners


class Tracer:
    """Spans and counts recorded by wrappers installed on one import of
    the package; use ``install`` / ``uninstall`` in a try/finally."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _span_wrapper(self, fn, group, outcome):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = group(args, kwargs) if callable(group) else group
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if outcome is not None:
                span[4] = outcome(args, kwargs, result)
            return result

        wrapper.perfbench_wrapper = True
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.perfbench_wrapper = True
        return wrapper

    def _patch(self, owners, original, wrapper, label):
        found = 0
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    found += 1
        if not found:
            raise RuntimeError(f"trace target {label} not found")

    def install(self, z, span_targets=SPAN_TARGETS, count_targets=COUNT_TARGETS) -> None:
        """Wrap every target and every alias of it in the package ``z.pkg``."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        owners = package_owners(z.pkg.__name__)
        try:
            for module, path, group, outcome in span_targets:
                original = _resolve(z, module, path)
                self._patch(owners, original,
                            self._span_wrapper(original, group, outcome),
                            f"{module}.{path}")
            for module, path, name in count_targets:
                original = _resolve(z, module, path)
                self._patch(owners, original, self._count_wrapper(original, name),
                            f"{module}.{path}")
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every patched attribute, last patched first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _resolve(z, module: str, path: str):
    obj = getattr(z, module)
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def summarize(spans: list[list], start: int = 0, end: int | None = None) -> dict:
    """Per-group calls, busy time and self time over ``spans[start:end]``.

    Busy time counts each instant once per group (a span nested in a span
    of its own group adds nothing); self time is a span's duration minus
    the time its direct children cover.
    """
    end = len(spans) if end is None else end
    child_time: dict[int, float] = {}
    for i in range(start, end):
        _, t0, t1, parent, _ = spans[i]
        if parent >= start:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    groups: dict[str, dict] = {}
    for i in range(start, end):
        name, t0, t1, parent, _ = spans[i]
        g = groups.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        g["calls"] += 1
        g["self_s"] += (t1 - t0) - child_time.get(i, 0.0)
        p = parent
        while p >= start and spans[p][0] != name:
            p = spans[p][3]
        if p < start:
            g["busy_s"] += t1 - t0
    return groups


def enumerate_stats(spans: list[list], start: int = 0, end: int | None = None) -> dict:
    """Accepted and rejected ``enumerate_code`` calls and code sizes."""
    end = len(spans) if end is None else end
    calls = rejected = words = 0
    rejected_s = 0.0
    hist = Counter()
    for name, t0, t1, _, outcome in spans[start:end]:
        if name != "cyclic.enumerate_code":
            continue
        calls += 1
        if isinstance(outcome, int):
            words += outcome
            hist[next((f"le_{b}" for b in SIZE_BUCKETS if outcome <= b),
                      f"gt_{SIZE_BUCKETS[-1]}")] += 1
        else:
            rejected += outcome == "CapExceeded"
            rejected_s += t1 - t0 if outcome == "CapExceeded" else 0.0
    return {"calls": calls, "rejected": rejected, "rejected_s": rejected_s,
            "accept_ratio": (calls - rejected) / calls if calls else 0.0,
            "words": words,
            "histogram": {k: hist[k] for k in
                          [f"le_{b}" for b in SIZE_BUCKETS] + [f"gt_{SIZE_BUCKETS[-1]}"]}}


def dna_pair_stats(spans: list[list], start: int = 0, end: int | None = None) -> tuple[int, float]:
    """Pairs compared by full-scan DNA calls (computed from codebook sizes,
    not counted) and the time those calls took."""
    end = len(spans) if end is None else end
    pairs, seconds = 0, 0.0
    for name, t0, t1, _, outcome in spans[start:end]:
        rule = _FULL_SCAN_PAIRS.get(name)
        if rule is None or not isinstance(outcome, tuple) or outcome[0] is None:
            continue
        counted = rule(outcome[0], outcome[1])
        if counted:
            pairs += counted
            seconds += t1 - t0
    return pairs, seconds
