"""The benchmark's four workloads.

Each workload has a set-up (``build``) that makes its inputs from the seed,
and a pass (``run_pass``) over those inputs that returns its outputs as
``(key, text)`` items.  The runner compares each item with the digest that
``reference.json`` holds under the same key, so every output is checked.
``probe_tuples`` names the generator tuples of the T31/T32 latency
probe, for a workload whose check latency is not taken from its passes:
every workload but ``screen``.

Every workload has a ``full`` size, which the benchmark runs, and a
``tiny`` size, which the benchmark's own tests run; ``codebook`` is small
enough for its one size to serve as both.
"""

from __future__ import annotations

import contextlib
import io
import random

PROBE_PER_FORM = 200


def verdict(report) -> str:
    """The part of a T31/T32 report the reference records."""
    return (f"{report.theorem} satisfied={report.satisfied} branch={report.branch} "
            f"failures={'; '.join(report.failures)}")


def check(z, gens):
    """T31 for a single-generator tuple, T32 for a double-generator one."""
    if gens.f3 is None:
        return z.conditions.check_reversible_single(gens)
    return z.conditions.check_reversible_double(gens)


class Sweep:
    """``conditions.sweep`` plus ``format_sweep_report``; one item per line.

    ``crossval-n3`` walks the whole n=3 lattice with constant f14.
    ``crossval-n7`` is the sampled half of acceptance-07 with a smaller
    cap; its cost depends on the draw seed (seed 1 costs about half of seed
    42), so the draw seed is pinned instead of taken from ``--seed``, or
    runs with different seeds would not compare.
    """

    def __init__(self, n, max_f14_degree, draw_seed=0, samples=None, cap=None,
                 probe=False, expected_counts=None):
        self.n = n
        self.probe = probe
        self.kwargs = {"max_f14_degree": max_f14_degree}
        if samples is not None:
            self.kwargs.update(seed=draw_seed, samples=samples, cap=cap)
        # exact counts one traced pass must repeat
        self.expected_counts = expected_counts or {}

    def sizes(self, state) -> dict:
        return {"n": self.n, **self.kwargs}

    def build(self, z, seed, workdir) -> dict:
        # Factoring x^n - 1 is the sweep's own set-up; its result is cached
        # by the package and reused by the sweep.
        return {"factors": z.poly.factor_xn_minus_1_z4(self.n),
                "probe": probe_pool(z) if self.probe else []}

    def run_pass(self, z, state) -> list:
        reports = z.conditions.sweep(self.n, **self.kwargs)
        text = z.conditions.format_sweep_report(reports)
        return list(enumerate(text.splitlines()))

    def expected_items(self, state, reference) -> int:
        return len(reference["pass"])

    def all_items(self, z, state) -> list:
        return self.run_pass(z, state)

    def probe_tuples(self, state) -> list:
        return state["probe"]


class Screen:
    """T31/T32 on seeded random tuples from the divisor lattices at
    n = 15, 21 and 63, half single- and half double-generator.

    The tuples come from a fixed pool of ``POOL`` per (n, form) cell whose
    verdicts the reference records; ``--seed`` picks and orders
    ``per_cell`` of each cell, so every seed's outputs can be checked.
    """

    LENGTHS = (15, 21, 63)
    POOL = 400
    expected_counts: dict = {}

    def __init__(self, size):
        # 600 calls a pass: about a second, so a run repeats each call often
        self.per_cell = 100 if size == "full" else 5

    def sizes(self, state) -> dict:
        return {"lengths": list(self.LENGTHS), "pool_per_cell": self.POOL,
                "checks_per_pass": len(state["order"])}

    def build(self, z, seed, workdir) -> dict:
        pool = [gens for n in self.LENGTHS
                for gens in lattice_tuples(z, n, self.POOL, random.Random(n))]
        rng = random.Random(seed)
        cells = len(pool) // self.POOL
        order = [c * self.POOL + i for c in range(cells)
                 for i in rng.sample(range(self.POOL), self.per_cell)]
        rng.shuffle(order)
        return {"pool": pool, "order": order}

    def run_pass(self, z, state) -> list:
        pool = state["pool"]
        reports = [check(z, pool[key]) for key in state["order"]]
        return [(key, verdict(r)) for key, r in zip(state["order"], reports)]

    def expected_items(self, state, reference) -> int:
        return len(state["order"])

    def all_items(self, z, state) -> list:
        return [(key, verdict(check(z, gens))) for key, gens in enumerate(state["pool"])]

    def probe_tuples(self, state) -> list:
        return []


def divisor_lattice(z, n):
    """Number of irreducible factors of x^n - 1 over Z4, and the monic
    divisor for a factor-subset mask, built on demand and memoized."""
    factors = z.poly.factor_xn_minus_1_z4(n)
    products = {0: z.poly.Poly([1])}

    def divisor(mask):
        if mask not in products:
            low = mask & -mask
            products[mask] = divisor(mask ^ low) * factors[low.bit_length() - 1]
        return products[mask]

    return len(factors), divisor


def lattice_tuples(z, n, per_form, rng, max_f14_degree=2) -> list:
    """``per_form`` random single-generator tuples from the divisor lattice
    of x^n - 1, then ``per_form`` double-generator ones."""
    k, divisor = divisor_lattice(z, n)
    out = []
    for double in (False, True):
        for _ in range(per_form):
            m1 = rng.getrandbits(k)
            f1, f2 = divisor(m1), divisor(m1 & rng.getrandbits(k))
            f14 = z.poly.Poly(rng.choice(z.ring.ALL_ELEMENTS)
                              for _ in range(min(max_f14_degree, n - 1) + 1))
            extra = ()
            if double:
                m3 = rng.getrandbits(k)
                extra = (divisor(m3), divisor(m3 & rng.getrandbits(k)))
            out.append(z.cyclic.GeneratorSet(n, f1, f2, f14, *extra))
    return out


def probe_pool(z) -> list:
    """Probe tuples for a workload whose check latency is not taken from
    its passes: a fixed pool of n=7 lattice tuples, so the latencies
    spread over many tuple shapes instead of clustering on a few.  Every
    such workload times the same pool; n=3 checks take a tenth of a
    millisecond, and their latencies spread twice as far from run to run
    on a busy host."""
    return lattice_tuples(z, 7, PROBE_PER_FORM, random.Random(7))


class Codebook:
    """Enumerate, export and measure an n=7 code as a DNA codebook.

    Each constraint runs at a ``d`` where it holds over the whole codebook
    (full scan) and at one where it fails (early exit).  The code has 256
    words, so one pass takes about a second and a run repeats it often
    enough for its best stretches to be found (the 1024-word code of
    f1=``1,1,1,1,1,1,1`` takes 16 times as long per pass, and a run would
    hold only one).
    """

    # f1, f2, and (holds, fails) distances per constraint
    CODES = (
        ("3,0,0,0,0,0,0,1", "3,1,2,1", {"hamming": (3, 4), "reverse": (1, 2), "rc": (7, 8)}),
    )
    expected_counts: dict = {}

    def sizes(self, state) -> dict:
        return {"n": 7, "words": [size for _, size, _, _ in state["books"]]}

    def build(self, z, seed, workdir) -> dict:
        books = []
        for f1, f2, ds in self.CODES:
            gens = z.cyclic.GeneratorSet(7, z.poly.Poly.parse(f1), z.poly.Poly.parse(f2))
            code = z.cyclic.enumerate_code(gens)
            path = workdir / f"codebook-{len(code)}.txt"
            path.write_text(z.dna.render_codebook(code.dna_words(),
                                                  comment=f"n=7 size={len(code)}"),
                            encoding="ascii")
            books.append((gens, len(code), ds, str(path)))
        return {"books": books, "probe": probe_pool(z)}

    def run_pass(self, z, state) -> list:
        dna, out = z.dna, []
        constraints = (("hamming", dna.check_hamming_constraint),
                       ("reverse", dna.check_reverse_constraint),
                       ("rc", dna.check_rc_constraint))
        for gens, _, ds, path in state["books"]:
            code = z.cyclic.enumerate_code(gens)
            out.append(f"size={len(code)}")
            for fmt in ("ring", "dna", "gray"):
                out.append(z.cyclic.render_code_export(code, fmt))
            words = code.dna_words()
            out.append(f"min_letterwise_distance={dna.min_letterwise_distance(words)}")
            for label, constraint in constraints:
                for d in ds[label]:
                    out.append(f"{label} d={d} {constraint(words, d)}")
            out.append(f"gc {dna.check_gc_constraint(words)}")
            for metric in ("dna", "hamming", "lee"):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = z.cli.main(["distance", "--n", "7", "--codebook", path,
                                     "--metric", metric])
                out.append(f"distance {metric} exit={rc} {buf.getvalue()}")
        return list(enumerate(out))

    def expected_items(self, state, reference) -> int:
        return len(reference["pass"])

    def all_items(self, z, state) -> list:
        return self.run_pass(z, state)

    def probe_tuples(self, state) -> list:
        return state["probe"]


def make(name: str, size: str = "full"):
    """The workload called ``name`` at ``size`` ("full" or "tiny").

    Why each workload exists is in ``BENCHMARK.json`` and the README.
    """
    full = size == "full"
    if name == "crossval-n3":
        if full:
            return Sweep(3, 0, probe=True, expected_counts={
                "cyclic.enumerate_code.calls": 360, "cyclic.validate.calls": 1080})
        return Sweep(1, 1, expected_counts={
            "cyclic.enumerate_code.calls": 48, "cyclic.validate.calls": 144})
    if name == "crossval-n7":
        if full:
            return Sweep(7, 2, draw_seed=42, samples=10, cap=1 << 12, probe=True,
                         expected_counts={"cyclic.enumerate_code.calls": 74,
                                          "cyclic.enumerate_code.rejected": 64})
        return Sweep(7, 2, draw_seed=42, samples=2, cap=1 << 8, probe=True,
                     expected_counts={"cyclic.enumerate_code.calls": 31,
                                      "cyclic.enumerate_code.rejected": 29})
    if name == "screen":
        return Screen(size)
    if name == "codebook":
        return Codebook()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("crossval-n3", "crossval-n7", "screen", "codebook")
