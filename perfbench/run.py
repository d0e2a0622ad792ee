"""Benchmark of z4udna: one workload per run, one process, no extra threads.

    python3 perfbench/run.py --workload crossval-n3 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  With ``--trace 0`` the run prints the
end-to-end metrics (set-up time, pass time, T31/T32 latency, peak memory);
with ``--trace 1`` it prints the per-layer metrics of one traced set-up and
pass, and the tracing overhead.  A time is the run's best (see
``best_pass``), scaled by ``pace.py`` to the host's best speed during the
run, so the figures measure the program rather than its neighbours.
Every output is compared with ``reference.json``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is 1 when any output
differed, 2 when the run could not start.
"""

from __future__ import annotations

import os

# One thread: keep numpy's BLAS pool from starting threads of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from pace import Pace  # noqa: E402

PACKAGE = "z4udna"
MODULES = ("ring", "poly", "cyclic", "conditions", "dna", "cli", "errors")
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
SETUP_MIN_REPS = 3          # set-up is repeated in two batches, one before and
SETUP_MIN_SECONDS = 1.0     # one after the passes, each until both of these
SETUP_MAX_REPS = 20         # are reached; the median of all is reported
PROBE_ROUNDS = 3            # check-probe rounds after each pass

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "check_p50_ms": "ms",
                    "check_p95_ms": "ms", "peak_rss_mb": "MB"}


class SetupError(Exception):
    """The package or the reference is missing from the checkout."""


def import_package(src: Path) -> SimpleNamespace:
    """A fresh import of the package from ``src`` (earlier imports are
    dropped, so module-level caches start empty)."""
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no {PACKAGE} package under {src}")
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise SetupError(f"{PACKAGE} was imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(pkg=pkg, **{m: importlib.import_module(f"{PACKAGE}.{m}")
                                       for m in MODULES})


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Tally:
    """Operations attempted and failed; an operation is one output item
    compared with its reference, or one exact-count self-check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < 10:
            self.notes.append(note)

    def verify(self, items, reference: list[str], expected: int, label: str) -> None:
        self.attempted += max(len(items), expected)
        if len(items) < expected:
            self.fail(expected - len(items), f"{label}: {len(items)} of {expected} outputs")
        for key, text in items:
            if key >= len(reference) or digest(text) != reference[key]:
                self.fail(1, f"{label}: output {key} differs from the reference: {text[:200]!r}")


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100)[p - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_pass(work, z, state) -> tuple[float, float, list]:
    """Clock readings at the start and end of one pass, and its outputs; a
    pass that raises has none, so ``Tally.verify`` counts every expected
    output as failed."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        items = work.run_pass(z, state)
    except Exception:
        traceback.print_exc()
        items = []
    return t0, time.perf_counter(), items


def check_round(z, tuples, ref, tally) -> None:
    """Call T31/T32 once on each probe tuple; the caller's hook times each
    call."""
    items = []
    for key, gens in enumerate(tuples):
        try:
            items.append((key, workloads.verdict(workloads.check(z, gens))))
        except Exception:
            tally.attempted += 1
            tally.fail(1, f"probe {key} raised:\n{traceback.format_exc()}")
    tally.verify(items, ref["probe"], 0, "check probe")


def best_pass(spans, passes) -> tuple[float, int]:
    """Seconds of one pass with every stretch at its best, and the number
    of stretches.

    The start and end of each marked call cut a pass into stretches.  A
    pass does the same work in the same order every time, so stretch k of
    one pass is stretch k of every other, and its fastest time over the
    run's passes is the time it takes when the host leaves it alone.  If
    the passes were not cut alike (the work changed from pass to pass),
    the median pass is returned instead, with 0 stretches.
    """
    cuts = []
    for t0, t1, a, b in passes:
        cuts.append(sorted([t0, t1] + [t for span in spans[a:b] for t in span[1:3]]))
    if len({len(c) for c in cuts}) != 1:
        return statistics.median(c[-1] - c[0] for c in cuts), 0
    stretches = len(cuts[0]) - 1
    return sum(min(c[k + 1] - c[k] for c in cuts) for k in range(stretches)), stretches


def best_calls(spans, ranges) -> list[float]:
    """Milliseconds of each T31/T32 call of a repeated sequence of calls
    (a pass, or a round of the probe), at its fastest over the repeats;
    every call's own time if the repeats differ.

    A workload with a check probe takes its latencies from the probe
    rounds alone: the T31/T32 calls a sweep makes follow an enumeration
    that has just filled the caches, so their tail measures the memory
    of the host more than the check.
    """
    runs = [[(span[2] - span[1]) * 1e3 for span in spans[a:b]
             if span[0] == "conditions.check"] for a, b in ranges]
    runs = [r for r in runs if r]
    if len({len(r) for r in runs}) > 1:
        return [ms for r in runs for ms in r]
    return [min(column) for column in zip(*runs)]


def run_untraced(work, seed, seconds, ref, workdir, tally):
    pace = Pace()
    pace.install()
    try:
        setups, passes, rounds, spans, sizes = measure_untraced(work, seed, seconds, ref,
                                                                workdir, tally)
    finally:
        pace.uninstall()
    # A batch of set-ups lasts a second or so, within one phase of the
    # host, so each batch is scaled by the floor of its own ticks.
    scale = pace.scale()
    setup_scales = [pace.scale(batch[0][0], batch[-1][1]) for batch in setups]
    setup_times = [(t1 - t0) * batch_scale
                   for batch, batch_scale in zip(setups, setup_scales) for t0, t1 in batch]
    wall, stretches = best_pass(spans, passes)
    latencies = [ms * scale for ms in best_calls(spans, rounds or
                                                  [(a, b) for _, _, a, b in passes])]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall * scale,
        "check_p50_ms": statistics.median(latencies),
        "check_p95_ms": percentile(latencies, 95),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {"scale": scale, "setup_scales": setup_scales, "tick_floor_s": pace.floor(),
             "ticks": len(pace.ticks),
             "host_slowdown": pace.slowdown(), "setup_reps": len(setup_times),
             "setup_real_s": [t1 - t0 for batch in setups for t0, t1 in batch],
             "passes": len(passes), "stretches": stretches,
             "best_pass_real_s": wall, "pass_real_s": [t1 - t0 for t0, t1, _, _ in passes],
             "check_samples": len(latencies), "check_rounds": len(rounds),
             "check_best_ms": latencies, "sizes": sizes}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, extra


def setup_batch(work, seed, workdir):
    """Clock readings of each set-up of one batch, and the last set-up's
    package and state."""
    batch = []
    started = time.perf_counter()
    while (len(batch) < SETUP_MIN_REPS
           or (time.perf_counter() - started < SETUP_MIN_SECONDS
               and len(batch) < SETUP_MAX_REPS)):
        t0 = time.perf_counter()
        z = import_package(ROOT / "src")
        state = work.build(z, seed, workdir)
        batch.append((t0, time.perf_counter()))
    return batch, z, state


def measure_untraced(work, seed, seconds, ref, workdir, tally):
    """Clock readings of each set-up, by batch; clock readings and span
    ranges of each pass; span ranges of each probe round; the marked
    spans; and the workload's sizes."""
    first, z, state = setup_batch(work, seed, workdir)

    # Every marked call made after set-up is recorded as a span; nothing
    # else is wrapped.  A workload with a check probe runs PROBE_ROUNDS
    # rounds of it before the first pass and after each one (the first
    # round after a pass finds the caches full of the pass's data).  Passes (with their probe round) run while one more, at the
    # median time so far, keeps their total within ``seconds``; there is
    # always at least one.
    probe = work.probe_tuples(state)
    hook = tracing.Tracer()
    hook.install(z, tracing.MARK_TARGETS, ())
    spans = hook.spans
    passes, rounds, real = [], [], []

    def probe_rounds():
        for _ in range(PROBE_ROUNDS):
            a = len(spans)
            check_round(z, probe, ref, tally)
            rounds.append((a, len(spans)))

    try:
        if probe:
            probe_rounds()
        while not real or sum(real) + statistics.median(real) <= seconds:
            started = time.perf_counter()
            a = len(spans)
            t0, t1, items = timed_pass(work, z, state)
            passes.append((t0, t1, a, len(spans)))
            tally.verify(items, ref["pass"], work.expected_items(state, ref),
                         f"pass {len(passes)}")
            if probe:
                gc.collect()
                probe_rounds()
            real.append(time.perf_counter() - started)
    finally:
        hook.uninstall()
    # The second batch samples the host in another phase than the first.
    second, _, _ = setup_batch(work, seed, workdir)
    return [first, second], passes, rounds, spans, work.sizes(state)


def run_traced(work, seed, ref, workdir, tally):
    z = import_package(ROOT / "src")
    pace = Pace()
    pace.install()
    try:
        tracer = tracing.Tracer()
        tracer.install(z)
        try:
            state = work.build(z, seed, workdir)
            pass_start = len(tracer.spans)
            counts_before = dict(tracer.counts)
            t0, t1, traced_items = timed_pass(work, z, state)
        finally:
            tracer.uninstall()
        u0, u1, untraced_items = timed_pass(work, z, state)
    finally:
        pace.uninstall()
    expected = work.expected_items(state, ref)
    tally.verify(traced_items, ref["pass"], expected, "traced pass")
    tally.verify(untraced_items, ref["pass"], expected, "untraced pass")
    scale = pace.scale()
    traced_wall, untraced_wall = (t1 - t0) * scale, (u1 - u0) * scale

    spans = tracer.spans
    for span in spans:
        span[1], span[2] = span[1] * scale, span[2] * scale
    setup_groups = tracing.summarize(spans, 0, pass_start)
    groups = tracing.summarize(spans, pass_start)
    enum = tracing.enumerate_stats(spans, pass_start)
    pairs, pair_s = tracing.dna_pair_stats(spans, pass_start)
    pass_counts = {k: v - counts_before.get(k, 0) for k, v in tracer.counts.items()}

    def g(name, field):
        return groups.get(name, {}).get(field, 0)

    metrics = {
        "cyclic.enumerate_code.calls": (enum["calls"], "count"),
        "cyclic.enumerate_code.busy_s": (g("cyclic.enumerate_code", "busy_s"), "s"),
        "cyclic.enumerate_code.rejected": (enum["rejected"], "count"),
        "cyclic.enumerate_code.rejected_s": (enum["rejected_s"], "s"),
        "cyclic.enumerate_code.accept_ratio": (enum["accept_ratio"], "ratio"),
        "cyclic.enumerate_code.words": (enum["words"], "count"),
        "cyclic.validate.calls": (g("cyclic.validate", "calls"), "count"),
        "cyclic.validate.busy_s": (g("cyclic.validate", "busy_s"), "s"),
        "cyclic.closure.calls": (g("cyclic.closure", "calls"), "count"),
        "cyclic.closure.busy_s": (g("cyclic.closure", "busy_s"), "s"),
        "cyclic.render.calls": (g("cyclic.render", "calls"), "count"),
        "cyclic.render.busy_s": (g("cyclic.render", "busy_s"), "s"),
        "conditions.predict.calls": (g("conditions.predict", "calls"), "count"),
        "conditions.predict.self_s": (g("conditions.predict", "self_s"), "s"),
        "conditions.check.calls": (g("conditions.check", "calls"), "count"),
        "conditions.check.busy_s": (g("conditions.check", "busy_s"), "s"),
        "conditions.format.busy_s": (g("conditions.format", "busy_s"), "s"),
        "conditions.sweep.self_s": (g("conditions.sweep", "self_s"), "s"),
        "poly.factor.calls": (setup_groups.get("poly.factor", {}).get("calls", 0), "count"),
        "poly.factor.busy_s": (setup_groups.get("poly.factor", {}).get("busy_s", 0.0), "s"),
    }
    for name in ("Poly.__mul__", "poly_divmod", "poly_mod_xn", "reciprocal",
                 "self_reciprocal_constant", "divides"):
        metrics[f"poly.{name}.calls"] = (pass_counts.get(f"poly.{name}", 0), "count")
    for name in ("min_letterwise_distance", "check_hamming_constraint",
                 "check_reverse_constraint", "check_rc_constraint",
                 "check_gc_constraint", "read_codebook"):
        metrics[f"dna.{name}.busy_s"] = (g(f"dna.{name}", "busy_s"), "s")
    metrics["dna.pairs"] = (pairs, "count")
    metrics["dna.pairs_per_s"] = (pairs / pair_s if pair_s else 0.0, "1/s")
    metrics["cli.main.distance.calls"] = (g("cli.main.distance", "calls"), "count")
    metrics["cli.main.distance.busy_s"] = (g("cli.main.distance", "busy_s"), "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.spans"] = (len(spans) - pass_start, "count")

    for name, expected in work.expected_counts.items():
        tally.attempted += 1
        if metrics[name][0] != expected:
            tally.fail(1, f"self-check: {name} = {metrics[name][0]}, expected {expected}")
    extra = {"untraced_wall_s": untraced_wall, "traced_real_s": t1 - t0,
             "untraced_real_s": u1 - u0, "scale": scale, "ticks": len(pace.ticks),
             "host_slowdown": pace.slowdown(), "size_histogram": enum["histogram"],
             "groups": groups, "setup_groups": setup_groups, "sizes": work.sizes(state)}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, extra, spans


def git_sha(root: Path) -> str:
    """HEAD of a git checkout at ``root``, read without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def meta(args, numpy_version: str) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": git_sha(ROOT),
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time for the measured passes (at least one pass runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, size: str = "full") -> int:
    args = parse_args(argv)
    try:
        if not REFERENCE.is_file():
            raise SetupError(f"missing {REFERENCE.name}")
        ref = json.loads(REFERENCE.read_text())[args.workload][size]
        import_package(ROOT / "src")
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy
    work = workloads.make(args.workload, size)
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.trace:
            metrics, extra, spans = run_traced(work, args.seed, ref, workdir, tally)
        else:
            metrics, extra = run_untraced(work, args.seed, args.seconds, ref, workdir, tally)
            spans = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = meta(args, numpy.__version__)
    failed_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": info, "metrics": metrics, "extra": extra,
              "attempted": tally.attempted, "failed": tally.failed,
              "failed_ratio": failed_ratio, "notes": tally.notes}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))

    for note in tally.notes:
        print(f"mismatch: {note}", file=sys.stderr)
    print("meta " + json.dumps(info))
    print("sizes " + json.dumps(extra["sizes"]))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {failed_ratio:.6g} ratio ({tally.failed} of {tally.attempted})")
    if args.trace:
        print("cyclic.enumerate_code.size_histogram " + json.dumps(extra["size_histogram"]))
    else:
        print(f"check latency samples {extra['check_samples']}; passes {extra['passes']} "
              f"of {extra['stretches']} stretches; set-up repetitions {extra['setup_reps']}")
    print(f"pace ticks {extra['ticks']}; times scaled by {extra['scale']:.4g}; "
          f"host slowdown {extra['host_slowdown']:.3g}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
