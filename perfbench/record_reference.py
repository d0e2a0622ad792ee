"""Write reference.json: digests of every output the benchmark checks.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose outputs are the reference (the
digests committed with the benchmark come from the commit that added it).
Re-record only in a change that means to alter an output, and say so.
For each workload and size it records one digest per pass output
(``pass``) and one per T31/T32 verdict of the check-latency probe
(``probe``); ``screen`` records a verdict for every tuple of its pool, so
the outputs of any seed can be checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile

import run
import workloads


def check_known(z, workdir) -> None:
    """Values the paper's sweep and codebooks are known to give, on inputs
    larger than the workloads' (the n=3 sweep with f14 of degree 1, and the
    1024-word n=7 codebook); a package that disagrees is not recorded."""
    report = z.conditions.format_sweep_report(z.conditions.sweep(3, max_f14_degree=1))
    if not report.endswith("agreements=1904/2880\n"):
        raise RuntimeError(f"n=3 sweep: {report.splitlines()[-1]}, expected 1904/2880")
    gens = z.cyclic.GeneratorSet(7, z.poly.Poly.parse("1,1,1,1,1,1,1"),
                                 z.poly.Poly.parse("3,1,2,1"))
    path = workdir / "codebook-1024.txt"
    path.write_text(z.dna.render_codebook(z.cyclic.enumerate_code(gens).dna_words()),
                    encoding="ascii")
    for metric, expected in (("dna", "3"), ("hamming", "3"), ("lee", "6")):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            z.cli.main(["distance", "--n", "7", "--codebook", str(path), "--metric", metric])
        if buf.getvalue().strip() != expected:
            raise RuntimeError(f"1024-word codebook: {metric} distance "
                               f"{buf.getvalue().strip()}, expected {expected}")


def record(name: str, size: str, workdir) -> dict:
    work = workloads.make(name, size)
    z = run.import_package(run.ROOT / "src")
    state = work.build(z, 0, workdir)
    items = work.all_items(z, state)
    if [key for key, _ in items] != list(range(len(items))):
        raise RuntimeError(f"{name}: outputs are not keyed 0..{len(items) - 1}")
    probe = [workloads.verdict(workloads.check(z, gens)) for gens in work.probe_tuples(state)]
    return {"pass": [run.digest(text) for _, text in items],
            "probe": [run.digest(text) for text in probe]}


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=run.OUT)
    try:
        check_known(run.import_package(run.ROOT / "src"), run.Path(workdir))
        reference = {name: {size: record(name, size, run.Path(workdir))
                            for size in ("full", "tiny")}
                     for name in workloads.NAMES}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=0) + "\n")
    for name, sizes in reference.items():
        print(name, {size: {k: len(v) for k, v in ref.items()} for size, ref in sizes.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
