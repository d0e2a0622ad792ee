"""Run the benchmark over many seeds and report how far its figures spread.

    python3 perfbench/spread.py --workloads screen codebook --seeds 101-110
    python3 perfbench/spread.py --sets 2 --seeds 101-110 --baseline perfbench/baseline.json

Run from the root of a checkout.  Each run is ``perfbench/run.py`` in its
own process, one after another, with the ``run_seconds`` of
``BENCHMARK.json``.  For each workload and end-to-end metric it prints the
median of the runs, their quartiles and the spread, (q3 - q1) / median,
the way ``statistics.quantiles(values, n=4)`` gives them, with the
metric's bound beside it.  With ``--sets 2`` it runs the seeds twice, one
set after the other, and also prints how much worse the second median is
than the first.  ``--baseline`` writes every set's figures, plus the
per-layer metrics of one traced run per workload, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HOST: dict = {}     # versions and machine of the runs, for --baseline


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(next(line[5:] for line in lines if line.startswith("meta ")))
    HOST.update({k: meta[k] for k in ("git_sha", "python", "numpy", "nproc", "cpu_model")})
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} gave a wrong output")
    return {k: m["value"] for k, m in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "runs": len(values), "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("101-110"))
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--baseline", type=Path)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    out = {}
    for workload in args.workloads:
        sets = []
        for number in range(1, args.sets + 1):
            runs = [one_run(workload, seed, 0) for seed in args.seeds]
            sets.append({name: summary([r[name] for r in runs]) for name in bounds})
            for name, s in sets[-1].items():
                print(f"{workload} set {number} {name}: median {s['median']:.6g} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f} "
                      f"(bound {bounds[name]})", flush=True)
        for name in bounds:
            if len(sets) > 1:
                worse = sets[-1][name]["median"] / sets[0][name]["median"] - 1
                print(f"{workload} {name}: second median worse by {worse:+.3f} "
                      f"(bound {bounds[name]})", flush=True)
        out[workload] = {"end_to_end": {name: [dict(s[name], set=i + 1)
                                               for i, s in enumerate(sets)]
                                        for name in bounds}}
        if args.baseline:
            out[workload]["per_layer"] = one_run(workload, args.seeds[0], 1)
    if args.baseline:
        args.baseline.write_text(json.dumps({
            "note": (f"{args.sets} set(s) of untraced runs per workload over seeds "
                     f"{args.seeds[0]}-{args.seeds[-1]}, one set after the other, and one "
                     f"traced run at seed {args.seeds[0]}; made by perfbench/spread.py"),
            "host": HOST, "run_seconds": SPEC["run_seconds"], "workloads": out},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
