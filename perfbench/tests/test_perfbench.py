"""Quick checks of the benchmark itself, at tiny workload sizes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def wrappers_left(package="z4udna") -> list[str]:
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner in tracer.package_owners(package)
            for attr, value in vars(owner).items()
            if getattr(value, "perfbench_wrapper", False)]


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_the_spec_metrics(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], size="tiny")
    result = last_json(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if trace:
        assert wrappers_left() == []
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_self_check_counts_repeat(capsys):
    assert run.main(["--workload", "crossval-n7", "--seed", "0", "--seconds", "0",
                     "--trace", "1"], size="tiny") == 0
    metrics = last_json(capsys)["metrics"]
    assert metrics["cyclic.enumerate_code.calls"]["value"] == 31
    assert metrics["cyclic.enumerate_code.rejected"]["value"] == 29


def test_install_wraps_every_alias_and_uninstall_restores_them():
    z = run.import_package(run.ROOT / "src")
    owners = tracer.package_owners("z4udna")
    before = [dict(vars(owner)) for owner in owners]
    t = tracer.Tracer()
    t.install(z)
    try:
        for owner, attr in ((z.cyclic, "enumerate_code"), (z.conditions, "enumerate_code"),
                            (z.cli, "enumerate_code"), (z.pkg, "enumerate_code"),
                            (z.conditions, "validate"), (z.cli, "render_code_export"),
                            (z.poly.Poly, "__mul__"), (z.poly.Poly, "__rmul__"),
                            (z.conditions, "self_reciprocal_constant")):
            assert getattr(vars(owner)[attr], "perfbench_wrapper", False), (owner, attr)
        z.conditions.sweep(1, max_f14_degree=0)
    finally:
        t.uninstall()
    after = [dict(vars(owner)) for owner in owners]
    assert all(b[k] is a[k] for b, a in zip(before, after) for k in b)
    assert wrappers_left() == []
    assert t.counts["poly.Poly.__mul__"] > 0
    assert any(s[0] == "cyclic.enumerate_code" for s in t.spans)


def test_summarize_busy_and_self_time():
    spans = [["a", 0.0, 10.0, -1, None],
             ["b", 1.0, 4.0, 0, None],
             ["b", 2.0, 3.0, 1, None],     # nested in its own group
             ["c", 5.0, 6.0, 0, None]]
    groups = tracer.summarize(spans)
    assert groups["a"] == {"calls": 1, "busy_s": 10.0, "self_s": 6.0}
    assert groups["b"] == {"calls": 2, "busy_s": 3.0, "self_s": 3.0}
    assert tracer.summarize(spans, 1)["b"]["busy_s"] == 3.0


def test_best_pass_takes_each_stretch_at_its_fastest():
    spans = [["conditions.check", 1.0, 2.0, -1, None],     # pass 1: 0..4
             ["conditions.check", 12.0, 12.5, -1, None]]   # pass 2: 10..13
    passes = [(0.0, 4.0, 0, 1), (10.0, 13.0, 1, 2)]
    # stretches 1, 1, 2 in pass 1 and 2, 0.5, 0.5 in pass 2
    assert run.best_pass(spans, passes) == (1.0 + 0.5 + 0.5, 3)
    assert run.best_calls(spans, [(0, 1), (1, 2)]) == [500.0]
    # passes cut differently: the median pass, and no stretches
    assert run.best_pass(spans, [(0.0, 4.0, 0, 1), (10.0, 13.0, 2, 2)]) == (3.5, 0)


def test_pace_scales_to_the_reference_and_restores_the_timer():
    p = pace.Pace()
    p.times = [float(i) for i in range(100)]
    p.ticks = [2 * pace.REFERENCE_TICK_S] * 50 + [4 * pace.REFERENCE_TICK_S] * 50
    assert p.scale() == pytest.approx(0.5)
    assert p.scale(50.0, 99.0) == pytest.approx(0.25)     # the floor of those ticks only
    assert p.scale(90.0, 99.0) == 1.0                     # too few ticks to scale by
    assert p.slowdown() == pytest.approx(1.5)
    before = signal.getsignal(signal.SIGALRM)
    p = pace.Pace(period=0.001)
    p.install()
    try:
        total = 0
        for i in range(300_000):     # bytecodes, between which the handler runs
            total += i
    finally:
        p.uninstall()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert p.ticks and all(t > 0 for t in p.ticks)


def test_output_mismatch_fails_the_run(tmp_path, monkeypatch, capsys):
    reference = json.loads(run.REFERENCE.read_text())
    reference["crossval-n3"]["tiny"]["pass"][0] = "0" * 16
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", bad)
    code = run.main(["--workload", "crossval-n3", "--seed", "0", "--seconds", "0"],
                    size="tiny")
    result = last_json(capsys)
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "screen",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
