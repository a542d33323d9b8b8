"""Self-test of the benchmark at a tiny trace scale (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that every metric ``BENCHMARK.json`` names prints by name with
its unit, traced and untraced, on every workload; that a corrupted
reference digest shows up in ``pass_frac``; and that stray ``REPRO_*``
variables (``REPRO_ENGINE=batch`` among them) do not reach the simulator.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
#: Tiny scales at which every workload still passes its checks.
TINY = {"fbarre-high": 0.02, "baseline-low": 0.05, "fig15-sweep": 0.02}
#: Knobs that would change what is measured if they reached the simulator.
STRAY = {"REPRO_ENGINE": "batch", "REPRO_SCHEDULER": "serial",
         "REPRO_TRACE_MEMO": "0", "REPRO_NO_CACHE": "1"}


def bench(workload: str, trace: int = 0, env: dict | None = None,
          extra: tuple = ()) -> tuple[dict, list[str]]:
    """Run the benchmark; its result object and its other output lines."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(spec.DEFAULT_SEED), "--seconds", "0",
           "--trace", str(trace), "--scale", str(TINY[workload]), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, **(env or {})}, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(declared: dict) -> None:
    for workload in spec.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = bench(workload, trace)
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, got, want)
            for name, unit in want.items():
                assert any(line.split()[:1] == [name]
                           and line.split()[-1] == unit for line in lines), \
                    f"{workload}: {name} not printed with its unit"
            assert result["correct"] and result["failed"] == 0, \
                (workload, trace, lines)
            print(f"ok: {workload} --trace {trace} prints all "
                  f"{len(want)} metrics")


def check_reference(workdir: Path) -> None:
    ref = workdir / "reference.json"
    extra = ("--reference", str(ref))
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                    "fbarre-high", "--scale", str(TINY["fbarre-high"]),
                    "--update-reference", *extra],
                   cwd=ROOT, check=True, capture_output=True, timeout=180)
    result, lines = bench("fbarre-high", extra=extra)
    assert any("checked digests against" in line for line in lines), lines
    assert result["correct"] and result["failed"] == 0, lines
    doc = json.loads(ref.read_text())
    points = doc["workloads"]["fbarre-high"]["points"]
    label = sorted(points)[0]
    points[label] = "0" * 64
    ref.write_text(json.dumps(doc))
    result, lines = bench("fbarre-high", extra=extra)
    assert not result["correct"] and result["failed"] >= 1, lines
    assert result["metrics"]["pass_frac"]["value"] < 1.0, result
    assert any(label in line and "reference" in line for line in lines), \
        lines
    print(f"ok: corrupted reference digest for {label} fails "
          f"{result['failed']} of {result['attempted']} points")


def check_isolation() -> None:
    # Fig 15 goes through the runner, which honours REPRO_ENGINE: the
    # batch engine rejects Valkyrie, so a leak would fail its points.
    result, lines = bench("fig15-sweep", env=STRAY)
    assert result["correct"] and result["failed"] == 0, lines
    record = ROOT / next(line.split(": ", 1)[1] for line in lines
                         if line.startswith("record: "))
    seen = json.loads(record.read_text())["repro_env"]
    assert seen == ["REPRO_CACHE_DIR"], seen
    print(f"ok: stray {', '.join(sorted(STRAY))} do not reach the "
          f"simulator")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        check_metrics(declared)
        check_reference(workdir)
        check_isolation()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
