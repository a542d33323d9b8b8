"""Benchmark of the Barre Chord reproduction, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload fbarre-high --seed 2024 \\
        --seconds 20 --trace 0

``--trace 0`` repeats the workload, each repetition in a fresh Python
process, until ``--seconds`` have passed (at least three times), and prints the
end-to-end metrics as medians over the repetitions.  ``--trace 1`` runs
one traced repetition and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  A run record with provenance (and, traced, the spans)
is written under ``.perfbench/records/``.

``--update-reference`` writes the result digests of the default seed to
``reference.json`` instead of measuring.  See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
#: Fewest untraced repetitions per run: medians and a repeatability check.
MIN_REPS = 3
#: No repetition starts unless it can end this long after the run began.
RUN_BUDGET_S = 170.0


class RunFailed(RuntimeError):
    """A repetition's process failed or overran its time."""


def child_env(root: Path, cache_dir: Path) -> dict:
    """The environment minus every ``REPRO_*`` knob, plus a fresh cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(root: Path, cmd: list[str], cache_dir: Path,
              timeout: float) -> None:
    """Run one child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root, cache_dir),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"repetition overran {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RunFailed(f"repetition exited {proc.returncode}:\n"
                        + "\n".join(err.strip().splitlines()[-15:]))


def run_rep(root: Path, workdir: Path, index: int, args, scale: float,
            traced: bool, timeout: float) -> dict:
    out = workdir / f"rep-{index}.json"
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", repr(scale),
           "--out", str(out)] + (["--traced"] if traced else [])
    run_child(root, cmd, workdir / f"cache-{index}", timeout)
    return json.loads(out.read_text())


def git_revision(root: Path) -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def load_reference(path: Path, workload: str, seed: int,
                   scale: float) -> dict | None:
    """Reference digests by point label, if ``path`` has them for this
    workload at this seed and scale."""
    if not path.is_file():
        return None
    ref = json.loads(path.read_text()).get("workloads", {}).get(workload)
    if ref is None or ref["seed"] != seed or ref["scale"] != scale:
        return None
    return ref["points"]


def check(reps: list[dict],
          reference: dict | None) -> tuple[int, int, list[str]]:
    """Attempted and failed counts, and the failures, over every
    repetition's points.

    A point fails if it raised, failed its sanity check, differs from the
    reference digest, differs from the first repetition, or (traced)
    differs between the traced and untraced passes.  Each repetition of
    a figure workload also attempts the figure's ordering checks.
    """
    attempted, failed, failures = 0, 0, []
    first: dict[str, str] = {}
    for index, rep in enumerate(reps):
        if "error" in rep:
            attempted += 1
            failed += 1
            failures.append(f"rep {index}: {rep['error']}")
            continue
        seen = set()
        for e in rep["entries"]:
            label, digest = e["label"], e["digest"]
            seen.add(label)
            attempted += 1
            first.setdefault(label, digest)
            replays = {r["digest"] for r in rep.get("replayed", [])
                       if r["label"] == label}
            problem = (e["error"]
                       or (reference is not None
                           and reference.get(label) != digest
                           and "digest differs from the reference")
                       or (first[label] != digest
                           and "digest differs between repetitions")
                       or (replays - {digest}
                           and "traced digest differs from untraced"))
            if problem:
                failed += 1
                failures.append(f"rep {index}: {label}: {problem}")
        if reference is not None:
            for label in sorted(set(reference) - seen):
                attempted += 1
                failed += 1
                failures.append(f"rep {index}: {label}: not run")
        if "failed_checks" in rep:
            attempted += 1
            failed += bool(rep["failed_checks"])
            failures.extend(f"rep {index}: {c}" for c in rep["failed_checks"])
    return attempted, failed, failures


def end_to_end(reps: list[dict], attempted: int, failed: int) -> dict:
    good = [r for r in reps if "error" not in r]
    if not good:
        return {}
    return {
        "wall_s": statistics.median(r["wall_s"] for r in good),
        "accesses_per_s": statistics.median(r["accesses"] / r["wall_s"]
                                            for r in good),
        "setup_s": statistics.median(r["setup_s"] for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "pass_frac": 1.0 - failed / attempted,
    }


def update_reference(root: Path, workdir: Path, args) -> int:
    """Write each workload's digests at the default seed to the reference."""
    path = Path(args.reference)
    doc = json.loads(path.read_text()) if path.is_file() else {}
    names = [args.workload] if args.workload else sorted(spec.WORKLOADS)
    for index, name in enumerate(names):
        args.workload = name
        scale = args.scale or spec.WORKLOADS[name]["scale"]
        rep = run_rep(root, workdir, index, args, scale, False, 900.0)
        bad = [e for e in rep["entries"] if e["error"]]
        if bad or rep.get("failed_checks"):
            print(f"{name}: not updated: {bad or rep['failed_checks']}",
                  file=sys.stderr)
            return 1
        doc.setdefault("workloads", {})[name] = {
            "seed": args.seed, "scale": scale,
            "sim_version": rep["provenance"]["sim_version"],
            "points": {e["label"]: e["digest"] for e in rep["entries"]}}
        print(f"{name}: {len(rep['entries'])} digests at seed {args.seed}, "
              f"scale {scale:g}")
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="override the workload's trace scale")
    parser.add_argument("--reference", default=str(REFERENCE))
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from the root of "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload is None and not args.update_reference:
        parser.error("--workload is required")

    workdir = root / ".perfbench" / "tmp" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # Compile the sources once, so no repetition's setup_s pays for it.
        run_child(root, [sys.executable, "-c",
                         "import repro.experiments.figures, "
                         "repro.experiments.sweep"],
                  workdir / "cache-prime", 120.0)
        if args.update_reference:
            return update_reference(root, workdir, args)
        return measure(root, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(root: Path, workdir: Path, args) -> int:
    workload = spec.WORKLOADS[args.workload]
    scale = args.scale or workload["scale"]
    traced = args.trace == 1
    start = time.perf_counter()
    reps, durations = [], []
    while True:
        elapsed = time.perf_counter() - start
        if reps and (traced or (len(reps) >= MIN_REPS
                                and elapsed >= args.seconds)):
            break
        remaining = RUN_BUDGET_S - elapsed
        if durations and max(durations) * 1.25 > remaining:
            break
        began = time.perf_counter()
        try:
            reps.append(run_rep(root, workdir, len(reps), args, scale,
                                traced, remaining))
        except RunFailed as exc:
            reps.append({"error": str(exc)})
        durations.append(time.perf_counter() - began)

    reference = load_reference(Path(args.reference), args.workload,
                               args.seed, scale)
    attempted, failed, failures = check(reps, reference)
    if traced:
        units = spec.PER_LAYER
        values = reps[0].get("layers", {})
    else:
        units = spec.END_TO_END
        values = end_to_end(reps, attempted, failed)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}

    good = next((r for r in reps if "provenance" in r), {})
    record = {
        "workload": args.workload, "seed": args.seed, "trace_scale": scale,
        "traced": traced, "seconds": args.seconds,
        "git_revision": git_revision(root),
        **good.get("provenance", {"host": platform.node(),
                                  "nproc": os.cpu_count(),
                                  "python": platform.python_version()}),
        "reference": "checked" if reference is not None else "none",
        "attempted": attempted, "failed": failed, "failures": failures,
        "metrics": metrics,
        "reps": [{k: r[k] for k in ("setup_s", "wall_s", "accesses",
                                    "peak_rss_mb", "means", "error")
                  if k in r} for r in reps],
        "spans": good.get("spans", []),
    }
    records = root / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / (f"{time.strftime('%Y%m%dT%H%M%S')}-"
                             f"{args.workload}-seed{args.seed}-"
                             f"trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} scale={scale:g} "
          f"traced={int(traced)} reps={len(reps)} "
          f"sim_version={record.get('sim_version', '?')} "
          f"rev={record['git_revision'][:12]} host={record['host']} "
          f"nproc={record['nproc']} python={record['python']}")
    if reference is None:
        checked = (["sanity"] + ["repeatability"] * (len(reps) > 1)
                   + ["traced = untraced"] * traced
                   + ["Fig 15 ordering"] * ("figure" in workload))
        print(f"no reference digests for seed {args.seed} at scale "
              f"{scale:g}: checked {', '.join(checked)}")
    else:
        print(f"checked digests against {Path(args.reference).name} "
              f"(seed {args.seed}, scale {scale:g})")
    for failure in failures:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"record: {record_path.relative_to(root)}")
    print(json.dumps({"correct": not failures and len(metrics) == len(units),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
