#!/usr/bin/env python
"""CI smoke for the sweep's claim queue: real processes, real crash.

Runs the full coordinator/worker protocol with external ``repro worker``
processes against one shared cache directory and asserts the acceptance
properties end to end:

1. **Serial reference** — fill a reference cache with an inline
   (``jobs=1``) sweep and cross-check the frozen
   ``cache_payload_sha256`` digests in ``tests/golden/``.
2. **Two external workers, zero duplicates** — a coordinator with
   ``REPRO_DISTRIBUTED_LOCAL=0`` publishes the queue; two ``repro
   worker`` processes drain it.  The workers' combined ``simulated``
   counts must equal the miss count exactly (the per-key lockfile plus
   the claim queue forbid duplicate simulations), and every cache file
   must be byte-identical to the serial reference.
3. **Worker crash is reclaimed** — a worker is ``kill -9``'d after it
   claims a group; with ``REPRO_CLAIM_STALE=3`` the coordinator frees
   the stale claim, a second worker finishes the group, and the sweep
   completes with digests that still match the serial reference.  The
   crash phase also shortens ``REPRO_LOCK_STALE``: a SIGKILL'd worker
   dies holding the per-key cache lockfile, and the rescuer must steal
   it on the same timescale as the claim reclaim (docs/performance.md,
   "Distributed sweeps").

Run from the repo root::

    PYTHONPATH=src python scripts/distributed_smoke.py
"""

from __future__ import annotations

import glob
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

SCALE = 0.05            # the golden-run scale (tests/test_golden_runs.py)
CRASH_SCALE = 0.1       # slower points so the kill lands mid-group
GOLDEN = {name: json.loads(
    (REPO / "tests" / "golden" / f"{name}.json").read_text())
    for name in ("baseline-gemv", "fbarre-gemv", "fbarre-fft")}

_WORKER_DONE = re.compile(
    r"\[worker [^\]]+\] done: (\d+) groups, (\d+) points "
    r"\((\d+) simulated, (\d+) errors\)")


#: Every subprocess this smoke spawns — killed on the way out so a failed
#: assertion never strands a coordinator or worker.
_PROCS: list[subprocess.Popen] = []


def _popen(*args, **kwargs) -> subprocess.Popen:
    proc = subprocess.Popen(*args, **kwargs)
    _PROCS.append(proc)
    return proc


def check(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"  ok: {message}")


def _env(cache: str, **extra: str) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_NO_CACHE", None)
    env.pop("REPRO_JOBS", None)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = cache
    env.update(extra)
    return env


def _sweep_cmd(schemes: str, apps: str, scale: float) -> list[str]:
    return [sys.executable, "-m", "repro", "sweep",
            "--schemes", schemes, "--apps", apps,
            "--scale", str(scale), "--jobs", "2"]


def _worker_cmd(cache: str, worker_id: str, max_idle: float) -> list[str]:
    return [sys.executable, "-m", "repro", "worker", "--cache", cache,
            "--id", worker_id, "--poll", "0.1", "--heartbeat", "1",
            "--max-idle", str(max_idle)]


def _wait_for(predicate, timeout: float, what: str):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    raise SystemExit(f"FAIL: timed out after {timeout}s waiting for {what}")


def _cache_bytes(cache: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(Path(cache).glob("*.json"))}


def main() -> int:
    root = tempfile.mkdtemp(prefix="distributed-smoke-")
    reference = os.path.join(root, "reference")
    shared = os.path.join(root, "shared")
    crash = os.path.join(root, "crash")
    for d in (reference, shared, crash):
        os.makedirs(d)
    print(f"[smoke] caches under {root}")

    print("[smoke] 1/3 serial reference cache + golden digests")
    import hashlib

    from repro.experiments import runner
    from repro.experiments.sweep import SweepPoint, sweep
    from repro.cli import SCHEMES

    os.environ["REPRO_CACHE_DIR"] = reference
    os.environ.pop("REPRO_NO_CACHE", None)
    os.environ.pop("REPRO_DISTRIBUTED_LOCAL", None)
    points = [SweepPoint(SCHEMES[s](), app, SCALE)
              for s in ("baseline", "fbarre") for app in ("gemv", "fft")]
    crash_points = [SweepPoint(SCHEMES[s](), "fft", CRASH_SCALE)
                    for s in ("baseline", "barre", "fbarre", "mgvm")]
    out = sweep(points + crash_points, jobs=1, progress=False)
    check(all(r is not None for r in out.results),
          f"serial reference filled {len(out.results)} points")
    reference_files = _cache_bytes(reference)
    for name, golden in GOLDEN.items():
        scheme, app = name.split("-", 1)
        point = SweepPoint(SCHEMES[scheme](), app, SCALE)
        filename = f"{app}-{runner.point_digest(point.key())}.json"
        sha = hashlib.sha256(reference_files[filename]).hexdigest()
        check(sha == golden["cache_payload_sha256"],
              f"{name} matches its golden digest")

    print("[smoke] 2/3 coordinator + two external workers, zero duplicates")
    coordinator = _popen(
        _sweep_cmd("baseline,fbarre", "gemv,fft", SCALE),
        env=_env(shared, REPRO_DISTRIBUTED_LOCAL="0"),
        cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    _wait_for(lambda: glob.glob(
        os.path.join(shared, "meta", "queue", "*", "manifest.json")),
        30, "the queue manifest")
    workers = [_popen(
        _worker_cmd(shared, f"smoke-w{i}", max_idle=10),
        env=_env(shared), cwd=REPO,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        for i in (1, 2)]
    coordinator_out, _ = coordinator.communicate(timeout=300)
    check(coordinator.returncode == 0,
          f"coordinator exits 0 (output:\n{coordinator_out})"
          if coordinator.returncode else "coordinator exits 0")
    simulated = 0
    for proc in workers:
        out_text, _ = proc.communicate(timeout=60)
        check(proc.returncode == 0, f"worker exits 0 ({out_text.strip()!r})")
        match = _WORKER_DONE.search(out_text)
        check(match is not None, "worker printed its final summary")
        simulated += int(match.group(3))
        check(int(match.group(4)) == 0, "worker saw no errors")
    check(simulated == len(points),
          f"workers simulated {simulated}/{len(points)} misses — "
          "exactly once each, zero duplicates")
    shared_files = _cache_bytes(shared)
    check(all(shared_files[name] == reference_files[name]
              for name in shared_files),
          "every distributed cache file is byte-identical to serial")
    check(len(shared_files) == len(points), "one cache file per point")
    check(not glob.glob(os.path.join(shared, "meta", "queue", "*")),
          "the queue directory was torn down")
    check(not glob.glob(os.path.join(shared, "*.lock")),
          "no stale lockfiles")

    print("[smoke] 3/3 kill -9 a worker mid-group; reclaim completes it")
    coordinator = _popen(
        _sweep_cmd("baseline,barre,fbarre,mgvm", "fft", CRASH_SCALE),
        env=_env(crash, REPRO_DISTRIBUTED_LOCAL="0", REPRO_CLAIM_STALE="3",
                 REPRO_LOCK_STALE="5"),
        cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    _wait_for(lambda: glob.glob(
        os.path.join(crash, "meta", "queue", "*", "manifest.json")),
        30, "the crash-phase queue manifest")
    victim = _popen(
        _worker_cmd(crash, "smoke-victim", max_idle=60),
        env=_env(crash, REPRO_CLAIM_STALE="3",
                 REPRO_LOCK_STALE="5"), cwd=REPO,
        stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT)
    _wait_for(lambda: glob.glob(
        os.path.join(crash, "meta", "queue", "*", "claims", "*.json")),
        30, "the victim's claim")
    time.sleep(0.3)  # let it get into the first point of the group
    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=30)
    check(victim.returncode == -signal.SIGKILL,
          "victim worker was killed with SIGKILL mid-group")
    rescuer = _popen(
        _worker_cmd(crash, "smoke-rescuer", max_idle=20),
        env=_env(crash, REPRO_CLAIM_STALE="3",
                 REPRO_LOCK_STALE="5"), cwd=REPO,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    coordinator_out, _ = coordinator.communicate(timeout=300)
    check(coordinator.returncode == 0,
          f"coordinator survives the crash (output:\n{coordinator_out})"
          if coordinator.returncode else "coordinator survives the crash")
    check("stolen" in coordinator_out,
          "the coordinator reported the reclaimed group")
    rescuer_out, _ = rescuer.communicate(timeout=60)
    check(rescuer.returncode == 0, "rescuer worker exits 0")
    crash_files = _cache_bytes(crash)
    check(len(crash_files) == len(crash_points),
          "the crashed sweep still filled every point")
    check(all(crash_files[name] == reference_files[name]
              for name in crash_files),
          "post-crash cache files are byte-identical to serial")
    print("[smoke] PASS")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    finally:
        for proc in _PROCS:
            if proc.poll() is None:
                proc.kill()
