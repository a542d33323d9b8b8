"""Parallel sweep engine: determinism, stampede safety, CLI, cache knobs."""

from __future__ import annotations

import hashlib
import json
import multiprocessing.process
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import configs, figures
from repro.experiments import runner as runner_mod
from repro.experiments.runner import (
    _deserialize,
    _serialize,
    cached_result,
    load_timings,
    point_digest,
    record_timings,
    run_point,
    store_point,
)
from repro.experiments.sweep import (
    SweepPoint,
    _pool_width,
    _Progress,
    collect_points,
    default_jobs,
    plan_misses,
    sweep,
)
from repro.gpu.mcm import McmGpuSimulator

REPO = Path(__file__).resolve().parents[1]
SCALE = 0.05

#: The sweep's two execution paths and how to select them: inline
#: (``jobs=1``) and the claim queue (``jobs=2`` with two local helpers,
#: which forces the queue even on a one-core machine).
PATHS = {"serial": (1, None), "distributed": (2, "2")}


def _select_path(monkeypatch, path: str) -> int:
    """Set the environment for one of :data:`PATHS`; returns its jobs."""
    jobs, helpers = PATHS[path]
    if helpers is None:
        monkeypatch.delenv("REPRO_DISTRIBUTED_LOCAL", raising=False)
    else:
        monkeypatch.setenv("REPRO_DISTRIBUTED_LOCAL", helpers)
    return jobs


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_DISTRIBUTED_LOCAL", raising=False)
    return tmp_path


class TestParallelDeterminism:
    def test_worker_result_identical_to_inprocess(self, cache, monkeypatch):
        points = [SweepPoint(configs.baseline(), "gemv", SCALE),
                  SweepPoint(configs.baseline(), "fft", SCALE)]
        out = sweep(points, jobs=2, progress=False)
        assert out.stats.simulated == 2
        # Bypass the cache so the reference result is a pure in-process run.
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        direct = run_point(configs.baseline(), "gemv", scale=SCALE)
        assert _serialize(direct) == _serialize(out.results[0])

    def test_results_align_with_submission_order(self, cache):
        points = [SweepPoint(configs.baseline(), app, SCALE)
                  for app in ("gemv", "fft", "gemv")]
        out = sweep(points, jobs=2, progress=False)
        assert [r.app for r in out.results] == ["gemv", "fft", "gemv"]
        assert _serialize(out.results[0]) == _serialize(out.results[2])


class TestStampedeSafety:
    def test_duplicate_submissions_simulate_once(self, cache):
        point = SweepPoint(configs.baseline(), "gemv", SCALE)
        out = sweep([point, point, point], jobs=2, progress=False)
        assert out.stats.total == 3
        assert out.stats.unique == 1
        assert out.stats.simulated == 1
        assert len(list(cache.glob("*.json"))) == 1

    def test_second_sweep_is_all_cache_hits(self, cache):
        points = [SweepPoint(configs.baseline(), "gemv", SCALE)]
        sweep(points, jobs=2, progress=False)
        out = sweep(points, jobs=2, progress=False)
        assert out.stats.cached == 1
        assert out.stats.simulated == 0

    def test_concurrent_run_point_simulates_once(self, cache, monkeypatch):
        calls = []
        real_run = McmGpuSimulator.run

        def counting_run(self):
            calls.append(1)
            time.sleep(0.05)   # widen the race window
            return real_run(self)

        monkeypatch.setattr(McmGpuSimulator, "run", counting_run)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run_point, configs.baseline(), "gemv",
                                   SCALE) for _ in range(2)]
            results = [f.result() for f in futures]
        assert len(calls) == 1, "lockfile failed to prevent a double simulate"
        assert _serialize(results[0]) == _serialize(results[1])

    def test_no_lockfiles_or_temp_files_left_behind(self, cache):
        sweep([SweepPoint(configs.baseline(), "gemv", SCALE)],
              jobs=2, progress=False)
        assert not list(cache.glob("*.lock"))
        assert not list(cache.glob("*.tmp"))


class TestCollection:
    def test_collects_every_point_without_simulating(self, cache):
        points = collect_points(figures.fig06_shared_l2,
                                apps=["gemv", "fft"], scale=SCALE)
        # baseline + shared-l2, two apps each
        assert len(points) == 4
        assert len({p.key() for p in points}) == 4
        assert not list(cache.glob("*.json"))

    def test_collects_pair_points(self, cache):
        points = collect_points(figures.fig27a_multiapp,
                                pairs={"LL": ("gemv", "fft")}, scale=SCALE)
        assert [p.pair_with for p in points] == ["fft", "fft"]
        assert all(p.abbr == "gemv" for p in points)


class TestCliSweep:
    def test_sweep_command(self, cache, capsys):
        assert main(["sweep", "--schemes", "baseline", "--apps", "gemv,fft",
                     "--scale", str(SCALE), "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 points" in out and "simulated" in out
        assert len(list(cache.glob("*.json"))) == 2

    def test_sweep_warm_cache_dry_run(self, cache, capsys):
        assert main(["sweep", "--warm-cache", "--dry-run",
                     "--scale", str(SCALE)]) == 0
        out = capsys.readouterr().out
        assert "dry run" in out
        assert not list(cache.glob("*.json"))   # planned, not simulated

    def test_sweep_rejects_unknown_names(self, cache):
        with pytest.raises(SystemExit):
            main(["sweep", "--schemes", "nosuchscheme"])
        with pytest.raises(SystemExit):
            main(["sweep", "--figures", "nosuchfigure"])

    def test_sweep_requires_a_selection(self, cache):
        with pytest.raises(SystemExit):
            main(["sweep"])

    def test_sweep_has_no_scheduler_option(self, cache, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--schemes", "baseline", "--apps", "gemv",
                  "--scheduler", "serial"])
        assert exc.value.code == 2     # argparse usage error
        assert "unrecognized arguments: --scheduler" in \
            capsys.readouterr().err

    def test_dry_run_prints_group_order(self, cache, capsys):
        assert main(["sweep", "--schemes", "baseline,fbarre",
                     "--apps", "gemv,fft", "--scale", str(SCALE),
                     "--dry-run"]) == 0
        lines = [line.split(":")[0].strip()
                 for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  group ")]
        assert lines == ["group 0", "group 0", "group 1", "group 1"]

    def test_figure_command_prewarms_in_parallel(self, cache, capsys):
        assert main(["figure", "fig05", "--scale", str(SCALE),
                     "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "private contiguous<=8" in out
        # fig05: 3 apps x (baseline, shared-l2)
        assert len(list(cache.glob("*.json"))) == 6


class TestCacheKnobs:
    def test_cache_dir_created_lazily(self, tmp_path, monkeypatch):
        target = tmp_path / "never-created"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
        assert cached_result(configs.baseline(), "gemv", scale=SCALE) is None
        assert not target.exists(), "a read must not create the cache dir"
        run_point(configs.baseline(), "gemv", scale=SCALE)
        assert target.is_dir(), "a write creates the cache dir on demand"

    def test_unwritable_cache_falls_back_to_no_cache(self, tmp_path,
                                                     monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("")   # a *file*: mkdir below it must fail
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
        with pytest.warns(RuntimeWarning, match="REPRO_NO_CACHE behaviour"):
            first = run_point(configs.baseline(), "gemv", scale=SCALE)
        assert first.cycles > 0
        # Subsequent runs keep working (and warn only once per path).
        second = run_point(configs.baseline(), "gemv", scale=SCALE)
        assert _serialize(second) == _serialize(first)

    def test_default_jobs_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert default_jobs() == 7
        monkeypatch.delenv("REPRO_JOBS")
        assert default_jobs() >= 1


class TestCachePayloadCompat:
    def test_pre_histogram_payloads_still_load(self, cache):
        # Results cached before SimResult grew translation_latency have no
        # such key; they must deserialize to an empty histogram, not crash.
        fresh = run_point(configs.baseline(), "gemv", scale=SCALE)
        payload = _serialize(fresh)
        payload.pop("translation_latency")
        old = _deserialize(payload)
        assert old.cycles == fresh.cycles
        assert old.translation_latency.total() == 0

    def test_histogram_survives_cache_round_trip(self, cache):
        first = run_point(configs.baseline(), "gemv", scale=SCALE)
        assert first.translation_latency.total() > 0
        again = cached_result(configs.baseline(), "gemv", scale=SCALE)
        assert again is not None
        assert again.translation_latency == first.translation_latency

    def test_store_point_publishes_at_canonical_path(self, cache,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        result = run_point(configs.baseline(), "gemv", scale=SCALE)
        monkeypatch.delenv("REPRO_NO_CACHE")
        path = store_point(configs.baseline(), "gemv", result, scale=SCALE)
        assert path is not None and path.exists()
        served = cached_result(configs.baseline(), "gemv", scale=SCALE)
        assert _serialize(served) == _serialize(result)


def _scheme_points() -> list[SweepPoint]:
    return [SweepPoint(scheme(), app, SCALE)
            for scheme in (configs.baseline, configs.fbarre)
            for app in ("gemv", "fft")]


class TestSchedulerDeterminism:
    def test_all_schedulers_bit_identical(self, tmp_path, monkeypatch):
        """Inline and the claim queue produce the same payloads and files."""
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        payloads, files = {}, {}
        for path in PATHS:
            cache = tmp_path / path
            monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
            events: list[dict] = []
            out = sweep(_scheme_points(), jobs=_select_path(monkeypatch, path),
                        progress=False, events=events.append)
            assert out.stats.simulated == 4
            queued = any(e["event"] == "queue_published" for e in events)
            assert queued == (path == "distributed"), path
            payloads[path] = [json.dumps(_serialize(r), sort_keys=True)
                              for r in out.results]
            files[path] = {p.name: p.read_bytes()
                           for p in cache.glob("*.json")}
        assert len(files["serial"]) == 4
        assert payloads["distributed"] == payloads["serial"]
        assert files["distributed"] == files["serial"]

    def test_affinity_sweep_matches_golden_digests(self, cache):
        """Cache files written by a default sweep are byte-for-byte the
        golden payloads — the sweep engine cannot perturb a simulation."""
        from tests.test_golden_runs import GOLDEN_DIR, POINTS
        names = ["baseline-gemv", "fbarre-gemv", "fbarre-fft", "mgvm-gemv"]
        points = [SweepPoint(POINTS[name][0](), POINTS[name][2], SCALE)
                  for name in names]
        sweep(points, progress=False)
        for name, point in zip(names, points):
            golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
            cache_file = runner_mod.point_path(point.config, point.abbr,
                                               SCALE)
            assert cache_file.exists()
            got = hashlib.sha256(cache_file.read_bytes()).hexdigest()
            assert got == golden["cache_payload_sha256"], (
                f"{name}: sweep-written cache file diverges from golden")

    def test_rejects_unknown_scheduler(self, cache):
        """There is no scheduler to choose: the keyword itself is gone."""
        with pytest.raises(TypeError, match="scheduler"):
            sweep(_scheme_points(), progress=False, scheduler="serial")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_width_one_sweep_spawns_nothing(self, cache, monkeypatch, cpus):
        """``min(jobs, misses, cores) == 1`` runs inline: no process, no
        claim-queue directory."""
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        started = []
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            lambda proc: started.append(proc))
        jobs = 4 if cpus == 1 else 1
        out = sweep(_scheme_points(), jobs=jobs, progress=False)
        assert out.stats.simulated == 4
        assert out.stats.jobs == 1
        assert started == []
        assert not (cache / "meta" / "queue").exists()

    def test_no_cache_sweep_runs_inline_and_matches_serial(
            self, cache, monkeypatch):
        """Without a writable cache there is nowhere to put a claim queue:
        a ``jobs=2`` sweep runs inline and returns the serial results."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        serial = sweep(_scheme_points(), jobs=1, progress=False)
        monkeypatch.setenv("REPRO_DISTRIBUTED_LOCAL", "2")
        events: list[dict] = []
        wide = sweep(_scheme_points(), jobs=2, progress=False,
                     events=events.append)
        assert [_serialize(r) for r in wide.results] == \
            [_serialize(r) for r in serial.results]
        assert wide.stats.simulated == 4 and wide.stats.jobs == 1
        assert not any(e["event"] == "queue_published" for e in events)
        assert not (cache / "meta").exists()

    def test_worker_side_cache_hits_settle_the_sweep(self, cache,
                                                     monkeypatch):
        """A claim-queue worker can find a point already cached that the
        coordinator's dedupe missed (another sweep filled it in between).
        The run must still end at done == total, and count no
        simulation for it."""
        points = _scheme_points()
        sweep(points, jobs=1, progress=False)        # fill the cache
        coordinator = os.getpid()
        real_cached_result = runner_mod.cached_result
        dedupe_calls = {"left": len(points)}

        def racy_cached_result(*args, **kwargs):
            # The coordinator's dedupe pass misses every point; its later
            # loads (and the forked helpers' probes) see the cache.
            if os.getpid() == coordinator and dedupe_calls["left"]:
                dedupe_calls["left"] -= 1
                return None
            return real_cached_result(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "cached_result", racy_cached_result)
        snaps: list[dict] = []
        jobs = _select_path(monkeypatch, "distributed")
        out = sweep(points, jobs=jobs, progress=False, observer=snaps.append)
        assert all(r is not None for r in out.results)
        assert out.stats.cached == 0
        assert out.stats.simulated == 0
        assert snaps[-1]["done"] == snaps[-1]["total"] == len(points)
        assert "0 simulated" in out.stats.describe()


class TestSweepStats:
    def test_jobs_reports_actual_worker_count(self, cache):
        out = sweep([SweepPoint(configs.baseline(), "gemv", SCALE)],
                    jobs=16, progress=False)
        assert out.stats.jobs == 1, "a single miss runs inline, not on 16"
        assert "jobs=1" in out.stats.describe()

    def test_memo_hits_and_point_seconds_reported(self, cache):
        from repro.gpu import mcm
        mcm.TRACE_MEMO.clear()   # earlier in-process tests may have warmed it
        points = [SweepPoint(configs.baseline(), "gemv", SCALE),
                  SweepPoint(configs.fbarre(), "gemv", SCALE)]
        out = sweep(points, jobs=1, progress=False)
        # Both configs share (app, seed, scale): one build, one memo hit.
        assert out.stats.memo_hits >= 1
        assert out.stats.memo_misses >= 1
        assert set(out.stats.point_seconds) == {p.key() for p in points}
        assert all(s > 0 for s in out.stats.point_seconds.values())
        assert "trace-memo" in out.stats.describe()

    def test_pool_width_clamps_to_cores(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert _pool_width(jobs=8, misses=8) == 2
        assert _pool_width(jobs=8, misses=1) == 1
        assert _pool_width(jobs=1, misses=8) == 1

    def test_steals_is_an_int_for_every_scheduler(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        for path in PATHS:
            cache = tmp_path / path
            monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
            out = sweep([SweepPoint(configs.baseline(), "gemv", SCALE)],
                        jobs=_select_path(monkeypatch, path),
                        progress=False)
            assert out.stats.steals == 0, path
            assert "stolen" not in out.stats.describe()


class TestCostModel:
    def test_timings_sidecar_round_trip_and_merge(self, cache, monkeypatch):
        monkeypatch.setenv("REPRO_HOST_ID", "vm-a")
        record_timings([("key-a", "gemv", 1.5), ("key-b", "fft", 3.0)])
        record_timings([("key-a", "gemv", 2.0)])   # same host: last wins
        timings = load_timings()
        assert timings[point_digest("key-a")] == {
            "app": "gemv", "seconds": 2.0, "hosts": {"vm-a": 2.0}}
        assert timings[point_digest("key-b")] == {
            "app": "fft", "seconds": 3.0, "hosts": {"vm-a": 3.0}}
        # The sidecar lives under meta/ and must not count as a cache file.
        assert not list(cache.glob("*.json"))

    def test_timings_keep_per_host_measurements_and_median(self, cache):
        """Heterogeneous fleet: each host's cost survives, and the cost
        model plans against the median across hosts."""
        record_timings([("key-a", "gemv", 1.0)], host="fast-box")
        record_timings([("key-a", "gemv", 9.0)], host="slow-box")
        record_timings([("key-a", "gemv", 3.0)], host="mid-box")
        entry = load_timings()[point_digest("key-a")]
        assert entry["hosts"] == {"fast-box": 1.0, "slow-box": 9.0,
                                  "mid-box": 3.0}
        assert entry["seconds"] == 3.0
        # A host re-measuring replaces only its own entry.
        record_timings([("key-a", "gemv", 5.0)], host="fast-box")
        entry = load_timings()[point_digest("key-a")]
        assert entry["hosts"]["fast-box"] == 5.0
        assert entry["seconds"] == 5.0

    def test_corrupt_timings_sidecar_warns_once_and_recovers(self, cache):
        """A torn write (crash mid-replace, disk-full half-file) degrades
        to unordered scheduling with a warning — and the next completed
        sweep rewrites a good sidecar."""
        record_timings([("key-a", "gemv", 1.5)])
        path = cache / "meta" / "timings.json"
        text = path.read_text()
        path.write_text(text[:len(text) // 2])      # torn write
        runner_mod._WARNED_TIMINGS.clear()
        with pytest.warns(RuntimeWarning, match="timings sidecar"):
            assert load_timings() == {}
        # Only once per path: a sweep calling load_timings per plan
        # doesn't spam.
        import warnings as warnings_mod
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            assert load_timings() == {}
        # Recording again replaces the torn file with a good one.
        record_timings([("key-b", "fft", 3.0)])
        timings = load_timings()
        assert point_digest("key-b") in timings
        assert point_digest("key-a") not in timings   # torn data is gone

    def test_sweep_records_measured_timings(self, cache):
        point = SweepPoint(configs.baseline(), "gemv", SCALE)
        out = sweep([point], progress=False)
        entry = load_timings()[point_digest(point.key())]
        assert entry["app"] == "gemv"
        assert entry["seconds"] == pytest.approx(
            out.stats.point_seconds[point.key()], abs=0.01)

    def test_plan_orders_longest_first_from_measurements(self, cache):
        points = [SweepPoint(configs.baseline(), app, SCALE)
                  for app in ("gemv", "fft", "atax")]
        record_timings([(p.key(), p.abbr, cost) for p, cost in
                        zip(points, (0.5, 9.0, 3.0))])
        plan = plan_misses([(p.key(), p) for p in points])
        assert [pp.point.abbr for pp in plan] == ["fft", "atax", "gemv"]
        assert all(pp.source == "measured" for pp in plan)
        assert [pp.est_seconds for pp in plan] == [9.0, 3.0, 0.5]

    def test_plan_estimate_fallback_chain(self, cache):
        seen = SweepPoint(configs.baseline(), "gemv", SCALE)
        record_timings([(seen.key(), "gemv", 2.0)])
        # Same app, different config: falls back to the app median.
        sibling = SweepPoint(configs.fbarre(), "gemv", SCALE)
        # App never measured: falls back to the suite median.
        stranger = SweepPoint(configs.baseline(), "fft", SCALE)
        plan = plan_misses([(sibling.key(), sibling),
                            (stranger.key(), stranger)])
        by_abbr = {pp.point.abbr: pp for pp in plan}
        assert by_abbr["gemv"].source == "app-median"
        assert by_abbr["gemv"].est_seconds == 2.0
        assert by_abbr["fft"].source == "suite-median"

    def test_plan_default_cost_when_no_history(self, cache):
        point = SweepPoint(configs.baseline(), "gemv", SCALE)
        plan = plan_misses([(point.key(), point)])
        assert plan[0].source == "default"

    def test_dry_run_exposes_plan(self, cache):
        out = sweep(_scheme_points(), progress=False, dry_run=True)
        assert len(out.plan) == 4
        assert all(r is None for r in out.results)
        assert out.stats.simulated == 0

    def test_affinity_groups_are_contiguous_in_plan(self, cache):
        points = _scheme_points()
        record_timings([(p.key(), p.abbr, cost) for p, cost in
                        zip(points, (1.0, 4.0, 2.0, 5.0))])
        plan = plan_misses([(p.key(), p) for p in points])
        groups = [pp.point.group() for pp in plan]
        runs = [g for i, g in enumerate(groups)
                if i == 0 or g != groups[i - 1]]
        assert len(runs) == len(set(groups)) == 2, (
            "an affinity group was split in the plan")
        # Costliest group first (fft: 4+5 > gemv: 1+2), costliest point
        # first within each group.
        assert [pp.est_seconds for pp in plan] == [5.0, 4.0, 2.0, 1.0]


class TestProgressEta:
    def test_eta_excludes_future_cache_hits(self, capsys):
        reporter = _Progress(total=4, cached=2, enabled=True)
        reporter.start = time.perf_counter() - 10.0   # 10s elapsed
        reporter.update(done=3, running=1)            # 1 miss done, 1 left
        err = capsys.readouterr().err
        assert "3/4 points" in err
        # Rate 10s/miss x 1 remaining miss — not x3 for total remaining.
        match = re.search(r"ETA (\d+)s", err)
        assert match is not None
        assert 8 <= int(match.group(1)) <= 12

    def test_no_eta_before_first_miss_completes(self, capsys):
        reporter = _Progress(total=4, cached=2, enabled=True)
        reporter.update(done=2, running=2)
        assert "ETA" not in capsys.readouterr().err

    def test_all_cached_first_update_reports_eta_zero(self, capsys):
        """Every point a cache hit in the first reporting interval: the
        ETA is an honest 0, never inf or a ZeroDivisionError."""
        reporter = _Progress(total=3, cached=3, enabled=True)
        snap = reporter.snapshot(done=3, running=0)
        assert snap["eta_seconds"] == 0.0
        reporter.update(done=3, running=0)
        assert "ETA 0s" in capsys.readouterr().err

    def test_all_cached_sweep_observer_sees_eta_zero(self, cache):
        points = [SweepPoint(configs.baseline(), "gemv", SCALE)]
        sweep(points, progress=False)
        snaps: list[dict] = []
        out = sweep(points, progress=False, observer=snaps.append)
        assert out.stats.cached == 1 and out.stats.simulated == 0
        assert snaps, "the final observer snapshot must still be emitted"
        assert all(s["eta_seconds"] == 0.0 for s in snaps)

    def test_serial_sweep_emits_final_update(self, cache, capsys):
        sweep([SweepPoint(configs.baseline(), "gemv", SCALE)],
              jobs=1, progress=True)
        err = capsys.readouterr().err
        assert "1/1 points" in err, "the line froze one point short"


class TestLockBackoff:
    def test_loser_backs_off_exponentially_to_cap(self, cache, monkeypatch):
        cfg = configs.baseline()
        path = runner_mod.point_path(cfg, "gemv", SCALE)
        path.parent.mkdir(parents=True, exist_ok=True)
        lock = path.with_suffix(".lock")
        lock.touch()   # somebody else holds the fill lock
        delays: list[float] = []

        def fake_sleep(seconds: float) -> None:
            delays.append(seconds)
            if len(delays) == 10:   # the winner publishes and releases
                runner_mod._atomic_write(path,
                                         runner_mod._stub_result("gemv"))
                lock.unlink()

        monkeypatch.setattr(time, "sleep", fake_sleep)
        result = run_point(cfg, "gemv", scale=SCALE)
        assert result.app == "gemv"
        assert delays[:4] == [0.002, 0.004, 0.008, 0.016], (
            "backoff must start fast and double")
        assert max(delays) == 0.25, "backoff must cap, not grow unbounded"
        assert delays[-1] == 0.25


class TestDocsMatchCode:
    def test_every_documented_knob_exists_in_source(self):
        doc = (REPO / "docs" / "performance.md").read_text()
        knobs = set(re.findall(r"REPRO_[A-Z_]+", doc))
        # The operations guide must cover at least the core knobs.
        assert {"REPRO_JOBS", "REPRO_BENCH_SCALE", "REPRO_CACHE_DIR",
                "REPRO_NO_CACHE"} <= knobs
        source = "".join(p.read_text()
                         for p in (REPO / "src").rglob("*.py"))
        for knob in sorted(knobs):
            assert knob in source, (
                f"docs/performance.md documents {knob} but no code reads it")
