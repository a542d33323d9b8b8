"""Throughput-oriented sweep engine: fan (config, app) points over workers.

Every paper figure reduces to a set of independent (config, app, scale)
simulation points — embarrassingly parallel work.  :func:`sweep` takes an
iterable of :class:`SweepPoint`, deduplicates them against the on-disk
result cache, plans the misses with a cost model, and runs them one of
two ways, chosen from what it can observe (there is no option to pick):

* **inline** — in this process, in plan order, no worker processes.  Used
  when the core-clamped width ``min(jobs, misses, cores)`` is 1 and
  ``REPRO_DISTRIBUTED_LOCAL`` is unset, and whenever there is no writable
  result cache to hold a claim queue (``REPRO_NO_CACHE`` or an
  unwritable directory).
* **claim queue** — everything else.  The coordinator (this process)
  publishes the plan's affinity groups to a filesystem claim queue under
  the result cache; local helper processes, plus ``repro worker``
  processes on any host that mounts the same cache directory, claim
  groups, fill the cache, and heartbeat (see
  :mod:`repro.experiments.distributed` and docs/performance.md).

Both produce bit-identical results (same seeded RNG from
``SimConfig.seed``, same ``SIM_VERSION`` cache keying, same atomic cache
files — asserted by ``tests/test_sweep.py`` against the golden-run
digests).

Cost-model scheduling: measured per-point wall-times persist in a sidecar
under the result cache (``runner.load_timings``).  :func:`plan_misses`
orders affinity groups longest-first, each group contiguous so a worker's
CTA-trace memo stays hot; claiming the next group in that order is LPT
list scheduling.  ``repro sweep --dry-run`` prints the planned order.

Prewarming: :func:`collect_points` runs an experiment function in the
runner's collection mode — ``run_point``/``run_pair`` record their would-be
points and return stubs — which lets a figure's *full* point-set be
discovered up front and submitted as one batch (see
``repro.experiments.registry.run_figure`` and ``repro sweep --warm-cache``).
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.common import metrics
from repro.common.config import SimConfig
from repro.experiments import runner
from repro.gpu import mcm
from repro.gpu.mcm import SimResult
from repro.workloads.base import Workload

#: Per-point cost guess (seconds) when the sidecar has no data at all —
#: only the *relative* order matters, so any constant works.
_DEFAULT_COST = 1.0


class SweepCancelled(RuntimeError):
    """Raised by :func:`sweep` when its ``cancel`` event is set mid-run.

    Cancellation is cooperative and lands on point boundaries: every
    point that finished before the event was observed has already been
    published to the result cache (atomic fill), so re-submitting the
    same point-set resumes from where the cancelled run stopped — the
    finished points come back as cache hits.
    """


@dataclass(frozen=True, eq=False)
class SweepPoint:
    """One simulation point: a config, an app, and optional modifiers.

    ``app`` is a Table I abbreviation or a pre-built :class:`Workload`;
    ``pair_with`` marks a Section VII-I co-scheduling point (simulated via
    ``run_pair``).
    """

    config: SimConfig
    app: str | Workload
    scale: float | None = None
    workload_tag: str = ""
    pair_with: str | None = None

    @property
    def abbr(self) -> str:
        return self.app if isinstance(self.app, str) else self.app.abbr

    @property
    def tag(self) -> str:
        return f"pair-{self.pair_with}" if self.pair_with else self.workload_tag

    def resolved_scale(self) -> float:
        return runner.bench_scale() if self.scale is None else self.scale

    def key(self) -> str:
        """Cache key — identical to the one ``run_point`` files under."""
        return runner.point_key(self.config, self.abbr,
                                self.resolved_scale(), self.tag)

    def group(self) -> tuple:
        """Affinity group: points whose CTA traces are memo-shareable.

        Matches the domain of ``mcm.build_cta_traces``'s memo key — same
        app/tag, trace scale, and seed — without the config, so every
        configuration of one app lands in one group.
        """
        return (self.abbr, self.tag, f"{self.resolved_scale():.4f}",
                self.config.seed)


@dataclass
class PlannedPoint:
    """One cache miss with its cost estimate."""

    key: str
    point: SweepPoint
    est_seconds: float
    source: str            #: "measured" | "app-median" | "suite-median" | "default"

    def label(self) -> str:
        p = self.point
        tag = f" [{p.tag}]" if p.tag else ""
        return f"{p.abbr}/{p.config.backend.value}{tag} @{p.resolved_scale():g}"


@dataclass
class SweepStats:
    """What one :func:`sweep` call did."""

    total: int = 0          #: points submitted (incl. duplicates)
    unique: int = 0         #: distinct cache keys
    cached: int = 0         #: served from the on-disk cache
    simulated: int = 0      #: actually run (0 on a dry run)
    jobs: int = 1           #: worker count actually used for the misses
    elapsed: float = 0.0    #: wall-clock seconds
    memo_hits: int = 0      #: CTA-trace memo hits across all workers
    memo_misses: int = 0    #: CTA-trace memo misses across all workers
    steals: int = 0         #: groups reclaimed from dead claim-queue workers
    #: Measured wall-time of every simulated miss, by cache key.
    point_seconds: dict[str, float] = field(default_factory=dict)
    #: Host a miss was simulated on, by cache key — only filled by the
    #: distributed backend for points that ran on a worker (which banks
    #: its own timings); local runs are implicitly this host.
    point_hosts: dict[str, str] = field(default_factory=dict)

    def describe(self, dry_run: bool = False) -> str:
        verb = "to simulate (dry run)" if dry_run else "simulated"
        n = self.unique - self.cached if dry_run else self.simulated
        line = (f"{self.total} points ({self.unique} unique): "
                f"{self.cached} cached, {n} {verb}, "
                f"jobs={self.jobs}, {self.elapsed:.1f}s")
        if self.memo_hits or self.memo_misses:
            line += (f", trace-memo {self.memo_hits} hits / "
                     f"{self.memo_misses} misses")
        if self.steals:
            line += f", {self.steals} stolen"
        return line


@dataclass
class SweepOutcome:
    """Results aligned with the submitted points, plus run statistics."""

    results: list[SimResult | None] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)
    #: The cost-model schedule of the misses: affinity groups contiguous,
    #: longest-first.  Populated whenever there were misses, including
    #: dry runs — ``repro sweep --dry-run`` prints it.
    plan: list[PlannedPoint] = field(default_factory=list)


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else ``os.cpu_count()``."""
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _pool_width(jobs: int, misses: int) -> int:
    """Local workers for the misses: ``min(jobs, misses, cores)``.

    A simulation point is CPU-bound pure Python, so workers beyond the
    core count only add context switching and memory pressure (measured
    ~1.2x slower at ``REPRO_JOBS=4`` on one core).  A width of 1 runs
    the misses inline.
    """
    return max(1, min(jobs, misses, os.cpu_count() or 1))


def _run_inline(point: SweepPoint) -> SimResult:
    if point.pair_with:
        return runner.run_pair(point.config, point.app, point.pair_with,
                               point.scale)
    return runner.run_point(point.config, point.app, point.scale,
                            point.workload_tag)


def _emit(events, kind: str, **fields) -> None:
    """Forward one structured run event to the sink, if there is one.

    Events are plain dicts with an ``event`` discriminator; the sink
    (typically :class:`repro.obs.eventlog.RunEventLog`) owns timestamps
    and persistence, so the engine stays deterministic and free of I/O.
    """
    if events is not None:
        events({"event": kind, **fields})


# --------------------------------------------------------------------------
# Cost model
# --------------------------------------------------------------------------

def plan_misses(misses: list[tuple[str, SweepPoint]]) -> list[PlannedPoint]:
    """Cost-model schedule: estimate, group by affinity, longest-first.

    Estimates come from the runner's wall-time sidecar (exact where this
    point has run before, per-app median otherwise).  The returned list
    is group-contiguous — so a worker's trace memo stays hot — with
    groups ordered by total cost and, within a group, costlier points
    first.  Workers that claim the next group in this order perform LPT
    list scheduling; the inline path simply runs the list.
    """
    timings = runner.load_timings()
    by_app: dict[str, list[float]] = {}
    for entry in timings.values():
        by_app.setdefault(entry["app"], []).append(float(entry["seconds"]))
    app_median = {app: statistics.median(v) for app, v in by_app.items()}
    overall = (statistics.median([s for v in by_app.values() for s in v])
               if by_app else None)

    planned = []
    for key, point in misses:
        entry = timings.get(runner.point_digest(key))
        if entry is not None:
            est, source = float(entry["seconds"]), "measured"
        elif point.abbr in app_median:
            est, source = app_median[point.abbr], "app-median"
        elif overall is not None:
            est, source = overall, "suite-median"
        else:
            est, source = _DEFAULT_COST, "default"
        planned.append(PlannedPoint(key=key, point=point,
                                    est_seconds=est, source=source))

    groups: dict[tuple, list[PlannedPoint]] = {}
    for pp in planned:
        groups.setdefault(pp.point.group(), []).append(pp)
    for members in groups.values():
        members.sort(key=lambda pp: -pp.est_seconds)
    ordered = sorted(groups.values(),
                     key=lambda m: -sum(pp.est_seconds for pp in m))
    return [pp for members in ordered for pp in members]


def _run_serial(plan: list[PlannedPoint], reporter, results: dict,
                stats: SweepStats, cancel=None, events=None) -> None:
    """Run every miss in this process, in plan order."""
    memo = mcm.TRACE_MEMO
    reporter.update(stats.cached, running=1)
    for done, pp in enumerate(plan):
        if cancel is not None and cancel.is_set():
            raise SweepCancelled(
                f"sweep cancelled with {len(plan) - done} "
                f"misses outstanding")
        digest = runner.point_digest(pp.key)
        _emit(events, "point_start", digest=digest, app=pp.point.abbr)
        hits, memo_misses = memo.hits, memo.misses
        t0 = time.perf_counter()
        results[pp.key] = _run_inline(pp.point)
        seconds = time.perf_counter() - t0
        stats.point_seconds[pp.key] = seconds
        stats.memo_hits += memo.hits - hits
        stats.memo_misses += memo.misses - memo_misses
        _emit(events, "point_finish", digest=digest, app=pp.point.abbr,
              seconds=round(seconds, 4), stolen=False, worker=0)
        reporter.update(stats.cached + done + 1,
                        running=int(done + 1 < len(plan)))


# --------------------------------------------------------------------------
# Progress line
# --------------------------------------------------------------------------

class _Progress:
    """A single live status line on stderr: done / cached / running, ETA.

    The ETA multiplies the measured per-miss rate by the *misses still
    unfinished* only — cache hits are settled before the first update and
    never inflate it — divided by the workers currently running.  The
    callers emit a final update after the last miss completes, so the
    line reaches ``total/total`` instead of freezing one point short.

    ``observer`` (if given) receives every :meth:`snapshot` dict as it is
    produced, independent of the TTY line — this is what the job API
    streams back to polling clients, so the numbers a client sees are
    exactly the numbers the terminal line would show.
    """

    def __init__(self, total: int, cached: int, enabled: bool | None = None,
                 observer=None):
        self.total = total
        self.cached = cached
        self.enabled = sys.stderr.isatty() if enabled is None else enabled
        self.observer = observer
        self.start = time.perf_counter()
        self._drawn = False

    def snapshot(self, done: int, running: int) -> dict:
        """Point-in-time progress: done/cached/running counts plus ETA.

        No outstanding misses — an all-cached sweep's very first update,
        or any run's final one — is an honest ETA of 0, never ``inf`` or
        a division by zero; with misses left but none finished yet there
        is no rate to extrapolate from and the ETA stays ``None``.
        """
        simulated = max(0, done - self.cached)
        misses_left = max(0, self.total - done)
        if misses_left == 0:
            eta = 0.0
        elif simulated > 0:
            rate = (time.perf_counter() - self.start) / simulated
            eta = rate * misses_left / max(1, running)
        else:
            eta = None
        return {"total": self.total, "cached": self.cached, "done": done,
                "running": running, "eta_seconds": eta,
                "elapsed_seconds": time.perf_counter() - self.start}

    def update(self, done: int, running: int) -> None:
        snap = self.snapshot(done, running)
        if self.observer is not None:
            self.observer(snap)
        if not self.enabled or not self.total:
            return
        eta = ("" if snap["eta_seconds"] is None
               else f", ETA {snap['eta_seconds']:.0f}s")
        line = (f"[sweep] {done}/{self.total} points "
                f"({self.cached} cached, {running} running{eta})")
        sys.stderr.write("\r" + line.ljust(79))
        sys.stderr.flush()
        self._drawn = True

    def finish(self) -> None:
        if self._drawn:
            sys.stderr.write("\n")
            sys.stderr.flush()


# --------------------------------------------------------------------------
# The sweep entry point
# --------------------------------------------------------------------------

def sweep(points, jobs: int | None = None, progress: bool | None = None,
          dry_run: bool = False, observer=None,
          cancel: threading.Event | None = None,
          events=None) -> SweepOutcome:
    """Deduplicate ``points`` against the cache and schedule the misses.

    Returns results in submission order (duplicates each get the shared
    result).  ``jobs=None`` uses :func:`default_jobs`; ``progress=None``
    draws the live line only on a TTY.  ``dry_run=True`` plans without
    simulating — missing points come back as ``None`` with the cost-model
    schedule in ``outcome.plan``.  The misses run inline or through the
    claim queue, as the module docstring describes.

    ``observer`` receives every progress snapshot dict (see
    :meth:`_Progress.snapshot`) including a final one; ``cancel`` is a
    :class:`threading.Event` checked on point boundaries — once set, the
    run stops dispatching, lets in-flight points publish to the cache,
    records the timings of everything that finished, and raises
    :class:`SweepCancelled`.  Together they make a sweep drivable as a
    background job (:class:`SweepJob`, the service API).

    ``events`` is a callable receiving structured run-event dicts
    (``sweep_start``, ``point_cache_hit``, ``point_start``,
    ``point_finish``, ``sweep_cancelled``, ``sweep_finish`` — see
    ``docs/observability.md``); :class:`repro.obs.eventlog.RunEventLog`
    is the JSONL-persisting sink the service wires in.
    """
    points = list(points)
    if runner.is_collecting():
        # A collection pass is enumerating points — stay serial so the
        # runner records them; stubs come back immediately.
        results = [_run_inline(p) for p in points]
        return SweepOutcome(results, SweepStats(
            total=len(points), unique=len(points)))
    start = time.perf_counter()
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    keys = [p.key() for p in points]
    unique: dict[str, SweepPoint] = {}
    for key, point in zip(keys, points):
        unique.setdefault(key, point)
    results: dict[str, SimResult | None] = {}
    misses: list[tuple[str, SweepPoint]] = []
    hits: list[tuple[str, SweepPoint]] = []
    for key, point in unique.items():
        hit = runner.cached_result(point.config, point.abbr, point.scale,
                                   point.tag)
        if hit is None:
            misses.append((key, point))
        else:
            results[key] = hit
            hits.append((key, point))
    cached = len(results)
    stats = SweepStats(total=len(points), unique=len(unique), cached=cached)
    _emit(events, "sweep_start", total=stats.total, unique=stats.unique,
          cached=cached, misses=len(misses), dry_run=dry_run)
    for key, point in hits:
        _emit(events, "point_cache_hit",
              digest=runner.point_digest(key), app=point.abbr)
    plan: list[PlannedPoint] = []
    reporter = _Progress(len(unique), cached, enabled=progress,
                         observer=observer)
    if dry_run:
        plan = plan_misses(misses)
        for key, _ in misses:
            results[key] = None
    elif misses:
        width = _pool_width(jobs, len(misses))
        sweep_dir = None
        # A one-worker pool is strictly worse than running inline (same
        # order, plus process spawn and queue IO).  REPRO_DISTRIBUTED_LOCAL
        # keeps the queue even then: it sets the local helper count, and
        # 0 means remote workers the core count knows nothing about.
        if width > 1 or os.environ.get("REPRO_DISTRIBUTED_LOCAL", "").strip():
            # Imported here, not at module top: distributed.py imports
            # this module's plan/stats/progress machinery.
            from repro.experiments import distributed
            sweep_dir = distributed.create_sweep_dir()
        try:
            plan = plan_misses(misses)
            if sweep_dir is None:
                _run_serial(plan, reporter, results, stats,
                            cancel=cancel, events=events)
            else:
                stats.jobs = width
                distributed.DistributedBackend().run(
                    sweep_dir, plan, width, reporter, results, stats,
                    cancel=cancel, events=events)
            stats.simulated = len(stats.point_seconds)
        except SweepCancelled as exc:
            _emit(events, "sweep_cancelled", error=str(exc))
            metrics.METRICS.counter(
                "repro_sweeps_total", "sweep() calls by outcome").inc(
                outcome="cancelled")
            raise
        finally:
            # A cancelled run still banks the wall-times it measured —
            # the cost model should learn from every completed point.
            # Points a *remote* worker simulated (stats.point_hosts) are
            # skipped: that worker already recorded them under its own
            # host id, and re-recording here would misattribute its
            # measurement to this machine.
            this_host = runner.host_id()
            runner.record_timings(
                (pp.key, pp.point.abbr, stats.point_seconds[pp.key])
                for pp in plan
                if pp.key in stats.point_seconds
                and stats.point_hosts.get(pp.key, this_host) == this_host)
    reporter.finish()
    stats.elapsed = time.perf_counter() - start
    if observer is not None:
        # A completed run has settled every unique point — including the
        # ones a claim-queue worker found already cached, which add no
        # point_seconds.
        observer(reporter.snapshot(cached if dry_run else stats.unique,
                                   running=0))
    reg = metrics.METRICS
    if reg.enabled:
        pts = reg.counter("repro_sweep_points_total",
                          "sweep points by disposition")
        pts.inc(cached, status="cached")
        pts.inc(stats.simulated, status="simulated")
        if stats.steals:
            reg.counter("repro_sweep_steals_total",
                        "groups reclaimed from dead claim-queue "
                        "workers").inc(stats.steals)
        memo = reg.counter("repro_sweep_memo_total",
                           "CTA-trace memo lookups across sweep workers")
        if stats.memo_hits:
            memo.inc(stats.memo_hits, outcome="hit")
        if stats.memo_misses:
            memo.inc(stats.memo_misses, outcome="miss")
        secs = reg.histogram("repro_sweep_point_seconds",
                             "measured wall-time of each simulated point")
        for seconds in stats.point_seconds.values():
            secs.observe(seconds)
        reg.counter("repro_sweeps_total", "sweep() calls by outcome").inc(
            outcome="dry-run" if dry_run else "completed")
    _emit(events, "sweep_finish", total=stats.total, unique=stats.unique,
          cached=stats.cached, simulated=stats.simulated,
          steals=stats.steals, memo_hits=stats.memo_hits,
          memo_misses=stats.memo_misses, jobs=stats.jobs,
          elapsed=round(stats.elapsed, 4), dry_run=dry_run)
    return SweepOutcome([results[key] for key in keys], stats, plan)


def collect_points(fn, *args, **kwargs) -> list[SweepPoint]:
    """Every simulation point ``fn(*args, **kwargs)`` would run.

    Executes ``fn`` in the runner's collection mode: ``run_point`` and
    ``run_pair`` record their points and return stubs, so the pass is
    cheap (no simulation, no cache I/O).  ``fn``'s return value is
    discarded.
    """
    with runner.collecting() as sink:
        fn(*args, **kwargs)
    return [SweepPoint(config=config, app=app, scale=scale,
                       workload_tag=tag, pair_with=pair)
            for config, app, scale, tag, pair in sink]


def prewarm(fn, *args, jobs: int | None = None,
            progress: bool | None = None, **kwargs) -> SweepOutcome:
    """Fill the cache for everything ``fn(*args, **kwargs)`` will simulate.

    After this returns, calling ``fn`` for real is pure cache hits — used
    by the benchmark harness so the timed run measures simulation shape,
    not queueing.
    """
    return sweep(collect_points(fn, *args, **kwargs),
                 jobs=jobs, progress=progress)


# --------------------------------------------------------------------------
# Job handle (the service API's unit of work)
# --------------------------------------------------------------------------

class SweepJob:
    """A cancellable, resumable handle around one :func:`sweep` call.

    The service layer (``repro.service``) needs three things the bare
    function does not give it: a progress snapshot readable from another
    thread, cooperative cancellation, and the ability to *resume* a
    cancelled run.  ``SweepJob`` provides all three on top of the
    existing machinery:

    * progress comes from the sweep's ``observer`` hook — the same
      ``_Progress`` snapshots the terminal line draws;
    * :meth:`cancel` sets the event :func:`sweep` checks on point
      boundaries;
    * resume is free: finished points were cache-published before the
      cancel landed, so :meth:`run` (or :meth:`start`) called again
      serves them as hits and simulates only the remainder.

    ``run()`` executes in the calling thread (what the service's job
    executor uses); ``start()`` spawns a daemon thread for fire-and-forget
    use.  States: ``pending → running → completed | cancelled | failed``,
    with ``cancelled``/``failed`` restartable.
    """

    def __init__(self, points, jobs: int | None = None,
                 cancel_event: threading.Event | None = None,
                 events=None):
        self.points = list(points)
        self.jobs = jobs
        #: Structured run-event sink (see :func:`sweep`); progress
        #: snapshots are forwarded to it too, as ``progress`` events.
        self.events = events
        self.state = "pending"
        self.outcome: SweepOutcome | None = None
        self.error: str | None = None
        #: Sharable: a caller may pass its own event so an external
        #: cancel signal (e.g. the service's DELETE route) reaches the
        #: sweep directly.
        self._cancel = cancel_event if cancel_event is not None \
            else threading.Event()
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._progress: dict = {"total": len(self.points), "cached": 0,
                                "done": 0, "running": 0, "eta_seconds": None,
                                "elapsed_seconds": 0.0}

    def _observe(self, snap: dict) -> None:
        self._progress = snap
        if self.events is not None:
            try:
                self.events({"event": "progress", **snap})
            except Exception:
                pass    # a broken sink must never kill the sweep

    def run(self) -> SweepOutcome | None:
        """Execute (or resume) the sweep in the calling thread."""
        with self._lock:
            if self.state == "running":
                raise RuntimeError("SweepJob is already running")
            if self.state == "completed":
                return self.outcome
            if self.state in ("cancelled", "failed"):
                # Resuming: the old cancel request must not kill the rerun.
                self._cancel.clear()
            self.state = "running"
            self.error = None
        try:
            outcome = sweep(self.points, jobs=self.jobs, progress=False,
                            observer=self._observe, cancel=self._cancel,
                            events=self.events)
        except SweepCancelled as exc:
            with self._lock:
                self.state, self.error = "cancelled", str(exc)
            return None
        except Exception as exc:
            with self._lock:
                self.state, self.error = "failed", f"{type(exc).__name__}: {exc}"
            raise
        with self._lock:
            self.outcome, self.state = outcome, "completed"
        return outcome

    def start(self) -> threading.Thread:
        """Run in a background daemon thread; returns the thread."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                raise RuntimeError("SweepJob is already running")

        def _target():
            try:
                self.run()
            except Exception:
                pass    # recorded in self.error by run()

        self._thread = threading.Thread(target=_target, daemon=True,
                                        name="sweep-job")
        self._thread.start()
        return self._thread

    def cancel(self) -> None:
        """Request cancellation; the run stops at the next point boundary."""
        self._cancel.set()

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def snapshot(self) -> dict:
        """Thread-safe view: state, progress counters, error, stats."""
        with self._lock:
            snap = {"state": self.state, "progress": dict(self._progress),
                    "error": self.error}
            if self.outcome is not None:
                stats = self.outcome.stats
                snap["stats"] = {
                    "total": stats.total, "unique": stats.unique,
                    "cached": stats.cached, "simulated": stats.simulated,
                    "jobs": stats.jobs,
                    "elapsed": round(stats.elapsed, 4),
                    "memo_hits": stats.memo_hits,
                    "memo_misses": stats.memo_misses,
                    "steals": stats.steals,
                }
            return snap
