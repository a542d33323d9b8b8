"""Experiment runner: cached simulation of (config, app) points.

Every figure reproduces to a set of (config, app) simulation points, many of
which repeat across figures (the Table II baseline appears in almost every
one).  ``run_point`` therefore memoizes :class:`SimResult`s on disk, keyed
by the full configuration, the app, the trace scale, and a simulator-version
stamp — so a full benchmark sweep pays for each distinct point once.

The cache is safe under concurrent fill (the parallel sweep engine in
:mod:`repro.experiments.sweep` fans points out over worker processes):

* results are written to a temp file and atomically renamed into place, so
  a reader never sees a torn JSON payload;
* a per-key lockfile (``O_CREAT | O_EXCL``) makes sure two workers that
  race on the same point simulate it once — the loser waits and reads the
  winner's result.

Environment knobs (see docs/performance.md for the operations guide):

* ``REPRO_BENCH_SCALE`` — trace-scale multiplier (default 0.4); larger is
  slower but less noisy.
* ``REPRO_CACHE_DIR`` — cache location (default ``<repo>/.bench_cache``).
* ``REPRO_NO_CACHE=1`` — disable the cache entirely.
* ``REPRO_LOCK_STALE`` — seconds after which another worker's lockfile is
  presumed dead and stolen (default 1800).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import re
import socket
import statistics
import threading
import time
import warnings
from pathlib import Path
from typing import Callable

from repro.common import metrics
from repro.common.config import SimConfig
from repro.common.stats import Histogram, LatencyHistogram
from repro.gpu.mcm import McmGpuSimulator, SimResult
from repro.workloads.base import Workload
from repro.workloads.suite import get_workload

#: Bump when simulator semantics change, to invalidate cached results.
SIM_VERSION = "bc-2"

_RESULT_FIELDS = [f.name for f in dataclasses.fields(SimResult)
                  if f.name not in ("vpn_gaps", "translation_latency",
                                    "extra")]

#: Cache roots that turned out not to be writable (read-only checkout);
#: each warns once and then behaves like ``REPRO_NO_CACHE``.
_UNWRITABLE: set[str] = set()

#: Lockfile wait: capped exponential backoff, so a large fleet of losers
#: parked on one hot key doesn't hammer ``stat()`` on the shared cache
#: directory.  Starts fast (the common case is a near-finished winner) and
#: settles at the cap for long simulations.
_LOCK_POLL_INITIAL_S = 0.002
_LOCK_POLL_MAX_S = 0.25

#: Sidecar (under the cache root) of measured per-point wall-times, which
#: the sweep planner reads to order misses longest-first.
_TIMINGS_SIDECAR = Path("meta") / "timings.json"

#: Key-manifest sidecar directory: one small JSON file per cached point
#: (``meta/keys/<digest>.json``) recording the key's *components* —
#: sim version, app, scale, tag, canonical config JSON.  The cache
#: filename only carries a one-way digest, so this is what lets the
#: experiment explorer (:mod:`repro.obs`) decode a cache entry back into
#: (app, scheme, scale, SIM_VERSION) without re-deriving every possible
#: key.  One file per digest (atomic rename) — concurrent fills of
#: different points never contend, and re-fills are idempotent.
#: Payload bytes are untouched, so golden cache digests are unchanged.
_KEYS_SIDECAR = Path("meta") / "keys"


def bench_scale() -> float:
    """Trace scale used by the benchmark harness."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.4"))


def _lock_stale_s() -> float:
    return float(os.environ.get("REPRO_LOCK_STALE", "1800"))


def _cache_dir(create: bool = False) -> Path | None:
    """The cache root, or None when caching is off.

    The directory is only created when ``create=True`` (a write is about
    to happen) — merely *querying* the cache must work in a read-only
    checkout.  If creation fails, the cache degrades to ``REPRO_NO_CACHE``
    behaviour with a one-time warning per path.
    """
    if os.environ.get("REPRO_NO_CACHE"):
        return None
    path = Path(os.environ.get("REPRO_CACHE_DIR",
                               Path(__file__).resolve().parents[3]
                               / ".bench_cache"))
    if str(path) in _UNWRITABLE:
        return None
    if create and not path.is_dir():
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            _UNWRITABLE.add(str(path))
            warnings.warn(
                f"result cache {path} is not writable ({exc}); "
                "falling back to REPRO_NO_CACHE behaviour",
                RuntimeWarning, stacklevel=3)
            return None
    return path


def _config_key(config: SimConfig) -> str:
    def encode(value):
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return {f.name: encode(getattr(value, f.name))
                    for f in dataclasses.fields(value)}
        if hasattr(value, "value"):
            return value.value
        return value

    return json.dumps(encode(config), sort_keys=True)


def point_key(config: SimConfig, abbr: str, scale: float,
              workload_tag: str = "") -> str:
    """The canonical cache key of one simulation point.

    Identical in every process — it is what makes a worker-pool fill
    land on the same file a serial ``run_point`` would use.  The config
    enters as its canonical JSON (every field, sorted keys), so any
    setting that can change a result changes the key.
    """
    return "|".join([SIM_VERSION, _config_key(config), abbr,
                     f"{scale:.4f}", workload_tag])


def point_digest(key: str) -> str:
    """Short stable digest of a point key (cache filenames, sidecar keys)."""
    return hashlib.sha256(key.encode()).hexdigest()[:24]


#: Shape of a :func:`point_digest` value — 24 lowercase hex chars.  The
#: service's ``GET /results/{key}`` route validates against this before
#: touching the filesystem.
DIGEST_RE = re.compile(r"^[0-9a-f]{24}$")


def result_path_by_digest(digest: str) -> Path | None:
    """Locate a cache file by its point digest alone.

    The service's result route hands out digests (not full point keys —
    those embed the whole config JSON), so fetching a result means finding
    the one ``<app>-<digest>.json`` file that carries it.  Returns None
    when caching is off, the digest is malformed, or no such point has
    been published.
    """
    root = _cache_dir()
    if root is None or not DIGEST_RE.match(digest):
        return None
    matches = sorted(root.glob(f"*-{digest}.json"))
    return matches[0] if matches else None


def _point_path(config: SimConfig, app: str, scale: float,
                workload_tag: str) -> Path | None:
    root = _cache_dir()
    if root is None:
        return None
    digest = point_digest(point_key(config, app, scale, workload_tag))
    return root / f"{app.replace('+', '_')}-{digest}.json"


def point_path(config: SimConfig, app: str | Workload,
               scale: float | None = None,
               workload_tag: str = "") -> Path | None:
    """Canonical cache file of a point, or None when caching is off.

    The sweep engine's thin wire protocol checks this after a worker
    simulates: when the file exists the worker ships only the key and its
    timing, and the parent loads the result from disk.
    """
    scale = bench_scale() if scale is None else scale
    abbr = app if isinstance(app, str) else app.abbr
    return _point_path(config, abbr, scale, workload_tag)


def _serialize(result: SimResult) -> dict:
    payload = {name: getattr(result, name) for name in _RESULT_FIELDS}
    payload["vpn_gaps"] = {str(k): v for k, v in result.vpn_gaps.buckets.items()}
    payload["translation_latency"] = result.translation_latency.as_dict()
    return payload


def _deserialize(payload: dict) -> SimResult:
    gaps = Histogram()
    for key, value in payload.pop("vpn_gaps", {}).items():
        gaps.buckets[int(key)] = value
    # Results cached before the latency histogram existed deserialize to an
    # empty histogram (the scalar fields are unchanged, so the key is too).
    latency = LatencyHistogram.from_dict(payload.pop("translation_latency",
                                                     None))
    return SimResult(vpn_gaps=gaps, translation_latency=latency, **payload)


def _load(path: Path) -> SimResult:
    return _deserialize(json.loads(path.read_text()))


def _atomic_write(path: Path, result: SimResult) -> None:
    """Write-to-temp + rename: a concurrent reader never sees a torn file."""
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(_serialize(result)))
    os.replace(tmp, path)


def key_manifest_path(digest: str) -> Path | None:
    """Where a point digest's key manifest lives (None when caching is off)."""
    root = _cache_dir()
    if root is None:
        return None
    return root / _KEYS_SIDECAR / f"{digest}.json"


def _write_key_manifest(path: Path, config: SimConfig, abbr: str,
                        scale: float, tag: str) -> None:
    """Record a fill's key components next to the cache (best-effort).

    Called only when a result was actually published, so hit paths pay
    nothing.  Atomic per-digest files, no merge step — concurrent sweeps
    cannot lose each other's entries the way a read-merge-replace
    sidecar could.
    """
    digest = path.stem.rsplit("-", 1)[-1]
    manifest = key_manifest_path(digest)
    if manifest is None:
        return
    payload = {"sim_version": SIM_VERSION, "app": abbr,
               "scale": scale, "tag": tag, "file": path.name,
               "config": _config_key(config)}
    try:
        manifest.parent.mkdir(parents=True, exist_ok=True)
        tmp = manifest.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, manifest)
    except OSError:
        pass    # the manifest is a catalog hint, never a source of truth


def load_key_manifest(digest: str) -> dict | None:
    """The recorded key components of one cached point, or None.

    Entries filled before the manifest existed (or through a read-only
    cache) are legitimately absent — the explorer's catalog falls back
    to the payload's own ``app``/``backend`` fields for those.
    """
    manifest = key_manifest_path(digest)
    if manifest is None:
        return None
    try:
        payload = json.loads(manifest.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def _fill_point(path: Path | None, compute: Callable[[], SimResult],
                key_meta: Callable[[], tuple] | None = None) -> SimResult:
    """Return the cached result at ``path``, filling it under a lockfile.

    Concurrency protocol (cache-stampede safety):

    1. cache hit → load and return;
    2. try to create ``<path>.lock`` with ``O_CREAT | O_EXCL`` — exactly one
       worker per key wins;
    3. the winner re-checks the cache (it may have been filled while racing
       for the lock), simulates, atomically publishes, removes the lock;
    4. losers wait with capped exponential backoff until the lock
       disappears, then read the winner's file.  A lock older than
       ``REPRO_LOCK_STALE`` seconds with no result is presumed to belong
       to a crashed worker and is stolen.

    ``key_meta`` (a lazy ``() -> (config, abbr, scale, tag)``) lets the
    winner record the point's key components in the catalog manifest
    after publishing; it is never invoked on a hit.
    """
    m = metrics.METRICS
    if path is None:
        m.counter("repro_simulations_total",
                  "simulation points actually computed").inc()
        return compute()
    if path.exists():
        m.counter("repro_cache_requests_total",
                  "point lookups through the fill path").inc(outcome="hit")
        return _load(path)
    m.counter("repro_cache_requests_total",
              "point lookups through the fill path").inc(outcome="miss")
    if _cache_dir(create=True) is None:   # cache dir vanished / read-only
        m.counter("repro_simulations_total",
                  "simulation points actually computed").inc()
        return compute()
    lock = path.with_suffix(".lock")
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            m.counter("repro_cache_lock_waits_total",
                      "lockfile collisions (another worker owns the "
                      "fill)").inc()
            wait_start = time.perf_counter()
            delay = _LOCK_POLL_INITIAL_S
            while lock.exists() and not path.exists():
                with contextlib.suppress(FileNotFoundError):
                    if time.time() - lock.stat().st_mtime > _lock_stale_s():
                        lock.unlink(missing_ok=True)
                        break
                time.sleep(delay)
                delay = min(delay * 2, _LOCK_POLL_MAX_S)
            m.histogram("repro_cache_lock_wait_seconds",
                        "time spent parked on another worker's "
                        "lockfile").observe(time.perf_counter() - wait_start)
            if path.exists():
                return _load(path)
            continue  # lock released or stolen but no result: try to acquire
        os.close(fd)
        try:
            if path.exists():  # filled while we raced for the lock
                return _load(path)
            fill_start = time.perf_counter()
            result = compute()
            _atomic_write(path, result)
            m.counter("repro_simulations_total",
                      "simulation points actually computed").inc()
            m.histogram("repro_cache_fill_seconds",
                        "wall time to simulate and publish a cache "
                        "miss").observe(time.perf_counter() - fill_start)
            if key_meta is not None:
                _write_key_manifest(path, *key_meta())
            return result
        finally:
            lock.unlink(missing_ok=True)


# --------------------------------------------------------------------------
# Cost-model sidecar: measured per-point wall-times
# --------------------------------------------------------------------------

def host_id() -> str:
    """Stable identity of this machine for per-host cost measurements.

    ``REPRO_HOST_ID`` overrides (two containers on one box, or a stable
    name across DHCP renames); the default is the hostname.
    """
    env = os.environ.get("REPRO_HOST_ID", "").strip()
    if env:
        return env
    return socket.gethostname() or "localhost"


#: Sidecar paths we already warned about being corrupt, so a sweep that
#: calls :func:`load_timings` once per plan doesn't repeat itself.
_WARNED_TIMINGS: set[str] = set()


def load_timings() -> dict[str, dict]:
    """The wall-time sidecar: ``point_digest -> {"app", "seconds", ...}``.

    Entries may carry a ``"hosts"`` submap (``host_id -> seconds``) when
    measurements came from distributed workers; ``"seconds"`` is always
    present and is what the cost model reads.  Returns {} when caching is
    off or nothing has been recorded.  A corrupt or truncated sidecar
    (torn write from a crashed process, disk-full half-file) degrades to
    {} — unordered-but-correct scheduling — with a one-time structured
    warning and a metrics count rather than silence.
    """
    root = _cache_dir()
    if root is None:
        return {}
    path = root / _TIMINGS_SIDECAR
    try:
        text = path.read_text()
    except OSError:
        return {}    # never recorded: the normal cold-cache case
    try:
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"expected a JSON object, got "
                             f"{type(payload).__name__}")
    except (json.JSONDecodeError, ValueError) as exc:
        metrics.METRICS.counter(
            "repro_timings_sidecar_errors_total",
            "corrupt/truncated timings sidecar reads (degraded to "
            "unordered scheduling)").inc()
        if str(path) not in _WARNED_TIMINGS:
            _WARNED_TIMINGS.add(str(path))
            warnings.warn(
                f"timings sidecar {path} is corrupt ({exc}); ignoring it — "
                f"sweep scheduling degrades to unordered until the next "
                f"completed sweep rewrites it",
                RuntimeWarning, stacklevel=2)
        return {}
    return payload


def record_timings(entries, host: str | None = None) -> None:
    """Merge measured ``(key, abbr, seconds)`` wall-times into the sidecar.

    Each measurement is attributed to a machine (``host``, defaulting to
    this one's :func:`host_id`): the entry keeps a ``hosts`` submap of
    per-host measurements, and ``"seconds"`` — what the cost model reads —
    is the median across hosts, so LPT ordering plans against a
    typical-host cost even when a distributed fleet mixes fast and slow
    machines.  Entries written before the submap existed merge cleanly
    (their unattributed seconds are superseded by the first attributed
    measurement).

    Read-merge-replace with an atomic rename: concurrent sweeps can lose
    each other's updates (last write wins) but never corrupt the file —
    the sidecar is a scheduling hint, not a source of truth.
    """
    entries = list(entries)
    if not entries or _cache_dir(create=True) is None:
        return
    host = host or host_id()
    root = _cache_dir()
    path = root / _TIMINGS_SIDECAR
    merged = load_timings()
    for key, abbr, seconds in entries:
        digest = point_digest(key)
        entry = merged.get(digest)
        hosts = dict(entry.get("hosts", {})) if isinstance(entry, dict) else {}
        hosts[host] = round(float(seconds), 4)
        merged[digest] = {"app": abbr,
                          "seconds": round(statistics.median(hosts.values()),
                                           4),
                          "hosts": hosts}
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(merged, sort_keys=True))
        os.replace(tmp, path)
    except OSError:
        pass  # a read-only cache degrades to unordered scheduling


# --------------------------------------------------------------------------
# Point collection (prewarm support for the sweep engine)
# --------------------------------------------------------------------------

#: When a thread's ``sink`` is not None, ``run_point``/``run_pair`` record
#: their would-be points there and return a cheap stub instead of
#: simulating.  The sweep engine uses this to discover a figure's full
#: point-set up front.  Thread-local, so a service thread enumerating one
#: job's points can never leak stubs into another thread's real
#: simulation (the job API collects and evaluates on different threads
#: concurrently).
_COLLECT = threading.local()


def _collect_sink() -> list | None:
    return getattr(_COLLECT, "sink", None)


@contextlib.contextmanager
def collecting():
    """Record (config, app, scale, tag, pair) tuples instead of simulating.

    Yields the sink list.  Used by :func:`repro.experiments.sweep.collect_points`
    to enumerate every simulation point an experiment function would run.
    Collection mode is per-thread (see :data:`_COLLECT`).
    """
    prev, _COLLECT.sink = _collect_sink(), []
    try:
        yield _COLLECT.sink
    finally:
        _COLLECT.sink = prev


def is_collecting() -> bool:
    return _collect_sink() is not None


def _stub_result(app: str) -> SimResult:
    """A benign placeholder returned while collecting points.

    Every derived metric must be computable without dividing by zero, so
    experiment functions can run end-to-end during a collection pass.
    """
    gaps = Histogram()
    gaps.add(0)
    return SimResult(app=app, backend="stub", cycles=1, instructions=1000.0,
                     l2_misses=0, l2_lookups=0, ats_requests=0,
                     pcie_packets=0, mesh_packets=0, walks=0, pec_coalesced=0,
                     mean_ats_time=0.0, remote_data_fraction=0.0,
                     vpn_gaps=gaps)


# --------------------------------------------------------------------------
# Public runners
# --------------------------------------------------------------------------

def cached_result(config: SimConfig, app: str | Workload,
                  scale: float | None = None,
                  workload_tag: str = "") -> SimResult | None:
    """The cached :class:`SimResult` for a point, or None.  Never simulates."""
    scale = bench_scale() if scale is None else scale
    abbr = app if isinstance(app, str) else app.abbr
    path = _point_path(config, abbr, scale, workload_tag)
    if path is not None and path.exists():
        metrics.METRICS.counter(
            "repro_cache_probe_total",
            "read-only cache probes (sweep dedupe)").inc(outcome="hit")
        return _load(path)
    metrics.METRICS.counter(
        "repro_cache_probe_total",
        "read-only cache probes (sweep dedupe)").inc(outcome="miss")
    return None


def store_point(config: SimConfig, app: str | Workload, result: SimResult,
                scale: float | None = None,
                workload_tag: str = "") -> Path | None:
    """Publish a result at a point's canonical cache path.

    Used by ``repro trace``: a traced run simulates the exact same event
    sequence as an untraced one, so its result is a valid cache fill for
    the standard key.  Returns the published path, or None when caching
    is off.
    """
    scale = bench_scale() if scale is None else scale
    abbr = app if isinstance(app, str) else app.abbr
    path = _point_path(config, abbr, scale, workload_tag)
    if path is None or _cache_dir(create=True) is None:
        return None
    _atomic_write(path, result)
    _write_key_manifest(path, config, abbr, scale, workload_tag)
    return path


def _simulate(config: SimConfig, workloads: list[Workload],
              scale: float) -> SimResult:
    """Run one simulation and reclaim the simulator before returning.

    A finished :class:`McmGpuSimulator` is one large reference cycle
    (components call back into each other), so only a full cyclic
    collection frees it.  Without one here, a process that runs point
    after point holds several dead simulators at once, and its peak RSS
    depends on when the collector happens to run.
    """
    result = McmGpuSimulator(config, workloads, trace_scale=scale).run()
    gc.collect()
    return result


def run_point(config: SimConfig, app: str | Workload,
              scale: float | None = None,
              workload_tag: str = "") -> SimResult:
    """Simulate one (config, app) point, via the disk cache when possible.

    ``app`` is a Table I abbreviation or a pre-built :class:`Workload`
    (pass ``workload_tag`` to make cache keys of modified workloads unique,
    e.g. ``"x16"`` for Fig 24's scaled inputs).  The config is keyed and
    simulated exactly as given; only ``scale`` falls back to the
    environment (``REPRO_BENCH_SCALE``) when omitted.
    """
    scale = bench_scale() if scale is None else scale
    sink = _collect_sink()
    if sink is not None:
        abbr = app if isinstance(app, str) else app.abbr
        sink.append((config, app, scale, workload_tag, None))
        return _stub_result(abbr)
    workload = get_workload(app) if isinstance(app, str) else app
    path = _point_path(config, workload.abbr, scale, workload_tag)
    return _fill_point(
        path,
        lambda: _simulate(config, [workload], scale),
        key_meta=lambda: (config, workload.abbr, scale, workload_tag))


def run_pair(config: SimConfig, app_a: str, app_b: str,
             scale: float | None = None) -> SimResult:
    """Multi-programming point: two apps co-scheduled (Section VII-I).

    ``app_b`` runs as PASID 1 next to ``app_a``; the point is cached under
    ``app_a`` with the workload tag ``pair-<app_b>``.
    """
    scale = bench_scale() if scale is None else scale
    sink = _collect_sink()
    if sink is not None:
        sink.append((config, app_a, scale, "", app_b))
        return _stub_result(app_a)

    def compute() -> SimResult:
        first = get_workload(app_a)
        second = get_workload(app_b)
        second.pasid = 1
        return _simulate(config, [first, second], scale)

    path = _point_path(config, app_a, scale, f"pair-{app_b}")
    return _fill_point(path, compute,
                       key_meta=lambda: (config, app_a, scale,
                                         f"pair-{app_b}"))


def suite_results(config: SimConfig, apps: list[str],
                  scale: float | None = None) -> dict[str, SimResult]:
    """Run one configuration across a list of apps — as one parallel batch.

    Cache misses fan out over the sweep engine's worker pool (worker count
    from ``REPRO_JOBS``); hits are served straight from disk.
    """
    from repro.experiments.sweep import SweepPoint, sweep
    outcome = sweep([SweepPoint(config, app, scale) for app in apps])
    return dict(zip(apps, outcome.results))


def speedups(variant: dict[str, SimResult],
             baseline: dict[str, SimResult]) -> dict[str, float]:
    """Per-app speedup of ``variant`` over ``baseline``."""
    return {app: variant[app].speedup_over(baseline[app])
            for app in variant if app in baseline}
