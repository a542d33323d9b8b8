"""One repetition of a benchmark workload, in a fresh Python process.

``run.py`` starts this script once per repetition, from the checkout root,
with ``PYTHONPATH=src`` and an environment whose only ``REPRO_*`` variable
is a fresh ``REPRO_CACHE_DIR``.  It writes one JSON document to ``--out``:
provenance, timings, and a digest and sanity verdict per simulated point.

Untraced, it runs the workload once and reports ``setup_s`` (entry to the
first simulating call) and ``wall_s`` (first point started to last result
checked).  With ``--traced`` it runs the workload again with spans around
the calls into each layer, and again under cProfile, and reports the
per-layer metrics; the three passes must produce identical digests.
"""

from __future__ import annotations

import time

T_ENTRY = time.perf_counter()  # setup_s starts here, before any import

import argparse  # noqa: E402
import cProfile  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402  (perfbench/ is sys.path[0] when run as a script)

ENV_AT_ENTRY = sorted(k for k in os.environ if k.startswith("REPRO_"))


class Spans:
    """In-memory spans: name, start, end, parent span and point label."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, point: str | None = None):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if point is None and parent is not None:
            point = self.records[parent]["point"]
        record = {"id": len(self.records), "name": name, "parent": parent,
                  "point": point, "start": time.perf_counter()}
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name)


@contextmanager
def layer_spans(spans: Spans):
    """Span the trace-generation and allocation calls inside simulator
    construction, by wrapping the module functions ``McmGpuSimulator``
    calls; restored on exit."""
    from repro.gpu import mcm
    wrapped = {"build_cta_traces": "workloads.trace",
               "build_driver": "mapping.alloc",
               "allocate_workloads": "mapping.alloc"}
    originals = {attr: getattr(mcm, attr) for attr in wrapped}

    def timed(fn, name):
        def call(*args, **kwargs):
            with spans.span(name):
                return fn(*args, **kwargs)
        return call

    for attr, name in wrapped.items():
        setattr(mcm, attr, timed(originals[attr], name))
    try:
        yield
    finally:
        for attr, fn in originals.items():
            setattr(mcm, attr, fn)


def digest(result) -> str:
    """SHA-256 of the result's cache payload (as the golden tests pin it)."""
    from repro.experiments.runner import _serialize
    return hashlib.sha256(json.dumps(_serialize(result)).encode()).hexdigest()


def sanity(result, app: str) -> str | None:
    """What holds for any point at any seed; None when it all holds."""
    if result.app != app:
        return f"result is for app {result.app!r}, expected {app!r}"
    if result.cycles <= 0 or result.instructions <= 0:
        return "result has no cycles or no instructions"
    return None


def entry(label: str, result, app: str) -> dict:
    return {"label": label, "digest": digest(result),
            "error": sanity(result, app)}


def failed_entry(label: str, exc: Exception) -> dict:
    return {"label": label, "digest": None,
            "error": f"{type(exc).__name__}: {exc}"}


# --------------------------------------------------------------------------
# Point construction
# --------------------------------------------------------------------------

def inprocess_points(workload: dict, seed: int) -> list[tuple]:
    """(label, config, Workload) for an in-process workload."""
    from repro.experiments import configs
    from repro.workloads.suite import get_workload
    config = getattr(configs, workload["scheme"])().replace(seed=seed)
    return [(f"{workload['scheme']}/{app}", config, get_workload(app))
            for app in workload["apps"]]


def figure_points(scale: float, seed: int) -> list[tuple]:
    """(label, SweepPoint) for Fig 15's full point set at ``seed``.

    The points come from the figure's own collection pass; each is
    labelled with its series by matching its config against the
    ``configs`` factories in :data:`spec.FIG15_SCHEMES`.
    """
    from repro.experiments import configs, figures
    sweep_mod = importlib.import_module("repro.experiments.sweep")
    schemes = [(name, getattr(configs, factory)(**kwargs))
               for name, factory, kwargs in spec.FIG15_SCHEMES]
    labelled = []
    for point in sweep_mod.collect_points(figures.fig15_overall,
                                          scale=scale):
        name = next((n for n, cfg in schemes if cfg == point.config), None)
        if name is None:
            raise RuntimeError(f"Fig 15 collected a point of no known "
                               f"scheme: {point.config}")
        labelled.append((f"{name}/{point.abbr}", dataclasses.replace(
            point, config=point.config.replace(seed=seed))))
    expected = len(spec.FIG15_SCHEMES) * len({p.abbr for _, p in labelled})
    if len(labelled) != expected:
        raise RuntimeError(f"Fig 15 collected {len(labelled)} points, "
                           f"expected {expected}")
    return labelled


def count_accesses(apps, seed: int, scale: float) -> int:
    """Accesses in the generated traces of ``apps`` (one trace per app)."""
    from repro.gpu.mcm import build_cta_traces
    from repro.workloads.suite import get_workload
    return sum(len(cta) for app in apps
               for cta in build_cta_traces([get_workload(app)], seed,
                                           scale)[0])


# --------------------------------------------------------------------------
# Passes
# --------------------------------------------------------------------------

def simulate(points, scale: float, spans: Spans) -> tuple[list, list, int]:
    """Run every point in-process.

    Returns an entry and a result per point (None where it raised) and
    the events fired in total.
    """
    from repro.gpu.mcm import McmGpuSimulator
    entries, results, fired = [], [], 0
    for label, config, workload in points:
        with spans.span("point", label):
            try:
                with spans.span("mcm.build"):
                    sim = McmGpuSimulator(config, [workload],
                                          trace_scale=scale)
                with spans.span("mcm.run"):
                    result = sim.run()
            except Exception as exc:  # a failed point, not a failed run
                entries.append(failed_entry(label, exc))
                results.append(None)
                continue
            fired += sim.queue.events_fired
            results.append(result)
            entries.append(entry(label, result, workload.abbr))
    return entries, results, fired


def fig15_rollup(labelled, results) -> tuple[dict, list[str]]:
    """Fig 15's means, and every ordering check that fails.

    The checks are ``benchmarks/bench_fig15_overall.py``'s assertions.
    """
    from repro.common.stats import geomean
    from repro.experiments.runner import speedups
    by_scheme: dict[str, dict] = {}
    for (label, point), result in zip(labelled, results):
        if result is None:
            return {}, [f"no result for {label}"]
        by_scheme.setdefault(label.split("/")[0], {})[point.abbr] = result
    base = by_scheme.pop("Baseline")
    m = {name: geomean(list(speedups(variant, base).values()))
         for name, variant in by_scheme.items()}
    checks = {
        "Barre > Valkyrie": m["Barre"] > m["Valkyrie"],
        "Barre > Least": m["Barre"] > m["Least"],
        "F-Barre-NoMerge > Barre": m["F-Barre-NoMerge"] > m["Barre"],
        "F-Barre-2Merge > F-Barre-NoMerge":
            m["F-Barre-2Merge"] > m["F-Barre-NoMerge"],
        "F-Barre-4Merge > F-Barre-2Merge":
            m["F-Barre-4Merge"] > m["F-Barre-2Merge"],
        "F-Barre-NoMerge / Least > 1.15":
            m["F-Barre-NoMerge"] / m["Least"] > 1.15,
    }
    return m, [name for name, ok in checks.items() if not ok]


def sweep_figure(labelled, jobs: int, spans: Spans) -> dict:
    """Cold sweep of the figure's points, then its roll-up from the cache."""
    sweep_mod = importlib.import_module("repro.experiments.sweep")
    points = [p for _, p in labelled]
    with spans.span("sweep.fill"):
        cold = sweep_mod.sweep(points, jobs=jobs, progress=False)
    with spans.span("runner.warm_eval"):
        warm = sweep_mod.sweep(points, jobs=jobs, progress=False)
        entries = [entry(label, result, point.abbr) if result is not None
                   else failed_entry(label, RuntimeError("no result"))
                   for (label, point), result in zip(labelled, warm.results)]
        means, failed_checks = fig15_rollup(labelled, warm.results)
    if warm.stats.simulated:
        failed_checks.append(f"roll-up re-simulated {warm.stats.simulated} "
                             f"points from a warm cache")
    return {"entries": entries, "results": warm.results, "cold": cold.stats,
            "means": means, "failed_checks": failed_checks}


def profile_layers(fn) -> tuple[object, dict]:
    """Run ``fn`` under cProfile; self-time share and calls per layer."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        out = fn()
    finally:
        profiler.disable()
    self_time = dict.fromkeys(spec.LAYERS, 0.0)
    calls = dict.fromkeys(spec.LAYERS, 0)
    total = 0.0
    for (filename, _, _), (_, ncalls, tottime, _, _) in \
            pstats.Stats(profiler).stats.items():
        total += tottime
        layer = layer_of(filename)
        if layer is not None:
            self_time[layer] += tottime
            calls[layer] += ncalls
    layers = {}
    for layer in spec.LAYERS:
        layers[f"{layer}.self_share"] = self_time[layer] / total
        layers[f"{layer}.calls"] = calls[layer]
    return out, layers


def layer_of(filename: str) -> str | None:
    path = filename.replace(os.sep, "/")
    if "/repro/" not in path:
        return None
    rel = path.rsplit("/repro/", 1)[1]
    for layer, fragments in spec.LAYERS.items():
        if any(rel == f or (f.endswith("/") and rel.startswith(f))
               for f in fragments):
            return layer
    return None


def result_counters(results) -> dict:
    """Simulated counts summed over the points: they must repeat exactly."""
    results = [r for r in results if r is not None]

    def total(name):
        return sum(getattr(r, name) for r in results)
    lookups, misses = total("l2_lookups"), total("l2_misses")
    walks, pec = total("walks"), total("pec_coalesced")
    lcf, lcf_fp = total("lcf_hits"), total("lcf_false_positives")
    remote, remote_hits = total("remote_attempts"), total("remote_hits")
    return {
        "memsim.l2_lookups": lookups,
        "memsim.l2_hit_ratio": 1.0 - misses / lookups if lookups else 0.0,
        "memsim.pcie_packets": total("pcie_packets"),
        "memsim.mesh_packets": total("mesh_packets"),
        "iommu.ats_requests": total("ats_requests"),
        "iommu.walks": walks,
        "iommu.pec_coalesced": pec,
        "iommu.coalesced_fraction": pec / (pec + walks) if pec + walks
        else 0.0,
        "filters.lcf_hits": lcf,
        "filters.lcf_true_positive_rate": 1.0 - lcf_fp / lcf if lcf else 0.0,
        "core.remote_attempts": remote,
        "core.remote_hit_rate": remote_hits / remote if remote else 0.0,
        "gpu.sim_cycles": total("cycles"),
    }


def sweep_counters(stats, jobs: int, fill_s: float) -> dict:
    memo = stats.memo_hits + stats.memo_misses
    busy = sum(stats.point_seconds.values())
    return {
        "sweep.steals": stats.steals,
        "sweep.memo_hit_ratio": stats.memo_hits / memo if memo else 0.0,
        "sweep.worker_busy_frac": busy / (jobs * fill_s) if fill_s else 0.0,
        "sweep.duplicate_sims":
            stats.simulated - (stats.unique - stats.cached),
    }


def replay_layers(points, scale: float,
                  spans: Spans) -> tuple[dict, list, float]:
    """Span pass and cProfile pass over in-process ``points``.

    Returns the per-layer metrics, the entries of both passes and the span
    pass's wall time.  The trace memo is cleared before each pass, as in a
    fresh process.
    """
    from repro.gpu import mcm
    mcm.TRACE_MEMO.clear()
    start = time.perf_counter()
    with layer_spans(spans):
        traced, _, fired = simulate(points(), scale, spans)
    span_wall = time.perf_counter() - start
    mcm.TRACE_MEMO.clear()
    start = time.perf_counter()
    (profiled, _, _), layers = profile_layers(
        lambda: simulate(points(), scale, Spans(enabled=False)))
    profile_wall = time.perf_counter() - start
    run_s = spans.total("mcm.run")
    layers.update({
        "mcm.build_s": spans.total("mcm.build"),
        "mcm.run_s": run_s,
        "workloads.trace_s": spans.total("workloads.trace"),
        "mapping.alloc_s": spans.total("mapping.alloc"),
        "events.fired": fired,
        "events.host_us_per_event": run_s / fired * 1e6 if fired else 0.0,
        "trace.profile_inflation": profile_wall / span_wall,
    })
    return layers, traced + profiled, span_wall


def cache_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# --------------------------------------------------------------------------
# Repetitions
# --------------------------------------------------------------------------

def inprocess_rep(workload: dict, seed: int, scale: float,
                  traced: bool) -> dict:
    points = inprocess_points(workload, seed)
    setup_s = time.perf_counter() - T_ENTRY
    start = time.perf_counter()
    entries, results, _ = simulate(points, scale, Spans(enabled=False))
    wall_s = time.perf_counter() - start
    doc = {"setup_s": setup_s, "wall_s": wall_s, "entries": entries,
           "accesses": count_accesses(workload["apps"], seed, scale)}
    if not traced:
        return doc
    spans = Spans()
    layers, replayed, span_wall = replay_layers(
        lambda: inprocess_points(workload, seed), scale, spans)
    layers.update(result_counters(results))
    layers["trace.overhead_ratio"] = span_wall / wall_s
    probe, failed_checks = cache_probe(points, results, scale, spans)
    layers.update(probe)
    doc.update(layers=layers, replayed=replayed, spans=spans.records,
               failed_checks=failed_checks)
    return doc


def cache_probe(points, results, scale: float,
                spans: Spans) -> tuple[dict, list[str]]:
    """The experiments layer on this workload's results: build the sweep
    points, fill the cache with the results, read them back via sweep().

    Returns the sweep and runner metrics and the checks that failed.
    """
    from repro.experiments import runner
    sweep_mod = importlib.import_module("repro.experiments.sweep")
    kept = [i for i, r in enumerate(results) if r is not None]
    points = [points[i] for i in kept]
    results = [results[i] for i in kept]
    with spans.span("sweep.collect"):
        sweep_points = [sweep_mod.SweepPoint(config, workload.abbr, scale)
                        for _, config, workload in points]
        for p in sweep_points:
            p.key()
    with spans.span("sweep.fill"):
        for (_, config, workload), result in zip(points, results):
            runner.store_point(config, workload.abbr, result, scale)
    with spans.span("runner.warm_eval"):
        warm = sweep_mod.sweep(sweep_points, jobs=1, progress=False)
    failed_checks = []
    if [digest(r) for r in warm.results] != [digest(r) for r in results]:
        failed_checks.append("results read back from the cache differ from "
                             "the simulated ones")
    layers = sweep_counters(warm.stats, 1, spans.total("sweep.fill"))
    layers.update({
        "sweep.collect_s": spans.total("sweep.collect"),
        "sweep.fill_s": spans.total("sweep.fill"),
        "runner.warm_eval_s": spans.total("runner.warm_eval"),
        "runner.cache_bytes": cache_bytes(Path(os.environ["REPRO_CACHE_DIR"])),
    })
    return layers, failed_checks


def figure_rep(workload: dict, seed: int, scale: float,
               traced: bool) -> dict:
    cache_root = Path(os.environ["REPRO_CACHE_DIR"])
    os.environ["REPRO_CACHE_DIR"] = str(cache_root / "untraced")
    labelled = figure_points(scale, seed)
    setup_s = time.perf_counter() - T_ENTRY
    start = time.perf_counter()
    out = sweep_figure(labelled, workload["jobs"], Spans(enabled=False))
    wall_s = time.perf_counter() - start
    apps = sorted({p.abbr for _, p in labelled})
    doc = {"setup_s": setup_s, "wall_s": wall_s, "entries": out["entries"],
           "means": out["means"], "failed_checks": out["failed_checks"],
           "accesses": len(spec.FIG15_SCHEMES)
           * count_accesses(apps, seed, scale)}
    if not traced:
        return doc
    # Sweep workers fork from this process: start them with the cold
    # trace memo the untraced sweep's workers had.
    importlib.import_module("repro.gpu.mcm").TRACE_MEMO.clear()

    spans = Spans()
    os.environ["REPRO_CACHE_DIR"] = str(cache_root / "traced")
    with spans.span("sweep.collect"):
        labelled = figure_points(scale, seed)
    start = time.perf_counter()
    traced_out = sweep_figure(labelled, workload["jobs"], spans)
    traced_wall = time.perf_counter() - start
    fill_s = spans.total("sweep.fill")

    replay_apps = [p.abbr for _, p in labelled[:workload["replay_apps"]]]

    def replay_points():
        from repro.workloads.suite import get_workload
        return [(label, p.config, get_workload(p.abbr))
                for label, p in labelled if p.abbr in replay_apps]

    layers, replayed, _ = replay_layers(replay_points, scale, spans)
    layers.update(result_counters(out["results"]))
    layers.update(sweep_counters(traced_out["cold"], workload["jobs"],
                                 fill_s))
    layers.update({
        "sweep.collect_s": spans.total("sweep.collect"),
        "sweep.fill_s": fill_s,
        "runner.warm_eval_s": spans.total("runner.warm_eval"),
        "runner.cache_bytes": cache_bytes(cache_root / "traced"),
        "trace.overhead_ratio": traced_wall / wall_s,
    })
    doc.update(layers=layers, replayed=traced_out["entries"] + replayed,
               spans=spans.records,
               failed_checks=out["failed_checks"]
               + traced_out["failed_checks"])
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workload = spec.WORKLOADS[args.workload]
    rep = figure_rep if "figure" in workload else inprocess_rep
    doc = rep(workload, args.seed, args.scale, args.traced)
    from repro.experiments.runner import SIM_VERSION
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    doc["peak_rss_mb"] = (self_kb + children_kb) / 1024.0
    doc["provenance"] = {
        "sim_version": SIM_VERSION,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "repro_env": ENV_AT_ENTRY,
    }
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
