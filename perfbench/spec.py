"""The benchmark's workloads and metrics, shared by ``run.py`` and ``rep.py``.

Standard library only: ``run.py`` imports this module and must never
import the simulator itself (every repetition runs in a fresh child).
"""

from __future__ import annotations

#: ``SimConfig.seed``'s default.  ``reference.json`` holds the result
#: digests for this seed; any other seed is checked without a reference.
DEFAULT_SEED = 2024

#: Fig 15's series, in the figure's order, with the ``configs`` factory
#: call that builds each one (``fbarre`` takes a ``merge`` argument).
FIG15_SCHEMES = (
    ("Baseline", "baseline", {}),
    ("Valkyrie", "valkyrie", {}),
    ("Least", "least", {}),
    ("Barre", "barre", {}),
    ("F-Barre-NoMerge", "fbarre", {"merge": 1}),
    ("F-Barre-2Merge", "fbarre", {"merge": 2}),
    ("F-Barre-4Merge", "fbarre", {"merge": 4}),
)

#: The workloads.  ``scheme`` + ``apps`` workloads simulate in one process,
#: back to back, with no result cache; ``figure`` workloads run the
#: figure's full point set cold through ``repro.experiments.sweep``.
WORKLOADS = {
    "fbarre-high": {
        "scheme": "fbarre",
        "apps": ("matr", "gups", "bicg", "spmv", "gesm"),
        "scale": 0.3,
    },
    "baseline-low": {
        "scheme": "baseline",
        "apps": ("gemv", "corr", "adi", "fft", "pr"),
        "scale": 1.0,
    },
    "fig15-sweep": {
        "figure": "fig15",
        "scale": 0.1,
        "jobs": 2,
        #: The traced run replays this many of the figure's apps (all
        #: seven schemes each) in-process for spans and the profile,
        #: because the sweep's worker processes are not profiled.
        "replay_apps": 2,
    },
}

#: cProfile layers: name -> path fragments under ``src/repro/``.
LAYERS = {
    "events": ("common/events.py",),
    "stats": ("common/stats.py",),
    "gpu": ("gpu/",),
    "memsim": ("memsim/",),
    "mapping": ("mapping/",),
    "filters": ("filters/",),
    "iommu": ("iommu/",),
    "core": ("core/",),
    "workloads": ("workloads/",),
}

#: Metrics of the untraced runs (``--trace 0``): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "accesses_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}

#: Metrics of the traced run (``--trace 1``): name -> unit.
PER_LAYER = {
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "mcm.build_s": "s",
    "mcm.run_s": "s",
    "workloads.trace_s": "s",
    "mapping.alloc_s": "s",
    "events.fired": "count",
    "events.host_us_per_event": "us",
    "memsim.l2_lookups": "count",
    "memsim.l2_hit_ratio": "ratio",
    "memsim.pcie_packets": "count",
    "memsim.mesh_packets": "count",
    "iommu.ats_requests": "count",
    "iommu.walks": "count",
    "iommu.pec_coalesced": "count",
    "iommu.coalesced_fraction": "ratio",
    "filters.lcf_hits": "count",
    "filters.lcf_true_positive_rate": "ratio",
    "core.remote_attempts": "count",
    "core.remote_hit_rate": "ratio",
    "gpu.sim_cycles": "count",
    "sweep.collect_s": "s",
    "sweep.fill_s": "s",
    "sweep.steals": "count",
    "sweep.memo_hit_ratio": "ratio",
    "sweep.worker_busy_frac": "ratio",
    "sweep.duplicate_sims": "count",
    "runner.warm_eval_s": "s",
    "runner.cache_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.profile_inflation": "ratio",
}
