"""Experiment harness tests: configs, caching, reporting."""

import gc

import pytest

from repro.common import BackendKind, MappingKind
from repro.common.stats import geomean
from repro.experiments import (
    configs,
    format_kv_block,
    format_series_table,
    run_point,
    speedups,
)
from repro.experiments.runner import _config_key
from repro.gpu.mcm import McmGpuSimulator, SimResult


class TestConfigs:
    def test_fbarre_enables_scheduling_and_merge(self):
        cfg = configs.fbarre(merge=4)
        assert cfg.backend is BackendKind.FBARRE
        assert cfg.merged_coal_groups == 4
        assert cfg.iommu.coalescing_aware_scheduling

    def test_fbarre_drops_merge_beyond_4_chiplets(self):
        cfg = configs.fbarre(merge=2, num_chiplets=8)
        assert cfg.merged_coal_groups == 1  # PTE bits don't fit (Section VI)

    def test_barre_default_has_no_scheduling(self):
        assert not configs.barre().iommu.coalescing_aware_scheduling

    def test_mgvm_uses_chunking_and_gmmu(self):
        cfg = configs.mgvm()
        assert cfg.gmmu and cfg.mapping is MappingKind.CHUNKING
        assert configs.mgvm(barre_chord=True).backend is BackendKind.FBARRE

    def test_superpage_is_2mb(self):
        assert configs.superpage().page_size == 2 * 1024 * 1024

    def test_with_helpers_compose(self):
        cfg = configs.with_iommu_tlb(configs.with_ptws(configs.fbarre(), 8))
        assert cfg.iommu.num_ptws == 8
        assert cfg.iommu.tlb_entries == 2048

    def test_config_key_distinguishes_variants(self):
        assert _config_key(configs.baseline()) != _config_key(configs.barre())
        assert _config_key(configs.baseline()) == \
            _config_key(configs.baseline())


class TestCache:
    def test_cache_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        first = run_point(configs.baseline(), "gemv", scale=0.05)
        assert list(tmp_path.glob("*.json"))
        second = run_point(configs.baseline(), "gemv", scale=0.05)
        assert second.cycles == first.cycles
        assert second.mpki == pytest.approx(first.mpki)
        assert second.vpn_gaps.total() == first.vpn_gaps.total()

    def test_no_cache_env_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        run_point(configs.baseline(), "gemv", scale=0.05)
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("no_cache", ["", "1"])
    def test_run_point_reclaims_the_simulator(self, tmp_path, monkeypatch,
                                              no_cache):
        """A finished simulator is a reference cycle; run_point frees it
        itself instead of leaving it to whenever the collector runs."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", no_cache)
        gc.collect()
        gc.disable()
        try:
            run_point(configs.fbarre(), "gemv", scale=0.02)
            alive = [obj for obj in gc.get_objects()
                     if isinstance(obj, McmGpuSimulator)]
        finally:
            gc.enable()
        assert not alive


class TestReport:
    def test_series_table_renders_all_apps(self):
        text = format_series_table(
            "T", ["a", "b"], {"s1": {"a": 1.0, "b": 2.0}})
        assert "T" in text and "s1" in text
        assert "1.00" in text and "2.00" in text
        assert f"{geomean([1.0, 2.0]):.2f}" in text  # gmean column

    def test_series_table_handles_missing_values(self):
        text = format_series_table("T", ["a", "b"], {"s": {"a": 1.5}})
        assert "-" in text

    def test_kv_block(self):
        text = format_kv_block("K", {"x": 1.23456, "y": "z"})
        assert "1.235" in text and "z" in text

    def test_bar_chart_scales_to_peak(self):
        from repro.experiments import format_bar_chart
        text = format_bar_chart("B", {"a": 2.0, "b": 1.0}, width=10)
        lines = text.splitlines()
        assert lines[1].count("#") == 10  # peak fills the width
        assert lines[2].count("#") == 5

    def test_bar_chart_reference_marker(self):
        from repro.experiments import format_bar_chart
        text = format_bar_chart("B", {"a": 2.0, "b": 0.5}, width=10,
                                reference=1.0)
        assert "|" in text or "+" in text

    def test_bar_chart_empty(self):
        from repro.experiments import format_bar_chart
        assert format_bar_chart("T", {}) == "T"


def _result(app, cycles):
    from repro.common.stats import Histogram
    return SimResult(app=app, backend="x", cycles=cycles, instructions=1,
                     l2_misses=0, l2_lookups=0, ats_requests=0,
                     pcie_packets=0, mesh_packets=0, walks=0,
                     pec_coalesced=0, mean_ats_time=0.0,
                     remote_data_fraction=0.0, vpn_gaps=Histogram())


def test_speedups_divide_baseline_by_variant():
    base = {"a": _result("a", 200)}
    variant = {"a": _result("a", 100)}
    assert speedups(variant, base) == {"a": 2.0}
