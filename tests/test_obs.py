"""Tests for repro.obs: miss-lifecycle spans, exporters, metrics, and the
zero-perturbation guarantee."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import PagingMode
from repro.core.system import build_system
from repro.cpu.perf import aggregate
from repro.obs import (
    COALESCED,
    COMPLETED,
    PATH_HWDP,
    PATH_OSDP,
    PATH_SWDP,
    MetricsRegistry,
    MissSpan,
    TraceSink,
    chrome_trace,
    span_breakdown,
    validate_chrome_trace,
)
from repro.obs.export import breakdown_report
from repro.workloads import FioRandomRead

from tests.helpers import build_mapped_system, tiny_config, touch_pages


def traced_system(mode, **kwargs):
    system, thread, vma = build_mapped_system(mode, **kwargs)
    sink = TraceSink()
    sink.attach(system.sim, unit="test")
    return system, thread, vma, sink


def kernel_phases(costs):
    """OSDP cost-table phase costs keyed by their span event name."""
    return {
        ("return" if phase == "pte_update_return" else phase): ns
        for phase, ns in costs.phase_table().items()
    }


def span_of(*events):
    span = MissSpan(0, "test", PATH_OSDP, "t0", 0.0)
    for event in events:
        span.event(*event)
    return span


class TestPhaseBreakdown:
    def test_totals_and_counts(self):
        spans = [
            span_of((0.0, "io_submit", 100.0), (20.0, "exception", 50.0)),
            span_of((10.0, "io_submit", 140.0)),
        ]
        breakdown = span_breakdown(spans)
        assert breakdown.totals_ns["io_submit"] == 240.0
        assert breakdown.counts["io_submit"] == 2
        assert breakdown.mean_ns("io_submit") == 120.0
        assert breakdown.total_ns == 290.0
        assert breakdown.fraction("exception") == pytest.approx(50.0 / 290.0)

    def test_empty(self):
        breakdown = span_breakdown([])
        assert breakdown.total_ns == 0.0
        assert breakdown.mean_ns("anything") == 0.0
        assert breakdown.fraction("anything") == 0.0

    def test_to_text(self):
        breakdown = span_breakdown([span_of((0.0, "alpha", 10.0), (1.0, "beta", 30.0))])
        text = breakdown.to_text("demo")
        assert "demo" in text
        assert "alpha" in text and "beta" in text
        assert "TOTAL" in text
        # Sorted by total, descending: beta first.
        assert text.index("beta") < text.index("alpha")


class TestOsdpSpans:
    def test_span_per_fault_with_full_lifecycle(self):
        system, thread, vma, sink = traced_system(PagingMode.OSDP)
        touch_pages(system, thread, vma, range(8))
        spans = sink.spans_by_path(PATH_OSDP)
        assert len(spans) == 8
        assert sink.span_count() == system.kernel.counters["fault.exceptions"]
        assert sink.open_spans == 0
        for span in spans:
            assert span.closed
            assert span.outcome == COMPLETED
            assert span.pfn is not None
            assert span.duration_ns > 0
            names = [name for _, name, _ in span.events]
            # Fault entry ... io submit ... device ... PTE update/return.
            assert names[0] == "exception_walk"
            assert "io_submit" in names
            assert "device_service" in names
            assert names[-1] == "return"

    def test_component_instants_recorded(self):
        system, thread, vma, sink = traced_system(PagingMode.OSDP)
        touch_pages(system, thread, vma, range(4))
        names = {instant.name for instant in sink.instants}
        assert {"nvme.submit", "nvme.complete", "kernel.pte_install"} <= names

    def test_tracing_off_by_default(self):
        system, thread, vma = build_mapped_system(PagingMode.OSDP)
        touch_pages(system, thread, vma, [0])
        assert system.sim.trace is None

    def test_kernel_phase_means_match_cost_table(self):
        system, thread, vma, sink = traced_system(PagingMode.OSDP)
        touch_pages(system, thread, vma, [0, 1])
        breakdown = span_breakdown(sink.spans, PATH_OSDP)
        costs = system.config.osdp_costs
        phases = kernel_phases(costs)
        for name, ns in phases.items():
            assert breakdown.counts[name] == 2, name
            assert breakdown.mean_ns(name) == pytest.approx(ns), name
        kernel_ns = sum(breakdown.totals_ns[name] for name in phases)
        assert kernel_ns / 2 == pytest.approx(costs.total_cpu_ns, rel=0.01)


class TestHwdpSpans:
    def test_hardware_pipeline_segments(self):
        system, thread, vma, sink = traced_system(PagingMode.HWDP)
        touch_pages(system, thread, vma, range(8))
        spans = sink.spans_by_path(PATH_HWDP)
        assert len(spans) == 8
        assert len(spans) == system.smu.misses_handled
        assert sink.open_spans == 0
        for span in spans:
            assert span.outcome == COMPLETED
            names = [name for _, name, _ in span.events]
            for expected in (
                "request_cam_lookup",
                "pmshr_allocate",
                "free_page_fetch",
                "sq_submit",
                "nvme_service",
                "completion_snoop",
                "page_table_update",
                "notify_broadcast",
            ):
                assert expected in names, f"{expected} missing from {names}"

    def test_hardware_path_has_no_kernel_phases(self):
        system, thread, vma, sink = traced_system(PagingMode.HWDP)
        touch_pages(system, thread, vma, [0, 1])
        assert sink.span_count() == sink.span_count(PATH_HWDP) == 2
        names = set(span_breakdown(sink.spans).counts)
        assert not names & kernel_phases(system.config.osdp_costs).keys()

    def test_pmshr_and_host_instants(self):
        system, thread, vma, sink = traced_system(PagingMode.HWDP)
        touch_pages(system, thread, vma, range(4))
        names = {instant.name for instant in sink.instants}
        assert {
            "pmshr.allocate",
            "pmshr.release",
            "smu_host.sq_doorbell",
            "smu_host.cq_snoop",
        } <= names

    def test_swdp_emulation_emits_hw_install_instants(self):
        system, thread, vma, sink = traced_system(PagingMode.SWDP)
        touch_pages(system, thread, vma, range(3))
        names = {instant.name for instant in sink.instants}
        assert {"pmshr.allocate", "pmshr.release", "kernel.hw_pte_install"} <= names

    def test_coalesced_miss_spans(self):
        system, thread, vma, sink = traced_system(PagingMode.HWDP)
        other = system.workload_thread(thread.process, index=1)
        page = vma.start

        def toucher(t):
            def body():
                yield from t.mem_access(page)

            return body

        procs = [
            system.spawn(toucher(thread)(), "a"),
            system.spawn(toucher(other)(), "b"),
        ]
        while not all(p.finished for p in procs):
            assert system.sim.step()
        outcomes = sorted(s.outcome for s in sink.spans_by_path(PATH_HWDP))
        assert outcomes == [COALESCED, COMPLETED]
        coalesced = next(s for s in sink.spans if s.outcome == COALESCED)
        assert any(name == "coalesced_wait" for _, name, _ in coalesced.events)


class TestSwdpSpans:
    def test_emulated_path_retags_span(self):
        system, thread, vma, sink = traced_system(PagingMode.SWDP)
        touch_pages(system, thread, vma, range(6))
        spans = sink.spans_by_path(PATH_SWDP)
        assert len(spans) == 6
        for span in spans:
            names = [name for _, name, _ in span.events]
            assert names[0] == "exception_walk"
            assert "emu_submit" in names
            assert "device_service" in names


class TestChromeTraceExport:
    def test_schema_valid_and_counts_match(self):
        system, thread, vma, sink = traced_system(PagingMode.HWDP)
        touch_pages(system, thread, vma, range(5))
        data = chrome_trace(sink)
        assert validate_chrome_trace(data) == []
        assert data["otherData"]["span_count"] == 5
        slices = [
            e
            for e in data["traceEvents"]
            if e["ph"] == "X" and e["name"].startswith("miss:")
        ]
        assert len(slices) == 5
        # JSON-serialisable end to end (what write_chrome_trace emits).
        json.dumps(data)

    def test_units_get_distinct_pids(self):
        sink = TraceSink()
        for unit in ("cell-a", "cell-b"):
            system, thread, vma = build_mapped_system(PagingMode.OSDP)
            sink.attach(system.sim, unit=unit)
            touch_pages(system, thread, vma, range(2))
        data = chrome_trace(sink)
        span_pids = {
            e["pid"]
            for e in data["traceEvents"]
            if e["ph"] == "X" and e["name"].startswith("miss:")
        }
        assert len(span_pids) == 2

    def test_validator_flags_malformed_events(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "Q"}]}) != []
        bad_dur = {
            "traceEvents": [
                {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0.0, "dur": -1}
            ]
        }
        assert any("dur" in p for p in validate_chrome_trace(bad_dur))

    def test_breakdown_report_lists_every_path(self):
        system, thread, vma, sink = traced_system(PagingMode.HWDP)
        touch_pages(system, thread, vma, range(3))
        report = breakdown_report(sink)
        assert "hwdp" in report
        assert "nvme_service" in report
        assert breakdown_report(TraceSink()) == "(no spans recorded)"


class TestZeroPerturbation:
    @pytest.mark.parametrize("mode", [PagingMode.OSDP, PagingMode.SWDP, PagingMode.HWDP])
    def test_traced_run_is_byte_identical(self, mode):
        def run(traced):
            system, thread, vma = build_mapped_system(mode)
            if traced:
                sink = TraceSink()
                sink.attach(system.sim, unit="probe")
            touch_pages(system, thread, vma, range(16))
            return (
                system.sim.now,
                system.sim.events_dispatched,
                system.kernel.counters.as_dict(),
                thread.perf.user_instructions,
                thread.perf.kernel_instructions,
            )

        assert run(traced=False) == run(traced=True)


def _stat_keys(prefix, percentiles=True):
    fields = ["count", "max", "mean", "min", "stddev"]
    if percentiles:
        fields += ["p50", "p99"]
    return [f"{prefix}.{field}" for field in fields]


#: Metric keys every system reports after a few read misses.  A renamed
#: or dropped metric breaks these snapshots.
_BASE_METRIC_KEYS = [
    "blockio.read_errors",
    "blockio.reads_submitted",
    "blockio.write_errors",
    "blockio.writes_submitted",
    "device.read_errors",
    "device.reads_completed",
    "device.timeouts",
    "device.write_errors",
    "device.writes_completed",
    *_stat_keys("device.read_time_ns"),
    # No writes: the write-time stat holds no samples to take percentiles of.
    *_stat_keys("device.write_time_ns", percentiles=False),
    "sim.events_dispatched",
    "sim.now_ns",
]
_FREE_QUEUE_METRIC_KEYS = [
    "free_queue0.occupancy",
    "free_queue0.pop_prefetched",
    "free_queue0.refilled",
    "kernel.install.hw_pending",
    "kernel.mmap.fastmap_areas",
    "kernel.refill.kpoold_pages",
]
_METRIC_KEYS = {
    PagingMode.OSDP: _BASE_METRIC_KEYS + [
        "kernel.fault.exceptions",
        "kernel.fault.major",
    ],
    PagingMode.SWDP: _BASE_METRIC_KEYS + _FREE_QUEUE_METRIC_KEYS + [
        "kernel.fault.exceptions",
        "kernel.fault.swdp",
        "swdp.pmshr.allocated",
        "swdp.pmshr.released",
    ],
    PagingMode.HWDP: _BASE_METRIC_KEYS + _FREE_QUEUE_METRIC_KEYS + [
        "smu0.anon_zero_fills",
        "smu0.host.commands_issued",
        "smu0.host.completions_snooped",
        "smu0.host.sq_backpressure_waits",
        "smu0.io_error_failures",
        "smu0.io_errors",
        "smu0.io_timeouts",
        "smu0.misses_failed",
        "smu0.misses_handled",
        "smu0.pmshr.allocated",
        "smu0.pmshr.outstanding",
        "smu0.pmshr.released",
        *_stat_keys("smu0.before_device_ns"),
        *_stat_keys("smu0.after_device_ns"),
    ],
}


class TestMetricsRegistry:
    def test_duplicate_names_rejected(self):
        registry = MetricsRegistry()
        registry.register_gauge("x", lambda: 1)
        with pytest.raises(ValueError, match="registered twice"):
            registry.register_gauge("x", lambda: 2)

    def test_system_registry_collects_unified_namespace(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP)
        touch_pages(system, thread, vma, range(8))
        snapshot = system.metrics.collect()
        # No exception was ever taken, so the counter was never recorded.
        assert snapshot.get("kernel.fault.exceptions", 0) == 0
        assert snapshot["smu0.misses_handled"] == 8
        assert snapshot["smu0.pmshr.allocated"] == 8
        assert snapshot["device.reads_completed"] >= 8
        assert snapshot["sim.events_dispatched"] == system.sim.events_dispatched
        assert snapshot["free_queue0.occupancy"] >= 0
        # The snapshot is one flat JSON-ready mapping.
        json.dumps(snapshot)
        for mode, keys in _METRIC_KEYS.items():
            system, thread, vma = build_mapped_system(mode)
            touch_pages(system, thread, vma, range(8))
            assert sorted(system.metrics.collect()) == sorted(keys), mode

    def test_osdp_registry_has_no_smu_sources(self):
        system, thread, vma = build_mapped_system(PagingMode.OSDP)
        touch_pages(system, thread, vma, range(2))
        snapshot = system.metrics.collect()
        assert snapshot["kernel.fault.major"] == 2
        assert not any(key.startswith("smu0.") for key in snapshot)


def run_fio(mode, ops=40):
    system = build_system(tiny_config(mode, total_frames=2048, free_queue_depth=128))
    driver = FioRandomRead(ops_per_thread=ops, file_pages=4096)
    driver.prepare(system, num_threads=1)
    start = system.sim.now
    system.run(driver.launch(system))
    perf = aggregate(thread.perf for thread in driver.threads)
    return system.metrics.collect(), perf, driver, system.sim.now - start


class TestRunSummary:
    """A run is summarised from the threads' aggregated perf counters and
    the system's metrics snapshot."""

    def test_hwdp_run(self):
        metrics, perf, driver, elapsed = run_fio(PagingMode.HWDP)
        assert perf.operations == 40
        assert driver.op_latency.count == 40
        assert elapsed > 0
        assert metrics["device.reads_completed"] > 0
        assert perf.translations["hw-miss"] > 0
        assert "os-fault" not in perf.translations
        assert "hw-fallback-fault" not in perf.translations

    def test_osdp_run(self):
        metrics, perf, driver, elapsed = run_fio(PagingMode.OSDP)
        assert perf.kernel_instructions > 0
        assert metrics["kernel.fault.major"] > 0
        assert "hw-miss" not in perf.translations

    def test_hwdp_beats_osdp(self):
        _, osdp, osdp_driver, osdp_elapsed = run_fio(PagingMode.OSDP)
        _, hwdp, hwdp_driver, hwdp_elapsed = run_fio(PagingMode.HWDP)
        assert hwdp.operations / hwdp_elapsed > osdp.operations / osdp_elapsed
        assert hwdp_driver.op_latency.mean < osdp_driver.op_latency.mean
        assert hwdp.kernel_instructions < osdp.kernel_instructions


class TestEngineObservation:
    def test_observed_run_matches_unobserved(self):
        from repro.experiments import engine
        from repro.experiments.runner import QUICK
        from repro.obs.runtime import Observation

        plain = engine.run_spec("fig03", QUICK)
        observation = Observation(trace=TraceSink(), metrics=True)
        observed = engine.run_spec("fig03", QUICK, observation=observation)
        assert observed.to_text() == plain.to_text()
        assert observation.trace.span_count() > 0
        assert observation.trace.units == ["fig03"]
        assert [unit for unit, _ in observation.registries] == ["fig03"]

    def test_observation_bypasses_cache_reads(self, tmp_path):
        from repro.experiments import engine
        from repro.experiments.cache import CellCache
        from repro.experiments.runner import QUICK
        from repro.obs.runtime import Observation

        cache = CellCache(tmp_path / "cache")
        first = engine.execute(["fig03"], QUICK, cache=cache)
        assert first.computed == 1
        # Warm cache, no observation: served from cache, nothing to trace.
        warm = engine.execute(["fig03"], QUICK, cache=cache)
        assert warm.cached == 1
        # Observation forces recompute so spans exist; payload unchanged.
        observation = Observation(trace=TraceSink())
        traced = engine.execute(["fig03"], QUICK, cache=cache, observation=observation)
        assert traced.computed == 1
        assert observation.trace.span_count() > 0
        assert traced.results[0].to_text() == first.results[0].to_text()

    def test_cli_trace_keeps_fig03_spans(self, tmp_path):
        # fig03 measures from the spans of the sink ``--trace`` attached,
        # so the export still holds one osdp span per fault of the cell
        # and the table is the untraced one.
        from repro.experiments.fig03_fault_breakdown import SPEC
        from repro.experiments.runner import QUICK

        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")
        env["REPRO_RUNS_DIR"] = str(tmp_path / "runs")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        trace_path = tmp_path / "T.json"
        for out, extra in (("plain", []), ("traced", ["--trace", str(trace_path)])):
            subprocess.run(
                [sys.executable, "-m", "repro.experiments", "--only", "fig03",
                 "--no-cache", "--out", str(tmp_path / out), *extra],
                env=env, capture_output=True, check=True, timeout=120,
            )
        plain = (tmp_path / "plain" / "fig03.txt").read_bytes()
        assert (tmp_path / "traced" / "fig03.txt").read_bytes() == plain

        data = json.loads(trace_path.read_text())
        assert validate_chrome_trace(data) == []
        pids = [
            e["pid"] for e in data["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
            and e["args"]["name"] == "fig03"
        ]
        assert len(pids) == 1
        spans = [
            e for e in data["traceEvents"]
            if e["ph"] == "X" and e["name"] == "miss:osdp" and e["pid"] == pids[0]
        ]
        assert len(spans) == SPEC.cell_fn(QUICK, {})["faults"] > 0
