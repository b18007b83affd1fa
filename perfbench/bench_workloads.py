"""The benchmark's workloads, one pass of each, and the output check.

A pass runs a workload's fixed cell grid once through the program's public
entry points and returns, per cell, a digest of its simulated outputs
(throughput or latency, ``sim.events`` and ``sim.now``) together with the
pass's host timings and the program's public counters.  ``run.py`` repeats
passes, checks them with :func:`check` and turns them into metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.config import PagingMode
from repro.experiments import policy_zoo, registry, workload_runs
from repro.experiments.engine import execute, scale_to_dict
from repro.experiments.fig13_throughput import WORKLOADS as KV_WORKLOADS
from repro.experiments.journal import RunJournal, load_state
from repro.experiments.runner import PAPER_SHAPE, build
from repro.faults import assert_invariants
from repro.workloads.base import WorkloadDriver
from repro.workloads.fio import FioRandomRead

import host_speed

#: The program's default master seed; the recorded references are for it.
DEFAULT_SEED = 0xD5EED
#: Simulated time run after a cell so in-flight I/O completes before the
#: invariant checker looks (the value policy-zoo cells drain with).
DRAIN_NS = 2_000_000.0
#: kv-grid runs fig13's paper-shape grid at half its length, so that one
#: traced run (an untraced pass plus a ×1.7 traced one) stays well inside
#: the benchmark's per-run time limit.
KV_SCALE = replace(
    PAPER_SHAPE,
    ops_per_thread=PAPER_SHAPE.ops_per_thread // 2,
    cold_coverage=PAPER_SHAPE.cold_coverage / 2,
)
#: fig13@paper-shape's event and operation counts in BENCH_3: kv-grid at
#: fig13's own length (``kv_grid_pass(seed, PAPER_SHAPE)``) and the default
#: seed must reproduce them exactly.
FIG13_EVENTS = 5_317_054
FIG13_OPS = 1_019_040

THREAD_COUNTS = (1, 2, 4, 8)
MISS_MODES = ("osdp", "swdp", "hwdp")
MISS_THREADS = (1, 8)
MISS_FILE_RATIO = 8
ZOO_SPEC = "policy-zoo"


def digest(cell: str, outputs: Dict[str, Any]) -> str:
    blob = json.dumps([cell, outputs], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class CellResult:
    """One cell's simulated outputs and digest, or why it failed."""

    cell: str
    outputs: Dict[str, Any] = field(default_factory=dict)
    digest: Optional[str] = None
    error: Optional[str] = None


@dataclass
class PassResult:
    """One pass over a workload's grid."""

    #: Host seconds of the pass, host-speed probes excluded.
    wall_s: float
    #: The same, scaled to the reference host speed (see host_speed).
    scaled_wall_s: float
    cells: List[CellResult]
    #: Summed per-cell set-up host time: build_s, prepare_s, prewarm_s.
    setup: Dict[str, float]
    #: Public counters summed over the pass (see :func:`counts_of`).
    counts: Dict[str, float]
    #: Simulated device read times of every read in the pass.
    read_times_ns: List[float]
    #: The executor's wall (execute_s), per-cell walls (cell_walls_s) and
    #: warm-forked cells (warm_cells), host-speed probes subtracted.
    experiments: Dict[str, Any]


# ----------------------------------------------------------------------
# public counters
# ----------------------------------------------------------------------
def counts_of(system: Any, threads: Sequence[Any]) -> Dict[str, int]:
    """The public counters one cell's machine holds right now."""
    kernel = system.kernel.counters
    smus = system.smu_complex.smus if system.smu_complex is not None else []
    pmshrs = [smu.pmshr for smu in smus]
    sw_pmshr = system.kernel.fault_handler.sw_pmshr
    if sw_pmshr is not None:
        pmshrs.append(sw_pmshr)
    tlbs = [core.mmu.tlb for core in system.cpu_complex.logical_cores]
    prefetchers = [smu.readahead.stats for smu in smus]
    return {
        "events": system.sim.events_dispatched,
        "ops": sum(thread.perf.operations for thread in threads),
        "tlb_hits": sum(tlb.hits for tlb in tlbs),
        "tlb_misses": sum(tlb.misses for tlb in tlbs),
        "faults": kernel["fault.exceptions"],
        "evictions": kernel["reclaim.evicted"],
        "writebacks": kernel["reclaim.writebacks"],
        "kpted_synced": kernel["kpted.pages_synced"],
        "sync_refills": kernel["fault.sync_refill"],
        "smu_misses": sum(s.misses_handled + s.misses_failed for s in smus)
        + kernel["fault.swdp"],
        "smu_fallbacks": sum(s.misses_failed for s in smus)
        + kernel["fault.swdp_queue_empty"] + kernel["fault.swdp_pmshr_full"],
        "pmshr_allocated": sum(p.stats["allocated"] for p in pmshrs),
        "pmshr_coalesced": sum(p.stats["coalesced"] for p in pmshrs),
        "prefetch_attempted": sum(
            stats["issued"] + stats["dropped_pmshr_full"] + stats["dropped_no_frames"]
            for stats in prefetchers
        ),
        "prefetch_completed": sum(stats["completed"] for stats in prefetchers),
        "reads": system.device.reads_completed,
        "writes": system.device.writes_completed,
    }


def _add_counts(total: Dict[str, float], part: Dict[str, float], sign: int = 1) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + sign * value


def _drain_and_check(system: Any) -> None:
    system.sim.run(until=system.sim.now + DRAIN_NS)
    assert_invariants(system)


def _cells_pass(cells: Sequence[tuple], run_cell: Callable, setup: Dict[str, float]
                ) -> PassResult:
    """Run ``run_cell(*params)`` for each ``(cell id, params)`` and check it.

    ``run_cell`` returns the cell's machine, its workload threads and its
    headline output; the pass adds ``sim.events`` and ``sim.now`` (read
    before the drain), the public counters, and the invariant check.
    """
    counts: Dict[str, float] = {}
    read_times: List[float] = []
    results = []
    walls = []
    speed = [host_speed.probe()]
    for cell_id, params in cells:
        cell = CellResult(cell_id)
        results.append(cell)
        started = time.perf_counter()
        try:
            system, threads, outputs = run_cell(*params)
            cell.outputs = dict(
                outputs, events=system.sim.events_dispatched, now=system.sim.now
            )
            _add_counts(counts, counts_of(system, threads))
            read_times.extend(system.device.read_device_time.samples)
            _drain_and_check(system)
            cell.digest = digest(cell.cell, cell.outputs)
        except Exception as exc:  # noqa: BLE001 - a failed cell is a result
            cell.error = f"{type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - started)
        speed.append(host_speed.probe())
    raw, scaled = host_speed.scale(speed)
    # This loop is the executor here: its time outside cells is the
    # experiments layer's overhead, as execute()'s is for zoo-warm.
    executor = {"execute_s": raw, "cell_walls_s": walls, "warm_cells": 0}
    return PassResult(raw, scaled, results, setup, counts, read_times, executor)


def _new_setup() -> Dict[str, float]:
    return {"build_s": 0.0, "prepare_s": 0.0, "prewarm_s": 0.0}


# ----------------------------------------------------------------------
# kv-grid
# ----------------------------------------------------------------------
@contextmanager
def _timed_setup(setup: Dict[str, float], module: Any, build_name: str) -> Iterator[None]:
    """Time the build, driver.prepare and prewarm_pages calls ``module``
    makes into ``setup`` (``build_name`` is its name for the builder)."""
    targets = [
        (module, build_name, "build_s"),
        (module, "prewarm_pages", "prewarm_s"),
        (WorkloadDriver, "prepare", "prepare_s"),
    ]
    originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in targets]

    def timed(function: Callable, key: str) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                setup[key] += time.perf_counter() - started

        return wrapper

    for (owner, name, key), (_, _, function) in zip(targets, originals):
        setattr(owner, name, timed(function, key))
    try:
        yield
    finally:
        for owner, name, function in originals:
            setattr(owner, name, function)


def kv_grid_pass(seed: int, scale: Any = KV_SCALE) -> PassResult:
    def run_cell(workload: str, threads: int, mode: str):
        run = workload_runs.run_kv_workload(
            workload, PagingMode(mode), scale, threads=threads, seed=seed
        )
        return run.system, run.driver.threads, {"throughput": run.throughput}

    cells = [
        (f"{workload}/t{threads}/{mode}", (workload, threads, mode))
        for workload in KV_WORKLOADS
        for threads in THREAD_COUNTS
        for mode in ("osdp", "hwdp")
    ]
    setup = _new_setup()
    with _timed_setup(setup, workload_runs, "build"):
        return _cells_pass(cells, run_cell, setup)


# ----------------------------------------------------------------------
# miss-storm
# ----------------------------------------------------------------------
def miss_storm_pass(seed: int) -> PassResult:
    setup = _new_setup()

    def run_cell(mode: str, threads: int):
        clock = time.perf_counter()
        system = build(PagingMode(mode), PAPER_SHAPE, seed=seed)
        setup["build_s"] += time.perf_counter() - clock
        driver = FioRandomRead(
            ops_per_thread=PAPER_SHAPE.ops_per_thread,
            file_pages=MISS_FILE_RATIO * PAPER_SHAPE.memory_frames,
        )
        clock = time.perf_counter()
        driver.prepare(system, threads)
        setup["prepare_s"] += time.perf_counter() - clock
        system.run(driver.launch(system))
        return system, driver.threads, {"mean_latency_ns": driver.op_latency.mean}

    cells = [
        (f"{mode}/t{threads}", (mode, threads))
        for mode in MISS_MODES
        for threads in MISS_THREADS
    ]
    return _cells_pass(cells, run_cell, setup)


# ----------------------------------------------------------------------
# zoo-warm
# ----------------------------------------------------------------------
def _zoo_cell_id(params: Dict[str, Any]) -> str:
    return "/".join(str(params[k]) for k in ("path", "policy", "prefetcher", "pattern"))


class _ZooRecorder:
    """Wraps the spec's warm prefix and finish so forked cells report.

    The engine runs each warm prefix in a forked leader and each cell in a
    grandchild that ends with ``os._exit``, so nothing they hold in memory
    reaches this process.  The wrappers write each one's outputs, counter
    deltas, tracer delta and (leaders) set-up times to a file before
    returning.
    """

    def __init__(self, directory: Path, tracer: Any, setup: Dict[str, float]):
        self.directory = directory
        self.tracer = tracer
        #: Filled by _timed_setup; each leader forks with it at zero.
        self.setup = setup

    def _write(self, kind: str, record: Dict[str, Any]) -> None:
        path = self.directory / f"{kind}-{os.getpid()}-{time.monotonic_ns()}.json"
        path.write_text(json.dumps(record))

    def _tracer_totals(self) -> Optional[Dict[str, Any]]:
        return self.tracer.totals() if self.tracer is not None else None

    def prefix(self, function: Callable) -> Callable:
        def recorded_prefix(scale: Any, group: Dict[str, Any]) -> Dict[str, Any]:
            before = self._tracer_totals()
            ctx = function(scale, group)
            system, driver = ctx["system"], ctx["driver"]
            self._write("prefix", {
                "setup": self.setup,
                "speed": host_speed.probe(),
                "counts": counts_of(system, driver.threads),
                "read_times_ns": list(system.device.read_device_time.samples),
                "tracer": self._delta(before),
            })
            return ctx

        return recorded_prefix

    def finish(self, function: Callable) -> Callable:
        def recorded_finish(scale: Any, params: Dict[str, Any], ctx: Dict[str, Any]):
            system, driver = ctx["system"], ctx["driver"]
            before = self._tracer_totals()
            counts_before = counts_of(system, driver.threads)
            reads_before = len(system.device.read_device_time.samples)
            payload = function(scale, params, ctx)
            counts = counts_of(system, driver.threads)
            _add_counts(counts, counts_before, sign=-1)
            self._write("cell", {
                "params": params,
                "outputs": {
                    "payload": payload,
                    "events": system.sim.events_dispatched,
                    "now": system.sim.now,
                },
                "counts": counts,
                "read_times_ns": system.device.read_device_time.samples[reads_before:],
                "tracer": self._delta(before),
                # Inside the journal's cell wall; the pass subtracts it.
                "speed": host_speed.probe(),
            })
            return payload

        return recorded_finish

    def _delta(self, before: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
        if before is None:
            return None
        return self.tracer.delta(self.tracer.totals(), before)


def zoo_warm_pass(workdir: Path, tracer: Any = None) -> PassResult:
    directory = Path(tempfile.mkdtemp(prefix="zoo-", dir=workdir))
    records_dir = directory / "records"
    records_dir.mkdir()
    speed = [host_speed.probe()]
    started = time.perf_counter()
    spec = registry.get_spec(ZOO_SPEC)
    leader_setup = _new_setup()
    recorder = _ZooRecorder(records_dir, tracer, leader_setup)
    spec = replace(
        spec,
        warmup=replace(
            spec.warmup,
            prefix=recorder.prefix(spec.warmup.prefix),
            finish=recorder.finish(spec.warmup.finish),
        ),
    )
    resolved_s = time.perf_counter() - started
    journal = RunJournal.create(
        scale=scale_to_dict(PAPER_SHAPE),
        jobs=1,
        specs=[spec.name],
        root=directory / "runs",
        argv=["--only", spec.name, "--scale", PAPER_SHAPE.name, "--journal", "--no-cache"],
    )
    executed = time.perf_counter()
    try:
        with _timed_setup(leader_setup, policy_zoo, "build_system"):
            report = execute(
                [spec], PAPER_SHAPE, journal=journal, warm_start=True,
                raise_on_failure=False,
            )
    finally:
        execute_s = time.perf_counter() - executed
        journal.close()
    state = load_state(journal.directory)

    # Set-up of cells that fell back to running cold in this process.
    setup = dict(leader_setup, resolve_s=resolved_s)
    counts: Dict[str, float] = {}
    read_times: List[float] = []
    by_cell: Dict[str, Dict[str, Any]] = {}
    probe_s: Dict[str, float] = {}
    for path in sorted(records_dir.iterdir()):
        record = json.loads(path.read_text())
        _add_counts(counts, record["counts"])
        read_times.extend(record["read_times_ns"])
        if tracer is not None:
            tracer.add(record["tracer"])
        speed.append(tuple(record["speed"]))
        if path.name.startswith("cell-"):
            cell_id = _zoo_cell_id(record["params"])
            by_cell[cell_id] = record["outputs"]
            probe_s[cell_id] = record["speed"][1] - record["speed"][0]
        else:
            execute_s -= record["speed"][1] - record["speed"][0]
            for key, seconds in record["setup"].items():
                setup[key] += seconds
    walls = [
        record.wall_s - probe_s.get(_zoo_cell_id(record.params), 0.0)
        for record in state.cells.get(spec.name, {}).values()
        if record.wall_s is not None
    ]
    execute_s -= sum(probe_s.values())
    failed = {_zoo_cell_id(f.params): f"{f.kind}: {f.error}" for f in report.failures}
    cells = []
    for zoo_cell in spec.cells(PAPER_SHAPE):
        cell = CellResult(_zoo_cell_id(zoo_cell.as_dict()))
        cells.append(cell)
        if cell.cell in failed:
            cell.error = failed[cell.cell]
        elif cell.cell not in by_cell:
            cell.error = "no warm record: the cell did not run forked from its prefix"
        else:
            cell.outputs = by_cell[cell.cell]
            cell.digest = digest(cell.cell, cell.outputs)
    shutil.rmtree(directory)
    speed.append(host_speed.probe())
    return PassResult(
        *host_speed.scale(speed),
        cells,
        setup,
        counts,
        read_times,
        {
            "execute_s": execute_s,
            "cell_walls_s": walls,
            "warm_cells": report.supervision.get("warm_cells", 0),
        },
    )


def run_pass(workload: str, seed: int, workdir: Path, tracer: Any = None) -> PassResult:
    if workload == "kv-grid":
        return kv_grid_pass(seed)
    if workload == "miss-storm":
        return miss_storm_pass(seed)
    if workload == "zoo-warm":
        return zoo_warm_pass(workdir, tracer)
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# output check
# ----------------------------------------------------------------------
def reference_digests(references: Dict[str, Any], workload: str, seed: int
                      ) -> Optional[Dict[str, str]]:
    """The recorded digests that apply to this run, or None."""
    entry = references.get(workload)
    if entry is None:
        return None
    if entry.get("seed") is not None and entry["seed"] != seed:
        return None
    return entry["cells"]


def check(
    workload: str,
    untraced: Sequence[PassResult],
    traced: Optional[PassResult],
    expected: Optional[Dict[str, str]],
) -> List[str]:
    """Every output-check failure of a run, one message per failed cell run.

    Each untraced pass must match the first one, the traced pass must match
    it too (zero perturbation), and where references apply every digest
    must equal its reference.  Without references, miss-storm must show the
    paper's shape: HWDP's mean latency below OSDP's at every thread count.
    """
    problems: List[str] = []
    first = {cell.cell: cell.digest for cell in untraced[0].cells}
    runs = [(f"pass {i}", p) for i, p in enumerate(untraced, start=1)]
    if traced is not None:
        runs.append(("traced pass", traced))
    for label, result in runs:
        for cell in result.cells:
            if cell.error is not None:
                problems.append(f"{label} {cell.cell}: {cell.error}")
            elif expected is not None and expected.get(cell.cell) != cell.digest:
                problems.append(
                    f"{label} {cell.cell}: digest {cell.digest} != reference "
                    f"{expected.get(cell.cell)}"
                )
            elif cell.digest != first.get(cell.cell):
                problems.append(
                    f"{label} {cell.cell}: digest {cell.digest} differs from "
                    f"pass 1's {first.get(cell.cell)}"
                )
        if expected is None and workload == "miss-storm":
            problems.extend(f"{label} {p}" for p in miss_storm_shape(result))
    return problems


def miss_storm_shape(result: PassResult) -> List[str]:
    latency = {cell.cell: cell.outputs.get("mean_latency_ns") for cell in result.cells}
    problems = []
    for threads in MISS_THREADS:
        hwdp, osdp = latency.get(f"hwdp/t{threads}"), latency.get(f"osdp/t{threads}")
        if hwdp is None or osdp is None:
            continue  # the failed cell is already reported
        if not hwdp < osdp:
            problems.append(
                f"hwdp/t{threads}: mean latency {hwdp:.0f} ns is not below "
                f"osdp's {osdp:.0f} ns"
            )
    return problems


def paper_context(workload: str, result: PassResult) -> Optional[str]:
    """The simulated HWDP gain beside the paper's range (context, not a check)."""
    values = {cell.cell: cell.outputs for cell in result.cells if cell.digest}
    if workload == "kv-grid":
        gains = [
            100.0 * (values[f"{w}/t{t}/hwdp"]["throughput"]
                     / values[f"{w}/t{t}/osdp"]["throughput"] - 1.0)
            for w in KV_WORKLOADS for t in THREAD_COUNTS
            if f"{w}/t{t}/hwdp" in values and f"{w}/t{t}/osdp" in values
        ]
        if gains:
            return (f"simulated HWDP throughput gain {min(gains):+.1f} % .. "
                    f"{max(gains):+.1f} % (paper Fig. 13: +5.3 % .. +57.1 %)")
    if workload == "miss-storm":
        parts = []
        for threads in MISS_THREADS:
            hwdp, osdp = values.get(f"hwdp/t{threads}"), values.get(f"osdp/t{threads}")
            if hwdp and osdp:
                cut = 100.0 * (1.0 - hwdp["mean_latency_ns"] / osdp["mean_latency_ns"])
                parts.append(f"{threads} thread(s) {cut:.1f} %")
        if parts:
            return ("simulated HWDP latency reduction " + ", ".join(parts)
                    + " (paper Fig. 12: 37 % at 1 thread, 27 % at 8)")
    return None
