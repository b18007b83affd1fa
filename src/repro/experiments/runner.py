"""Experiment harness: scale presets, system construction, result tables.

Every paper figure/table has one module in this package exposing a
``run(scale=QUICK) -> ExperimentResult`` function.  Results carry rows
(list of dicts), the paper's reference values for side-by-side comparison,
and render to aligned text — that text is what the benchmark harness
prints, mirroring the rows/series the paper reports.

Scale: the paper runs 64 GB datasets against 32 GB DRAM for 32 M
operations; a pure-Python event simulation reproduces the *ratios* at
reduced size.  ``QUICK`` keeps CI fast; ``PAPER_SHAPE`` is the larger
standalone setting.  To reach steady state cheaply, throughput experiments
pre-warm memory with the access distribution's hottest pages (the state a
long run converges to) instead of simulating millions of warm-up faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.config import (
    ControlPlaneConfig,
    CpuConfig,
    DeviceConfig,
    MemoryConfig,
    PagingMode,
    SmuConfig,
    SystemConfig,
    ZSSD,
)
from repro.core.system import System, build_system
from repro.os.vma import Vma
from repro.workloads.distributions import fnv1a_64


# ----------------------------------------------------------------------
# scale presets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade fidelity for wall-clock time."""

    name: str
    #: Physical frames of the simulated machine (paper: 8 M frames/32 GB).
    memory_frames: int
    #: Dataset pages per 1× of memory (dataset = ratio × this × frames).
    ops_per_thread: int
    #: Free-page-queue depth (paper: 4096 = 0.05 % of memory).
    free_queue_depth: int
    #: kpted / kpoold periods, scaled with run length.
    kpted_period_ns: float
    kpoold_period_ns: float
    #: Thread counts swept by the multi-thread figures.
    thread_counts: Sequence[int] = (1, 2, 4, 8)
    #: Cold-start YCSB cells issue ``cold_coverage x dataset_pages`` total
    #: operations (the paper's regime: 32 M ops over a 16 M-record store).
    cold_coverage: float = 1.0
    #: How much longer a cell runs at this scale relative to ``QUICK``;
    #: the supervisor multiplies its per-cell timeout budget by this.
    timeout_scale: float = 1.0


QUICK = ExperimentScale(
    name="quick",
    memory_frames=1024,
    ops_per_thread=120,
    free_queue_depth=96,
    kpted_period_ns=400_000.0,
    kpoold_period_ns=120_000.0,
    thread_counts=(1, 2, 4, 8),
    cold_coverage=2.0,
)

PAPER_SHAPE = ExperimentScale(
    name="paper-shape",
    memory_frames=4096,
    ops_per_thread=600,
    free_queue_depth=256,
    kpted_period_ns=1_500_000.0,
    kpoold_period_ns=250_000.0,
    thread_counts=(1, 2, 4, 8),
    cold_coverage=3.0,
    # fig13@paper-shape cells run ~7x their quick-scale time (BENCH_2).
    timeout_scale=8.0,
)


# ----------------------------------------------------------------------
# system construction
# ----------------------------------------------------------------------
def experiment_config(
    mode: PagingMode,
    scale: ExperimentScale,
    device: DeviceConfig = ZSSD,
    seed: int = 0xD5EED,
    kpoold_enabled: bool = True,
    pmshr_entries: int = 32,
    prefetch_entries: int = 16,
) -> SystemConfig:
    """Build a :class:`SystemConfig` for one experiment cell."""
    return SystemConfig(
        mode=mode,
        cpu=CpuConfig(),
        device=device,
        memory=MemoryConfig(total_frames=scale.memory_frames),
        smu=SmuConfig(
            free_page_queue_depth=scale.free_queue_depth,
            pmshr_entries=pmshr_entries,
            prefetch_buffer_entries=prefetch_entries,
        ),
        control_plane=ControlPlaneConfig(
            kpted_period_ns=scale.kpted_period_ns,
            kpoold_period_ns=scale.kpoold_period_ns,
            kpoold_enabled=kpoold_enabled,
        ),
        master_seed=seed,
    )


def build(mode: PagingMode, scale: ExperimentScale, **kwargs) -> System:
    return build_system(experiment_config(mode, scale, **kwargs))


# ----------------------------------------------------------------------
# steady-state pre-warm
# ----------------------------------------------------------------------
def usable_data_frames(system: System) -> int:
    """Frames the steady state can devote to file data."""
    kernel = system.kernel
    reserve = kernel.config.memory.high_watermark + 32
    return max(0, kernel.frame_pool.free_frames - reserve)


def prewarm_pages(system: System, thread: Any, vma: Vma, pages: Iterable[int]) -> int:
    """Bulk-install file pages as warm, synced residents (no simulated time).

    Reproduces the state a long run converges to: memory holds the access
    distribution's hot set, fully registered in page cache and LRU.
    Insertion order is coldest-first so the LRU evicts cold pages first.
    The budget leaves the watermark reserve free, so the frame pool never
    runs dry here.
    """
    return system.kernel.install_resident_pages(
        thread.process, vma, pages, usable_data_frames(system)
    )


def zipfian_hot_pages(dataset_pages: int, count: int) -> List[int]:
    """The hottest ``count`` pages under a scrambled-zipfian request stream
    (rank *r*'s page is ``fnv(r) % n``), coldest first."""
    hot: List[int] = []
    seen = set()
    rank = 0
    while len(hot) < min(count, dataset_pages) and rank < dataset_pages * 4:
        page = fnv1a_64(rank) % dataset_pages
        if page not in seen:
            seen.add(page)
            hot.append(page)
        rank += 1
    return list(reversed(hot))


def uniform_resident_pages(dataset_pages: int, count: int, rng) -> List[int]:
    """A random resident subset, the steady state of a uniform stream."""
    count = min(count, dataset_pages)
    return list(rng.choice(dataset_pages, size=count, replace=False))


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class ExperimentResult:
    """One experiment's reproduced table plus the paper's reference."""

    name: str
    title: str
    headers: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    paper_reference: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def row_where(self, **match: Any) -> Dict[str, Any]:
        for row in self.rows:
            if all(row.get(key) == value for key, value in match.items()):
                return row
        raise KeyError(f"no row matching {match} in {self.name}")

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialise to JSON (the process-boundary / cache wire format)."""
        import json

        return json.dumps(
            {
                "name": self.name,
                "title": self.title,
                "headers": self.headers,
                "rows": self.rows,
                "paper_reference": self.paper_reference,
                "notes": self.notes,
            },
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Inverse of :meth:`to_json`; round-trips to identical text."""
        import json

        data = json.loads(text)
        return cls(
            name=data["name"],
            title=data["title"],
            headers=list(data["headers"]),
            rows=[dict(row) for row in data["rows"]],
            paper_reference=dict(data["paper_reference"]),
            notes=list(data["notes"]),
        )

    # ------------------------------------------------------------------
    def to_text(self) -> str:
        lines = [f"== {self.name}: {self.title} =="]
        table = [self.headers] + [
            [_fmt(row.get(header)) for header in self.headers] for row in self.rows
        ]
        widths = [
            max(len(line[column]) for line in table) for column in range(len(self.headers))
        ]
        for line_no, line in enumerate(table):
            rendered = "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line))
            lines.append(rendered.rstrip())
            if line_no == 0:
                lines.append("  ".join("-" * width for width in widths))
        if self.paper_reference:
            lines.append("-- paper reference --")
            for key, value in self.paper_reference.items():
                lines.append(f"  {key}: {value}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    if isinstance(value, int) and not isinstance(value, bool) and abs(value) >= 1000:
        # Counter tallies are ints; large ones keep the same thousands-
        # separated rendering they had as floats.
        return f"{value:,d}"
    return str(value)


# ----------------------------------------------------------------------
# shared measurement helpers
# ----------------------------------------------------------------------
def run_driver(system: System, driver: Any, num_threads: int) -> float:
    """prepare + launch + run; returns elapsed simulated ns."""
    driver.prepare(system, num_threads)
    start = system.sim.now
    system.run(driver.launch(system))
    return system.sim.now - start


def aggregate_perf(threads: Sequence[Any]):
    from repro.cpu.perf import aggregate

    return aggregate([thread.perf for thread in threads])
