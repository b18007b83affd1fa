"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kv-grid --seed 876269 --seconds 30 --trace 0
    python3 perfbench/run.py --workload miss-storm --trace 1
    python3 perfbench/run.py --workload zoo-warm --record

A run imports the program from ``src/``, then repeats untraced passes over
the workload's fixed cell grid (at least one, and more while another pass
still fits in ``--seconds``).  Host times are scaled to a reference host
speed by probes timed between cells (``host_speed.py``).  With ``--trace 1`` one traced pass follows:
public functions of each layer are wrapped from outside (``layers.json``),
and the pass must reproduce the untraced digests exactly.  Every cell's
outputs are checked (``bench_workloads.check``); the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Human-readable detail goes to standard error.

``--record`` runs one pass and rewrites the workload's reference digests
in ``references.json``; a change that alters the model on purpose records
them again.

Exit status: 0 when a result was printed, whether or not it is correct;
2 when the program's sources are not there; 1 on any other error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
LAYERS_FILE = BENCH_DIR / "layers.json"
REFERENCES_FILE = BENCH_DIR / "references.json"
#: Scratch space for zoo-warm's journal and cell records; removed at exit.
WORK_DIR = BENCH_DIR / ".work"
#: Fresh interpreters that time the import besides this process's own.
IMPORT_SAMPLES = 4
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = [{bench!r}, {src!r}]\n"
    "started = time.perf_counter()\n"
    "import bench_workloads\n"
    "print(time.perf_counter() - started)\n"
)

WORKLOADS = ("kv-grid", "miss-storm", "zoo-warm")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0xD5EED,
                        help="master_seed of kv-grid and miss-storm cells "
                        "(zoo-warm's seed is fixed by its spec)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time: untraced passes repeat while "
                        "another one fits (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite this workload's reference digests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean_pass_wall(passes: list) -> float:
    """Mean scaled pass wall.  Mean, not median: host speed alternates
    between two levels for seconds at a time, and what the probes do not
    correct of that a median over passes would snap to one level."""
    return statistics.fmean(p.scaled_wall_s for p in passes)


def speed_ratio(result: Any) -> float:
    """Scaled over raw host seconds of one pass (1 at reference speed)."""
    return ratio(result.scaled_wall_s, result.wall_s)


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """The ``fraction`` percentile by nearest rank (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def import_program() -> Tuple[Any, float]:
    """Import the benchmark's modules from ``src/``; returns the import time
    scaled to the reference host speed, the median over this process and
    :data:`IMPORT_SAMPLES` fresh interpreters."""
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    started = time.perf_counter()
    import bench_workloads

    samples = [time.perf_counter() - started]
    import host_speed
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise RuntimeError(f"repro imported from {repro.__file__}, not {SRC}")
    probe = _IMPORT_PROBE.format(bench=str(BENCH_DIR), src=str(SRC))
    speed = [host_speed.probe()]
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    speed.append(host_speed.probe())
    raw, scaled = host_speed.scale(speed)
    return bench_workloads, median(samples) * scaled / raw


def load_layers() -> Dict[str, Any]:
    return json.loads(LAYERS_FILE.read_text())


def load_references() -> Dict[str, Any]:
    if not REFERENCES_FILE.is_file():
        return {}
    return json.loads(REFERENCES_FILE.read_text())


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """The larger of this process's and its children's maximum RSS."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def run_passes(bench: Any, args: argparse.Namespace, work_dir: Path
               ) -> Tuple[list, float, Any, Any]:
    """Untraced passes for ``--seconds``, then the traced pass if asked.

    Also returns the peak RSS after the first pass: later passes repeat the
    same work, and how many of them fit in the run must not move it.
    """
    from bench_trace import Tracer

    passes = []
    started = time.perf_counter()
    while True:
        gc.collect()
        result = bench.run_pass(args.workload, args.seed, work_dir)
        passes.append(result)
        if len(passes) == 1:
            peak_mb = peak_rss_mb()
        if time.perf_counter() - started + result.wall_s > args.seconds:
            break
    traced = tracer = None
    if args.trace:
        gc.collect()
        tracer = Tracer()
        wraps = {name: layer["wraps"] for name, layer in load_layers()["layers"].items()}
        uninstall = tracer.install(wraps)
        try:
            traced = bench.run_pass(args.workload, args.seed, work_dir, tracer)
        finally:
            uninstall()
    return passes, peak_mb, traced, tracer


def setup_total(result: Any) -> float:
    """The pass's summed per-cell set-up, scaled like its wall time."""
    return sum(result.setup.values()) * speed_ratio(result)


def end_to_end(passes: list, import_s: float, peak_mb: float) -> Dict[str, float]:
    return {
        "wall_s": import_s + mean_pass_wall(passes),
        "setup_s": import_s + median([setup_total(p) for p in passes]),
        "peak_rss_mb": peak_mb,
    }


def per_layer(passes: list, traced: Any, tracer: Any, import_s: float,
              wall_s: float) -> Dict[str, float]:
    counts = traced.counts
    totals = tracer.totals()
    self_s, calls = totals["self_s"], totals["calls"]
    events = counts.get("events", 0)
    walls = [w for p in passes for w in p.experiments["cell_walls_s"]]
    return {
        "sim.events": events,
        "sim.self_s": self_s["sim"],
        "sim.ns_per_event": ratio(mean_pass_wall(passes) * 1e9, events),
        "cpu.compute.calls": calls["repro.cpu.thread:ThreadContext.compute"],
        "cpu.self_s": self_s["cpu"],
        "workloads.ops": counts.get("ops", 0),
        "workloads.self_s": self_s["workloads"],
        "vm.translate.calls": calls["repro.vm.mmu:Mmu.translate"],
        "vm.walks": counts.get("tlb_misses", 0),
        "vm.tlb_hit_ratio": ratio(
            counts.get("tlb_hits", 0), counts.get("tlb_hits", 0) + counts.get("tlb_misses", 0)
        ),
        "vm.self_s": self_s["vm"],
        "os.faults": counts.get("faults", 0),
        "os.evictions": counts.get("evictions", 0),
        "os.writebacks": counts.get("writebacks", 0),
        "os.kpted_synced": counts.get("kpted_synced", 0),
        "os.sync_refills": counts.get("sync_refills", 0),
        "os.self_s": self_s["os"],
        "core.misses": counts.get("smu_misses", 0),
        "core.fallbacks": counts.get("smu_fallbacks", 0),
        "core.pmshr_coalesce_ratio": ratio(
            counts.get("pmshr_coalesced", 0),
            counts.get("pmshr_allocated", 0) + counts.get("pmshr_coalesced", 0),
        ),
        "core.prefetch_useful_ratio": ratio(
            counts.get("prefetch_completed", 0), counts.get("prefetch_attempted", 0)
        ),
        "core.self_s": self_s["core"],
        "storage.reads": counts.get("reads", 0),
        "storage.writes": counts.get("writes", 0),
        "storage.read_time_ns.p50": nearest_rank(traced.read_times_ns, 0.50),
        "storage.read_time_ns.p99": nearest_rank(traced.read_times_ns, 0.99),
        "storage.self_s": self_s["storage"],
        "setup.import_s": import_s,
        "setup.build_s": median([p.setup["build_s"] * speed_ratio(p) for p in passes]),
        "setup.prepare_s": median([p.setup["prepare_s"] * speed_ratio(p) for p in passes]),
        "setup.prewarm_s": median([p.setup["prewarm_s"] * speed_ratio(p) for p in passes]),
        "experiments.overhead_s": median(
            [p.experiments["execute_s"] - sum(p.experiments["cell_walls_s"]) for p in passes]
        ),
        "experiments.cell_wall_s.p50": nearest_rank(walls, 0.50),
        "experiments.cell_wall_s.p80": nearest_rank(walls, 0.80),
        "experiments.warm_cell_ratio": ratio(
            passes[0].experiments["warm_cells"], len(passes[0].cells)
        ),
        "trace.overhead_ratio": ratio(import_s + traced.scaled_wall_s, wall_s),
        "host.speed_ratio": statistics.fmean(speed_ratio(p) for p in passes),
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def record(bench: Any, args: argparse.Namespace, work_dir: Path) -> int:
    result = bench.run_pass(args.workload, args.seed, work_dir)
    errors = [f"{c.cell}: {c.error}" for c in result.cells if c.error is not None]
    if errors:
        print("not recorded, cells failed:\n  " + "\n  ".join(errors), file=sys.stderr)
        return 1
    references = load_references()
    references[args.workload] = {
        "seed": None if args.workload == "zoo-warm" else args.seed,
        "cells": {cell.cell: cell.digest for cell in result.cells},
    }
    REFERENCES_FILE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(result.cells)} digests for {args.workload}", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    bench, import_s = import_program()
    WORK_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        if args.record:
            return record(bench, args, work_dir)
        passes, peak_mb, traced, tracer = run_passes(bench, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    expected = bench.reference_digests(load_references(), args.workload, args.seed)
    problems = bench.check(args.workload, passes, traced, expected)
    attempted = sum(len(p.cells) for p in passes) + (len(traced.cells) if traced else 0)
    failed_runs = {message.split(":", 1)[0] for message in problems}
    metrics = end_to_end(passes, import_s, peak_mb)
    layer_metrics = None
    if traced is not None:
        layer_metrics = per_layer(passes, traced, tracer, import_s, metrics["wall_s"])

    units = {name: spec["unit"] for name, spec in load_layers()["per_layer"].items()}
    units.update(END_TO_END)
    shown = dict(metrics, **(layer_metrics or {}))
    print(f"{args.workload} seed={args.seed}: {len(passes)} untraced pass(es)"
          + (", 1 traced pass" if traced else "")
          + (", references apply" if expected is not None else ", no references"),
          file=sys.stderr)
    for name, value in shown.items():
        print(f"  {name:32s} {value:16.6g} {units[name]}", file=sys.stderr)
    context = bench.paper_context(args.workload, passes[0])
    if context:
        print(f"  context only, model unvalidated: {context}", file=sys.stderr)
    for message in problems:
        print(f"  CHECK FAILED {message}", file=sys.stderr)

    reported = layer_metrics if args.trace else metrics
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": min(attempted, len(failed_runs)),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in reported.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
