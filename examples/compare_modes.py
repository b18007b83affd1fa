#!/usr/bin/env python3
"""Head-to-head comparison of all three demand-paging implementations.

Runs the same seeded workload on OSDP, SWDP and HWDP machines and prints
one table of headline numbers — the shape of the paper's whole evaluation
in one screen.  Thread counters come from
``repro.cpu.perf.aggregate(thread.perf for thread in driver.threads)``;
machine counters from the system's metrics registry,
``system.metrics.collect()``.

Run:  python examples/compare_modes.py [--workload fio|dbbench|ycsb-c]
"""

import argparse

from repro.config import PagingMode
from repro.cpu.perf import aggregate
from repro.experiments.runner import QUICK
from repro.experiments.workload_runs import run_kv_workload

MODES = (PagingMode.OSDP, PagingMode.SWDP, PagingMode.HWDP)

#: (metric, higher_is_better)
METRICS = (
    ("throughput (ops/s)", True),
    ("mean op latency (us)", False),
    ("p99 op latency (us)", False),
    ("user IPC", True),
    ("kernel instructions", False),
    ("device reads", False),
)


def measure(workload: str, mode: PagingMode):
    cell = run_kv_workload(workload, mode, QUICK, threads=4)
    perf = aggregate(thread.perf for thread in cell.driver.threads)
    machine = cell.system.metrics.collect()
    latency = cell.driver.op_latency
    return {
        "throughput (ops/s)": perf.operations / (cell.elapsed_ns / 1e9),
        "mean op latency (us)": latency.mean / 1e3,
        "p99 op latency (us)": latency.percentile(99) / 1e3,
        "user IPC": perf.user_ipc,
        "kernel instructions": perf.kernel_instructions,
        "device reads": machine["device.reads_completed"],
    }


def improvement(baseline: float, challenger: float, higher_is_better: bool) -> str:
    """Percent by which ``challenger`` improves on ``baseline``."""
    if not baseline:
        return "n/a"
    ratio = challenger / baseline
    return f"{100.0 * (ratio - 1.0 if higher_is_better else 1.0 - ratio):+.1f}%"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workload", default="fio", choices=["fio", "dbbench", "ycsb-c", "ycsb-a"]
    )
    args = parser.parse_args()

    runs = {mode: measure(args.workload, mode) for mode in MODES}
    osdp, swdp, hwdp = (runs[mode] for mode in MODES)

    print(f"workload: {args.workload}, 4 threads, dataset = 2x memory\n")
    header = (
        f"{'metric':22s}" + "".join(f"  {mode.value:>12s}" for mode in MODES)
        + f"  {'hwdp vs osdp':>12s}  {'hwdp vs swdp':>12s}"
    )
    print(header)
    print("-" * len(header))
    for name, higher_is_better in METRICS:
        print(
            f"{name:22s}"
            + "".join(f"  {runs[mode][name]:12,.2f}" for mode in MODES)
            + f"  {improvement(osdp[name], hwdp[name], higher_is_better):>12s}"
            + f"  {improvement(swdp[name], hwdp[name], higher_is_better):>12s}"
        )
    print(
        "\nThe software-only fast path already removes most OS overhead;"
        "\nthe hardware removes what is left (paper Figure 17)."
    )


if __name__ == "__main__":
    main()
