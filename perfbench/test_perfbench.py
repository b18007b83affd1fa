"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

The full-length reconciliation test runs fig13's grid at its own length and
takes about a minute; the rest take a few seconds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench_workloads as bw  # noqa: E402
import run  # noqa: E402
from bench_trace import Tracer, resolve  # noqa: E402


def _layers():
    return json.loads((BENCH_DIR / "layers.json").read_text())


def _wraps():
    return {name: layer["wraps"] for name, layer in _layers()["layers"].items()}


# ----------------------------------------------------------------------
# the generator wrapper
# ----------------------------------------------------------------------
class _Tick:
    """A clock that advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def _toy(log):
    """Echoes sends, recovers from ValueError, records its close."""
    try:
        received = yield "ready"
        while received != "stop":
            try:
                received = yield f"echo {received}"
            except ValueError as exc:
                received = yield f"recovered {exc}"
        return "done"
    finally:
        log.append("closed")


def test_generator_wrapper_forwards_send_throw_and_return():
    tracer = Tracer()
    log = []
    traced = tracer.wrap(_toy, "toy", "toy")

    def caller():
        result = yield from traced(log)
        log.append(result)

    gen = caller()
    assert next(gen) == "ready"
    assert gen.send("a") == "echo a"
    assert gen.throw(ValueError("boom")) == "recovered boom"
    assert gen.send("b") == "echo b"
    with pytest.raises(StopIteration):
        gen.send("stop")
    assert log == ["closed", "done"]
    assert tracer.totals()["calls"] == {"toy": 1}


def test_generator_wrapper_forwards_close_and_unhandled_throw():
    tracer = Tracer()
    log = []
    gen = tracer.wrap(_toy, "toy", "toy")(log)
    assert next(gen) == "ready"
    gen.close()
    assert log == ["closed"]

    gen = tracer.wrap(_toy, "toy", "toy")(log)
    next(gen)
    with pytest.raises(KeyError):
        gen.throw(KeyError("unhandled"))
    assert log == ["closed", "closed"]


def test_self_time_subtracts_child_spans():
    clock = _Tick()
    tracer = Tracer(clock=clock)

    def leaf():
        clock()  # one second of work

    def middle():
        clock()
        yield
        leaf_traced()
        clock()

    leaf_traced = tracer.wrap(leaf, "leaf", "leaf")
    middle_traced = tracer.wrap(middle, "middle", "middle")

    def root():
        for _ in middle_traced():
            pass

    tracer.wrap(root, "root", "root")()
    self_s = tracer.totals()["self_s"]
    # Every span's own clock readings (start, end) land in its parent: the
    # leaf spans 2 s of which 1 s is its own work plus one reading.
    assert self_s["leaf"] == 2.0
    assert sum(self_s.values()) == clock.now - 1.0  # root's span, start to end


def test_install_restores_every_original():
    wraps = _wraps()
    before = {path: resolve(path)[2] for paths in wraps.values() for path in paths}
    uninstall = Tracer().install(wraps)
    assert all(resolve(path)[2] is not fn for path, fn in before.items())
    uninstall()
    assert all(resolve(path)[2] is fn for path, fn in before.items())


# ----------------------------------------------------------------------
# a real workload, untraced and traced
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def miss_storm(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    untraced = bw.run_pass("miss-storm", bw.DEFAULT_SEED, work)
    tracer = Tracer()
    uninstall = tracer.install(_wraps())
    try:
        traced = bw.run_pass("miss-storm", bw.DEFAULT_SEED, work, tracer)
    finally:
        uninstall()
    return untraced, traced, tracer


def test_traced_pass_reproduces_untraced_digests(miss_storm):
    untraced, traced, tracer = miss_storm
    assert [c.digest for c in traced.cells] == [c.digest for c in untraced.cells]
    assert all(c.digest for c in untraced.cells)
    assert traced.counts == untraced.counts
    totals = tracer.totals()
    assert all(seconds > 0 for seconds in totals["self_s"].values()), totals["self_s"]
    assert totals["calls"]["repro.cpu.thread:ThreadContext.compute"] == untraced.counts["ops"]


def test_recorded_references_match(miss_storm):
    untraced, _, _ = miss_storm
    expected = bw.reference_digests(run.load_references(), "miss-storm", bw.DEFAULT_SEED)
    assert expected is not None
    assert bw.check("miss-storm", [untraced], None, expected) == []


def test_output_check_fails_on_perturbed_reference(miss_storm):
    untraced, traced, _ = miss_storm
    expected = {c.cell: c.digest for c in untraced.cells}
    assert bw.check("miss-storm", [untraced], traced, expected) == []
    perturbed = dict(expected, **{"hwdp/t8": "0" * 16})
    problems = bw.check("miss-storm", [untraced], traced, perturbed)
    assert problems and all("hwdp/t8" in p for p in problems)
    assert len(problems) == 2  # the untraced and the traced run of the cell


def test_output_check_fails_on_traced_divergence_and_broken_shape(miss_storm):
    untraced, traced, _ = miss_storm
    diverged = copy.deepcopy(traced)
    diverged.cells[0].digest = "f" * 16
    problems = bw.check("miss-storm", [untraced], diverged, None)
    assert len(problems) == 1 and problems[0].startswith("traced pass osdp/t1")

    broken = copy.deepcopy(untraced)
    for cell in broken.cells:
        if cell.cell == "hwdp/t1":
            cell.outputs["mean_latency_ns"] = 1e9
    problems = bw.check("miss-storm", [broken], None, None)
    assert any("hwdp/t1: mean latency" in p for p in problems)


# ----------------------------------------------------------------------
# metric names
# ----------------------------------------------------------------------
def test_metric_names_match_benchmark_json(miss_storm):
    untraced, traced, tracer = miss_storm
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = _layers()["per_layer"]
    assert bench["per_layer"] == [
        {"name": name, "unit": spec["unit"], "better": spec["better"]}
        for name, spec in per_layer.items()
    ]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    emitted = run.per_layer([untraced], traced, tracer, 0.4, untraced.wall_s + 0.4)
    assert list(emitted) == list(per_layer)
    assert set(run.end_to_end([untraced], 0.4, 60.0)) == set(run.END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert set(_layers()["workloads"]) == set(run.WORKLOADS)


def test_every_layer_metric_names_what_it_should_move():
    layers = _layers()
    for name, spec in layers["per_layer"].items():
        layer = name.split(".", 1)[0]
        moves = spec.get("moves") or layers["layers"].get(layer, {}).get("moves")
        assert moves, name


# ----------------------------------------------------------------------
# the command line
# ----------------------------------------------------------------------
def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "miss-storm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_kv_grid_at_fig13_length_reproduces_bench3_counts():
    result = bw.kv_grid_pass(bw.DEFAULT_SEED, bw.PAPER_SHAPE)
    assert [c.error for c in result.cells if c.error] == []
    assert result.counts["events"] == bw.FIG13_EVENTS
    assert result.counts["ops"] == bw.FIG13_OPS
