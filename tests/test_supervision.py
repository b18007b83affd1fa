"""Tests for supervised execution: worker death, timeouts, retries, resume.

The fault-injected specs register themselves in this test process; the
forked-task runner forks one child per task, so the spec objects (and
their closures) are inherited — no pickling of cell functions ever
happens, and only payloads cross the process boundary, as JSON lines.
Fault injection is sentinel-file based: attempt 1 finds no sentinel,
drops it, and dies/hangs; the retry finds it and succeeds, so the final
payload is exactly what a healthy serial run would produce.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import registry
from repro.experiments.cache import CellCache
from repro.experiments.engine import (
    CellFailure,
    ExperimentFailure,
    SupervisorConfig,
    cell_key,
    execute,
    plan_resume,
    scale_to_dict,
)
from repro.experiments.journal import RunJournal, find_run, load_state
from repro.experiments.registry import Cell, ExperimentSpec
from repro.experiments.runner import PAPER_SHAPE, QUICK, ExperimentResult

REPO_ROOT = Path(__file__).parent.parent
GOLDEN = REPO_ROOT / "benchmarks" / "output"


def _merge(scale, payloads):
    return ExperimentResult(
        name="sup-test",
        title="sup-test",
        headers=["x", "y"],
        rows=[{"x": p["x"], "y": p["y"]} for p in payloads],
    )


def _register(name, cell_fn, cells=2, **kwargs):
    spec = ExperimentSpec(
        name=name,
        title=name,
        cells=lambda scale, n=cells: [Cell.make(x=i) for i in range(n)],
        cell_fn=cell_fn,
        merge=_merge,
        **kwargs,
    )
    registry.register(spec)
    return spec


@pytest.fixture
def synthetic():
    """Register fault-injected specs for this test, then unregister."""
    names = []

    def factory(name, cell_fn, cells=2, **kwargs):
        names.append(name)
        return _register(name, cell_fn, cells=cells, **kwargs)

    yield factory
    for name in names:
        registry._SPECS.pop(name, None)


def _faulty_cell(sentinel_dir):
    """Dies hard (os._exit) on the first attempt at x=1; then succeeds."""

    def cell_fn(scale, params):
        if params["x"] == 1:
            sentinel = Path(sentinel_dir) / f"seen-{params['x']}"
            if not sentinel.exists():
                sentinel.write_text("")
                os._exit(17)
        return {"x": params["x"], "y": params["x"] * 10}

    return cell_fn


def _healthy_cell(scale, params):
    return {"x": params["x"], "y": params["x"] * 10}


# ----------------------------------------------------------------------
# worker death -> retry on a fresh worker
# ----------------------------------------------------------------------
def test_worker_death_is_retried_and_result_matches_serial(tmp_path, synthetic):
    spec = synthetic("sup-death", _faulty_cell(tmp_path), cells=3)
    journal = RunJournal.create(
        scale=scale_to_dict(QUICK), jobs=2, specs=[spec.name],
        run_id="death", root=tmp_path,
    )
    report = execute(
        [spec], QUICK, jobs=2, journal=journal,
        supervise=SupervisorConfig(max_retries=1),
    )
    journal.close()
    assert report.failures == []
    assert report.supervision["worker_deaths"] >= 1
    assert report.supervision["retries"] >= 1

    # Byte-identical to an uninterrupted serial run of the healthy grid.
    serial = execute([synthetic("sup-healthy", _healthy_cell, cells=3)], QUICK)
    assert report.results[0].rows == serial.results[0].rows
    assert report.results[0].to_text() == serial.results[0].to_text()

    # The journal shows the full transition history for the dying cell.
    state = load_state(tmp_path / "death")
    key = cell_key(spec, QUICK, Cell.make(x=1))
    record = state.cell(spec.name, key)
    assert record.state == "done"
    assert record.attempts == 2
    states = [s for s, _ in record.transitions]
    assert states[0] == "dispatched"
    assert "failed" in states
    assert states[-1] == "done"


def test_exhausted_retries_become_collected_failures(tmp_path, synthetic):
    def always_dies(scale, params):
        if params["x"] == 0:
            os._exit(23)
        return {"x": params["x"], "y": 0}

    spec = synthetic("sup-hopeless", always_dies, cells=3)
    with pytest.raises(ExperimentFailure) as excinfo:
        execute(
            [spec], QUICK, jobs=2,
            supervise=SupervisorConfig(max_retries=1),
        )
    failures = excinfo.value.failures
    assert len(failures) == 1
    assert failures[0].kind == "worker-died"
    assert failures[0].attempts == 2
    assert failures[0].params == {"x": 0}
    # The grid was not aborted: the report (raise_on_failure=False) still
    # computes the surviving cells and skips the merge for the broken spec.
    report = execute(
        [spec], QUICK, jobs=2, raise_on_failure=False,
        supervise=SupervisorConfig(max_retries=0),
    )
    assert report.incomplete == [spec.name]
    assert report.computed == 2
    assert report.result_for(spec.name) is None


# ----------------------------------------------------------------------
# timeouts
# ----------------------------------------------------------------------
def test_hung_cell_times_out_and_retry_succeeds(tmp_path, synthetic):
    def hangs_once(scale, params):
        if params["x"] == 1:
            sentinel = Path(tmp_path) / "hung"
            if not sentinel.exists():
                sentinel.write_text("")
                time.sleep(60)
        return {"x": params["x"], "y": params["x"]}

    spec = synthetic("sup-hang", hangs_once)
    journal = RunJournal.create(
        scale=scale_to_dict(QUICK), jobs=2, specs=[spec.name],
        run_id="hang", root=tmp_path,
    )
    report = execute(
        [spec], QUICK, jobs=2, journal=journal,
        supervise=SupervisorConfig(timeout_s=1.0, max_retries=1),
    )
    journal.close()
    assert report.failures == []
    assert report.supervision["timeouts"] == 1
    state = load_state(tmp_path / "hang")
    key = cell_key(spec, QUICK, Cell.make(x=1))
    states = [s for s, _ in state.cell(spec.name, key).transitions]
    assert "timeout" in states
    assert states[-1] == "done"


def test_timeout_budget_scales_with_cost_hint_and_scale():
    config = SupervisorConfig(timeout_s=10.0)
    light = ExperimentSpec(
        name="l", title="l", cells=lambda s: [], cell_fn=_healthy_cell,
        merge=_merge,
    )
    heavy = ExperimentSpec(
        name="h", title="h", cells=lambda s: [], cell_fn=_healthy_cell,
        merge=_merge, cost_hint=3.0,
    )
    assert config.cell_timeout(light, QUICK) == 10.0
    assert config.cell_timeout(heavy, QUICK) == 30.0
    assert config.cell_timeout(heavy, PAPER_SHAPE) == 10.0 * 3.0 * 8.0
    assert SupervisorConfig(timeout_s=None).cell_timeout(heavy, QUICK) is None


# ----------------------------------------------------------------------
# raising cells are collected, not fatal mid-grid (serial path too)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_cell_collected_all_cells_still_run(synthetic, jobs):
    ran = []

    def raises_at_one(scale, params):
        ran.append(params["x"])
        if params["x"] == 1:
            raise ValueError("injected")
        return {"x": params["x"], "y": 0}

    spec = synthetic(f"sup-raise-{jobs}", raises_at_one, cells=3)
    supervise = SupervisorConfig(max_retries=0) if jobs > 1 else None
    report = execute(
        [spec], QUICK, jobs=jobs, raise_on_failure=False, supervise=supervise,
    )
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure.kind == "exception"
    assert "injected" in failure.error
    assert failure.describe().startswith(f"sup-raise-{jobs}[x=1]: exception")
    assert report.computed == 2, "the other cells still computed"
    if jobs == 1:
        assert ran == [0, 1, 2], "serial path must not abort the grid"


# ----------------------------------------------------------------------
# interrupt -> drain -> resume is byte-identical
# ----------------------------------------------------------------------
def test_interrupt_drains_then_resume_is_byte_identical(tmp_path, synthetic):
    spec = synthetic("sup-drain", _healthy_cell, cells=6)
    cache = CellCache(tmp_path / "cache")
    journal = RunJournal.create(
        scale=scale_to_dict(QUICK), jobs=1, specs=[spec.name],
        run_id="drain", root=tmp_path,
    )
    calls = {"n": 0}

    def stop_after_two():
        calls["n"] += 1
        return calls["n"] > 2

    first = execute(
        [spec], QUICK, cache=cache, journal=journal,
        should_stop=stop_after_two, raise_on_failure=False,
    )
    journal.run_end("suspended", exit_code=3)
    journal.close()
    assert first.interrupted
    assert first.skipped > 0
    assert first.results == []

    state = load_state(tmp_path / "drain")
    assert state.end_state == "suspended"
    plan = plan_resume(state)
    assert plan.mismatches == []
    assert plan.skip_failed == {}

    resumed_journal = RunJournal.attach("drain", tmp_path)
    resumed = execute(
        plan.specs, plan.scale, cache=cache, journal=resumed_journal,
        skip_failed=plan.skip_failed,
    )
    resumed_journal.run_end("complete", exit_code=0)
    resumed_journal.close()
    serial = execute([spec], QUICK)
    assert resumed.results[0].to_text() == serial.results[0].to_text()
    assert resumed.cached == first.computed, "done cells resumed from cache"
    final = load_state(tmp_path / "drain")
    assert final.end_state == "complete"
    assert final.unfinished_cells() == []


# ----------------------------------------------------------------------
# resume planning refuses changed source
# ----------------------------------------------------------------------
def test_plan_resume_refuses_fingerprint_mismatch(tmp_path, synthetic):
    spec = synthetic("sup-fp", _healthy_cell)
    journal = RunJournal.create(
        scale=scale_to_dict(QUICK), jobs=1, specs=[spec.name],
        run_id="fp", root=tmp_path,
    )
    execute([spec], QUICK, journal=journal)
    journal.close()

    # Same name, bumped version: every cell key (and the fingerprint) moves.
    registry._SPECS.pop(spec.name)
    _register(spec.name, _healthy_cell, version=2)

    plan = plan_resume(load_state(tmp_path / "fp"))
    assert len(plan.mismatches) == 1
    assert "source fingerprint changed" in plan.mismatches[0]


def test_plan_resume_skips_prior_failures_unless_retrying(tmp_path, synthetic):
    spec = synthetic("sup-prior", _healthy_cell)
    journal = RunJournal.create(
        scale=scale_to_dict(QUICK), jobs=1, specs=[spec.name],
        run_id="prior", root=tmp_path,
    )
    keys = [cell_key(spec, QUICK, cell) for cell in spec.cells(QUICK)]
    journal.record_cells(
        spec.name, "fp", [(k, dict(c.params)) for k, c in zip(keys, spec.cells(QUICK))]
    )
    journal.cell_failed(spec.name, keys[0], 2, "broken", final=True)
    journal.close()

    state = load_state(tmp_path / "prior")
    plan = plan_resume(state)
    assert set(plan.skip_failed) == {(spec.name, keys[0])}
    assert plan.skip_failed[(spec.name, keys[0])].kind == "prior-failure"
    assert plan_resume(state, retry_failed=True).skip_failed == {}

    # skip_failed cells are re-reported, not re-dispatched.
    report = execute(
        plan.specs, plan.scale, skip_failed=plan.skip_failed,
        raise_on_failure=False,
    )
    assert [f.kind for f in report.failures] == ["prior-failure"]
    assert report.computed == 1


# ----------------------------------------------------------------------
# end-to-end chaos: SIGKILL the CLI mid-run, then --resume
# ----------------------------------------------------------------------
def _cli_env(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_RUNS_DIR"] = str(tmp_path / "runs")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    return env


def test_cli_sigkill_then_resume_matches_golden(tmp_path):
    env = _cli_env(tmp_path)
    out_dir = tmp_path / "out"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments",
            "--only", "variance", "--jobs", "2",
            "--run-id", "chaos", "--out", str(out_dir),
        ],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # Let it journal the header and land some cells, then kill it hard.
    deadline = time.monotonic() + 30.0
    journal_path = tmp_path / "runs" / "chaos" / "journal.jsonl"
    while time.monotonic() < deadline:
        if journal_path.exists() and journal_path.stat().st_size > 500:
            break
        time.sleep(0.05)
    time.sleep(0.6)
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30)

    state = load_state(find_run("chaos", tmp_path / "runs"))
    assert state.torn_lines <= 1, "kill -9 tears at most the final line"
    assert state.end_state is None
    assert state.unfinished_cells(), "the kill landed mid-run"

    done = subprocess.run(
        [
            sys.executable, "-m", "repro.experiments",
            "--resume", "chaos", "--out", str(out_dir),
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "[resume chaos:" in done.stderr
    assert (out_dir / "variance.txt").read_bytes() == (
        (GOLDEN / "variance.txt").read_bytes()
    )
    final = load_state(find_run("chaos", tmp_path / "runs"))
    assert final.end_state == "complete"
    assert final.unfinished_cells() == []


def test_cli_resume_refuses_unknown_run(tmp_path):
    env = _cli_env(tmp_path)
    result = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "--resume", "ghost"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert "ghost" in result.stderr


def test_cli_resume_of_checkpointed_run_refuses_observation(tmp_path):
    # The resumed run inherits the journal's --checkpoint-interval, so
    # observing it is the same usage error as passing both flags.
    env = _cli_env(tmp_path)
    first = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "--only", "fig11",
         "--checkpoint-interval", "500", "--run-id", "ckpt"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert first.returncode == 0, first.stderr
    journal = tmp_path / "runs" / "ckpt" / "journal.jsonl"
    recorded = journal.read_bytes()
    result = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "--resume", "ckpt",
         "--metrics", str(tmp_path / "metrics.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2, result.stderr
    assert "--checkpoint-interval" in result.stderr
    assert journal.read_bytes() == recorded, "a refused resume must not touch the journal"
