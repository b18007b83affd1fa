"""Engine-level tests of shared-warmup warm start.

A small synthetic :class:`WarmupSpec` grid — two groups of three cells —
runs through :func:`repro.experiments.engine.execute`.  The specs are never
registered: the runners must call the spec object they were handed, in
this process and in forked children alike.  ``prefix`` appends one line
per call to a marker file, so the tests can count prefix simulations
across process boundaries.  ``finish`` mutates the shared context, so a
warm cell only matches its cold twin if every cell forks from a pristine
prefix image.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments.cache import CellCache
from repro.experiments.engine import SupervisorConfig, cell_key, execute, scale_to_dict
from repro.experiments.journal import RunJournal, load_state
from repro.experiments.registry import Cell, ExperimentSpec, WarmupSpec
from repro.experiments.runner import QUICK, ExperimentResult
from repro.sim import Simulator

CELLS = 6


def _merge(scale, payloads):
    return ExperimentResult(
        name="warm-test",
        title="warm-test",
        headers=["g", "x", "y"],
        rows=[{key: p[key] for key in ("g", "x", "y")} for p in payloads],
    )


class _WarmedSystem:
    """The ``system`` a prefix context hands the engine to digest: a
    simulator that has dispatched ``events`` events."""

    def __init__(self, events):
        self.sim = Simulator()
        for index in range(events):
            self.sim.schedule(float(index), lambda: None)
        self.sim.run()


def _warm_spec(name, marker, on_finish=None, with_system=False):
    """Cells (g, x) for g in 0..1, x in 0..2; the warmup depends on g only.

    ``with_system`` puts a simulated system in the prefix context, which
    the engine digests when the run has a cache.
    """

    def group(params):
        return {"g": params["g"]}

    def prefix(scale, group_params):
        with open(marker, "a") as handle:
            handle.write(f"{group_params['g']}\n")
        ctx = {"base": 100 * group_params["g"]}
        if with_system:
            ctx["system"] = _WarmedSystem(3 + group_params["g"])
        return ctx

    def finish(scale, params, ctx):
        if on_finish is not None:
            on_finish(params)
        ctx["base"] += params["x"]
        return {"g": params["g"], "x": params["x"], "y": ctx["base"]}

    return ExperimentSpec(
        name=name,
        title=name,
        cells=lambda scale: [Cell.make(g=g, x=x) for g in range(2) for x in range(3)],
        cell_fn=lambda scale, params: finish(scale, params, prefix(scale, group(params))),
        merge=_merge,
        warmup=WarmupSpec(group=group, prefix=prefix, finish=finish),
    )


def _prefix_calls(marker):
    return len(Path(marker).read_text().splitlines()) if Path(marker).exists() else 0


def _cold_text(tmp_path):
    spec = _warm_spec("warm-cold", tmp_path / "cold-prefix.log")
    report = execute([spec], QUICK, warm_start=False)
    assert report.supervision["warm_cells"] == 0
    assert _prefix_calls(tmp_path / "cold-prefix.log") == CELLS
    return report.results[0].to_text()


def _running(pid):
    """True while ``pid`` is a live (not zombie) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def test_prefix_runs_once_per_group(tmp_path):
    marker = tmp_path / "prefix.log"
    report = execute([_warm_spec("warm-once", marker)], QUICK)
    assert _prefix_calls(marker) == 2, "one prefix simulation per group"
    assert report.supervision["warm_groups"] == 2
    assert report.supervision["warm_cells"] == CELLS
    assert report.results[0].to_text() == _cold_text(tmp_path)


@pytest.mark.parametrize("jobs", [1, 2])
def test_warm_start_survives_timeout_supervision(tmp_path, jobs):
    marker = tmp_path / "prefix.log"
    report = execute(
        [_warm_spec(f"warm-supervised-{jobs}", marker)], QUICK, jobs=jobs,
        supervise=SupervisorConfig(timeout_s=60.0),
    )
    assert report.supervision["warm_cells"] == CELLS
    assert _prefix_calls(marker) == 2
    assert report.results[0].to_text() == _cold_text(tmp_path)


def test_raising_finish_falls_back_cold_and_is_reported(tmp_path):
    def raise_at_g0_x1(params):
        if (params["g"], params["x"]) == (0, 1):
            raise ValueError("injected finish error")

    marker = tmp_path / "prefix.log"
    spec = _warm_spec("warm-raise", marker, on_finish=raise_at_g0_x1)
    report = execute([spec], QUICK, raise_on_failure=False)
    assert report.supervision["warm_cells"] == CELLS - 1
    assert _prefix_calls(marker) == 3, "the failed cell reran cold, prefix included"
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure.kind == "exception"
    assert failure.params == {"g": 0, "x": 1}
    assert "ValueError: injected finish error" in failure.error
    assert report.incomplete == [spec.name]
    assert report.computed == CELLS - 1


def test_timed_out_leader_is_killed_with_its_grandchild(tmp_path):
    sentinel = tmp_path / "hung"
    pid_file = tmp_path / "hung.pid"

    def hang_once_at_g0_x1(params):
        if (params["g"], params["x"]) == (0, 1) and not sentinel.exists():
            sentinel.write_text("")
            pid_file.write_text(str(os.getpid()))
            time.sleep(60)

    marker = tmp_path / "prefix.log"
    spec = _warm_spec("warm-hang", marker, on_finish=hang_once_at_g0_x1)
    journal = RunJournal.create(
        scale=scale_to_dict(QUICK), jobs=1, specs=[spec.name], run_id="hang", root=tmp_path,
    )
    started = time.monotonic()
    report = execute(
        [spec], QUICK, journal=journal,
        supervise=SupervisorConfig(timeout_s=1.0, max_retries=0),
    )
    journal.close()
    assert time.monotonic() - started < 30.0, "the hung group was not killed"
    assert report.failures == []
    assert report.supervision["timeouts"] == 1
    # g=0's first cell reported before the hang; the hung cell and the one
    # after it never did, so both reran cold.
    assert report.supervision["warm_cells"] == CELLS - 2
    assert report.results[0].to_text() == _cold_text(tmp_path)

    hung = int(pid_file.read_text())
    deadline = time.monotonic() + 5.0
    while _running(hung) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(hung), "the hung grandchild outlived its leader"

    state = load_state(tmp_path / "hang")
    record = state.cell(spec.name, cell_key(spec, QUICK, Cell.make(g=0, x=1)))
    states = [s for s, _ in record.transitions]
    assert "timeout" in states
    assert states[-1] == "done"


def test_prefix_digest_is_recorded_and_divergence_reported(tmp_path, capsys):
    cache = CellCache(tmp_path / "cache")
    spec = _warm_spec("warm-digest", tmp_path / "prefix.log", with_system=True)
    execute([spec], QUICK, cache=cache)
    spec_dir = tmp_path / "cache" / spec.name
    artifacts = sorted(spec_dir.glob("prefix-*.json"))
    assert len(artifacts) == 2, "one prefix artifact per group"
    entries = [json.loads(path.read_text()) for path in artifacts]
    assert sorted(entry["events"] for entry in entries) == [3, 4]
    assert all(len(entry["digest"]) == 64 for entry in entries)

    # Tamper one recorded digest and drop the cached cells, so the next
    # run simulates both prefixes again and checks them.
    artifacts[0].write_text(json.dumps(dict(entries[0], digest="0" * 64)))
    for path in spec_dir.glob("*.json"):
        if not path.name.startswith("prefix-"):
            path.unlink()
    journal = RunJournal.create(
        scale=scale_to_dict(QUICK), jobs=1, specs=[spec.name], run_id="diverge", root=tmp_path,
    )
    capsys.readouterr()
    report = execute([spec], QUICK, cache=cache, journal=journal)
    journal.close()
    assert report.supervision["warm_cells"] == CELLS
    assert capsys.readouterr().err.count("diverged from the recorded digest") == 1
    notes = [note for note in load_state(tmp_path / "diverge").notes
             if note["name"] == "warm_prefix_divergence"]
    assert len(notes) == 1
    assert notes[0]["recorded"] == "0" * 64
    assert notes[0]["observed"] == entries[0]["digest"]
    assert json.loads(artifacts[0].read_text())["digest"] == entries[0]["digest"]


def test_no_cache_computes_no_prefix_digest(tmp_path, monkeypatch):
    def refuse(root):
        raise AssertionError("prefix digest computed with no cache to record it")

    monkeypatch.setattr("repro.sim.checkpoint.state_digest", refuse)
    marker = tmp_path / "prefix.log"
    report = execute([_warm_spec("warm-no-digest", marker, with_system=True)], QUICK)
    assert report.supervision["warm_cells"] == CELLS, "every cell came from its warm group"
    assert _prefix_calls(marker) == 2
    assert report.results[0].to_text() == _cold_text(tmp_path)
