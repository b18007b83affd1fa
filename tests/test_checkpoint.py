"""Checkpoint/restore: canonical capture, artifacts, and replay identity.

The heart of the suite is the fresh-process resume property test
(satellite of the checkpoint PR): snapshot an arbitrary event boundary
mid-run, restore it in a brand-new interpreter, run to completion, and
require the *entire final machine state* — the full canonical state
digest, plus kernel counters and device tallies — to be byte-identical
to the uninterrupted run.  All four paging paths are covered (osdp,
swdp, hwdp, and hwdp forced onto its queue-empty fallback route), each
with an active fault plan, so replay determinism is proven under
injected storage errors, not just on the happy path.

When executed as a script (``python -m tests.test_checkpoint <path>
<events> <digest>``) the module becomes the fresh-process resume driver
the property test forks.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import PagingMode
from repro.mem.address import PAGE_SHIFT
from repro.sim.checkpoint import (
    CHECKPOINT_SCHEMA,
    Checkpoint,
    CheckpointError,
    CheckpointObserver,
    canonical_json,
    capture_state,
    load_checkpoint,
    restore,
    save_checkpoint,
    snapshot_system,
    state_digest,
)
from repro.experiments.engine import execute, scale_to_dict
from repro.experiments.journal import RunJournal, load_state
from repro.experiments.runner import QUICK
from repro.faults import read_error_plan
from tests.helpers import build_mapped_system

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Fixed post-completion drain horizon; both legs run it identically.
_DRAIN_NS = 500_000.0

#: The four paging paths of the resume property test.  ``hwdp-fallback``
#: starves the free-page queue (tiny depth, no kpoold) so misses route
#: through the SMU's OS-fallback exception path.
PATHS = {
    "osdp": {"mode": PagingMode.OSDP, "kwargs": {}},
    "swdp": {"mode": PagingMode.SWDP, "kwargs": {}},
    "hwdp": {"mode": PagingMode.HWDP, "kwargs": {}},
    "hwdp-fallback": {
        "mode": PagingMode.HWDP,
        "kwargs": {"free_queue_depth": 16, "kpoold_enabled": False},
    },
}


def build_scenario(path: str):
    """One deterministic mid-size run: mapped file, mixed access pattern,
    reclaim pressure on the fallback path, injected read errors throughout."""
    info = PATHS[path]
    system, thread, vma = build_mapped_system(
        info["mode"],
        file_pages=96,
        fault_plan=read_error_plan(0.1, name=f"ckpt-{path}"),
        **info["kwargs"],
    )

    def body():
        pages = list(range(48)) + [3, 9, 3, 27, 81, 9] + list(range(48, 96, 3))
        for index in pages:
            write = index % 7 == 0
            yield from thread.mem_access(vma.start + (index << PAGE_SHIFT), write)
            yield from thread.compute(500)

    proc = system.spawn(body(), "ckpt-workload")
    return system, proc


def _summarize(system) -> str:
    """Canonical end-state record: full digest + the visible metrics."""
    return canonical_json(
        {
            "digest": state_digest(system),
            "events": system.sim.events_dispatched,
            "now": system.sim.now,
            "counters": system.kernel.counters.as_dict(),
            "device_reads": system.device.reads_completed,
        }
    )


def run_uninterrupted(path: str, interval: int):
    """Baseline leg: run to completion with a checkpointing observer.

    Returns ``(records, summary)`` where records are the mid-run
    (pre-completion) boundary digests and summary the canonical end state.
    """
    system, proc = build_scenario(path)
    observer = CheckpointObserver(system, interval=interval)
    sim = system.sim
    sim.attach(observer)
    while not proc.finished:
        if not sim.step():
            raise RuntimeError("baseline workload stalled")
    finish_events = sim.events_dispatched
    sim.run(until=sim.now + _DRAIN_NS)
    sim.detach(observer)
    records = [r for r in observer.records if r["events"] < finish_events]
    return records, _summarize(system)


def resume_from(path: str, events: int, digest: str) -> str:
    """Resume leg: rebuild, replay to the boundary (digest-verified inside
    the boundary event's dispatch hook), run to completion, summarize."""
    holder = {}

    def rebuild(recipe):
        system, proc = build_scenario(recipe["path"])
        holder["proc"] = proc
        return system

    checkpoint = Checkpoint(
        recipe={"path": path}, events=events, sim_time=0.0, digest=digest
    )
    system = restore(checkpoint, rebuild)
    proc = holder["proc"]
    sim = system.sim
    while not proc.finished:
        if not sim.step():
            raise RuntimeError("resumed workload stalled")
    sim.run(until=sim.now + _DRAIN_NS)
    return _summarize(system)


# ----------------------------------------------------------------------
# canonical capture
# ----------------------------------------------------------------------
class TestCapture:
    def test_primitives_round_trip(self):
        value = {"a": [1, 2.5, "x", None, True], "b": (3, b"\x00\xff")}
        text = canonical_json(capture_state(value))
        assert json.loads(text)  # valid JSON
        assert canonical_json(capture_state(value)) == text

    def test_dict_insertion_order_is_state(self):
        # OrderedDict LRU lists make entry order semantic; the capture
        # must distinguish the same mapping in different orders.
        forward = {"a": 1, "b": 2}
        backward = {"b": 2, "a": 1}
        assert capture_state(forward) != capture_state(backward)

    def test_shared_reference_vs_copies(self):
        shared = [1, 2]
        assert capture_state([shared, shared]) != capture_state(
            [[1, 2], [1, 2]]
        )

    def test_cycles_terminate(self):
        node = {}
        node["self"] = node
        capture_state(node)  # must not recurse forever

    def test_set_capture_is_order_independent(self):
        a = {"x", "y", "z", 3, 1.5}
        b = set(list(a))
        assert capture_state(a) == capture_state(b)

    def test_numpy_rng_state_captured(self):
        rng = np.random.default_rng(7)
        before = state_digest(rng)
        rng.random()
        assert state_digest(rng) != before
        fresh = np.random.default_rng(7)
        assert state_digest(fresh) == before

    def test_generator_frame_captured(self):
        def gen():
            x = 0
            while True:
                x += 1
                yield x

        g1, g2 = gen(), gen()
        next(g1)
        next(g2)
        assert state_digest(g1) == state_digest(g2)
        next(g1)
        assert state_digest(g1) != state_digest(g2)


# ----------------------------------------------------------------------
# checkpoint artifacts
# ----------------------------------------------------------------------
class TestArtifact:
    def _checkpoint(self):
        return Checkpoint(
            recipe={"experiment": "x", "cell": {"a": 1}},
            events=1234,
            sim_time=5.5,
            digest="ab" * 32,
        )

    def test_json_round_trip(self):
        original = self._checkpoint()
        clone = Checkpoint.from_json(original.to_json())
        assert clone == original
        assert clone.content_key() == original.content_key()

    def test_schema_mismatch_rejected(self):
        data = self._checkpoint().to_json()
        data["schema"] = CHECKPOINT_SCHEMA + 1
        with pytest.raises(CheckpointError):
            Checkpoint.from_json(data)

    def test_save_load_round_trip(self, tmp_path):
        original = self._checkpoint()
        path = save_checkpoint(original, tmp_path)
        assert original.content_key() in path.name
        assert load_checkpoint(path) == original

    def test_load_garbage_raises(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# the observer
# ----------------------------------------------------------------------
class TestObserver:
    def test_interval_validated(self):
        system, _ = build_scenario("osdp")
        with pytest.raises(CheckpointError):
            CheckpointObserver(system, interval=0)

    def test_records_at_multiples(self):
        system, proc = build_scenario("osdp")
        observer = CheckpointObserver(system, interval=500)
        system.sim.attach(observer)
        while not proc.finished:
            if not system.sim.step():
                raise RuntimeError("stalled")
        assert observer.records
        assert all(r["events"] % 500 == 0 for r in observer.records)
        assert [r["events"] for r in observer.records] == sorted(
            r["events"] for r in observer.records
        )

    def test_expect_mismatch_raises(self):
        system, proc = build_scenario("osdp")
        observer = CheckpointObserver(
            system, interval=500, expect={500: "f" * 64}
        )
        system.sim.attach(observer)
        with pytest.raises(CheckpointError, match="diverged at event 500"):
            while not proc.finished:
                if not system.sim.step():
                    raise RuntimeError("stalled")


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------
class TestRestore:
    def test_quiescent_checkpoints_not_restorable(self):
        system, _ = build_scenario("osdp")
        checkpoint = snapshot_system(system, {"path": "osdp"})
        assert checkpoint.boundary == "quiescent"
        with pytest.raises(CheckpointError, match="quiescent"):
            restore(checkpoint, lambda recipe: system)

    def test_in_process_resume_is_byte_identical(self):
        records, summary = run_uninterrupted("osdp", interval=300)
        assert records, "scenario too short for the checkpoint interval"
        record = records[len(records) // 2]
        resumed = resume_from("osdp", record["events"], record["digest"])
        assert resumed == summary

    def test_tampered_digest_rejected(self):
        records, _ = run_uninterrupted("osdp", interval=300)
        record = records[0]
        with pytest.raises(CheckpointError, match="diverged"):
            resume_from("osdp", record["events"], "0" * 64)

    def test_rebuild_past_boundary_rejected(self):
        records, _ = run_uninterrupted("osdp", interval=300)
        record = records[0]

        def rebuild(recipe):
            system, proc = build_scenario("osdp")
            while not proc.finished:
                system.sim.step()
            return system

        checkpoint = Checkpoint(
            recipe={"path": "osdp"},
            events=record["events"],
            sim_time=0.0,
            digest=record["digest"],
        )
        with pytest.raises(CheckpointError, match="at or past the boundary"):
            restore(checkpoint, rebuild)


# ----------------------------------------------------------------------
# the fresh-process resume property
# ----------------------------------------------------------------------
def _fresh_process_resume(path: str, events: int, digest: str) -> str:
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, str(_REPO_ROOT), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "tests.test_checkpoint",
            path,
            str(events),
            digest,
        ],
        cwd=_REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


class TestFreshProcessResume:
    """Snapshot at an arbitrary boundary, resume in a new interpreter."""

    @given(
        path=st.sampled_from(sorted(PATHS)),
        interval=st.sampled_from([100, 170, 250]),
        pick=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_resume_completion_byte_identical(self, path, interval, pick):
        records, summary = run_uninterrupted(path, interval)
        assume(records)
        record = records[pick % len(records)]
        resumed = _fresh_process_resume(path, record["events"], record["digest"])
        assert resumed == summary

    def test_every_path_resumes(self):
        # Deterministic sweep: one mid-run boundary per paging path, so a
        # path-specific regression cannot hide behind hypothesis sampling.
        for path in sorted(PATHS):
            records, summary = run_uninterrupted(path, interval=250)
            assert records, f"{path}: scenario too short"
            record = records[-1]
            resumed = _fresh_process_resume(
                path, record["events"], record["digest"]
            )
            assert resumed == summary, f"{path}: resumed run diverged"


# ----------------------------------------------------------------------
# checkpointing through the experiment engine
# ----------------------------------------------------------------------
class TestEngineCheckpointing:
    """``checkpoint_interval`` / ``resume_checkpoints`` on fig11's two cells."""

    INTERVAL = 200

    def _journaled_run(self, tmp_path, run_id, **kwargs):
        journal = RunJournal.create(
            scale=scale_to_dict(QUICK), jobs=1, specs=["fig11"], run_id=run_id,
            root=tmp_path, checkpoint_interval=self.INTERVAL,
        )
        report = execute(
            ["fig11"], QUICK, journal=journal, checkpoint_interval=self.INTERVAL,
            raise_on_failure=False, **kwargs,
        )
        journal.close()
        return report, load_state(tmp_path / run_id)

    def test_interval_journals_checkpoint_records(self, tmp_path):
        report, state = self._journaled_run(tmp_path, "ckpt")
        assert report.failures == []
        assert report.results[0].to_text() == execute(["fig11"], QUICK).results[0].to_text()
        cells = state.cells["fig11"]
        assert len(cells) == 2
        for record in cells.values():
            assert record.state == "done"
            assert record.worker == "inline-ckpt"
            assert record.checkpoints, "no checkpoint journaled for a real cell"
            assert all(cp["events"] % self.INTERVAL == 0 for cp in record.checkpoints)

    def test_tampered_digest_fails_only_its_cell(self, tmp_path):
        _, state = self._journaled_run(tmp_path, "original")
        recorded = {
            ("fig11", key): [dict(cp) for cp in record.checkpoints]
            for key, record in state.cells["fig11"].items()
        }
        victim_key = next(iter(state.cells["fig11"]))
        victim = recorded[("fig11", victim_key)][1]
        victim["digest"] = "0" * 64

        report, _ = self._journaled_run(tmp_path, "resumed", resume_checkpoints=recorded)
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.key == victim_key
        assert failure.kind == "exception"
        assert "CheckpointError" in failure.error
        assert f"diverged at event {victim['events']}" in failure.error
        assert report.computed == 1, "the untampered cell still verified and ran"


if __name__ == "__main__":
    # Fresh-process resume driver (see TestFreshProcessResume).
    _path, _events, _digest = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    print(resume_from(_path, _events, _digest))
