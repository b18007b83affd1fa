"""Checkpoints: canonical capture, digest-verified replay, and resume.

The heart of the suite is the fresh-process resume property test: record
boundary digests during an uninterrupted run, then replay the run in a
brand-new interpreter the way ``--resume`` does — a
:class:`CheckpointObserver` carrying the recorded digests as ``expect``
values — and require every recorded boundary to verify and the *entire
final machine state* — the full canonical state digest, plus kernel
counters and device tallies — to be byte-identical to the uninterrupted
run.  All four paging paths are covered (osdp, swdp, hwdp, and hwdp
forced onto its queue-empty fallback route), each with an active fault
plan, so replay determinism is proven under injected storage errors, not
just on the happy path.

When executed as a script (``python -m tests.test_checkpoint``, with a
JSON ``{"path", "interval", "expect"}`` request on stdin) the module
becomes the fresh-process resume runner the property test forks.
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
    CheckpointError,
    CheckpointObserver,
    canonical_json,
    capture_state,
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


def _run_to_completion(path: str, interval: int, expect=None):
    """Build the scenario with a checkpoint observer attached, run the
    workload to completion plus the fixed drain, and summarize.

    Returns ``(observer, summary)``; with ``expect`` the observer verifies
    each recomputed boundary digest against it, exactly as ``--resume``
    does for a journaled cell.
    """
    system, proc = build_scenario(path)
    observer = CheckpointObserver(system, interval=interval, expect=expect)
    sim = system.sim
    sim.attach(observer)
    while not proc.finished:
        if not sim.step():
            raise RuntimeError("workload stalled")
    sim.run(until=sim.now + _DRAIN_NS)
    sim.detach(observer)
    return observer, _summarize(system)


def run_uninterrupted(path: str, interval: int):
    """Baseline leg: returns ``(records, summary)`` — every boundary
    digest the run recorded, and the canonical end state."""
    observer, summary = _run_to_completion(path, interval)
    return observer.records, summary


def resume_from(path: str, interval: int, expect):
    """Resume leg: replay from a fresh build with ``expect`` (event count ->
    recorded digest) verified at each boundary; returns ``(summary,
    verified)``.  A diverging digest raises :class:`CheckpointError`."""
    observer, summary = _run_to_completion(path, interval, expect)
    return summary, observer.verified


def _expect(records):
    return {record["events"]: record["digest"] for record in records}


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
# in-process resume
# ----------------------------------------------------------------------
class TestRestore:
    """Restoring a run by digest-verified replay, in this process."""

    def test_in_process_resume_is_byte_identical(self):
        records, summary = run_uninterrupted("osdp", interval=300)
        assert records, "scenario too short for the checkpoint interval"
        kept = records[: len(records) // 2 + 1]
        resumed, verified = resume_from("osdp", 300, _expect(kept))
        assert resumed == summary
        assert verified == len(kept)

    def test_tampered_digest_rejected(self):
        records, _ = run_uninterrupted("osdp", interval=300)
        expect = _expect(records)
        expect[records[0]["events"]] = "0" * 64
        with pytest.raises(CheckpointError, match=f"diverged at event {records[0]['events']}"):
            resume_from("osdp", 300, expect)


# ----------------------------------------------------------------------
# the fresh-process resume property
# ----------------------------------------------------------------------
def _fresh_process_resume(path: str, interval: int, records):
    """Replay ``path`` in a new interpreter against ``records``; returns
    the child's ``(summary, verified)``."""
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, str(_REPO_ROOT), env.get("PYTHONPATH")) if p
    )
    request = {"path": path, "interval": interval, "expect": [
        [record["events"], record["digest"]] for record in records
    ]}
    result = subprocess.run(
        [sys.executable, "-m", "tests.test_checkpoint"],
        cwd=_REPO_ROOT,
        env=env,
        input=json.dumps(request),
        capture_output=True,
        text=True,
        check=True,
    )
    summary, verified = result.stdout.strip().split("\n")
    return summary, int(verified)


class TestFreshProcessResume:
    """Record boundary digests, replay them in a new interpreter."""

    @given(
        path=st.sampled_from(sorted(PATHS)),
        interval=st.sampled_from([100, 170, 250]),
        pick=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_resume_completion_byte_identical(self, path, interval, pick):
        # A run killed after ``kept`` boundaries journaled exactly those.
        records, summary = run_uninterrupted(path, interval)
        assume(records)
        kept = records[: pick % len(records) + 1]
        resumed, verified = _fresh_process_resume(path, interval, kept)
        assert resumed == summary
        assert verified == len(kept)

    def test_every_path_resumes(self):
        # Deterministic sweep: every recorded boundary of every paging
        # path, so a path-specific regression cannot hide behind
        # hypothesis sampling.
        for path in sorted(PATHS):
            records, summary = run_uninterrupted(path, interval=250)
            assert records, f"{path}: scenario too short"
            resumed, verified = _fresh_process_resume(path, 250, records)
            assert resumed == summary, f"{path}: resumed run diverged"
            assert verified == len(records), f"{path}: boundaries left unverified"


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

    def test_resume_journals_each_boundary_once(self, tmp_path):
        _, state = self._journaled_run(tmp_path, "ckpt")
        recorded = {
            ("fig11", key): record.checkpoints for key, record in state.cells["fig11"].items()
        }
        journal = RunJournal.attach("ckpt", tmp_path)
        report = execute(
            ["fig11"], QUICK, journal=journal, checkpoint_interval=self.INTERVAL,
            resume_checkpoints=recorded, raise_on_failure=False,
        )
        journal.close()
        assert report.failures == []
        assert report.computed == 2
        resumed = load_state(tmp_path / "ckpt")
        for key, record in resumed.cells["fig11"].items():
            assert record.checkpoints == state.cells["fig11"][key].checkpoints

    def _recorded(self, tmp_path):
        """The original run's checkpoint records, and its first cell's key."""
        _, state = self._journaled_run(tmp_path, "original")
        recorded = {
            ("fig11", key): [dict(cp) for cp in record.checkpoints]
            for key, record in state.cells["fig11"].items()
        }
        return recorded, next(iter(state.cells["fig11"]))

    def _only_failure(self, tmp_path, recorded, victim_key):
        """Resume against ``recorded``; exactly ``victim_key`` must fail."""
        report, _ = self._journaled_run(tmp_path, "resumed", resume_checkpoints=recorded)
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.key == victim_key
        assert failure.kind == "exception"
        assert "CheckpointError" in failure.error
        assert report.computed == 1, "the untampered cell still verified and ran"
        return failure.error

    def test_tampered_digest_fails_only_its_cell(self, tmp_path):
        recorded, victim_key = self._recorded(tmp_path)
        victim = recorded[("fig11", victim_key)][1]
        victim["digest"] = "0" * 64
        error = self._only_failure(tmp_path, recorded, victim_key)
        assert f"diverged at event {victim['events']}" in error

    def test_boundary_past_the_end_fails_only_its_cell(self, tmp_path):
        recorded, victim_key = self._recorded(tmp_path)
        records = recorded[("fig11", victim_key)]
        past_end = records[-1]["events"] + 1000 * self.INTERVAL
        records.append(dict(records[-1], events=past_end))
        error = self._only_failure(tmp_path, recorded, victim_key)
        assert f"never reached the recorded checkpoint at event {past_end} of simulator 0" in error

    def test_unbuilt_simulator_fails_only_its_cell(self, tmp_path):
        recorded, victim_key = self._recorded(tmp_path)
        records = recorded[("fig11", victim_key)]
        records.append(dict(records[0], sim=7))
        error = self._only_failure(tmp_path, recorded, victim_key)
        assert (f"never reached the recorded checkpoint at event {records[0]['events']} "
                "of simulator 7") in error


if __name__ == "__main__":
    # Fresh-process resume runner (see TestFreshProcessResume).
    _request = json.load(sys.stdin)
    _summary, _verified = resume_from(
        _request["path"], _request["interval"],
        {int(events): digest for events, digest in _request["expect"]},
    )
    print(_summary)
    print(_verified)
