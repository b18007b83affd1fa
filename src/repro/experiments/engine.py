"""Experiment executor: a cell planner plus an inline and a forked-task runner.

The engine expands each :class:`ExperimentSpec` into its cells, computes
every cell payload, and merges payloads back **in cell declaration
order**, so any run's output is byte-identical to a serial one (each cell
builds its own seeded simulator; nothing is shared).

* The **planner** (:func:`_plan`) serves cache hits, re-reports
  ``skip_failed`` cells, and turns the rest into tasks: one cell each, or
  one *warm group* — the cells of a :class:`~repro.experiments.registry.
  WarmupSpec` grid that share a warmup prefix.
* The **inline runner** (:func:`_run_inline`) computes cells one after
  another in this process, under the caller's observation or a
  checkpoint hook when either is set.
* The **forked-task runner** (:class:`_ForkedRunner`) forks one child per
  task, up to ``jobs`` at once; each child writes one JSON line per cell
  to a pipe and leaves with ``os._exit``.  A warm-group child simulates
  its prefix once and forks one grandchild per cell from the live
  warmed-up image.  The parent waits on the pipes with ``select``, kills
  a task's whole process group past its deadline, retries failed cells
  with backoff, reruns cells a warm group did not report as cold cell
  tasks, and hands the rest to the inline runner when forking keeps
  failing.

Every payload, fresh, forked, or cached, passes through one canonical JSON
round-trip before merging, so a retried, resumed, warm, or cached cell is
indistinguishable from a fresh serial one.  Cache keys combine the
experiment name, spec version, a fingerprint of the experiment's source
files (its module plus the shared harness modules), the scale, and the
cell params.  Failing cells never abort the grid: they are collected in
``ExecutionReport.failures`` and raised together as one
:class:`ExperimentFailure` at the end unless ``raise_on_failure=False``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import select
import signal
import sys
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.experiments.cache import CellCache
from repro.experiments.journal import RunJournal, RunState
from repro.experiments.registry import Cell, ExperimentSpec, Params, get_spec
from repro.experiments.runner import ExperimentResult, ExperimentScale, QUICK

#: Bump when the engine's payload/caching semantics change.
ENGINE_SCHEMA = 1

#: Base retry backoff in seconds; doubles per attempt.
BACKOFF_S = 0.25
#: Longest the forked-task runner sleeps before re-polling ``should_stop``
#: and the task deadlines.
POLL_S = 0.05
#: Consecutive fork failures or child deaths (no success in between)
#: tolerated before the remaining cells run inline.
MAX_POOL_FAILURES = 3


def _clock() -> float:
    return time.perf_counter()  # repro: allow[REP001] reason=host-side cell timing and task deadlines, never feed the simulation


# ----------------------------------------------------------------------
# canonical forms
# ----------------------------------------------------------------------
def _canonical(payload: Params) -> Params:
    """One JSON round-trip: the exact form cached cells replay."""
    return json.loads(json.dumps(payload))


def scale_to_dict(scale: ExperimentScale) -> Dict[str, Any]:
    return _canonical(asdict(scale))


def scale_from_dict(data: Dict[str, Any]) -> ExperimentScale:
    data = dict(data)
    data["thread_counts"] = tuple(data["thread_counts"])
    return ExperimentScale(**data)


# ----------------------------------------------------------------------
# cache keys
# ----------------------------------------------------------------------
_file_digests: Dict[str, str] = {}


def _file_digest(path: str) -> str:
    digest = _file_digests.get(path)
    if digest is None:
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        _file_digests[path] = digest
    return digest


def spec_fingerprint(spec: ExperimentSpec) -> str:
    """Source-version fingerprint: the spec's defining module plus the
    shared harness modules every cell routes through."""
    from repro.experiments import runner, workload_runs

    files = {runner.__file__, workload_runs.__file__}
    module = sys.modules.get(spec.cell_fn.__module__)
    if module is not None and getattr(module, "__file__", None):
        files.add(module.__file__)
    digest = hashlib.sha256()
    digest.update(f"engine-schema:{ENGINE_SCHEMA};spec-version:{spec.version};".encode())
    for path in sorted(files):
        digest.update(_file_digest(path).encode())
    return digest.hexdigest()


def _content_key(spec: ExperimentSpec, scale: ExperimentScale, **part: Any) -> str:
    """Hash of the experiment, its source fingerprint, the scale, and ``part``."""
    blob = {"experiment": spec.name, "fingerprint": spec_fingerprint(spec),
            "scale": scale_to_dict(scale), **part}
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()[:40]


def cell_key(spec: ExperimentSpec, scale: ExperimentScale, cell: Cell) -> str:
    """Stable content hash identifying one cell's result."""
    return _content_key(spec, scale, params=cell.as_dict())


def warm_prefix_key(
    spec: ExperimentSpec, scale: ExperimentScale, group_params: Params
) -> str:
    """Content hash identifying one shared warmup prefix.

    Same invalidation surface as :func:`cell_key` (source fingerprint +
    scale) restricted to the params the warmup depends on, so every cell
    sharing a prefix shares the key and a source edit invalidates both
    the cells and their prefix artifact together.
    """
    return _content_key(spec, scale, group=group_params)


def _label(experiment: str, params: Params) -> str:
    """One cell's trace/metrics unit and report label: ``experiment[k=v,...]``."""
    if not params:
        return experiment
    inner = ",".join(f"{key}={params[key]}" for key in sorted(params))
    return f"{experiment}[{inner}]"


# ----------------------------------------------------------------------
# failures and supervision config
# ----------------------------------------------------------------------
@dataclass
class CellFailure:
    """One cell that could not produce a payload."""

    experiment: str
    params: Params
    key: Optional[str]
    #: ``exception`` | ``worker-died`` | ``timeout`` | ``prior-failure``
    kind: str
    error: str
    attempts: int = 1

    def describe(self) -> str:
        plural = "s" if self.attempts != 1 else ""
        return (f"{_label(self.experiment, self.params)}: {self.kind} after "
                f"{self.attempts} attempt{plural}: {self.error}")


class ExperimentFailure(RuntimeError):
    """Aggregate of every failed cell in a run (raised after all cells ran)."""

    def __init__(self, failures: List[CellFailure]):
        self.failures = list(failures)
        lines = [f"{len(failures)} cell(s) failed:"]
        lines.extend(f"  {failure.describe()}" for failure in failures)
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class SupervisorConfig:
    """The two supervision knobs the CLI exposes."""

    #: Base per-cell wall-clock timeout in seconds for a ``cost_hint=1``
    #: cell at ``timeout_scale=1``; ``None`` disables timeouts.
    timeout_s: Optional[float] = None
    #: Extra attempts after the first (crashed, hung, or raising cells).
    max_retries: int = 1

    def cell_timeout(self, spec: ExperimentSpec, scale: ExperimentScale) -> Optional[float]:
        """The effective wall-clock budget for one of ``spec``'s cells."""
        if self.timeout_s is None:
            return None
        return self.timeout_s * (spec.cost_hint or 1.0) * (scale.timeout_scale or 1.0)


# ----------------------------------------------------------------------
# execution report
# ----------------------------------------------------------------------
@dataclass
class ExecutionReport:
    """Results plus where their cells came from and what went wrong."""

    results: List[ExperimentResult] = field(default_factory=list)
    computed: int = 0
    cached: int = 0
    #: Cells that produced no payload, with why.
    failures: List[CellFailure] = field(default_factory=list)
    #: Cells never attempted because the run was interrupted.
    skipped: int = 0
    #: True when ``should_stop`` fired and the run drained early.
    interrupted: bool = False
    #: Spec names whose merge was skipped (missing payloads).
    incomplete: List[str] = field(default_factory=list)
    #: Supervision tallies (retries, timeouts, worker deaths, warm cells, …).
    supervision: Dict[str, int] = field(default_factory=dict)

    @property
    def total_cells(self) -> int:
        return self.computed + self.cached

    def result_for(self, name: str) -> Optional[ExperimentResult]:
        return next((result for result in self.results if result.name == name), None)


#: ``report.supervision`` keys, all present (zero) in every report.
_COUNTERS = ("dispatched", "retries", "timeouts", "worker_deaths", "pool_rebuilds",
             "degraded_serial", "warm_groups", "warm_cells")


class _Slot(NamedTuple):
    """One pending cell and where its payload goes."""

    spec_index: int
    cell_index: int
    spec: ExperimentSpec
    cell: Cell
    key: Optional[str]


@dataclass
class _Task:
    """One unit of forked work: a cold cell, or a warm group of cells."""

    slots: List[_Slot]
    #: The group's warmup params; ``None`` for a cold cell task.
    group: Optional[Params] = None
    attempts: int = 0


class _Run:
    """State shared by the planner and both runners during one call."""

    def __init__(self, scale: ExperimentScale, cache: Optional[CellCache],
                 journal: Optional[RunJournal], should_stop: Optional[Callable[[], bool]]):
        self.scale = scale
        self.cache = cache
        self.journal = journal
        self.should_stop = should_stop
        self.report = ExecutionReport(supervision=dict.fromkeys(_COUNTERS, 0))
        self.payloads: Dict[Tuple[int, int], Params] = {}

    def stop_requested(self) -> bool:
        """Poll ``should_stop``; once it fires, the run stays interrupted."""
        if (not self.report.interrupted and self.should_stop is not None
                and self.should_stop()):
            self.report.interrupted = True
            if self.journal is not None:
                self.journal.note("signal", action="drain in-flight, stop dispatching")
        return self.report.interrupted

    def dispatched(self, slot: _Slot, attempt: int, worker: str) -> None:
        """Journal that ``slot`` started on ``worker``."""
        if self.journal is not None and slot.key is not None:
            self.journal.cell_dispatched(slot.spec.name, slot.key, attempt, worker)

    def finish(self, slot: _Slot, payload: Params, attempt: int, wall_s: float,
               worker: str) -> None:
        self.payloads[(slot.spec_index, slot.cell_index)] = payload
        self.report.computed += 1
        if self.cache is not None and slot.key is not None:
            self.cache.put(slot.spec.name, slot.key, slot.cell.as_dict(), payload)
        if self.journal is not None and slot.key is not None:
            self.journal.cell_done(slot.spec.name, slot.key, attempt, wall_s, worker=worker)

    def fail(self, slot: _Slot, kind: str, error: str, attempts: int, worker: str,
             final: bool = True) -> None:
        """Journal a failed attempt; a final one joins ``report.failures``.

        Timeouts are journaled by the runner when it kills the child.
        """
        if final:
            self.report.failures.append(CellFailure(
                experiment=slot.spec.name, params=slot.cell.as_dict(), key=slot.key,
                kind=kind, error=error, attempts=attempts,
            ))
        if self.journal is not None and slot.key is not None and kind != "timeout":
            self.journal.cell_failed(slot.spec.name, slot.key, attempts, error, kind=kind,
                                     final=final, worker=worker)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def execute(
    specs: Sequence[Union[str, ExperimentSpec]],
    scale: ExperimentScale = QUICK,
    *,
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    observation: Optional[Any] = None,
    journal: Optional[RunJournal] = None,
    supervise: Optional[SupervisorConfig] = None,
    skip_failed: Optional[Dict[Tuple[str, str], CellFailure]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    raise_on_failure: bool = True,
    warm_start: bool = True,
    checkpoint_interval: Optional[int] = None,
    resume_checkpoints: Optional[Dict[Tuple[str, str], List[Dict[str, Any]]]] = None,
) -> ExecutionReport:
    """Run ``specs`` and return merged results in the order given.

    With ``jobs > 1`` or ``supervise`` every task runs forked, ``jobs`` at a
    time; ``supervise`` adds per-cell timeouts (scaled by the spec's
    ``cost_hint`` and the scale's ``timeout_scale``) and retries, without
    it a failing cell is not retried.  Otherwise cells run inline and only
    warm groups fork, one at a time.

    ``warm_start`` (default on) groups the cells of a spec that declares a
    :class:`~repro.experiments.registry.WarmupSpec` by warmup-prefix key:
    each prefix is simulated **once** and every cell forks from the live
    warmed-up process.  Fork inherits memory exactly, so a warm cell is
    byte-identical to a cold one; the prefix's state digest is kept as a
    cache artifact and checked against prior runs.

    ``observation`` records the run: cells run inline, cache *reads* are
    bypassed (a cached payload emits no spans), and each cell labels its
    spans and metrics ``<experiment>[<cell-params>]``.
    ``checkpoint_interval`` also runs cells inline, journaling a state
    digest every N events; ``resume_checkpoints`` maps ``(experiment, cell
    key)`` to a prior journal's records, which the replay verifies — a
    diverging digest, or a recorded boundary the replay never reaches,
    fails the cell.  Both run every cell inline: ``jobs`` and
    ``supervise`` are ignored and no warm groups are planned.

    ``skip_failed`` maps ``(experiment, cell key)`` to a prior
    :class:`CellFailure` that is re-reported instead of re-run;
    ``should_stop`` is polled between dispatches — once true, nothing new
    starts, in-flight tasks drain, and ``report.interrupted`` is set.
    """
    resolved = [get_spec(s) if isinstance(s, str) else s for s in specs]
    if checkpoint_interval is not None and observation is not None:
        raise ValueError("checkpoint_interval cannot be combined with observation")
    in_process = observation is not None or checkpoint_interval is not None
    can_fork = hasattr(os, "fork") and not in_process

    run = _Run(scale, cache, journal, should_stop)
    grids, tasks = _plan(
        run, resolved, skip_failed,
        read_cache=observation is None, warm=can_fork and warm_start,
    )
    def forks(task: _Task) -> bool:
        return can_fork and (jobs > 1 or supervise is not None or task.group is not None)

    forked = [task for task in tasks if forks(task)]
    inline = [task.slots[0] for task in tasks if not forks(task)]
    if forked:
        config = supervise if supervise is not None else SupervisorConfig(max_retries=0)
        inline = _ForkedRunner(run, max(1, jobs), config).run(forked) + inline

    def compute(slot: _Slot) -> Params:
        params = slot.cell.as_dict()
        if checkpoint_interval is not None:
            return _checkpointed(run, slot, checkpoint_interval, resume_checkpoints)
        if observation is None:
            return slot.spec.cell_fn(run.scale, params)
        observation.set_unit(_label(slot.spec.name, params))
        return _observed(observation, lambda: slot.spec.cell_fn(run.scale, params))

    _run_inline(run, inline, "inline-ckpt" if checkpoint_interval else "inline", compute)

    report = run.report
    for spec_index, spec in enumerate(resolved):
        ordered = [run.payloads.get((spec_index, i)) for i in range(len(grids[spec_index]))]
        if any(payload is None for payload in ordered):
            report.incomplete.append(spec.name)
            continue
        report.results.append(spec.merge(scale, ordered))
    if report.failures and raise_on_failure:
        raise ExperimentFailure(report.failures)
    return report


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------
def _plan(
    run: _Run,
    specs: Sequence[ExperimentSpec],
    skip_failed: Optional[Dict[Tuple[str, str], CellFailure]],
    *,
    read_cache: bool,
    warm: bool,
) -> Tuple[List[List[Cell]], List[_Task]]:
    """Resolve every spec's cells and turn the uncomputed ones into tasks.

    Returns each spec's cell grid and the task list: warm groups first (the
    longest tasks, so a parallel run starts them early), then cold cells in
    declaration order.  A prefix shared by a single cell saves nothing, so
    that cell runs cold.
    """
    need_keys = run.cache is not None or run.journal is not None or bool(skip_failed)
    grids: List[List[Cell]] = []
    groups: Dict[Tuple[int, str], List[_Slot]] = {}
    cold: List[_Task] = []
    for spec_index, spec in enumerate(specs):
        cells = list(spec.cells(run.scale))
        grids.append(cells)
        keys = [cell_key(spec, run.scale, cell) if need_keys else None for cell in cells]
        if run.journal is not None:
            run.journal.record_cells(spec.name, spec_fingerprint(spec),
                                     [(key, cell.as_dict()) for key, cell in zip(keys, cells)])
        for cell_index, (cell, key) in enumerate(zip(cells, keys)):
            prior = skip_failed.get((spec.name, key)) if skip_failed else None
            if prior is not None:
                run.report.failures.append(prior)
                continue
            hit = run.cache.get(spec.name, key) if run.cache is not None and read_cache else None
            if hit is not None:
                run.payloads[(spec_index, cell_index)] = hit
                run.report.cached += 1
                if run.journal is not None:
                    run.journal.cell_done(spec.name, key, 0, 0.0, source="cache")
                continue
            slot = _Slot(spec_index, cell_index, spec, cell, key)
            if not warm or spec.warmup is None:
                cold.append(_Task([slot]))
                continue
            group = json.dumps(spec.warmup.group(cell.as_dict()), sort_keys=True)
            groups.setdefault((spec_index, group), []).append(slot)
    tasks: List[_Task] = []
    for (_, group), slots in sorted(groups.items()):
        if len(slots) > 1:
            tasks.append(_Task(slots, json.loads(group)))
        else:
            cold.append(_Task(slots))
    cold.sort(key=lambda task: task.slots[0][:2])
    return grids, tasks + cold


# ----------------------------------------------------------------------
# inline runner
# ----------------------------------------------------------------------
def _run_inline(run: _Run, slots: Sequence[_Slot], label: str,
                compute: Callable[[_Slot], Params]) -> None:
    """Compute ``slots`` one after another in this process.

    ``compute(slot)`` returns the cell's payload: the bare cell function,
    or the cell under the caller's observation or a checkpoint hook.
    """
    for position, slot in enumerate(slots):
        if run.stop_requested():
            run.report.skipped += len(slots) - position
            return
        run.dispatched(slot, 1, label)
        started = _clock()
        try:
            payload = _canonical(compute(slot))
        except Exception as exc:
            run.fail(slot, "exception", f"{type(exc).__name__}: {exc}", 1, label)
            continue
        run.finish(slot, payload, 1, _clock() - started, label)


def _observed(observation: Any, compute: Callable[[], Params]) -> Params:
    """Run ``compute`` with ``observation`` active around every system it builds."""
    from repro.obs import runtime as obs_runtime

    obs_runtime.activate(observation)
    try:
        return compute()
    finally:
        observation.set_unit(None)
        obs_runtime.deactivate()


def _checkpointed(run: _Run, slot: _Slot, interval: int,
                  resume_checkpoints: Optional[Dict[Tuple[str, str], List[Dict]]]) -> Params:
    """Compute one cell with a checkpoint observer on every simulator it builds.

    Each simulator journals a state digest every ``interval`` events.  On
    resume, the cell's recorded digests, keyed by build order (the
    record's ``sim`` index), become ``expect`` values: the replay raises
    the moment it diverges, and a replay that finishes without reaching
    every recorded boundary fails the cell too.  Only boundaries not
    already recorded are journaled.
    """
    from repro.obs.runtime import Observation
    from repro.sim.checkpoint import CheckpointError, CheckpointObserver

    spec, key, journal = slot.spec, slot.key, run.journal
    expect: Dict[int, Dict[int, str]] = {}
    for record in (resume_checkpoints or {}).get((spec.name, key), []):
        expect.setdefault(int(record.get("sim", 0)), {})[int(record["events"])] = record["digest"]
    unverified = {(index, events) for index, digests in expect.items() for events in digests}
    built = itertools.count()

    def attach(unit: str, system: Any) -> None:
        index = next(built)

        def on_checkpoint(cp: Dict[str, Any]) -> None:
            boundary = (index, cp["events"])
            if boundary in unverified:
                unverified.discard(boundary)  # verified; the journal already holds it
            elif journal is not None and key is not None:
                journal.cell_checkpoint(spec.name, key, cp["events"], cp["sim_time"],
                                        cp["digest"], sim_index=index)

        system.sim.attach(CheckpointObserver(system, interval=interval,
                                             on_checkpoint=on_checkpoint,
                                             expect=expect.get(index)))

    payload = _observed(Observation(on_system=attach),
                        lambda: spec.cell_fn(run.scale, slot.cell.as_dict()))
    if unverified:
        index, events = min(unverified)
        raise CheckpointError(f"resumed run never reached the recorded checkpoint "
                              f"at event {events} of simulator {index}")
    return payload


# ----------------------------------------------------------------------
# forked-task runner: the child side
# ----------------------------------------------------------------------
def _fork(body: Callable[[], None]) -> int:
    """Fork a child that runs ``body`` and leaves via ``os._exit``."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            body()
            status = 0
        finally:
            os._exit(status)
    return pid


def _report_cell(out: Any, index: int, compute: Callable[[], Params]) -> None:
    """Compute one cell and write its record (payload or error) to ``out``."""
    started = _clock()
    try:
        record = {"kind": "cell", "index": index, "ok": True, "payload": compute()}
        record["wall_s"] = _clock() - started
        line = json.dumps(record)
    except Exception as exc:  # reported; anything else leaves the cell unreported
        line = json.dumps({"kind": "cell", "index": index, "ok": False,
                           "error": f"{type(exc).__name__}: {exc}"})
    out.write(line + "\n")
    out.flush()


def _lead_group(out: Any, task: _Task, scale: ExperimentScale, digest: bool) -> None:
    """Simulate a warm group's prefix once, then fork one grandchild per cell.

    With ``digest`` (the run has a cache to record it in), the prefix
    record carries the warmed-up system's state digest.

    Grandchildren run ``spec.warmup.finish`` on the inherited live context
    strictly one at a time (fork → waitpid) and write their records
    straight to the shared pipe, so neither their simulations nor their
    writes interleave, and each one forks from a pristine image.
    """
    spec = task.slots[0].spec
    try:
        ctx = spec.warmup.prefix(scale, dict(task.group))
        record: Dict[str, Any] = {"kind": "prefix"}
        system = ctx.get("system") if digest and isinstance(ctx, dict) else None
        if system is not None:
            from repro.sim.checkpoint import state_digest

            record.update(events=system.sim.events_dispatched, sim_time=system.sim.now,
                          digest=state_digest(system))
    except Exception as exc:
        record = {"kind": "prefix-error", "error": f"{type(exc).__name__}: {exc}"}
    out.write(json.dumps(record) + "\n")
    out.flush()
    if record["kind"] == "prefix-error":
        return
    for index, slot in enumerate(task.slots):
        # A grandchild killed mid-write tears its line and the next one;
        # the parent skips the garbled line and reruns both cells cold.
        os.waitpid(_fork(lambda: _report_cell(out, index, lambda: spec.warmup.finish(
            scale, slot.cell.as_dict(), ctx))), 0)


def _task_child(read_fd: int, write_fd: int, task: _Task, scale: ExperimentScale,
                digest: bool) -> None:
    """Body of a forked task child."""
    os.close(read_fd)
    os.setpgid(0, 0)  # one process group per task: a timeout kills it whole
    out = os.fdopen(write_fd, "w")
    if task.group is not None:
        _lead_group(out, task, scale, digest)
    else:
        slot = task.slots[0]
        _report_cell(out, 0, lambda: slot.spec.cell_fn(scale, slot.cell.as_dict()))


# ----------------------------------------------------------------------
# forked-task runner: the parent side
# ----------------------------------------------------------------------
@dataclass
class _Child:
    """One running task child, as the parent sees it."""

    pid: int
    fd: int
    task: _Task
    worker: str
    budget: Optional[float]
    deadline: Optional[float] = None
    buffer: bytes = b""
    #: Cell records received so far, by the cell's index in the task.
    cells: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    def refresh_deadline(self) -> None:
        if self.budget is not None:
            self.deadline = _clock() + self.budget


class _ForkedRunner:
    """Run tasks in forked children, up to ``jobs`` at once."""

    def __init__(self, run: _Run, jobs: int, config: SupervisorConfig):
        self.run_state = run
        self.counters = run.report.supervision
        self.jobs = jobs
        self.config = config
        self.queue: Deque[_Task] = deque()
        self.waiting: List[Tuple[float, _Task]] = []  # (eligible_at, retry)
        self.running: Dict[int, _Child] = {}  # read fd -> child
        self.failures_in_row = 0

    @property
    def degraded(self) -> bool:
        """Forking keeps failing: start nothing new; leftovers run inline."""
        return self.failures_in_row > MAX_POOL_FAILURES

    def run(self, tasks: Sequence[_Task]) -> List[_Slot]:
        """Run ``tasks``; return the cells left over if forking kept failing."""
        self.queue.extend(tasks)
        try:
            while self.running or (not self.degraded and (self.queue or self.waiting)):
                if self.run_state.stop_requested():
                    self.run_state.report.skipped += len(self._pending())
                    self.queue.clear()
                    self.waiting.clear()
                now = _clock()
                self.queue.extend(task for at, task in self.waiting if at <= now)
                self.waiting = [(at, task) for at, task in self.waiting if at > now]
                while self.queue and len(self.running) < self.jobs and not self.degraded:
                    self._start(self.queue.popleft())
                self._wait()
        finally:
            for child in list(self.running.values()):
                self._reap(child, kill=True)
        if self.degraded:
            self.counters["degraded_serial"] = 1
            if self.run_state.journal is not None:
                self.run_state.journal.note("degraded_serial", reason=(
                    f"forking failed {self.failures_in_row} times in a row"))
        return sorted(self._pending(), key=lambda slot: slot[:2])

    def _pending(self) -> List[_Slot]:
        """Cells of tasks queued or backing off (not running)."""
        tasks = list(self.queue) + [task for _, task in self.waiting]
        return [slot for task in tasks for slot in task.slots]

    def _start(self, task: _Task) -> None:
        read_fd, write_fd = os.pipe()
        try:
            pid = _fork(lambda: _task_child(read_fd, write_fd, task, self.run_state.scale,
                                            self.run_state.cache is not None))
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            self.failures_in_row += 1
            self.waiting.append((_clock() + BACKOFF_S, task))
            return
        try:
            os.setpgid(pid, pid)
        except OSError:
            pass  # the child did it first
        os.close(write_fd)
        self.counters["dispatched"] += 1
        task.attempts += 1  # a warm group runs once: its failed cells rerun cold
        if task.group is not None:
            worker = _label("warm", task.group)
        else:
            busy = [child.worker for child in self.running.values()]
            worker = next(f"w{n}" for n in itertools.count(1) if f"w{n}" not in busy)
        child = _Child(pid, read_fd, task, worker,
                       self.config.cell_timeout(task.slots[0].spec, self.run_state.scale))
        child.refresh_deadline()
        self.running[read_fd] = child
        for slot in task.slots:
            self.run_state.dispatched(slot, task.attempts, worker)

    def _wait(self) -> None:
        """Read what the children wrote; settle the finished and the late."""
        if not self.running:
            time.sleep(POLL_S)  # only retries are backing off
            return
        readable, _, _ = select.select(list(self.running), [], [], POLL_S)
        for fd in readable:
            child = self.running[fd]
            data = os.read(fd, 1 << 16)
            if not data:
                self._settle(child, self._reap(child), timed_out=False)
                continue
            *lines, child.buffer = (child.buffer + data).split(b"\n")
            for line in lines:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # a torn line: its cell counts as unreported
                # A warm group's budget restarts with each record: its
                # prefix and each forked cell get one cell budget apiece.
                child.refresh_deadline()
                if record["kind"] == "cell":
                    child.cells[int(record["index"])] = record
                else:
                    self._on_prefix(child.task, record)
        now = _clock()
        for child in list(self.running.values()):
            if child.deadline is not None and now >= child.deadline:
                self._timeout(child)

    def _on_prefix(self, task: _Task, record: Dict[str, Any]) -> None:
        """Record a prefix's digest; shout if it drifted from a prior run."""
        run, spec = self.run_state, task.slots[0].spec
        key = warm_prefix_key(spec, run.scale, task.group)
        if record["kind"] == "prefix-error":
            if run.journal is not None:
                run.journal.note("warm_prefix_failed", experiment=spec.name, key=key,
                                 error=record["error"])
            return
        if run.cache is None or "digest" not in record:
            return
        digest = record["digest"]
        prior = run.cache.get_prefix(spec.name, key)
        if prior is not None and prior.get("digest") != digest:
            sys.stderr.write(f"warning: warmup prefix for {spec.name} (key {key[:12]}) "
                             f"diverged from the recorded digest: "
                             f"{str(prior.get('digest'))[:16]}… -> {digest[:16]}…\n")
            if run.journal is not None:
                run.journal.note("warm_prefix_divergence", experiment=spec.name, key=key,
                                 recorded=prior.get("digest"), observed=digest)
        run.cache.put_prefix(spec.name, key, {
            "events": record["events"], "sim_time": record["sim_time"], "digest": digest,
            "group": task.group, "scale": scale_to_dict(run.scale),
        })

    def _reap(self, child: _Child, kill: bool = False) -> int:
        """Close the child's pipe and collect its exit status."""
        del self.running[child.fd]
        if kill:
            try:
                os.killpg(child.pid, signal.SIGKILL)  # the leader and its grandchild
            except OSError:
                pass
        os.close(child.fd)
        return os.waitpid(child.pid, 0)[1]

    def _final(self, task: _Task) -> bool:
        return task.attempts > self.config.max_retries or self.run_state.report.interrupted

    def _timeout(self, child: _Child) -> None:
        task, journal = child.task, self.run_state.journal
        self.counters["timeouts"] += 1
        self.counters["pool_rebuilds"] += 1
        late = next((s for i, s in enumerate(task.slots) if i not in child.cells), None)
        if journal is not None and late is not None and late.key is not None:
            journal.cell_timeout(late.spec.name, late.key, task.attempts, child.budget,
                                 task.group is None and self._final(task), child.worker)
        self._settle(child, self._reap(child, kill=True), timed_out=True)

    def _settle(self, child: _Child, status: int, timed_out: bool) -> None:
        """Hand out a finished child's payloads; retry or fail the rest."""
        run, task = self.run_state, child.task
        if task.group is not None:
            self.counters["warm_groups"] += 1
            for index, slot in enumerate(task.slots):
                record = child.cells.get(index)
                if record is not None and record["ok"]:
                    self.failures_in_row = 0
                    self.counters["warm_cells"] += 1
                    run.finish(slot, record["payload"], 1, record["wall_s"], child.worker)
                elif run.report.interrupted:
                    run.report.skipped += 1
                else:
                    # Died, hung, or raised warm: rerun cold, so a real
                    # workload error surfaces through the ordinary path.
                    self.queue.append(_Task([slot]))
            return
        slot, record = task.slots[0], child.cells.get(0)
        if record is not None and record["ok"]:
            self.failures_in_row = 0
            run.finish(slot, record["payload"], task.attempts, record["wall_s"], child.worker)
            return
        if record is not None:
            kind, error = "exception", record["error"]
        elif timed_out:
            kind, error = "timeout", f"cell exceeded {child.budget:.1f}s wall-clock budget"
        else:
            kind = "worker-died"
            error = f"worker process died (exit code {os.waitstatus_to_exitcode(status)})"
            self.counters["worker_deaths"] += 1
            self.counters["pool_rebuilds"] += 1
            self.failures_in_row += 1
            if run.journal is not None:
                run.journal.note("worker_died", worker=child.worker,
                                 cell=_label(slot.spec.name, slot.cell.as_dict()))
        final = self._final(task)
        run.fail(slot, kind, error, task.attempts, child.worker, final=final)
        if not final:
            self.counters["retries"] += 1
            self.waiting.append((_clock() + BACKOFF_S * 2 ** (task.attempts - 1), task))


# ----------------------------------------------------------------------
# resume planning
# ----------------------------------------------------------------------
@dataclass
class ResumePlan:
    """Everything ``--resume`` needs, derived from a replayed journal."""

    state: RunState
    specs: List[ExperimentSpec]
    scale: ExperimentScale
    jobs: int
    #: Terminally failed cells not to re-dispatch (empty with --retry-failed).
    skip_failed: Dict[Tuple[str, str], CellFailure]
    #: Human-readable refusals: the journal's cells no longer match the
    #: current source tree.
    mismatches: List[str]


def plan_resume(state: RunState, *, retry_failed: bool = False) -> ResumePlan:
    """Verify a journal against the current source tree and plan the rerun.

    Every experiment's recorded cell keys must match the keys the current
    code produces (cell keys embed the source fingerprint, the scale, and
    the params) — if the code changed, the plan carries a ``mismatches``
    diff and the CLI refuses to resume.
    """
    specs = [get_spec(name) for name in state.specs]
    scale = scale_from_dict(state.scale)
    mismatches: List[str] = []
    for spec in specs:
        recorded = state.cells.get(spec.name)
        if recorded is None:
            continue  # never reached before the crash; nothing to verify
        current = [cell_key(spec, scale, cell) for cell in spec.cells(scale)]
        if list(recorded.keys()) == current:
            continue
        fp_then = state.fingerprints.get(spec.name, "?")
        fp_now = spec_fingerprint(spec)
        if fp_then != fp_now:
            detail = f"source fingerprint changed ({fp_then[:12]} -> {fp_now[:12]})"
        else:
            detail = f"cell grid changed ({len(recorded)} recorded vs {len(current)} current cells)"
        mismatches.append(f"{spec.name}: {detail}")

    skip: Dict[Tuple[str, str], CellFailure] = {}
    if not retry_failed:
        for experiment, record in state.failed_cells():
            skip[(experiment, record.key)] = CellFailure(
                experiment=experiment,
                params=record.params,
                key=record.key,
                kind="prior-failure",
                error=record.error or record.state,
                attempts=record.attempts,
            )
    return ResumePlan(state=state, specs=specs, scale=scale, jobs=state.jobs,
                      skip_failed=skip, mismatches=mismatches)


def run_spec(
    spec: Union[str, ExperimentSpec],
    scale: ExperimentScale = QUICK,
    *,
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    observation: Optional[Any] = None,
) -> ExperimentResult:
    """Run one experiment and return its merged result."""
    return run_specs([spec], scale, jobs=jobs, cache=cache, observation=observation)[0]


def run_specs(
    specs: Sequence[Union[str, ExperimentSpec]],
    scale: ExperimentScale = QUICK,
    *,
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    observation: Optional[Any] = None,
) -> List[ExperimentResult]:
    """Run several experiments; results follow the requested order."""
    return execute(specs, scale, jobs=jobs, cache=cache, observation=observation).results
