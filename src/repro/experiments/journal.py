"""Append-only run journal: the crash-safe record of one experiment run.

Every journaled run owns one directory under ``benchmarks/.runs/<run_id>/``
holding a single ``journal.jsonl`` manifest.  The journal is *append-only*:
the run header, the resolved cell set of every experiment (cell keys +
params + source fingerprint), and a state transition per cell
(``dispatched -> done | failed | timeout``, with attempt count, wall time,
and worker id) are each one JSON line written with a single ``O_APPEND``
``write()`` — a ``kill -9`` at any instant leaves at worst one torn final
line, which :func:`load_state` tolerates.  Critical records (header, cell
sets, failures, timeouts, run end) are additionally ``fsync``\\ ed so they
survive a machine crash, not just a process kill; the per-cell happy-path
records (``dispatched``/``done``) skip the fsync — the OS already has the
bytes, and a process kill cannot lose them — so journaling stays off the
hot path (see ``benchmarks/perf.py --overhead-check``).

Runs started with ``--checkpoint-interval`` additionally journal
``checkpoint`` records — mid-cell state digests at periodic event
boundaries (see :mod:`repro.sim.checkpoint`) — so a resumed run can
replay an interrupted cell and *verify* it passes through the recorded
states instead of trusting determinism blindly.

:func:`load_state` replays a journal into a :class:`RunState`: which cells
exist, which finished, which failed and why, and whether the run completed
or was suspended.  ``--resume <run_id>`` (see
:mod:`repro.experiments.__main__`) is built entirely on this replay plus
the cell cache: ``done`` cells are skipped as cache hits, everything else
is re-dispatched, and the resumed output is byte-identical to an
uninterrupted serial run because cell payloads are pure functions of
(experiment, scale, params).

Inspect a journal from the command line::

    python -m repro.experiments.journal                 # list runs
    python -m repro.experiments.journal <run_id>        # cell states
    python -m repro.experiments.journal <run_id> --trace run.json  # Perfetto
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Bump when the journal record layout changes.
JOURNAL_SCHEMA = 1

#: The manifest file inside a run directory.
JOURNAL_NAME = "journal.jsonl"

# Cell states (journal transitions).
PENDING = "pending"
DISPATCHED = "dispatched"
DONE = "done"
FAILED = "failed"
TIMEOUT = "timeout"

# Run end states.
RUN_COMPLETE = "complete"
RUN_FAILED = "failed"
RUN_SUSPENDED = "suspended"


def default_runs_dir() -> Path:
    """``$REPRO_RUNS_DIR``, else ``benchmarks/.runs`` in a repo checkout,
    else a per-user directory (mirrors the cell cache's resolution)."""
    env = os.environ.get("REPRO_RUNS_DIR")
    if env:
        return Path(env)
    repo_root = Path(__file__).resolve().parents[3]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / ".runs"
    return Path.home() / ".cache" / "repro-runs"


def new_run_id() -> str:
    """A fresh, human-sortable run id: ``<utc timestamp>-<pid>``."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{stamp}-{os.getpid()}"


def find_run(run_id: str, root: Optional[Path] = None) -> Path:
    """The run directory for ``run_id``; raises ``FileNotFoundError`` with
    the known run ids when it does not exist."""
    base = Path(root) if root is not None else default_runs_dir()
    directory = base / run_id
    if (directory / JOURNAL_NAME).is_file():
        return directory
    known = sorted(
        p.parent.name for p in base.glob(f"*/{JOURNAL_NAME}")
    ) if base.is_dir() else []
    hint = f"; known runs: {', '.join(known)}" if known else " (no recorded runs)"
    raise FileNotFoundError(f"no journal for run {run_id!r} under {base}{hint}")


def _now() -> float:
    return round(time.time(), 6)  # repro: allow[REP001] reason=host-side journal timestamps, never feed the simulation


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------
class RunJournal:
    """Append-only JSONL writer for one run directory.

    ``fsync`` policy: ``"critical"`` (default) syncs header/cells/failure/
    timeout/end records only; ``"always"`` syncs every record; ``"never"``
    syncs nothing (tests).
    """

    def __init__(self, directory: Path, fsync: str = "critical"):
        if fsync not in ("critical", "always", "never"):
            raise ValueError(f"unknown fsync policy {fsync!r}")
        self.directory = Path(directory)
        self.fsync = fsync
        self.path = self.directory / JOURNAL_NAME
        self._fd = os.open(
            self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
        )

    # ------------------------------------------------------------------
    @property
    def run_id(self) -> str:
        return self.directory.name

    @classmethod
    def create(
        cls,
        *,
        scale: Dict[str, Any],
        jobs: int,
        specs: List[str],
        run_id: Optional[str] = None,
        root: Optional[Path] = None,
        argv: Optional[List[str]] = None,
        fsync: str = "critical",
        checkpoint_interval: Optional[int] = None,
    ) -> "RunJournal":
        """Start a new run: make the directory, write the run header."""
        base = Path(root) if root is not None else default_runs_dir()
        if run_id is None:
            run_id = new_run_id()
            serial = 1
            while (base / run_id / JOURNAL_NAME).exists():
                serial += 1
                run_id = f"{new_run_id()}.{serial}"
        directory = base / run_id
        directory.mkdir(parents=True, exist_ok=True)
        journal = cls(directory, fsync=fsync)
        journal._append(
            {
                "t": "run",
                "schema": JOURNAL_SCHEMA,
                "run_id": run_id,
                "argv": list(argv) if argv is not None else None,
                "scale": scale,
                "jobs": jobs,
                "specs": list(specs),
                "checkpoint_interval": checkpoint_interval,
            },
            critical=True,
        )
        journal._sync_dir()
        return journal

    @classmethod
    def attach(
        cls,
        run_id: str,
        root: Optional[Path] = None,
        *,
        argv: Optional[List[str]] = None,
        fsync: str = "critical",
    ) -> "RunJournal":
        """Append to an existing run's journal (the ``--resume`` path)."""
        journal = cls(find_run(run_id, root), fsync=fsync)
        journal.note("resume", argv=list(argv) if argv is not None else None)
        return journal

    # ------------------------------------------------------------------
    def _append(self, record: Dict[str, Any], critical: bool = False) -> None:
        record["ts"] = _now()
        line = json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
        os.write(self._fd, line.encode())
        if self.fsync == "always" or (critical and self.fsync == "critical"):
            os.fsync(self._fd)

    def _sync_dir(self) -> None:
        if self.fsync == "never":
            return
        try:
            dir_fd = os.open(self.directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    # ------------------------------------------------------------------
    # record types
    # ------------------------------------------------------------------
    def record_cells(
        self,
        experiment: str,
        fingerprint: str,
        cells: List[Tuple[str, Dict[str, Any]]],
    ) -> None:
        """The resolved cell set of one experiment, in declaration order.

        Replay merges by key, so re-recording on resume is idempotent.
        """
        self._append(
            {
                "t": "cells",
                "experiment": experiment,
                "fingerprint": fingerprint,
                "cells": [{"key": key, "params": params} for key, params in cells],
            },
            critical=True,
        )

    def cell_dispatched(
        self, experiment: str, key: str, attempt: int, worker: str
    ) -> None:
        self._append(
            {
                "t": "cell",
                "experiment": experiment,
                "key": key,
                "state": DISPATCHED,
                "attempt": attempt,
                "worker": worker,
            }
        )

    def cell_done(
        self,
        experiment: str,
        key: str,
        attempt: int,
        wall_s: float,
        worker: str = "inline",
        source: str = "computed",
    ) -> None:
        self._append(
            {
                "t": "cell",
                "experiment": experiment,
                "key": key,
                "state": DONE,
                "attempt": attempt,
                "worker": worker,
                "wall_s": round(wall_s, 4),
                "source": source,
            }
        )

    def cell_failed(
        self,
        experiment: str,
        key: str,
        attempt: int,
        error: str,
        kind: str = "exception",
        final: bool = True,
        worker: str = "inline",
    ) -> None:
        self._append(
            {
                "t": "cell",
                "experiment": experiment,
                "key": key,
                "state": FAILED,
                "attempt": attempt,
                "worker": worker,
                "error": error,
                "kind": kind,
                "final": final,
            },
            critical=True,
        )

    def cell_timeout(
        self,
        experiment: str,
        key: str,
        attempt: int,
        timeout_s: float,
        final: bool,
        worker: str,
    ) -> None:
        self._append(
            {
                "t": "cell",
                "experiment": experiment,
                "key": key,
                "state": TIMEOUT,
                "attempt": attempt,
                "worker": worker,
                "timeout_s": timeout_s,
                "final": final,
            },
            critical=True,
        )

    def cell_checkpoint(
        self,
        experiment: str,
        key: str,
        events: int,
        sim_time: float,
        digest: str,
        sim_index: int = 0,
    ) -> None:
        """A mid-cell state checkpoint (see :mod:`repro.sim.checkpoint`).

        Recorded at periodic event boundaries while a cell simulates, so
        a resumed run can replay the cell and *verify* it passes through
        the identical states instead of trusting determinism blindly.
        ``sim_index`` distinguishes systems when one cell builds several.
        Critical (fsynced): a checkpoint only has value if it survives
        the crash it is meant to cover.
        """
        self._append(
            {
                "t": "checkpoint",
                "experiment": experiment,
                "key": key,
                "sim": sim_index,
                "events": events,
                "sim_time": sim_time,
                "digest": digest,
            },
            critical=True,
        )

    def note(self, name: str, **fields: Any) -> None:
        """A run-level supervision event (``worker_died``,
        ``degraded_serial``, ``signal``, ``resume`` …)."""
        record: Dict[str, Any] = {"t": "note", "name": name}
        record.update(fields)
        self._append(record, critical=True)

    def run_end(self, state: str, exit_code: Optional[int] = None, **fields: Any) -> None:
        record: Dict[str, Any] = {"t": "end", "state": state, "exit_code": exit_code}
        record.update(fields)
        self._append(record, critical=True)

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.fsync(self._fd)
            except OSError:
                pass
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
@dataclass
class CellRecord:
    """One cell's replayed state."""

    key: str
    params: Dict[str, Any]
    state: str = PENDING
    attempts: int = 0
    final: bool = False
    error: Optional[str] = None
    kind: Optional[str] = None
    worker: Optional[str] = None
    wall_s: Optional[float] = None
    source: Optional[str] = None
    #: Full transition history: (state, attempt) pairs in journal order.
    transitions: List[Tuple[str, int]] = field(default_factory=list)
    #: Mid-cell checkpoint records (``{"sim", "events", "sim_time",
    #: "digest"}``), in journal order.  A resumed run replays the cell
    #: with these as expected digests.
    checkpoints: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return self.state == DONE or (self.state in (FAILED, TIMEOUT) and self.final)


@dataclass
class RunState:
    """A journal replayed into queryable per-cell state."""

    run_id: str = ""
    schema: int = JOURNAL_SCHEMA
    argv: Optional[List[str]] = None
    scale: Dict[str, Any] = field(default_factory=dict)
    jobs: int = 1
    specs: List[str] = field(default_factory=list)
    #: ``--checkpoint-interval`` of the original run (None = disabled);
    #: resume reuses it so replayed cells hit the recorded boundaries.
    checkpoint_interval: Optional[int] = None
    #: experiment -> {cell key -> record}, keys in declaration order.
    cells: Dict[str, Dict[str, CellRecord]] = field(default_factory=dict)
    #: experiment -> source fingerprint at record time.
    fingerprints: Dict[str, str] = field(default_factory=dict)
    notes: List[Dict[str, Any]] = field(default_factory=list)
    end_state: Optional[str] = None
    exit_code: Optional[int] = None
    resumes: int = 0
    #: Unparseable lines tolerated during replay (a torn tail after
    #: ``kill -9`` is the expected case).
    torn_lines: int = 0
    #: Epoch timestamp of the first record (trace export origin).
    started_ts: Optional[float] = None
    records: List[Dict[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def cell(self, experiment: str, key: str) -> Optional[CellRecord]:
        return self.cells.get(experiment, {}).get(key)

    def done_keys(self, experiment: str) -> List[str]:
        return [
            r.key for r in self.cells.get(experiment, {}).values() if r.state == DONE
        ]

    def failed_cells(self) -> List[Tuple[str, CellRecord]]:
        """Terminally failed/timed-out cells as (experiment, record)."""
        out = []
        for experiment, records in self.cells.items():
            for record in records.values():
                if record.finished and record.state != DONE:
                    out.append((experiment, record))
        return out

    def unfinished_cells(self) -> List[Tuple[str, CellRecord]]:
        out = []
        for experiment, records in self.cells.items():
            for record in records.values():
                if not record.finished:
                    out.append((experiment, record))
        return out

    def counts(self) -> Dict[str, int]:
        tally = {PENDING: 0, DONE: 0, FAILED: 0, TIMEOUT: 0, DISPATCHED: 0}
        for records in self.cells.values():
            for record in records.values():
                tally[record.state] = tally.get(record.state, 0) + 1
        return tally


def load_state(run_dir: Path) -> RunState:
    """Replay ``<run_dir>/journal.jsonl`` into a :class:`RunState`.

    Tolerant by design: unparseable lines (the torn tail a ``kill -9``
    mid-write leaves) are counted in ``torn_lines`` and skipped; a journal
    with no run header raises ``ValueError``.
    """
    path = Path(run_dir) / JOURNAL_NAME
    state = RunState()
    seen_header = False
    with open(path, "rb") as handle:
        for raw in handle:
            try:
                record = json.loads(raw.decode("utf-8", errors="strict"))
                if not isinstance(record, dict) or "t" not in record:
                    raise ValueError("not a journal record")
            except (ValueError, UnicodeDecodeError):
                state.torn_lines += 1
                continue
            state.records.append(record)
            if state.started_ts is None and isinstance(record.get("ts"), float):
                state.started_ts = record["ts"]
            kind = record["t"]
            if kind == "run":
                seen_header = True
                state.run_id = record.get("run_id", "")
                state.schema = record.get("schema", JOURNAL_SCHEMA)
                state.argv = record.get("argv")
                state.scale = record.get("scale", {})
                state.jobs = record.get("jobs", 1)
                state.specs = list(record.get("specs", []))
                interval = record.get("checkpoint_interval")
                state.checkpoint_interval = (
                    int(interval) if interval is not None else None
                )
            elif kind == "cells":
                experiment = record["experiment"]
                state.fingerprints[experiment] = record.get("fingerprint", "")
                table = state.cells.setdefault(experiment, {})
                for entry in record.get("cells", []):
                    if entry["key"] not in table:
                        table[entry["key"]] = CellRecord(
                            key=entry["key"], params=entry.get("params", {})
                        )
            elif kind == "cell":
                table = state.cells.setdefault(record["experiment"], {})
                cell = table.get(record["key"])
                if cell is None:
                    cell = table[record["key"]] = CellRecord(
                        key=record["key"], params={}
                    )
                cell_state = record.get("state", PENDING)
                attempt = int(record.get("attempt", cell.attempts))
                cell.transitions.append((cell_state, attempt))
                cell.attempts = max(cell.attempts, attempt)
                cell.state = cell_state
                cell.worker = record.get("worker", cell.worker)
                if cell_state == DONE:
                    cell.final = True
                    cell.wall_s = record.get("wall_s")
                    cell.source = record.get("source")
                    cell.error = None
                    cell.kind = None
                elif cell_state in (FAILED, TIMEOUT):
                    cell.final = bool(record.get("final", True))
                    cell.error = record.get(
                        "error",
                        f"cell exceeded {record.get('timeout_s')}s"
                        if cell_state == TIMEOUT
                        else None,
                    )
                    cell.kind = record.get("kind", cell_state)
            elif kind == "checkpoint":
                table = state.cells.setdefault(record["experiment"], {})
                cell = table.get(record["key"])
                if cell is None:
                    cell = table[record["key"]] = CellRecord(
                        key=record["key"], params={}
                    )
                cell.checkpoints.append(
                    {
                        "sim": int(record.get("sim", 0)),
                        "events": int(record["events"]),
                        "sim_time": float(record["sim_time"]),
                        "digest": str(record["digest"]),
                    }
                )
            elif kind == "note":
                state.notes.append(record)
                if record.get("name") == "resume":
                    state.resumes += 1
                    # A resumed run supersedes the previous end record.
                    state.end_state = None
                    state.exit_code = None
            elif kind == "end":
                state.end_state = record.get("state")
                state.exit_code = record.get("exit_code")
    if not seen_header:
        raise ValueError(f"{path} has no run header (torn={state.torn_lines})")
    return state


def list_runs(root: Optional[Path] = None) -> List[RunState]:
    """Replay every journal under ``root``, oldest first."""
    base = Path(root) if root is not None else default_runs_dir()
    states = []
    if base.is_dir():
        for path in sorted(base.glob(f"*/{JOURNAL_NAME}")):
            try:
                states.append(load_state(path.parent))
            except (OSError, ValueError):
                continue
    return states


def _tree_size(directory: Path) -> int:
    total = 0
    for path in directory.rglob("*"):
        if path.is_file():
            try:
                total += path.stat().st_size
            except OSError:
                pass
    return total


def prune_runs(max_bytes: int, root: Optional[Path] = None) -> int:
    """Evict the oldest *finished* run directories until the runs tree
    fits ``max_bytes``.  Returns the number of directories removed.

    Only terminally finished runs (``complete``/``failed``) and
    directories with no readable journal are candidates; suspended and
    in-flight runs are resumable state and are never pruned.  Eviction
    order is journal mtime, oldest first.
    """
    import shutil

    if max_bytes < 0:
        raise ValueError(f"max_bytes must be non-negative, got {max_bytes}")
    base = Path(root) if root is not None else default_runs_dir()
    if not base.is_dir():
        return 0
    entries = []
    total = 0
    for directory in base.iterdir():
        if not directory.is_dir():
            continue
        size = _tree_size(directory)
        total += size
        try:
            state = load_state(directory)
            prunable = state.end_state in (RUN_COMPLETE, RUN_FAILED)
        except (OSError, ValueError):
            prunable = True
        try:
            mtime = (directory / JOURNAL_NAME).stat().st_mtime
        except OSError:
            mtime = 0.0
        entries.append((mtime, size, directory, prunable))
    entries.sort(key=lambda item: (item[0], str(item[2])))
    removed = 0
    for mtime, size, directory, prunable in entries:
        if total <= max_bytes:
            break
        if not prunable:
            continue
        try:
            shutil.rmtree(directory)
        except OSError:
            continue
        total -= size
        removed += 1
    return removed


# ----------------------------------------------------------------------
# CLI: inspect journals
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.journal",
        description="Inspect run journals under benchmarks/.runs/.",
    )
    parser.add_argument("run_id", nargs="?", help="run to show (default: list runs)")
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="export the run's host timeline as Chrome-trace JSON",
    )
    args = parser.parse_args(argv)

    if args.run_id is None:
        states = list_runs()
        if not states:
            print(f"(no recorded runs under {default_runs_dir()})")
            return 0
        for state in states:
            tally = state.counts()
            end = state.end_state or "in-flight"
            print(
                f"{state.run_id}  specs={len(state.specs)} "
                f"done={tally[DONE]} failed={tally[FAILED] + tally[TIMEOUT]} "
                f"pending={tally[PENDING] + tally[DISPATCHED]} "
                f"resumes={state.resumes} [{end}]"
            )
        return 0

    try:
        state = load_state(find_run(args.run_id))
    except (FileNotFoundError, ValueError) as error:
        print(str(error))
        return 2
    print(f"run {state.run_id}: specs={', '.join(state.specs)}")
    print(f"scale={state.scale.get('name')} jobs={state.jobs} resumes={state.resumes}")
    if state.torn_lines:
        print(f"torn journal lines tolerated: {state.torn_lines}")
    for experiment, records in state.cells.items():
        for record in records.values():
            status = record.state + (" (final)" if record.finished else "")
            extra = f" wall={record.wall_s}s" if record.wall_s is not None else ""
            if record.error:
                extra += f" error={record.error}"
            print(
                f"  {experiment} {record.key[:12]} {status} "
                f"attempts={record.attempts} worker={record.worker}{extra}"
            )
    print(f"end: {state.end_state or 'in-flight'} exit={state.exit_code}")

    if args.trace:
        from repro.obs.export import write_run_timeline

        write_run_timeline(state, args.trace)
        print(f"[timeline -> {args.trace}]")
    return 0


if __name__ == "__main__":
    import sys

    try:
        sys.exit(main())
    except BrokenPipeError:
        # Piped through `head`: the closed pipe is the reader's choice.
        os._exit(0)
