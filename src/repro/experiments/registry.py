"""Declarative experiment registry.

Every paper figure/table registers one :class:`ExperimentSpec` here: a
*name*, a *title*, a function expanding a scale into independent
:class:`Cell`\\ s, a **pure** per-cell function (each cell builds and runs
its own seeded ``Simulator``, so cells can execute in any order or in
separate processes), and a *merge* function that assembles the cell
payloads — in declaration order — into an :class:`ExperimentResult`.

The contract that makes parallel execution safe and deterministic:

* ``cell_fn(scale, params) -> payload`` must depend only on its arguments
  and return a JSON-serialisable dict (it crosses the process boundary and
  is what the cell cache stores);
* ``merge(scale, payloads) -> ExperimentResult`` receives payloads in cell
  declaration order regardless of completion order, so serial and parallel
  runs render byte-identical text.

Specs may declare *aliases* (legacy CLI names) and a *group* (e.g. all
ablations form the ``"ablations"`` group, runnable under one name).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.experiments.runner import ExperimentResult, ExperimentScale

#: JSON-serialisable keyword parameters of one cell.
Params = Dict[str, Any]


@dataclass(frozen=True)
class Cell:
    """One independent unit of experiment work, identified by its params.

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs so a
    cell has a stable identity (and therefore a stable cache key) no matter
    how it was constructed.
    """

    params: Tuple[Tuple[str, Any], ...]

    @staticmethod
    def make(**params: Any) -> "Cell":
        return Cell(params=tuple(sorted(params.items())))

    def as_dict(self) -> Params:
        return dict(self.params)


@dataclass(frozen=True)
class WarmupSpec:
    """Declared shared-warmup structure of an experiment's cell grid.

    Many grids re-simulate an identical warmup phase per cell before
    their parameters ever diverge.  A warmup-aware spec factors its
    ``cell_fn`` into three pure pieces:

    * ``group(params) -> Params`` — the *warmup prefix key*: the subset
      of a cell's params the warmup phase depends on.  Cells with equal
      group params share one prefix.
    * ``prefix(scale, group_params) -> ctx`` — build the system and
      simulate the shared warmup once; returns a live context (must be a
      mapping with a ``"system"`` entry so the engine can digest it into
      a prefix artifact).
    * ``finish(scale, params, ctx) -> payload`` — diverge: apply the
      cell's remaining params to the warmed-up context and run the
      measured phase.

    The contract that keeps warm-start byte-identical to cold execution:
    ``cell_fn(scale, params)`` must equal
    ``finish(scale, params, prefix(scale, group(params)))`` — the spec's
    ``cell_fn`` should literally be that composition, so cold cells
    (observed or checkpointed runs, ``--no-warm-start``, and cells a warm
    group failed to report) and warm groups forked by
    :mod:`repro.experiments.engine` run the same code.
    ``finish`` runs in a forked child per cell, so its mutations of
    ``ctx`` never leak between cells.
    """

    group: Callable[[Params], Params]
    prefix: Callable[[ExperimentScale, Params], Any]
    finish: Callable[[ExperimentScale, Params, Any], Params]


@dataclass(frozen=True)
class ExperimentSpec:
    """A figure/table experiment, declared as cells + merge."""

    name: str
    title: str
    #: Expand a scale into the cell grid (declaration order == merge order).
    cells: Callable[[ExperimentScale], Sequence[Cell]]
    #: Pure cell function: ``(scale, params) -> JSON payload``.
    cell_fn: Callable[[ExperimentScale, Params], Params]
    #: Assemble ordered payloads into the rendered result.
    merge: Callable[[ExperimentScale, List[Params]], ExperimentResult]
    #: Bump to invalidate cached cells when semantics change without a
    #: source-file change (the engine also fingerprints the source files).
    version: int = 1
    #: Legacy / convenience names (e.g. ``"tail"`` for ``"tail-latency"``).
    aliases: Tuple[str, ...] = ()
    #: Optional group name; ``--only <group>`` runs every member.
    group: str = ""
    #: Relative expected wall-clock cost of one cell (1.0 = a typical
    #: quick-scale cell).  The supervisor scales its per-cell timeout by
    #: this, so one ``--timeout`` budget fits light and heavy grids alike.
    cost_hint: float = 1.0
    #: Declared shared-warmup structure (None = every cell is cold).
    #: See :class:`WarmupSpec`; the engine exploits it by simulating each
    #: warmup prefix once and forking cells from it.
    warmup: "WarmupSpec | None" = None


_SPECS: Dict[str, ExperimentSpec] = {}
_ALIASES: Dict[str, str] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Register ``spec`` (idempotent for re-imports of the same module)."""
    existing = _SPECS.get(spec.name)
    if existing is not None and existing is not spec:
        raise ValueError(f"experiment {spec.name!r} registered twice")
    _SPECS[spec.name] = spec
    for alias in spec.aliases:
        taken = _ALIASES.get(alias)
        if taken not in (None, spec.name) or alias in _SPECS:
            raise ValueError(f"alias {alias!r} conflicts with an existing name")
        _ALIASES[alias] = spec.name
    return spec


def _loaded() -> None:
    """Make sure every experiment module has run its registrations."""
    import repro.experiments  # noqa: F401  (imports register all specs)


def get_spec(name: str) -> ExperimentSpec:
    """Resolve ``name`` (or an alias) to its spec."""
    _loaded()
    resolved = _ALIASES.get(name, name)
    try:
        return _SPECS[resolved]
    except KeyError:
        known = ", ".join(spec_names())
        raise KeyError(f"unknown experiment {name!r}; known: {known}") from None


def all_specs() -> List[ExperimentSpec]:
    """Every registered spec, in registration (paper) order."""
    _loaded()
    return list(_SPECS.values())


def spec_names() -> List[str]:
    return [spec.name for spec in all_specs()]


def groups() -> Dict[str, List[str]]:
    """Group name -> member spec names, in registration order."""
    grouped: Dict[str, List[str]] = {}
    for spec in all_specs():
        if spec.group:
            grouped.setdefault(spec.group, []).append(spec.name)
    return grouped


def resolve(names: Sequence[str]) -> List[ExperimentSpec]:
    """Expand a mix of spec names, aliases, and group names into specs.

    Order follows the request; duplicates are dropped (first wins).
    """
    grouped = groups()
    specs: List[ExperimentSpec] = []
    seen = set()
    for name in names:
        members = grouped.get(name)
        targets = members if members is not None else [name]
        for target in targets:
            spec = get_spec(target)
            if spec.name not in seen:
                seen.add(spec.name)
                specs.append(spec)
    return specs
