"""The generic campaign engine.

One code path lowers any :class:`~repro.harness.experiments.spec
.ExperimentSpec` to executor cells, fans them through the shared
:class:`~repro.harness.executor.Executor` (content-addressed cache,
``--jobs`` parallelism, per-worker trace memo and failure isolation
all preserved) and assembles the study's result object.  The
registered studies differ only in their declarations — none carries
grid-construction or fan-out code of its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.harness.executor import (
    CellOutcome,
    CellSpec,
    Executor,
    raise_on_failures,
    repro_command,
)
from repro.harness.experiments.presentation import GridResult
from repro.harness.experiments.spec import Axis, Campaign, ExperimentSpec, Point
from repro.obs import ObsConfig


@dataclass
class PartialCampaignResult:
    """A gracefully-degraded campaign: the assembled study result (when
    assembly survived the gaps) plus an explicit hole ledger.

    Produced by :func:`run_campaign` in ``partial`` mode instead of
    raising on the first failed cell: every hole is rendered with its
    coordinates, its outcome ``kind``, the tail of its error and — for
    default-config cells — a copy-pasteable ``replay --spec`` one-liner,
    so an overnight campaign with three dead cells still yields its
    other hundreds.  ``passed`` is always ``False``: a partial result
    must never be mistaken for a clean one (the CLI maps it to its own
    exit code).
    """

    experiment: str
    figure: str
    result: Any
    holes: List[Tuple[Point, CellOutcome]] = field(default_factory=list)
    total: int = 0

    @property
    def passed(self) -> bool:
        return False

    def format_report(self) -> str:
        lines = [
            f"PARTIAL RESULT: {self.experiment} ({self.figure}) — "
            f"{len(self.holes)} of {self.total} cells missing",
            "",
        ]
        for point, outcome in self.holes:
            coords = ", ".join(f"{k}={v}" for k, v in point.items())
            lines.append(f"  missing [{outcome.kind}] {coords}")
            if outcome.error:
                lines.append(f"    {outcome.error.strip().splitlines()[-1]}")
            try:
                lines.append(f"    replay: {repro_command(outcome.spec)}")
            except ConfigError:
                # Non-default-config cells have no one-line replay;
                # the manifest still pins their full spec.
                pass
        lines.append("")
        if self.result is not None and hasattr(self.result, "format_report"):
            lines.append(
                "Assembled from the surviving cells (holes excluded):"
            )
            lines.append("")
            lines.append(self.result.format_report())
        else:
            lines.append(
                "The study's assembly could not run with these cells "
                "missing; re-run the replay commands above (or the "
                "campaign with --resume) to fill the holes."
            )
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, Any]:
        holes = []
        for point, outcome in self.holes:
            record: Dict[str, Any] = {
                "coords": {str(k): v for k, v in point.items()},
                "kind": outcome.kind,
                "attempts": outcome.attempts,
            }
            if outcome.error:
                record["error"] = outcome.error.strip().splitlines()[-1]
            holes.append(record)
        return {
            "experiment": self.experiment,
            "figure": self.figure,
            "partial": True,
            "passed": False,
            "total": self.total,
            "holes": holes,
        }


def lower(
    spec: ExperimentSpec, params: Dict[str, Any]
) -> Tuple[Tuple[Axis, ...], List[Point], List[Optional[CellSpec]]]:
    """Expand a spec into its axis points and their cells.

    The Cartesian product runs in axis order, so the cell order (and
    with it every assemble function's insertion order) is exactly the
    nested-loop order the hand-rolled harnesses used.
    """
    axes = tuple(spec.axes(params))
    names = [axis.name for axis in axes]
    if len(set(names)) != len(names):
        raise ConfigError(
            f"experiment {spec.name!r} declares duplicate axis names: {names}"
        )
    points = [
        dict(zip(names, combo))
        for combo in itertools.product(*(axis.values for axis in axes))
    ]
    cells = [spec.cell(params, point) for point in points]
    return axes, points, cells


def run_campaign(
    spec: ExperimentSpec,
    executor: Optional[Executor] = None,
    smoke: bool = False,
    obs: Optional[ObsConfig] = None,
    engine: str = "exact",
    partial: bool = False,
    **overrides: Any,
) -> Tuple[Any, Campaign]:
    """Run one experiment end to end; returns (result, campaign).

    ``obs`` attaches an observability config to every simulated cell
    (per-experiment metric roll-ups via :meth:`Campaign.metrics`);
    it joins the cells' content addresses, so profiled campaigns never
    share cache slots with plain ones.

    ``engine`` selects the execution engine for every simulated cell
    (``exact`` or the bit-identical batched ``columnar``); like
    ``obs`` it joins the content address, so the equivalence gate can
    run the same catalog under both engines without cache collisions.

    ``partial`` degrades gracefully instead of raising when cells
    fail: the result slot of the returned pair carries a
    :class:`PartialCampaignResult` that renders the failed/timed-out
    cells as explicit holes (with replay one-liners) around whatever
    the study could still assemble.
    """
    params = spec.merged_params(smoke=smoke, overrides=overrides)
    axes, points, cells = lower(spec, params)
    simulated = [index for index, cell in enumerate(cells) if cell is not None]
    to_run = [cells[index] for index in simulated]
    if obs is not None:
        to_run = [replace(cell, obs=obs) for cell in to_run]
    if engine != "exact":
        to_run = [replace(cell, engine=engine) for cell in to_run]
    run_outcomes = (executor if executor is not None else Executor(jobs=1)).run(to_run)
    if not partial:
        raise_on_failures(run_outcomes)
    outcomes: List[Optional[CellOutcome]] = [None] * len(points)
    for index, outcome in zip(simulated, run_outcomes):
        outcomes[index] = outcome
    campaign = Campaign(
        spec=spec, params=params, axes=axes, points=points, outcomes=outcomes
    )
    holes = campaign.holes()
    if partial and holes:
        try:
            result = spec.assemble(params, campaign)
        except Exception:
            # Most assemble functions index every grid point; holes
            # legitimately break them.  The partial wrapper reports
            # the holes either way.
            result = None
        return (
            PartialCampaignResult(
                experiment=spec.name,
                figure=spec.figure,
                result=result,
                holes=holes,
                total=len(simulated),
            ),
            campaign,
        )
    return spec.assemble(params, campaign), campaign


def run_experiment(
    spec: ExperimentSpec,
    executor: Optional[Executor] = None,
    smoke: bool = False,
    **overrides: Any,
) -> Any:
    """Run one experiment and return only its result object.

    The Python face of ``silo-repro exp run``: ``overrides`` are spec
    parameters, exactly as ``--set key=value`` takes them, e.g.
    ``run_experiment(fig12.SPEC, core_counts=(1,), transactions=15)``.
    Parameters the call leaves out take the spec's defaults (its smoke
    defaults with ``smoke=True``); an unknown name is a ConfigError.
    """
    return run_campaign(spec, executor=executor, smoke=smoke, **overrides)[0]


def grids_from_campaign(campaign: Campaign) -> Dict[int, GridResult]:
    """Reassemble ``{cores: GridResult}`` from a (cores, workload,
    scheme) campaign — the fig11/fig12 shape."""
    grids: Dict[int, GridResult] = {}
    for point, outcome in campaign.cells():
        grid = grids.setdefault(point["cores"], GridResult(cores=point["cores"]))
        grid.results.setdefault(point["workload"], {})[point["scheme"]] = (
            outcome.result
        )
    return grids
