"""``repro.harness.experiments`` — declarative experiment registry.

Experiments are *data*: an :class:`ExperimentSpec` declares a study's
axes, cell lowering and result assembly; the generic engine runs any
spec through the shared executor; the presentation layer renders any
result as a report, chart, JSON or CSV.  ``REGISTRY`` holds every
study of the paper's evaluation (``load_all()`` imports the catalog);
``silo-repro exp list|run`` is the CLI face.
"""

from repro.harness.experiments.engine import (
    grids_from_campaign,
    lower,
    run_campaign,
    run_experiment,
)
from repro.harness.experiments.presentation import (
    NormalizedGridsResult,
    TableData,
    TabularResult,
    add_average,
    normalize_series,
    normalize_to,
    normalized_table,
    render,
    tables_to_csv,
)
from repro.harness.experiments.registry import (
    CATALOG_MODULES,
    REGISTRY,
    ExperimentRegistry,
    load_all,
)
from repro.harness.experiments.spec import Axis, Campaign, ExperimentSpec

__all__ = [
    "Axis",
    "Campaign",
    "CATALOG_MODULES",
    "ExperimentRegistry",
    "ExperimentSpec",
    "NormalizedGridsResult",
    "REGISTRY",
    "TableData",
    "TabularResult",
    "add_average",
    "grids_from_campaign",
    "load_all",
    "lower",
    "normalize_series",
    "normalize_to",
    "normalized_table",
    "render",
    "run_campaign",
    "run_experiment",
    "tables_to_csv",
]
