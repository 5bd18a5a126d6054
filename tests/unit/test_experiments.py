"""Unit tests for the declarative experiment layer: spec, engine,
registry, campaign bookkeeping, and the shared normalization helpers."""

from __future__ import annotations

import json
from typing import List

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.harness.executor import CellSpec, Executor, WorkloadSpec
from repro.harness.experiments import (
    CATALOG_MODULES,
    REGISTRY,
    Axis,
    ExperimentRegistry,
    ExperimentSpec,
    add_average,
    load_all,
    lower,
    normalize_series,
    normalize_to,
    render,
    run_campaign,
    run_experiment,
)
from repro.harness.experiments.presentation import GridResult
from repro.harness.fig11 import Fig11Result
from repro.sim.engine import run_trace
from repro.trace.synthetic import SyntheticTraceConfig, synthetic_trace


def _toy_spec(**kw) -> ExperimentSpec:
    defaults = dict(
        name="toy",
        figure="test",
        description="toy spec",
        params=dict(schemes=("base", "silo"), workloads=("hash",), threads=1),
        smoke_params=dict(workloads=("hash",)),
        axes=lambda p: (
            Axis("workload", p["workloads"]),
            Axis("scheme", p["schemes"]),
        ),
        cell=lambda p, pt: CellSpec(
            workload=WorkloadSpec.make(
                pt["workload"], threads=p["threads"], transactions=5
            ),
            scheme=pt["scheme"],
            cores=p["threads"],
        ),
        assemble=lambda p, c: c,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestSpec:
    def test_axis_coerces_values_to_tuple(self):
        assert Axis("scheme", ["base", "silo"]).values == ("base", "silo")

    def test_merged_params_defaults(self):
        spec = _toy_spec()
        assert spec.merged_params()["schemes"] == ("base", "silo")

    def test_merged_params_smoke_overlays(self):
        spec = _toy_spec(smoke_params=dict(threads=7))
        assert spec.merged_params(smoke=True)["threads"] == 7
        assert spec.merged_params(smoke=False)["threads"] == 1

    def test_merged_params_override_beats_smoke(self):
        spec = _toy_spec(smoke_params=dict(threads=7))
        merged = spec.merged_params(smoke=True, overrides=dict(threads=3))
        assert merged["threads"] == 3

    def test_merged_params_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            _toy_spec().merged_params(overrides=dict(bogus=1))


class TestLowering:
    def test_product_order_matches_nested_loops(self):
        spec = _toy_spec(
            params=dict(schemes=("base", "silo"), workloads=("hash", "queue"), threads=1)
        )
        _, points, cells = lower(spec, spec.merged_params())
        assert [(pt["workload"], pt["scheme"]) for pt in points] == [
            ("hash", "base"),
            ("hash", "silo"),
            ("queue", "base"),
            ("queue", "silo"),
        ]
        assert len(cells) == 4 and all(c is not None for c in cells)

    def test_duplicate_axis_names_rejected(self):
        spec = _toy_spec(
            axes=lambda p: (Axis("x", (1,)), Axis("x", (2,)))
        )
        with pytest.raises(ConfigError, match="duplicate axis"):
            lower(spec, spec.merged_params())

    def test_analytic_spec_has_one_empty_point(self):
        spec = _toy_spec(axes=lambda p: (), cell=lambda p, pt: None)
        _, points, cells = lower(spec, spec.merged_params())
        assert points == [{}]
        assert cells == [None]


class TestEngine:
    def test_run_campaign_aligns_points_and_outcomes(self):
        spec = _toy_spec()
        result, campaign = run_campaign(
            spec, executor=Executor(jobs=1, cache=None)
        )
        assert result is campaign
        assert len(campaign.points) == len(campaign.outcomes) == 2
        assert all(o is not None for o in campaign.outcomes)
        assert campaign.run_result(scheme="silo").scheme == "silo"

    def test_campaign_outcome_unknown_coords_raises(self):
        spec = _toy_spec()
        _, campaign = run_campaign(spec, executor=Executor(jobs=1, cache=None))
        with pytest.raises(KeyError):
            campaign.outcome(scheme="nonesuch")

    def test_analytic_campaign_runs_no_cells(self):
        calls: List[object] = []

        class _Recorder(Executor):
            def run(self, cells):
                calls.append(list(cells))
                return super().run(cells)

        spec = _toy_spec(
            axes=lambda p: (),
            cell=lambda p, pt: None,
            assemble=lambda p, c: "analytic-result",
        )
        result = run_experiment(spec, executor=_Recorder(jobs=1, cache=None))
        assert result == "analytic-result"
        assert calls == [[]]

    def test_run_experiment_applies_overrides(self):
        spec = _toy_spec()
        campaign = run_experiment(
            spec,
            executor=Executor(jobs=1, cache=None),
            schemes=("silo",),
        )
        assert [pt["scheme"] for pt in campaign.points] == ["silo"]

    def test_manifest_is_json_safe(self):
        import json

        spec = _toy_spec()
        _, campaign = run_campaign(spec, executor=Executor(jobs=1, cache=None))
        manifest = campaign.manifest()
        encoded = json.dumps(manifest)  # must not raise
        assert manifest["experiment"] == "toy"
        assert [a["name"] for a in manifest["axes"]] == ["workload", "scheme"]
        assert all(cell["ok"] for cell in manifest["cells"])
        assert "spec" in manifest["cells"][0] and encoded


class TestRegistry:
    def test_catalog_is_fully_registered(self):
        registry = load_all()
        assert registry is REGISTRY
        for name in CATALOG_MODULES:
            assert name in registry
        assert registry.names()[: len(CATALOG_MODULES)] == list(CATALOG_MODULES)

    def test_register_same_spec_twice_is_idempotent(self):
        registry = ExperimentRegistry()
        spec = _toy_spec()
        assert registry.register(spec) is spec
        assert registry.register(spec) is spec
        assert len(registry) == 1

    def test_register_conflicting_name_rejected(self):
        registry = ExperimentRegistry()
        registry.register(_toy_spec())
        with pytest.raises(ConfigError, match="already registered"):
            registry.register(_toy_spec(description="different object"))

    def test_get_unknown_lists_registered_names(self):
        registry = ExperimentRegistry()
        registry.register(_toy_spec())
        with pytest.raises(ConfigError, match="toy"):
            registry.get("nonesuch")

    def test_extras_sort_after_catalog(self):
        registry = ExperimentRegistry()
        registry.register(_toy_spec(name="zzz_extra"))
        registry.register(_toy_spec(name="fig11"))
        assert registry.names() == ["fig11", "zzz_extra"]
        assert [s.name for s in registry.specs()] == ["fig11", "zzz_extra"]
        assert list(iter(registry)) == ["fig11", "zzz_extra"]


class TestNormalizationHelpers:
    def test_add_average_empty_raises_config_error(self):
        with pytest.raises(ConfigError, match="average"):
            add_average({})

    def test_normalize_series_empty_raises_config_error(self):
        with pytest.raises(ConfigError):
            normalize_series({})

    def test_normalize_series_to_first_key(self):
        assert normalize_series({8: 2.0, 64: 1.0}) == {8: 1.0, 64: 0.5}

    def test_normalize_series_zero_baseline(self):
        assert normalize_series({8: 0.0, 64: 1.0}) == {8: 0.0, 64: 0.0}

    def test_fig4_average_empty_raises_config_error(self):
        from repro.harness.fig4 import Fig4Result

        with pytest.raises(ConfigError, match="workload"):
            Fig4Result(write_sizes={}).average


@pytest.fixture(scope="module")
def synthetic_grid():
    """One (workload, scheme) grid at two cores, built straight from
    ``run_trace`` rather than through a campaign."""
    trace = synthetic_trace(
        SyntheticTraceConfig(
            threads=2, transactions_per_thread=20, write_set_words=8,
            arena_words=256, seed=44,
        )
    )
    results = {
        scheme: run_trace(trace, scheme=scheme, config=SystemConfig.table2(2))
        for scheme in ("base", "morlog", "silo")
    }
    return GridResult(cores=2, results={"a": results, "b": results})


class TestNormalizedGrid:
    def test_grid_keeps_insertion_order(self, synthetic_grid):
        assert synthetic_grid.workloads() == ["a", "b"]
        assert synthetic_grid.schemes() == ["base", "morlog", "silo"]

    def test_metric_reads_the_result_field(self, synthetic_grid):
        silo = synthetic_grid.results["a"]["silo"]
        assert synthetic_grid.metric("a", "silo", "media_writes") == float(
            silo.media_writes
        )

    def test_baseline_row_is_identity(self, synthetic_grid):
        normalized = normalize_to(synthetic_grid, "media_writes")
        assert all(row["base"] == 1.0 for row in normalized.values())

    def test_silo_halves_media_writes(self, synthetic_grid):
        normalized = normalize_to(synthetic_grid, "media_writes")
        assert normalized["a"]["silo"] < 0.5
        assert normalized["a"]["silo"] < normalized["a"]["morlog"]

    def test_silo_fastest_base_slowest(self, synthetic_grid):
        speedup = normalize_to(synthetic_grid, "throughput_tx_per_sec")["a"]
        assert max(speedup, key=speedup.get) == "silo"
        assert min(speedup, key=speedup.get) == "base"

    def test_missing_baseline_rejected(self, synthetic_grid):
        with pytest.raises(ConfigError, match="'lad'"):
            normalize_to(synthetic_grid, "media_writes", baseline="lad")

    def test_average_is_the_arithmetic_mean(self):
        averaged = add_average({"a": {"silo": 1.0}, "b": {"silo": 3.0}})
        assert averaged["average"] == {"silo": 2.0}

    def test_average_of_identical_workloads_equals_each(self, synthetic_grid):
        normalized = add_average(normalize_to(synthetic_grid, "throughput_tx_per_sec"))
        assert normalized["average"]["silo"] == pytest.approx(
            normalized["a"]["silo"]
        )

    def test_csv_has_header_and_a_row_per_workload(self, synthetic_grid):
        text = render(Fig11Result(grids={2: synthetic_grid}), "csv")
        lines = text.strip().splitlines()
        assert lines[0].startswith("# Fig. 11")
        assert lines[1] == "workload,base,morlog,silo"
        assert [line.split(",")[0] for line in lines[2:]] == ["a", "b", "average"]

    def test_json_round_trips(self, synthetic_grid):
        payload = json.loads(render(Fig11Result(grids={2: synthetic_grid}), "json"))
        (table,) = payload["tables"]
        assert table["title"].endswith("(2 core(s))")
        assert table["headers"] == ["workload", "base", "morlog", "silo"]
        assert len(table["rows"]) == 3
