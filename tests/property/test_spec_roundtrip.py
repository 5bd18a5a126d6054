"""Property: every serializable cell spec round-trips bit-identically.

``silo-repro replay --spec`` and the litmus shrinker's minimized
one-liners both rely on ``cell_spec_from_json(cell_spec_to_json(s))``
reconstructing *exactly* the cell that failed — any field the codec
drops (engine, capture_image, a fault-plan knob) would silently replay
a different experiment than the one being debugged.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.harness.executor import (
    CellSpec,
    WorkloadSpec,
    cell_spec_from_json,
    cell_spec_to_json,
)
from repro.litmus.patterns import decode_pattern, enumerate_patterns
from repro.obs.config import ObsConfig
from repro.sim.crash import CrashPlan

_SETTINGS = settings(max_examples=200, deadline=None)

_LITMUS_KEYS = [p.key for p in enumerate_patterns(smoke=True)]


@st.composite
def workload_specs(draw):
    if draw(st.booleans()):
        key = draw(st.sampled_from(_LITMUS_KEYS))
        pattern = decode_pattern(key)
        return WorkloadSpec.make(
            "litmus",
            threads=pattern.cores,
            transactions=pattern.total_txs,
            pattern=key,
        )
    return WorkloadSpec.make(
        draw(st.sampled_from(["hash", "array", "queue", "btree"])),
        threads=draw(st.integers(1, 4)),
        transactions=draw(st.integers(1, 8)),
    )


@st.composite
def crash_plans(draw):
    if draw(st.booleans()):
        return CrashPlan(at_op=draw(st.integers(0, 500)))
    return CrashPlan(
        at_commit_of=(draw(st.integers(0, 3)), draw(st.integers(0, 7)))
    )


@st.composite
def fault_plans(draw):
    return FaultPlan(
        seed=draw(st.integers(0, 2**31)),
        tear_prob=draw(st.floats(0, 0.5, allow_nan=False)),
        drop_prob=draw(st.floats(0, 0.5, allow_nan=False)),
        log_bitflips=draw(st.integers(0, 4)),
        data_bitflips=draw(st.integers(0, 4)),
        fault_tuples=draw(st.booleans()),
    )


@st.composite
def obs_configs(draw):
    return ObsConfig(
        events=draw(st.booleans()),
        metrics=draw(st.booleans()),
        max_events=draw(st.integers(1, 100_000)),
    )


@st.composite
def cell_specs(draw):
    return CellSpec(
        workload=draw(workload_specs()),
        scheme=draw(
            st.sampled_from(
                ["base", "fwb", "lad", "morlog", "proteus", "redu", "silo",
                 "swlog", "wrap", None]
            )
        ),
        cores=draw(st.integers(1, 8)),
        crash_plan=draw(st.none() | crash_plans()),
        fault_plan=draw(st.none() | fault_plans()),
        verify=draw(st.booleans()),
        obs=draw(st.none() | obs_configs()),
        engine=draw(st.sampled_from(["exact", "columnar"])),
        capture_image=draw(st.booleans()),
    )


class TestSpecRoundTrip:
    @_SETTINGS
    @given(spec=cell_specs())
    def test_json_round_trip_is_identity(self, spec):
        text = cell_spec_to_json(spec)
        rebuilt = cell_spec_from_json(text)
        assert rebuilt == spec
        # and the encoding itself is stable (canonical JSON)
        assert cell_spec_to_json(rebuilt) == text

    @_SETTINGS
    @given(spec=cell_specs())
    def test_every_field_survives(self, spec):
        rebuilt = cell_spec_from_json(cell_spec_to_json(spec))
        assert rebuilt.engine == spec.engine
        assert rebuilt.capture_image == spec.capture_image
        assert rebuilt.crash_plan == spec.crash_plan
        assert rebuilt.fault_plan == spec.fault_plan
        assert rebuilt.obs == spec.obs
        assert rebuilt.workload.kwargs == spec.workload.kwargs
