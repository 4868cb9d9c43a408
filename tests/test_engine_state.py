"""Array-native engine state: batched prepare/finalize, pinned bit for bit.

``process_batch`` prepares and finalizes a whole batch as ``(B, n)`` arrays
in engine event order.  Its contract is the one the per-record path has
always had:

* a mixed batch — fresh and restored states, several signatures,
  all-zero counters, single-event signatures, mux fractions of 0 and near
  0, sub-samples up to the 48-bit counter maximum, an all-unknown (NaN)
  prior row, a state in another event order — yields reports and
  successor states bit-identical to the same records through
  ``process_record`` one at a time, with finite means and finite,
  non-negative σ;
* the sort-based row median is ``np.median`` and ``np.float_power(x, 2.0)``
  is the scalar ``x ** 2``, so the array expressions keep the digests;
* a write-ahead log checkpointed in the event-keyed JSON form resumes to
  the uninterrupted run's estimates.
"""

import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Pipeline, RunSpec
from repro.core.engine import BayesPerfEngine, EngineState, _row_median
from repro.events.profiles import standard_profiling_events
from repro.events.registry import catalog_for
from repro.fleet.wal import engine_state_from_json, engine_state_to_json, load_wal
from repro.pmu.sampling import SamplingRecord
from repro.pmu.configuration import CounterConfiguration

CATALOG = catalog_for("x86")
UNION = standard_profiling_events(CATALOG, n_events=12)
ENGINE = BayesPerfEngine(CATALOG, UNION)
FIXTURE = Path(__file__).parent / "fixtures" / "wal_dict_checkpoint.jsonl"


#: The largest value a 48-bit PMU counter can read.
COUNTER_MAX = 2.0**48 - 1


@st.composite
def _record(draw, tick):
    """One hand-built slice over a random subset of the monitored events.

    Levels reach the 48-bit counter range (sub-samples are capped at
    ``COUNTER_MAX``), and a record may carry one to four sub-samples per
    event, all-zero counters or mux fractions down to 0.
    """
    monitored = ENGINE.monitored_events
    subset = draw(
        st.lists(st.sampled_from(monitored), min_size=1, max_size=len(monitored), unique=True)
    )
    zero = draw(st.booleans())
    samples, mux = {}, {}
    for event in subset:
        if zero:
            values = np.zeros(4)
        else:
            level = draw(st.floats(1e2, 2.0**48))
            jitter = draw(st.lists(st.floats(0.5, 1.5), min_size=1, max_size=4))
            values = np.minimum(level * np.array(jitter), COUNTER_MAX)
        samples[event] = values
        if draw(st.integers(0, 3)) == 0:
            mux[event] = draw(st.sampled_from([0.0, 1e-12, 1e-6, 0.01, 0.5]))
    return SamplingRecord(
        tick=tick,
        configuration=CounterConfiguration(events=tuple(subset)),
        samples=samples,
        mux_fraction=mux,
    )


@st.composite
def _state(draw, warmup):
    """A fresh, restored, all-unknown or re-ordered (named) engine state."""
    kind = draw(st.sampled_from(["fresh", "restored", "unknown", "named"]))
    if kind == "fresh":
        return None
    n = len(ENGINE.events)
    if kind == "unknown":
        scale = np.array(draw(st.lists(st.floats(0.5, 1e7), min_size=n, max_size=n)))
        return EngineState(ENGINE.events, np.full(n, np.nan), scale, tick=draw(st.integers(0, 9)))
    ENGINE.reset()
    ENGINE.process_record(warmup)
    state = ENGINE.snapshot()
    if kind == "named":
        order = draw(st.permutations(range(n)))
        state = EngineState(
            tuple(state.events[i] for i in order),
            state.prior_mean[order],
            state.scale[order],
            state.tick,
            state.rng_state,
        )
    return state


@st.composite
def _mixed_batch(draw):
    size = draw(st.integers(2, 6))
    return [
        (draw(_state(draw(_record(0)))), draw(_record(1 + index)))
        for index in range(size)
    ]


def _assert_state_equal(a, b):
    assert a.events == b.events
    assert np.array_equal(a.prior_mean, b.prior_mean, equal_nan=True)
    assert np.array_equal(a.scale, b.scale)
    assert a.tick == b.tick


@given(items=_mixed_batch())
@settings(max_examples=25, deadline=None)
def test_mixed_batch_equals_records_one_at_a_time(items):
    batched = ENGINE.process_batch(items)
    for (state, record), (report, successor) in zip(items, batched):
        ENGINE.restore(state) if state is not None else ENGINE.reset()
        want = ENGINE.process_record(record)
        assert report.means() == want.means()
        assert report.stds() == want.stds()
        assert report.measured_events == want.measured_events
        assert report.ep_iterations == want.ep_iterations
        _assert_state_equal(successor, ENGINE.snapshot())
        # Hostile inputs never yield NaN, inf or negative uncertainty.
        means, stds = report.means(), report.stds()
        assert all(np.isfinite(value) for value in means.values()), means
        assert all(np.isfinite(sigma) and sigma >= 0 for sigma in stds.values()), stds


def test_successor_states_do_not_alias_engine_buffers():
    """Restoring a batch successor, then solving, leaves the successor intact."""
    events = ENGINE.monitored_events[:3]
    record = SamplingRecord(
        tick=0,
        configuration=CounterConfiguration(events=events),
        samples={event: np.array([1e5, 1.1e5, 0.9e5, 1e5]) for event in events},
    )
    ((_, state),) = ENGINE.process_batch([(None, record)])
    before = state.prior_mean.copy(), state.scale.copy()
    ENGINE.restore(state)
    ENGINE.process_record(record)
    snapshot = ENGINE.snapshot()
    ENGINE.process_record(record)
    assert np.array_equal(state.prior_mean, before[0], equal_nan=True)
    assert np.array_equal(state.scale, before[1])
    assert snapshot.prior_mean is not ENGINE.snapshot().prior_mean


_rows = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(
            st.one_of(st.floats(-1e12, 1e12), st.just(np.nan)), min_size=n, max_size=n
        ),
        min_size=1,
        max_size=5,
    )
)


@given(rows=_rows)
@settings(max_examples=200, deadline=None)
def test_row_median_is_np_median_of_valid_entries(rows):
    values = np.array(rows)
    valid = np.isfinite(values)
    got = _row_median(values, valid, -7.0)
    for row, mask, median in zip(values, valid, got):
        want = np.median(row[mask]) if mask.any() else -7.0
        assert median == want


@given(values=st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_float_power_is_scalar_pow(values):
    array = np.array(values)
    squared = np.float_power(array, 2.0)
    assert squared.tolist() == [value**2 for value in values]


def test_state_json_round_trip_is_byte_identical():
    """The event-keyed checkpoint JSON survives the array form unchanged."""
    for payload in load_wal(FIXTURE).checkpoints.values():
        state = payload["state"]
        assert json.dumps(engine_state_to_json(engine_state_from_json(state))) == (
            json.dumps(state)
        )


def test_dict_json_checkpoint_resumes_to_the_uninterrupted_run(tmp_path):
    """A WAL written with event-keyed dict checkpoints resumes exactly.

    The fixture is a crashed two-host run (round 0 committed, round 1 torn)
    whose checkpoints were written before the engine state became arrays.
    """
    crashed = tmp_path / "crash.jsonl"
    shutil.copy(FIXTURE, crashed)
    _assert_resumes_to_the_uninterrupted_run(crashed, tmp_path)


def test_serial_mode_log_resumes_on_the_pool(tmp_path):
    """A log written by a run in the deleted serial mode resumes on the
    worker pool: that mode's estimates were the pool's, bit for bit."""
    header, *records = FIXTURE.read_text().splitlines(keepends=True)
    payload = json.loads(header)
    payload["metadata"]["mode"] = payload["metadata"]["run_spec"]["mode"] = "serial"
    crashed = tmp_path / "crash.jsonl"
    crashed.write_text(json.dumps(payload) + "\n" + "".join(records))
    _assert_resumes_to_the_uninterrupted_run(crashed, tmp_path)


def _assert_resumes_to_the_uninterrupted_run(crashed, tmp_path):
    resumed = Pipeline.resume(crashed).run().fleet
    spec = RunSpec.from_dict(load_wal(FIXTURE).run_spec)
    checkpoint = replace(spec.checkpoint, path=str(tmp_path / "ref.jsonl"))
    reference = Pipeline.from_spec(replace(spec, checkpoint=checkpoint)).run().fleet
    assert set(reference.estimates) == set(resumed.estimates)
    for host, trace in reference.estimates.items():
        assert len(trace) == 6
        assert trace.values_equal(resumed.estimates[host]), host
