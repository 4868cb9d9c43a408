"""Edge cases of the fleet event stream: log overflow, mid-iteration
appends, failing-processor isolation, rate-limited failure logging, and the
type-keyed event counters."""

import logging
from dataclasses import dataclass

from repro.fleet.events import (
    ChainHealthFlagged,
    EventDispatcher,
    EventLog,
    EventProcessor,
    FleetEvent,
    MalformedRecordSkipped,
    MetricsProcessor,
    SliceCompleted,
)
from repro.obs import MetricsRegistry


def _slices(n):
    return [SliceCompleted(host=f"h{i}", tick=i) for i in range(n)]


# -- EventLog -----------------------------------------------------------------


class TestEventLog:
    def test_overflow_discards_oldest_and_counts(self):
        log = EventLog(maxlen=3)
        for event in _slices(5):
            log.on_event(event)
        assert log.discarded == 2
        assert len(log) == 3
        assert [event.tick for event in log.snapshot()] == [2, 3, 4]

    def test_events_appended_mid_iteration_are_seen(self):
        log = EventLog()
        log.on_event(SliceCompleted(host="a", tick=0))
        seen = []
        iterator = log.iter()
        seen.append(next(iterator))
        log.on_event(SliceCompleted(host="a", tick=1))  # arrives while draining
        seen.extend(iterator)
        assert [event.tick for event in seen] == [0, 1]
        assert len(log) == 0

    def test_unbounded_log_never_discards(self):
        log = EventLog(maxlen=None)
        for event in _slices(10):
            log.on_event(event)
        assert log.discarded == 0 and len(log) == 10


# -- dispatcher fan-out -------------------------------------------------------


class _Exploding(EventProcessor):
    def on_event(self, event):
        raise RuntimeError("broken consumer")


class _Collecting(EventProcessor):
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


class TestDispatcher:
    def test_failing_processor_does_not_break_the_others(self):
        collector = _Collecting()
        dispatcher = EventDispatcher([_Exploding(), collector])
        for event in _slices(3):
            dispatcher.emit(event)
        assert len(collector.events) == 3

    def test_failures_are_logged_once_per_processor_type(self, caplog):
        dispatcher = EventDispatcher([_Exploding()])
        with caplog.at_level(logging.WARNING, logger="repro.fleet.events"):
            for event in _slices(5):
                dispatcher.emit(event)
        failures = [
            record for record in caplog.records if "failed on" in record.message
        ]
        assert len(failures) == 1  # 4 further failures suppressed

    def test_shutdown_reports_suppressed_failure_count(self, caplog):
        dispatcher = EventDispatcher([_Exploding()])
        for event in _slices(4):
            dispatcher.emit(event)
        with caplog.at_level(logging.WARNING, logger="repro.fleet.events"):
            dispatcher.shutdown()
        summaries = [
            record
            for record in caplog.records
            if "failed on 4 events" in record.getMessage()
        ]
        assert len(summaries) == 1

    def test_single_failure_gets_no_shutdown_summary(self, caplog):
        dispatcher = EventDispatcher([_Exploding()])
        dispatcher.emit(SliceCompleted(host="a"))
        with caplog.at_level(logging.WARNING, logger="repro.fleet.events"):
            dispatcher.shutdown()
        assert not any("events during the run" in r.getMessage() for r in caplog.records)


# -- typed dispatch: the class-keyed event counters ---------------------------


@dataclass(frozen=True)
class _FancySliceCompleted(SliceCompleted):
    """A downstream specialisation of a known event type."""

    fancy: bool = True


@dataclass(frozen=True)
class _UnknownEvent(FleetEvent):
    pass


class TestTypedDispatch:
    def test_unknown_event_types_are_ignored(self):
        registry = MetricsRegistry()
        MetricsProcessor(registry).on_event(_UnknownEvent(host="a"))  # no raise
        assert registry.summary()["counters"] == {}

    def test_chain_health_flags_reach_metrics(self):
        registry = MetricsRegistry()
        metrics = MetricsProcessor(registry)
        metrics.on_event(
            ChainHealthFlagged(host="fleet", reason="stuck-chain", slice_id=3)
        )
        metrics.on_event(
            ChainHealthFlagged(host="fleet", reason="fleet-outlier", slice_id=3)
        )
        assert registry.summary()["counters"] == {
            "mixing.flags.fleet-outlier": 1,
            "mixing.flags.stuck-chain": 1,
        }

    def test_counters_are_keyed_on_the_exact_type(self):
        registry = MetricsRegistry()
        metrics = MetricsProcessor(registry)
        metrics.on_event(SliceCompleted(host="a", tick=1))
        metrics.on_event(MalformedRecordSkipped(host="a", n_lines=3))
        # The table is keyed on the exact class: a subclass counts nothing.
        metrics.on_event(_FancySliceCompleted(host="a", tick=2))
        assert registry.summary()["counters"] == {
            "records.malformed": 3,
            "slices.solved": 1,
        }
