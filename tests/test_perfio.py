"""Real-trace ingestion (:mod:`repro.perfio`): parsers, schema mapping,
lowering, the host source, and the pipeline composition end to end.

The committed fixtures are real-format captures:

* ``tests/fixtures/perf_stat_interval.csv`` — ``perf stat -I 100 -x,``
  interval output, 8 events over 4 counters (~50% multiplexed), two
  ``<not counted>`` intervals and one torn interleaved line;
* ``tests/fixtures/perf_script_sample.txt`` — ``perf script`` sample
  lines across 2 CPUs with one ``LOST n events!`` marker.

Everything malformed follows the skip-and-account contract from the
tracefile reader: counted, surfaced, never raised on.  The hypothesis
fuzz section hammers that contract with truncated / interleaved /
locale-mangled lines.
"""

import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    CheckpointSpec,
    HostSpec,
    ObserverSpec,
    Pipeline,
    RecorderSpec,
    RunSpec,
)
from repro.core import BayesPerfEngine
from repro.core.engine import ObservationSummaries
from repro.events import catalog_for
from repro.fleet.__main__ import main as fleet_main
from repro.fleet.chaos import FaultInjector, InjectedCrash
from repro.fleet.tracefile import TraceFile, read_trace, write_trace
from repro.perfio import (
    PERF_FORMATS,
    CounterSample,
    IngestStats,
    PerfTraceSource,
    SchemaMapper,
    UnknownEventError,
    detect_format,
    iter_jsonl,
    iter_script,
    iter_stat_csv,
    lower_capture,
    parser_for,
)
from repro.perfio.parsers import _to_float
from repro.pmu.sampling import SamplingRecord
from repro.pmu.configuration import CounterConfiguration

FIXTURES = Path(__file__).parent / "fixtures"
STAT_FIXTURE = FIXTURES / "perf_stat_interval.csv"
SCRIPT_FIXTURE = FIXTURES / "perf_script_sample.txt"


def parse(parser, lines):
    stats = IngestStats()
    samples = list(parser(lines, stats))
    return samples, stats


# -- parsers -----------------------------------------------------------------


class TestStatCsvParser:
    def test_parses_values_and_mux_bookkeeping(self):
        samples, stats = parse(
            iter_stat_csv,
            [
                "# started on Thu Aug  6 09:14:02 2026",
                "0.100123,1234567,,cycles,50000000,50.00,,",
                "0.100123,<not counted>,,branches,0,0.00,,",
            ],
        )
        assert stats.comment_lines == 1
        assert stats.parsed_samples == 2
        assert stats.not_counted == 1
        counted, dropped = samples
        assert counted.event == "cycles"
        assert counted.value == 1234567.0
        assert counted.fraction() == pytest.approx(0.5)
        assert dropped.value is None

    def test_malformed_lines_skip_and_account(self):
        samples, stats = parse(
            iter_stat_csv,
            [
                "0.9934,1721malformed,,instr",  # truncated mid-write
                "0.1,NaN-ish,,cycles,1,50.00,,",  # non-numeric value
                "not,csv",  # too few fields
                "",  # blank: neither parsed nor skipped
            ],
        )
        assert samples == []
        assert stats.skipped_lines == 3
        assert stats.total_lines == 4

    def test_locale_mangled_numbers_parse(self):
        samples, stats = parse(
            iter_stat_csv,
            [
                "0.1,1_234_567,,cycles,1,50.00,,",  # underscore grouping
                "0.2,1234\u00a0567,,cycles,1,50.00,,",  # NBSP grouping
                "0.3,1234\u202f567,,cycles,1,50.00,,",  # narrow NBSP
            ],
        )
        assert stats.skipped_lines == 0
        assert [s.value for s in samples] == [1234567.0] * 3

    def test_non_finite_value_or_timestamp_is_malformed(self):
        samples, stats = parse(
            iter_stat_csv,
            [
                "0.1,nan,,cycles,1,50.00,,",
                "0.1,inf,,cycles,1,50.00,,",
                "0.1,1e999,,cycles,1,50.00,,",  # overflows to inf
                "nan,5,,cycles,1,50.00,,",
                "0.1,-Infinity,,cycles,1,50.00,,",
            ],
        )
        assert samples == []
        assert stats.skipped_lines == 5
        assert stats.parsed_samples == 0

    def test_non_finite_bookkeeping_reads_as_absent(self):
        samples, stats = parse(
            iter_stat_csv,
            ["0.1,5,,cycles,inf,nan,,", "0.2,5,,cycles,1e999,50.00,,"],
        )
        assert stats.skipped_lines == 0
        first, second = samples
        assert first.running == 0.0 and first.running_pct is None
        assert first.fraction() is None  # fully counted
        assert second.running == 0.0
        assert second.fraction() == pytest.approx(0.5)

    def test_empty_percentage_column_means_fully_counted(self):
        line = "0.1,1000000,,cycles,100000000,,,"
        samples, stats = parse(iter_stat_csv, [line])
        (sample,) = samples
        # The fifth column is perf's counter run time, not time enabled.
        assert sample.running == 100000000.0
        assert sample.enabled == 0.0
        assert sample.running_pct is None
        assert sample.fraction() is None
        lowered = lower_capture(samples, SchemaMapper(catalog_for("x86")), stats)
        (record,) = lowered.records
        cycles = SchemaMapper(catalog_for("x86")).resolve("cycles")
        assert record.samples[cycles].tolist() == [1000000.0]
        assert record.mux_fraction == {}
        assert stats.not_counted == 0

    def test_locale_commas_parse_inside_jsonl_strings(self):
        # Comma-separated CSV cannot carry comma-grouped numbers, but JSON
        # string values can — both locale conventions must lower.
        samples, stats = parse(
            iter_jsonl,
            [
                '{"ts": 0.1, "event": "cycles", "value": "1,234,567"}',
                '{"ts": 0.2, "event": "cycles", "value": "1.234.567,89"}',
                '{"ts": 0.3, "event": "cycles", "value": "1234,56"}',
            ],
        )
        assert stats.skipped_lines == 0
        assert [s.value for s in samples] == [1234567.0, 1234567.89, 1234.56]


class TestScriptParser:
    def test_parses_sample_line(self):
        samples, stats = parse(
            iter_script,
            [
                "stress-ng  4021 [001] 883.412345:    1250000 cycles:u:  55d1 do_work (/usr/bin/stress-ng)"
            ],
        )
        (sample,) = samples
        assert sample.event == "cycles:u"
        assert sample.value == 1250000.0
        assert sample.cpu == 1
        assert sample.timestamp == pytest.approx(883.412345)
        assert stats.parsed_samples == 1

    def test_period_defaults_to_one_sample(self):
        samples, _ = parse(
            iter_script, ["swapper     0 100.000100: cycles:  ffffffff810 do_idle ([kernel])"]
        )
        assert samples[0].value == 1.0
        assert samples[0].cpu is None

    def test_lost_event_markers_are_skipped(self):
        samples, stats = parse(iter_script, ["  LOST 14 events!"])
        assert samples == []
        assert stats.skipped_lines == 1


class TestJsonlParser:
    def test_key_aliases(self):
        samples, stats = parse(
            iter_jsonl,
            [
                '{"ts": 0.1, "event": "cycles", "value": 10, "enabled": 4, "running": 2}',
                '{"time": 0.2, "name": "cycles", "count": 11, "time_enabled": 4, "time_running": 2}',
                '{"timestamp": 0.3, "event": "cycles", "value": 12}',
            ],
        )
        assert stats.parsed_samples == 3
        assert [s.value for s in samples] == [10.0, 11.0, 12.0]
        assert samples[0].fraction() == pytest.approx(0.5)
        assert samples[1].fraction() == pytest.approx(0.5)
        assert samples[2].fraction() is None

    def test_not_counted_and_garbage(self):
        samples, stats = parse(
            iter_jsonl,
            [
                '{"ts": 0.1, "event": "cycles", "value": "<not counted>"}',
                '{"ts": 0.2, "event": "cycles", "value": null}',
                '{"ts": 0.3, "event": "cycles", "value": true}',  # bool is not a count
                "{torn json",
                "[1, 2, 3]",
                '{"event": "cycles", "value": 3}',  # no timestamp
            ],
        )
        assert stats.not_counted == 2
        assert stats.skipped_lines == 4
        assert all(s.value is None for s in samples)


    def test_non_finite_numbers(self):
        samples, stats = parse(
            iter_jsonl,
            [
                '{"ts": 0.1, "event": "cycles", "value": NaN}',
                '{"ts": 0.1, "event": "cycles", "value": Infinity}',
                '{"ts": 0.1, "event": "cycles", "value": 1e999}',
                '{"ts": 0.1, "event": "cycles", "value": 1%s}' % ("0" * 400),
                '{"ts": NaN, "event": "cycles", "value": 5}',
                '{"ts": 0.2, "event": "cycles", "value": 5, "enabled": Infinity,'
                ' "running": 2, "cpu": NaN}',
                '{"ts": 0.3, "event": "cycles", "value": 6, "enabled": 4, "running": NaN}',
            ],
        )
        assert stats.skipped_lines == 5
        first, second = samples
        assert first.value == 5.0 and first.cpu is None
        assert second.value == 6.0
        # Non-finite enabled/running time is no multiplexing bookkeeping.
        for sample in samples:
            assert sample.enabled == 0.0 and sample.running == 0.0
            assert sample.fraction() is None


class TestNumericParse:
    """``_to_float`` tries ``float()`` first; it must agree with the
    locale cleanup path it short-cuts (kept here as the oracle)."""

    @staticmethod
    def cleanup_oracle(text):
        cleaned = text.strip().replace("_", "").replace(" ", "")
        cleaned = cleaned.replace("\u00a0", "").replace("\u202f", "")
        if not cleaned:
            return None
        if "," in cleaned:
            if re.fullmatch(r"\d{1,3}(?:,\d{3})+(?:\.\d+)?", cleaned):
                cleaned = cleaned.replace(",", "")
            elif re.fullmatch(r"\d{1,3}(?:\.\d{3})+(?:,\d+)?", cleaned):
                cleaned = cleaned.replace(".", "").replace(",", ".")
            elif re.fullmatch(r"\d+,\d+", cleaned):
                cleaned = cleaned.replace(",", ".")
            else:
                return None
        try:
            return float(cleaned)
        except ValueError:
            return None

    @staticmethod
    def locale_number(sign, integer, group, decimal, fraction, exponent, pad):
        digits = str(integer)
        if group:
            head = len(digits) % 3 or 3
            parts = [digits[:head]] + [
                digits[i : i + 3] for i in range(head, len(digits), 3)
            ]
            digits = group.join(parts)
        text = sign + digits
        if fraction is not None:
            text += decimal + str(fraction)
        if exponent is not None:
            text += f"e{exponent}"
        return pad + text + pad

    numeric_texts = st.one_of(
        st.text(alphabet="0123456789_ \u00a0\u202f,.+-eEinfatyNI", max_size=16),
        st.builds(
            locale_number,
            st.sampled_from(["", "+", "-"]),
            st.integers(min_value=0, max_value=10**12),
            st.sampled_from(["", ",", ".", "_", " ", "\u00a0", "\u202f"]),
            st.sampled_from([".", ","]),
            st.none() | st.integers(min_value=0, max_value=999),
            st.none() | st.integers(min_value=-400, max_value=400),
            st.sampled_from(["", " ", "\u00a0", "\u202f", "\t"]),
        ),
    )

    @settings(max_examples=400, deadline=None)
    @given(text=numeric_texts)
    def test_fast_path_agrees_with_the_cleanup_oracle(self, text):
        expected = self.cleanup_oracle(text)
        if expected is not None and not math.isfinite(expected):
            expected = None  # non-finite numbers are unparseable
        assert _to_float(text) == expected

    def test_examples(self):
        assert _to_float(" 1_234.5 ") == 1234.5
        assert _to_float("1\u00a0234") == 1234.0
        assert _to_float("1.234.567,89") == 1234567.89
        assert _to_float("-2.5e3") == -2500.0
        for text in ("nan", "inf", "-inf", "1e999", "", "  ", "abc"):
            assert _to_float(text) is None


class TestDetectFormat:
    def test_detects_each_format(self):
        assert detect_format(['{"ts": 1, "event": "cycles", "value": 2}']) == "jsonl"
        assert detect_format(["0.1,123,,cycles,1,50.00,,"]) == "stat-csv"
        assert detect_format(["prog 1 [000] 1.0: 5 cycles: 55d1 f (x)"]) == "script"
        assert detect_format(["# comment only"]) == "stat-csv"
        assert detect_format([]) == "stat-csv"

    def test_parser_for_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="stat-csv"):
            parser_for("pmu-dump")
        for fmt in PERF_FORMATS:
            assert callable(parser_for(fmt))


# -- schema mapping ----------------------------------------------------------


class TestSchemaMapper:
    def setup_method(self):
        self.catalog = catalog_for("x86")
        self.mapper = SchemaMapper(self.catalog)

    def test_generic_aliases_resolve_through_semantics(self):
        assert self.mapper.resolve("cycles") == "CPU_CLK_UNHALTED.THREAD"
        assert self.mapper.resolve("instructions") == "INST_RETIRED.ANY"
        assert self.mapper.resolve("cache-misses") == "LONGEST_LAT_CACHE.MISS"

    def test_modifiers_and_wrappers_are_stripped(self):
        assert self.mapper.resolve("cycles:u") == self.mapper.resolve("cycles")
        assert self.mapper.resolve("cycles:kHG") == self.mapper.resolve("cycles")
        assert self.mapper.resolve("cpu/cycles/") == self.mapper.resolve("cycles")
        assert self.mapper.resolve("cpu_cycles") == self.mapper.resolve("cpu-cycles")

    def test_exact_catalog_names_win_case_insensitively(self):
        assert self.mapper.resolve("INST_RETIRED.ANY") == "INST_RETIRED.ANY"
        assert self.mapper.resolve("inst_retired.any") == "INST_RETIRED.ANY"

    def test_unknown_event_error_lists_nearest_aliases(self):
        with pytest.raises(UnknownEventError) as excinfo:
            self.mapper.resolve("cycels")
        message = str(excinfo.value)
        assert "cycels" in message
        assert "cycles" in message  # the nearest alias is suggested
        assert "on_unknown='skip'" in message

    def test_skip_policy_returns_none_and_caches(self):
        mapper = SchemaMapper(self.catalog, on_unknown="skip")
        assert mapper.resolve("definitely-not-an-event") is None
        assert mapper.resolve("cycles") == "CPU_CLK_UNHALTED.THREAD"

    def test_unknown_policy_is_validated(self):
        with pytest.raises(ValueError, match="raise"):
            SchemaMapper(self.catalog, on_unknown="explode")


# -- the host source over the committed fixtures -----------------------------


class TestPerfTraceSource:
    def test_stat_fixture_lowers_with_accounting(self):
        source = PerfTraceSource("h0", STAT_FIXTURE)
        assert source.format == "stat-csv"
        assert source.n_ticks == 24
        assert len(source.events) == 8
        assert source.stats.skipped_lines == 1  # the interleaved torn line
        assert source.stats.not_counted == 2
        assert source.skipped_lines == 1  # the channel accounting surface
        assert not source.torn_tail
        # ~50% multiplexing shows up as per-event fractions on every tick.
        first = next(source.records())
        assert first.mux_fraction
        assert all(0.4 < f < 0.6 for f in first.mux_fraction.values())

    def test_not_counted_events_leave_the_ticks_configuration(self):
        source = PerfTraceSource("h0", STAT_FIXTURE)
        records = list(source.records())
        missing = source.mapping["cache-misses"]
        assert missing not in records[7].samples
        assert missing not in records[7].configuration.events
        assert missing in records[6].samples

    def test_script_fixture_groups_into_quanta(self):
        source = PerfTraceSource("h0", SCRIPT_FIXTURE)
        assert source.format == "script"
        assert source.n_ticks > 10
        assert source.stats.skipped_lines == 1  # the LOST marker
        assert set(source.mapping) == {
            "cycles:u",
            "instructions:u",
            "branches:u",
            "cache-misses:u",
        }

    def test_ingestion_is_deterministic(self):
        a = PerfTraceSource("h0", STAT_FIXTURE)
        b = PerfTraceSource("h0", STAT_FIXTURE)
        for ra, rb in zip(a.records(), b.records()):
            assert ra.tick == rb.tick
            assert ra.configuration.events == rb.configuration.events
            assert ra.mux_fraction == rb.mux_fraction
            for event in ra.samples:
                assert np.array_equal(ra.samples[event], rb.samples[event])

    def test_byte_offsets_are_monotonic_and_file_bounded(self):
        source = PerfTraceSource("h0", STAT_FIXTURE)
        size = STAT_FIXTURE.stat().st_size
        offsets = [source.byte_offset(n) for n in range(source.n_ticks + 1)]
        assert offsets[0] == 0
        assert offsets == sorted(offsets)
        assert offsets[-1] <= size
        # Past-the-end pulls clamp to the final record's offset.
        assert source.byte_offset(source.n_ticks + 99) == offsets[-1]

    def test_byte_offsets_are_exact_on_non_ascii_captures(self, tmp_path):
        events = ("cycles", "instructions", "branches")
        lines = ["# started on Dö 6 Aug 09:14:02 2026 — ünïcode"]
        for tick in range(5):
            for index, event in enumerate(events):
                # Narrow no-break space thousands groups: 3 bytes each.
                value = f"{tick + 1}\u202f{index:03d}\u202f{tick * 7:03d}"
                lines.append(f"0.{tick + 1},{value},,{event},50000000,50.00,,")
        path = tmp_path / "capture.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        data = path.read_bytes()
        source = PerfTraceSource("h0", path, format="stat-csv")
        assert source.n_ticks == 5
        for pulled in range(1, 6):
            # Record n ends with the capture's (1 + n * 3)-th line.
            last = 1 + pulled * len(events)
            expected = len(("\n".join(lines[:last]) + "\n").encode("utf-8"))
            assert source.byte_offset(pulled) == expected
            assert data[:expected].count(b"\n") == last

    def test_torn_tail_is_detected(self, tmp_path):
        path = tmp_path / "torn.csv"
        path.write_text("0.1,123,,cycles,1,50.00,,\n0.2,45", encoding="utf-8")
        source = PerfTraceSource("h0", path)
        assert source.torn_tail
        assert source.stats.skipped_lines == 1

    def test_useless_capture_raises_at_registration(self, tmp_path):
        path = tmp_path / "noise.csv"
        path.write_text("garbage\nmore garbage\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no usable counter samples"):
            PerfTraceSource("h0", path, format="stat-csv")

    def test_unknown_event_raises_with_suggestions_by_default(self, tmp_path):
        path = tmp_path / "bogus.csv"
        path.write_text("0.1,123,,cycels,1,50.00,,\n", encoding="utf-8")
        with pytest.raises(UnknownEventError, match="cycles"):
            PerfTraceSource("h0", path)

    def test_on_unknown_skip_accounts_like_malformed_lines(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "0.1,123,,cycles,1,50.00,,\n"
            "0.1,9,,made-up-event,1,50.00,,\n"
            "0.2,124,,cycles,1,50.00,,\n"
            "0.2,9,,made-up-event,1,50.00,,\n"
            "half a torn line\n",
            encoding="utf-8",
        )
        source = PerfTraceSource("h0", path, on_unknown="skip")
        assert source.stats.unknown_events == {"made-up-event": 2}
        assert source.stats.skipped_lines == 1
        # The channel-facing count folds both in, like fleet.ingest replay.
        assert source.skipped_lines == 3
        assert source.events == ("CPU_CLK_UNHALTED.THREAD",)

    def test_monitored_events_filter_the_capture(self):
        source = PerfTraceSource(
            "h0", STAT_FIXTURE, events=("CPU_CLK_UNHALTED.THREAD", "INST_RETIRED.ANY")
        )
        assert source.events == ("CPU_CLK_UNHALTED.THREAD", "INST_RETIRED.ANY")
        for record in source.records():
            assert set(record.samples) <= set(source.events)

    def test_monitored_events_are_validated_against_the_catalog(self):
        with pytest.raises(KeyError, match="NOT_AN_EVENT"):
            PerfTraceSource("h0", STAT_FIXTURE, events=("NOT_AN_EVENT",))


# -- HostSpec / RunSpec wiring -----------------------------------------------


class TestHostSpecValidation:
    def test_perf_and_trace_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            HostSpec(perf="a.csv", trace="b.jsonl")

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(seed=7), "seed"),
            (dict(n_ticks=5), "n_ticks"),
            (dict(workload="mux-stress"), "workload"),
        ],
    )
    def test_perf_host_rejects_synthetic_knobs(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            HostSpec(perf="a.csv", **kwargs)

    def test_trace_host_rejects_synthetic_knobs(self):
        with pytest.raises(ValueError, match="seed, n_ticks, arch, events"):
            HostSpec(
                trace="golden.jsonl", seed=7, n_ticks=3, arch="ppc64", events=("X",)
            )
        with pytest.raises(ValueError, match="n_ticks"):
            HostSpec(trace="golden.jsonl", n_ticks=3)
        # The recorded stream's labels stay settable.
        assert HostSpec(trace="golden.jsonl", host_id="h", workload="w").trace

    def test_perf_host_format_and_policy_are_validated(self):
        with pytest.raises(ValueError, match="'auto'"):
            HostSpec(perf="a.csv", format="xml")
        with pytest.raises(ValueError, match="on_unknown"):
            HostSpec(perf="a.csv", on_unknown="explode")

    def test_synthetic_host_rejects_perf_only_fields(self):
        with pytest.raises(ValueError, match="HostSpec.perf"):
            HostSpec(format="jsonl")
        with pytest.raises(ValueError, match="HostSpec.perf"):
            HostSpec(on_unknown="skip")

    def test_perf_host_round_trips_through_run_spec_dict(self):
        spec = RunSpec(
            hosts=(
                HostSpec(perf=str(STAT_FIXTURE), format="stat-csv", on_unknown="skip"),
                HostSpec(workload="steady", n_ticks=4),
            ),
            baselines=("linux",),
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec


# -- pipeline composition ----------------------------------------------------


def perf_spec(**kwargs):
    return RunSpec(
        hosts=(HostSpec(perf=str(STAT_FIXTURE), host_id="metal-00"),), **kwargs
    )


class TestPipelineComposition:
    def test_two_runs_are_bit_identical(self):
        key = lambda r: [(s.host, s.tick, s.values, s.sigma) for s in r.slices]
        first = Pipeline.from_spec(perf_spec()).run()
        second = Pipeline.from_spec(perf_spec()).run()
        assert len(first.slices) == 24
        assert key(first) == key(second)

    def test_perf_and_synthetic_hosts_share_a_fleet(self):
        spec = RunSpec(
            hosts=(
                HostSpec(perf=str(STAT_FIXTURE), host_id="metal-00"),
                HostSpec(workload="steady", n_ticks=4, host_id="sim-00"),
            )
        )
        result = Pipeline.from_spec(spec).run()
        hosts = {s.host for s in result.slices}
        assert hosts == {"metal-00", "sim-00"}

    def test_comparison_report_scores_baselines_against_the_posterior(self):
        result = Pipeline.from_spec(perf_spec(baselines=("linux",))).run()
        report = result.comparison
        assert report is not None
        (host,) = report.hosts
        assert host.host_id == "metal-00"
        assert host.workload == "perf:stat-csv"
        # No ground truth exists: linux is scored as divergence from the
        # engine posterior, and the bayesperf column is blank (NaN).
        assert "linux" in host.reports
        assert math.isfinite(host.reports["linux"].mean_error_percent)
        assert "bayesperf" not in host.reports
        assert math.isnan(report.mean_error_percent("bayesperf"))
        rendered = report.render()
        assert "metal-00" in rendered and "linux" in rendered

    def test_crash_resume_mid_file_recovers_bit_identically(self, tmp_path):
        def wal_spec(path):
            return perf_spec(
                checkpoint=CheckpointSpec(path=str(path)), pump_records=4
            )

        reference = Pipeline.from_spec(wal_spec(tmp_path / "ref.jsonl")).run().fleet
        crash_path = tmp_path / "crash.jsonl"
        chaos = FaultInjector((), crash_after_writes=12)
        with pytest.raises(InjectedCrash):
            Pipeline.from_spec(wal_spec(crash_path), chaos=chaos).run().fleet
        resumed = Pipeline.resume(crash_path).run().fleet
        trace = resumed.estimates["metal-00"]
        assert trace.values_equal(reference.estimates["metal-00"])
        assert read_trace(crash_path).resumes == 1

    def test_checkpoints_pin_the_file_offset(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        Pipeline.from_spec(
            perf_spec(checkpoint=CheckpointSpec(path=str(path)), pump_records=4)
        ).run().fleet
        offsets = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("type") == "checkpoint":
                    offsets.append(record["progress"]["file_offset"])
        assert offsets, "expected host checkpoints in the WAL"
        assert all(isinstance(offset, int) for offset in offsets)
        assert offsets == sorted(offsets)
        assert offsets[-1] <= STAT_FIXTURE.stat().st_size


    def test_non_finite_readings_never_reach_the_engine(self, tmp_path):
        lines = STAT_FIXTURE.read_text(encoding="utf-8").splitlines()
        edits = {
            1: (",2306137,", ",nan,"),  # tick 0 cycles
            10: (",1715219,", ",inf,"),  # tick 1 instructions
            20: (",50.40,", ",nan,"),  # tick 2 branch-misses: bookkeeping only
        }
        for index, (old, new) in edits.items():
            assert old in lines[index]
            lines[index] = lines[index].replace(old, new)
        path = tmp_path / "poisoned.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        source = PerfTraceSource("metal-00", path)
        assert source.stats.skipped_lines == 1 + 2
        result = Pipeline.from_spec(
            RunSpec(hosts=(HostSpec(perf=str(path), host_id="metal-00"),))
        ).run()
        assert len(result.slices) == 24
        for slice_result in result.slices:
            assert all(math.isfinite(v) for v in slice_result.values.values())
            assert all(math.isfinite(v) for v in slice_result.sigma.values())


def estimate_lines(path):
    """The raw ``estimate`` lines of a tracefile, in file order."""
    with open(path, encoding="utf-8") as handle:
        return [line for line in handle if json.loads(line).get("type") == "estimate"]


class TestDurableRealTrace:
    """The perf-durable shape: perf hosts, an estimate-logging recorder
    sink and a write-ahead log, each slice's estimate line written to both."""

    @staticmethod
    def spec(tmp_path, tag):
        hosts = []
        for index in range(2):
            capture = tmp_path / f"metal-{index}.csv"
            if not capture.exists():
                shutil.copy(STAT_FIXTURE, capture)
            hosts.append(HostSpec(perf=str(capture), format="stat-csv", host_id=f"metal-{index}"))
        return RunSpec(
            hosts=tuple(hosts),
            recorder=RecorderSpec(sink=str(tmp_path / f"{tag}.sink.jsonl")),
            observer=ObserverSpec(estimates=True),
            checkpoint=CheckpointSpec(path=str(tmp_path / f"{tag}.wal.jsonl")),
            batch_size=1,
            pump_records=1,
        )

    def test_sink_and_wal_estimate_lines_are_byte_identical(self, tmp_path):
        Pipeline.from_spec(self.spec(tmp_path, "ref")).run()
        sink = estimate_lines(tmp_path / "ref.sink.jsonl")
        assert len(sink) == 48
        assert sink == estimate_lines(tmp_path / "ref.wal.jsonl")

    @pytest.mark.parametrize("stop", ["closed", "crashed"])
    def test_resume_restores_the_sinks_estimate_lines(self, tmp_path, stop):
        Pipeline.from_spec(self.spec(tmp_path, "ref")).run()
        reference = estimate_lines(tmp_path / "ref.sink.jsonl")
        spec = self.spec(tmp_path, "run")
        if stop == "closed":
            stream = Pipeline.from_spec(spec).stream()
            for _ in range(7):
                next(stream)
            stream.close()
        else:
            chaos = FaultInjector((), crash_after_writes=12)
            with pytest.raises(InjectedCrash):
                Pipeline.from_spec(spec, chaos=chaos).run()
        interrupted = len(estimate_lines(tmp_path / "run.sink.jsonl"))
        assert 0 < interrupted < len(reference)
        Pipeline.resume(tmp_path / "run.wal.jsonl").run()
        assert estimate_lines(tmp_path / "run.sink.jsonl") == reference
        assert estimate_lines(tmp_path / "run.wal.jsonl") == reference


# -- engine: multiplexing-fraction widening ----------------------------------


class TestMuxFractionWidening:
    def record(self, mux):
        events = ("CPU_CLK_UNHALTED.THREAD", "INST_RETIRED.ANY")
        return SamplingRecord(
            tick=0,
            configuration=CounterConfiguration(events=events),
            samples={
                "CPU_CLK_UNHALTED.THREAD": np.array([1.0e6, 1.1e6, 0.9e6]),
                "INST_RETIRED.ANY": np.array([7.0e5, 7.2e5, 6.8e5]),
            },
            mux_fraction=mux,
        )

    def engine(self):
        return BayesPerfEngine(
            catalog_for("x86"), ("CPU_CLK_UNHALTED.THREAD", "INST_RETIRED.ANY")
        )

    def summaries(self, record):
        """The record's observation summaries, as a batch of one."""
        ((rows, summaries),) = self.engine()._observation_summaries([record])
        assert rows.tolist() == [0]
        return ObservationSummaries(
            summaries.events, summaries.loc[0], summaries.scale[0], summaries.df[0]
        )

    def test_fraction_widens_the_observation_scale(self):
        clean = self.summaries(self.record({}))
        muxed = self.summaries(
            self.record({"CPU_CLK_UNHALTED.THREAD": 0.25})
        )
        assert muxed.scale[0] == pytest.approx(clean.scale[0] / math.sqrt(0.25))
        assert muxed.scale[1] == clean.scale[1]  # untouched event unchanged

    def test_empty_fraction_dict_is_bit_identical(self):
        base = self.summaries(self.record({}))
        default = self.summaries(
            SamplingRecord(
                tick=0,
                configuration=self.record({}).configuration,
                samples=self.record({}).samples,
            )
        )
        assert np.array_equal(base.scale, default.scale)
        assert np.array_equal(base.loc, default.loc)

    def test_degenerate_fractions_do_not_blow_up(self):
        summaries = self.summaries(
            self.record({"CPU_CLK_UNHALTED.THREAD": 0.0, "INST_RETIRED.ANY": 1.0})
        )
        assert np.all(np.isfinite(summaries.scale))


# -- tracefile round trip ----------------------------------------------------


class TestTracefileMuxRoundTrip:
    def test_mux_fractions_survive_write_read(self, tmp_path):
        source = PerfTraceSource("h0", STAT_FIXTURE)
        path = tmp_path / "capture.trace"
        write_trace(
            path,
            TraceFile(
                arch=source.arch,
                events=source.events,
                workload=source.workload_name,
                samples_per_tick=source.samples_per_tick,
                sampled=source.sampled_trace(),
            ),
        )
        rebuilt = read_trace(path)
        originals = list(source.records())
        assert len(rebuilt.sampled.records) == len(originals)
        for original, restored in zip(originals, rebuilt.sampled.records):
            assert restored.mux_fraction == pytest.approx(original.mux_fraction)

    def test_synthetic_records_stay_byte_stable(self, tmp_path):
        from repro.fleet.tracefile import sample_line

        record = SamplingRecord(
            tick=0,
            configuration=CounterConfiguration(events=("INST_RETIRED.ANY",)),
            samples={"INST_RETIRED.ANY": np.array([1.0, 2.0])},
        )
        assert "mux" not in sample_line(record)


# -- the CLI -----------------------------------------------------------------


class TestIngestCli:
    def test_preview_shows_mapping_and_accounting(self, capsys):
        assert fleet_main(["ingest", str(STAT_FIXTURE), "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "schema mapping" in out
        assert "cycles" in out and "CPU_CLK_UNHALTED.THREAD" in out
        assert "1 malformed skipped" in out
        assert "<not counted> readings: 2" in out
        assert "quantum 0:" in out

    def test_missing_file_fails_cleanly(self, capsys):
        assert fleet_main(["ingest", "/nonexistent/capture.csv"]) == 1
        assert "Cannot ingest" in capsys.readouterr().out

    def test_unknown_event_raise_vs_skip(self, tmp_path, capsys):
        path = tmp_path / "odd.csv"
        path.write_text(
            "0.1,1,,cycles,1,50.00,,\n0.1,2,,mystery-event,1,50.00,,\n",
            encoding="utf-8",
        )
        assert fleet_main(["ingest", str(path)]) == 1
        assert "mystery-event" in capsys.readouterr().out
        assert fleet_main(["ingest", str(path), "--on-unknown", "skip"]) == 0
        assert "unknown events skipped: mystery-event x1" in capsys.readouterr().out

    def test_convert_writes_a_replayable_tracefile(self, tmp_path, capsys):
        out_path = tmp_path / "converted.trace"
        code = fleet_main(
            ["ingest", str(STAT_FIXTURE), "--convert", str(out_path), "--limit", "0"]
        )
        assert code == 0
        trace = read_trace(out_path)
        assert trace.workload == "perf:stat-csv"
        assert len(trace.sampled.records) == 24
        assert trace.metadata["format"] == "stat-csv"

    def test_demo_unknown_workload_lists_the_registry(self, capsys):
        from repro.workloads.registry import available_workloads

        with pytest.raises(SystemExit) as excinfo:
            fleet_main(["demo", "--workload", "does-not-exist"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "does-not-exist" in err
        for name in available_workloads():
            assert name in err


# -- fuzz: skip-and-account never raises -------------------------------------

STAT_LINES = STAT_FIXTURE.read_text(encoding="utf-8").splitlines()
SCRIPT_LINES = SCRIPT_FIXTURE.read_text(encoding="utf-8").splitlines()


def mangle(line, cut, locale_commas):
    if cut:
        line = line[: max(1, len(line) * 2 // 3)]
    if locale_commas:
        line = line.replace(".", ",", 1)
    return line


def poison(line, field, token):
    """Replace one CSV field (a stat-csv column) with *token*."""
    fields = line.split(",")
    if field < len(fields):
        fields[field] = token
    return ",".join(fields)


#: Non-finite spellings, plus an empty field (the missing-percentage case).
POISON = ("nan", "NaN", "inf", "-inf", "Infinity", "1e999", "")
JSON_NUMBERS = ("NaN", "Infinity", "-Infinity", "1e999", "0", "2", "0.5", "1000")

mangled_lines = st.one_of(
    st.text(max_size=80),  # arbitrary interleaved garbage
    st.builds(
        mangle,
        st.sampled_from(STAT_LINES + SCRIPT_LINES),
        st.booleans(),
        st.booleans(),
    ),
    st.builds(
        poison,
        st.sampled_from(STAT_LINES[1:]),
        st.integers(min_value=0, max_value=5),
        st.sampled_from(POISON),
    ),
    st.builds(
        '{{"ts": {}, "event": "cycles", "value": {}, "enabled": {}, "running": {}}}'.format,
        *(st.sampled_from(JSON_NUMBERS) for _ in range(4)),
    ),
)


class TestFuzzParsers:
    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(mangled_lines, max_size=30), fmt=st.sampled_from(PERF_FORMATS))
    def test_parsers_never_raise_and_account_every_line(self, lines, fmt):
        stats = IngestStats()
        samples = list(parser_for(fmt)(lines, stats))
        assert stats.total_lines == len(lines)
        # Every non-blank line is either parsed, a comment, or accounted
        # as skipped — nothing disappears silently.
        blank = sum(1 for line in lines if not line.strip())
        assert (
            stats.parsed_samples + stats.comment_lines + stats.skipped_lines + blank
            == len(lines)
        )
        for sample in samples:
            assert isinstance(sample, CounterSample)
            assert math.isfinite(sample.timestamp)
            assert sample.value is None or math.isfinite(sample.value)
            assert math.isfinite(sample.enabled) and math.isfinite(sample.running)
            assert sample.running_pct is None or math.isfinite(sample.running_pct)
        # Lowered, every sample is finite and every recorded multiplexing
        # fraction is a genuine partial one.
        mapper = SchemaMapper(catalog_for("x86"), on_unknown="skip")
        for record in lower_capture(samples, mapper, stats).records:
            for values in record.samples.values():
                assert np.isfinite(values).all()
            assert all(0.0 < f < 1.0 for f in record.mux_fraction.values())

    @settings(max_examples=30, deadline=None)
    @given(lines=st.lists(mangled_lines, max_size=20))
    def test_detect_format_always_answers(self, lines):
        assert detect_format(lines) in PERF_FORMATS

    @settings(max_examples=20, deadline=None)
    @given(lines=st.lists(st.sampled_from(STAT_LINES), min_size=8, max_size=40))
    def test_interleaved_captures_still_lower(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("fuzz") / "capture.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            source = PerfTraceSource("h0", path, format="stat-csv")
        except ValueError:
            return  # nothing usable is a loud, clean failure — fine
        assert source.n_ticks >= 1
        for record in source.records():
            assert record.configuration.events
