"""The unified `repro.api` pipeline: spec-driven runs, the estimator
registry, streaming with bounded recorder memory, and the fleet CLI built
on top of them."""

from pathlib import Path

import pytest

from repro.api import (
    CheckpointSpec,
    EstimatorSpec,
    HostSpec,
    Pipeline,
    RecorderSpec,
    RunSpec,
)
from repro.core.engine import BayesPerfEngine
from repro.core.session import PerfSession
from repro.events.registry import catalog_for
from repro.fg import estimator_names, get_estimator
from repro.fg.compiled import CompiledEPKernel
from repro.fg.mcmc import BatchedSiteMCMC
from repro.fg.registry import engine_estimator_names
from repro.fg.ep import ExpectationPropagation, ReferenceSiteMCMC
from repro.fleet import FleetIngest, SyntheticHostSource, WorkerPool
from repro.fleet.tracefile import read_trace
from repro.fleet.__main__ import main as fleet_main
from repro.workloads import get_workload

METRICS = ("ipc", "l1d_mpki")
GOLDEN_TRACE = Path(__file__).parent / "fixtures" / "golden_fleet_trace.jsonl"


def _small_spec(n_hosts=4, n_ticks=3, **kwargs):
    kwargs.setdefault("metrics", METRICS)
    kwargs.setdefault("n_workers", 2)
    return RunSpec.fleet(n_hosts, "mux-stress", n_ticks=n_ticks, **kwargs)


# -- the estimator registry ---------------------------------------------------


class TestEstimatorRegistry:
    def test_builtin_pairings(self):
        assert engine_estimator_names() == ("analytic", "mcmc")
        assert get_estimator("mcmc").batched is BatchedSiteMCMC
        assert get_estimator("mcmc").reference is ReferenceSiteMCMC
        assert get_estimator("analytic").batched is CompiledEPKernel
        assert get_estimator("analytic").reference is ExpectationPropagation

    def test_unknown_name_lists_registered_estimators(self):
        # The listing covers the whole registry: engines and the baseline
        # correction methods that joined it for the scenario grid.
        with pytest.raises(
            ValueError, match="analytic, counterminer, linux, mcmc, wm\\+pin"
        ):
            get_estimator("turbo")

    def test_engine_validation_goes_through_registry(self):
        catalog = catalog_for("x86")
        events = catalog.events_for_derived(METRICS)
        with pytest.raises(ValueError, match="registered estimators"):
            BayesPerfEngine(catalog, events, moment_estimator="turbo")

    def test_engine_adapts_by_default(self):
        catalog = catalog_for("x86")
        events = catalog.events_for_derived(METRICS)
        assert BayesPerfEngine(catalog, events, moment_estimator="mcmc").mcmc_adapt
        # EstimatorSpec.adapt=None leaves the engine default in place.
        kwargs = EstimatorSpec("mcmc").engine_kwargs()
        assert "mcmc_adapt" not in kwargs
        assert BayesPerfEngine(catalog, events, **kwargs).mcmc_adapt
        assert not BayesPerfEngine(
            catalog, events, moment_estimator="mcmc", mcmc_adapt=False
        ).mcmc_adapt

    def test_spec_resolution_validates_eagerly(self):
        with pytest.raises(ValueError, match="registered estimators"):
            EstimatorSpec("turbo").engine_kwargs()
        kwargs = EstimatorSpec("mcmc", samples=25, burn_in=10, adapt=False).engine_kwargs()
        assert kwargs == {
            "moment_estimator": "mcmc",
            "use_compiled_kernel": True,
            "mcmc_samples": 25,
            "mcmc_burn_in": 10,
            "mcmc_adapt": False,
        }

    def test_names_are_sorted_and_stable(self):
        names = estimator_names()
        assert list(names) == sorted(names)

    def test_pair_tuple_fields_accept_dicts(self):
        spec = RunSpec.fleet(
            1, "steady", n_ticks=2, engine_overrides={"ep_damping": 0.5}
        )
        assert spec.engine_overrides == (("ep_damping", 0.5),)
        assert spec.engine_kwargs()["ep_damping"] == 0.5
        recorder = RecorderSpec(params={"n_samples": 20})
        assert recorder.build().params == {"n_samples": 20}


class TestSessionSpecPrecedence:
    def test_session_use_compiled_kernel_false_beats_estimator_spec(self):
        """The A/B ablation switch in ``engine_kwargs`` must win over the
        spec's compiled default."""
        session = PerfSession(
            "x86",
            metrics=METRICS,
            estimator=EstimatorSpec("mcmc"),
            engine_kwargs={"use_compiled_kernel": False},
        )
        assert session.engine_kwargs["use_compiled_kernel"] is False
        assert session.engine_kwargs["moment_estimator"] == "mcmc"

    def test_estimator_spec_reference_twin_flag_survives(self):
        session = PerfSession(
            "x86",
            metrics=METRICS,
            estimator=EstimatorSpec("mcmc", use_compiled_kernel=False),
        )
        assert session.engine_kwargs["use_compiled_kernel"] is False

    def test_session_rejects_recorder_spec_with_sink(self):
        with pytest.raises(ValueError, match="stream"):
            PerfSession(
                "x86", metrics=METRICS, recorder=RecorderSpec(sink="chains.jsonl")
            )

    def test_session_accepts_sinkless_recorder_spec(self):
        session = PerfSession(
            "x86",
            metrics=METRICS,
            estimator=EstimatorSpec("mcmc", samples=15, burn_in=10, ep_iterations=2),
            recorder=RecorderSpec(params={"n_samples": 15}),
        )
        recorder = session.engine_kwargs["chain_recorder"]
        session.run("steady", n_ticks=2, seed=0)
        assert recorder.n_visits > 0


# -- Pipeline.run: parity with the hand-wired fleet parts ---------------------


class TestPipelineRun:
    @pytest.mark.parametrize(
        "override",
        [("ep_damping", 0.0), ("ep_damping", 1.5), ("ep_max_iterations", 0)],
    )
    def test_bad_ep_setting_fails_before_any_file_opens(self, tmp_path, override):
        """``from_spec`` rejects it, not the first kernel compile mid-run."""
        sink, wal = tmp_path / "sink.jsonl", tmp_path / "wal.jsonl"
        spec = _small_spec(
            engine_overrides=(override,),
            recorder=RecorderSpec(sink=str(sink)),
            checkpoint=CheckpointSpec(path=str(wal)),
        )
        with pytest.raises(ValueError, match="must"):
            Pipeline.from_spec(spec).run()
        assert not sink.exists() and not wal.exists()
        with pytest.raises(ValueError, match="must"):
            Pipeline.from_spec(spec)

    @pytest.mark.parametrize(
        "setting",
        [
            ("n_workers", 0),
            ("batch_size", 0),
            ("buffer_capacity", -1),
            ("pump_records", 0),
            ("samples_per_tick", 0),
            ("n_ticks", 0),
            ("seed", -1),
        ],
    )
    def test_bad_run_setting_leaves_existing_files_untouched(self, tmp_path, setting):
        """A non-positive sizing knob or a negative host seed (``n_ticks``
        and ``seed`` reach the hosts) fails at the spec, before the run
        truncates a pre-existing sink or write-ahead log."""
        sink, wal = tmp_path / "sink.jsonl", tmp_path / "wal.jsonl"
        sink.write_bytes(b"previous sink\n")
        wal.write_bytes(b"previous log\n")
        name, value = setting
        with pytest.raises(ValueError, match=name):
            _small_spec(
                recorder=RecorderSpec(sink=str(sink)),
                checkpoint=CheckpointSpec(path=str(wal)),
                **{name: value},
            )
        assert sink.read_bytes() == b"previous sink\n"
        assert wal.read_bytes() == b"previous log\n"

    def test_run_matches_hand_assembled_pool_exactly(self):
        """``from_spec`` assembles exactly the ingest and worker pool a
        caller would wire by hand from the same sources."""
        result = Pipeline.from_spec(_small_spec()).run()
        events = catalog_for("x86").events_for_derived(METRICS)
        ingest = FleetIngest()
        pool = WorkerPool(
            2, dispatcher=ingest.dispatcher, engine_kwargs=EstimatorSpec().engine_kwargs()
        )
        for index in range(4):
            source = SyntheticHostSource(
                f"host-{index:03d}",
                get_workload("mux-stress"),
                events=events,
                n_ticks=3,
                seed=index,
            )
            pool.assign(ingest.add(source), arch="x86", events=events)
        total = sum(pool.rounds(ingest, pump_records=8))
        reference = pool.estimates()
        assert result.estimates.keys() == reference.keys()
        for host in result.estimates:
            assert result.estimates[host].values_equal(reference[host])
        assert result.n_slices == total
        assert result.slices_per_second > 0

    def test_run_collects_every_slice_in_order_per_host(self):
        result = Pipeline.from_spec(_small_spec(n_hosts=2, n_ticks=4)).run()
        ticks = {}
        for item in result.slices:
            ticks.setdefault(item.host, []).append(item.tick)
        assert set(ticks) == {"host-000", "host-001"}
        for per_host in ticks.values():
            assert per_host == sorted(per_host)
        # The per-slice values are the same dictionaries the estimate
        # traces accumulated.
        first = result.slices[0]
        assert result.estimates[first.host].at(0) == first.values

    def test_golden_trace_through_pipeline(self):
        """Acceptance: Pipeline.from_spec(...).run() reproduces the
        committed golden fleet trace exactly like the legacy entry points."""
        golden = read_trace(GOLDEN_TRACE)
        spec = RunSpec(
            arch=golden.arch,
            hosts=(HostSpec(trace=str(GOLDEN_TRACE)),),
            n_workers=2,
        )
        result = Pipeline.from_spec(spec).run()
        (host,) = result.estimates
        got = result.estimates[host]
        assert len(got) == len(golden.estimates)
        for tick in range(len(golden.estimates)):
            want = golden.estimates.at(tick)
            have = got.at(tick)
            assert have.keys() == want.keys()
            for event, value in want.items():
                assert have[event] == pytest.approx(value, rel=1e-9)

    def test_from_spec_requires_hosts(self):
        with pytest.raises(ValueError, match="at least one HostSpec"):
            Pipeline.from_spec(RunSpec())

    def test_fleet_result_unavailable_before_completion(self):
        pipeline = Pipeline.from_spec(_small_spec(n_hosts=1, n_ticks=2))
        with pytest.raises(RuntimeError, match="not finished"):
            pipeline.fleet_result


# -- Pipeline.stream: incremental results, bounded chain memory ---------------


class TestPipelineStream:
    def _stream_spec(self, sink=None, n_ticks=3):
        return _small_spec(
            n_hosts=3,
            n_ticks=n_ticks,
            batch_size=1,  # one tick per host per round -> several rounds
            estimator=EstimatorSpec("mcmc", samples=20, burn_in=15, ep_iterations=2),
            recorder=RecorderSpec(sink=sink, params=(("n_samples", 20),)),
        )

    def test_stream_yields_while_running_and_matches_run(self):
        streamed = list(Pipeline.from_spec(self._stream_spec()).stream())
        collected = Pipeline.from_spec(self._stream_spec()).run()
        assert [(s.host, s.tick) for s in streamed] == [
            (s.host, s.tick) for s in collected.slices
        ]
        assert all(s.values == c.values for s, c in zip(streamed, collected.slices))

    def test_stream_flushes_chain_records_with_bounded_memory(self, tmp_path):
        """Acceptance: chain records land in the sink incrementally — the
        recorder's peak buffered visit count stays a fraction of the total
        (the ROADMAP 'stream chain records incrementally' item)."""
        sink = tmp_path / "chains.jsonl"
        pipeline = Pipeline.from_spec(self._stream_spec(sink=str(sink)))
        slices = sum(1 for _ in pipeline.stream())
        recorder = pipeline.chain_recorder
        assert slices == 9
        assert recorder.total_recorded > 0
        # Peak memory: bounded by one flush round, not the whole run.
        assert recorder.peak_buffered <= recorder.total_recorded // 3
        # Everything was flushed out of memory into the sink.
        assert recorder.n_visits == 0
        replayed = read_trace(sink).chain
        assert replayed is not None
        assert replayed.n_visits == recorder.total_recorded

    def test_streamed_file_equals_unstreamed_recorder(self, tmp_path):
        sink = tmp_path / "chains.jsonl"
        pipeline = Pipeline.from_spec(self._stream_spec(sink=str(sink)))
        for _ in pipeline.stream():
            pass
        unstreamed = Pipeline.from_spec(self._stream_spec(sink=None)).run()
        assert read_trace(sink).chain.visits == unstreamed.chain_trace.visits

    def test_abandoned_stream_still_finalizes_the_sink(self, tmp_path):
        sink = tmp_path / "chains.jsonl"
        pipeline = Pipeline.from_spec(self._stream_spec(sink=str(sink)))
        stream = pipeline.stream()
        next(stream)
        stream.close()  # consumer walks away mid-run
        assert pipeline.fleet_result is not None
        assert read_trace(sink).chain is not None


# -- the CLI rides the registry ----------------------------------------------


class TestFleetCLI:
    def test_unknown_estimator_lists_registered_names(self, capsys):
        with pytest.raises(SystemExit):
            fleet_main(["demo", "--hosts", "1", "--ticks", "1", "--estimator", "turbo"])
        err = capsys.readouterr().err
        assert "registered estimators" in err
        for name in estimator_names():
            assert name in err

    def test_stream_flag_exercises_pipeline_stream(self, capsys):
        code = fleet_main(
            ["demo", "--hosts", "2", "--ticks", "2", "--workers", "2", "--stream"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "streamed 4 slices" in out

    def test_estimator_flag_reaches_the_engines(self, capsys):
        code = fleet_main(
            [
                "demo", "--hosts", "1", "--ticks", "1",
                "--estimator", "mcmc", "--stream",
            ]
        )
        assert code == 0
        assert "mcmc estimator" in capsys.readouterr().out

    def test_demo_reports_the_pool_run(self, capsys):
        code = fleet_main(["demo", "--hosts", "3", "--ticks", "2", "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "  6 slices in " in out
        # Three hosts on one event set and two workers: one engine per worker.
        assert "engines built: 2, cache hits: 1, dropped: 0" in out
        assert "e.g. host-000 final slice:" in out

    def test_record_then_replay_round_trips(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert fleet_main(["record", "-o", str(path), "--ticks", "4"]) == 0
        assert fleet_main(["replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Replayed 4 quanta" in out
        assert "match the recorded ones exactly" in out
