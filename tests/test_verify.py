"""Tests for the differential oracle and invariant audit."""

from dataclasses import replace
from unittest import mock

import pytest

from repro.cli import main
from repro.core.filters import FilterStats
from repro.core.pipeline import LprPipeline
from repro.analysis.flightreport import flight_report
from repro.obs import (EventBus, delta_total, get_event_bus,
                       get_registry, read_events, set_event_bus)
from repro.par import CheckpointStore, StudySpec, run_study
from repro.sim.dataplane import DataPlane
from repro.verify import (
    CONFIG_NAMES,
    Divergence,
    VerifyConfig,
    audit,
    canonical_cycle,
    check_cycle,
    check_run,
    default_matrix,
    diff_cycles,
    repro_command,
    run_matrix,
    shrink_divergence,
    state_fingerprint,
)
from repro.verify.invariants import (
    cache_accounting,
    filter_drop_counters,
    filter_funnel,
    state_roundtrip,
)

SPEC = StudySpec(scale=0.2, seed=7, cycles=2, snapshots_per_cycle=2)

# The in-process half of the matrix: everything that doesn't spawn a
# worker pool, so most tests stay fast.
_SERIAL_CONFIGS = [config for config in default_matrix()
                   if config.name != "workers"]


def _delta(values):
    """A registry-delta payload for one unlabelled counter value."""
    return {"values": [{"labels": {}, "value": values}]}


def _broken_resolve(original):
    """A stale-cache bug: memoized lookups perturb some AS paths."""
    def resolve(self, src_asn, dst_addr):
        origin, as_path, prefix = original(self, src_asn, dst_addr)
        if (origin is not None and dst_addr % 7 == 0
                and (src_asn, dst_addr >> 8) in self.decisions.routes):
            return origin, as_path[:1] + as_path[1:][::-1], prefix
        return origin, as_path, prefix
    return resolve


@pytest.fixture(scope="module")
def reference_run():
    """One serial study plus its run-level registry delta."""
    registry = get_registry()
    before = registry.snapshot()
    run = run_study(SPEC, workers=1)
    return run, registry.diff(before, registry.snapshot())


class TestInvariantsOnRealRun:
    def test_clean_run_has_no_violations(self, reference_run):
        run, delta = reference_run
        assert audit(run.results, run, delta) == []

    def test_violations_bump_counter_and_emit(self, reference_run):
        run, delta = reference_run
        bad = replace(
            run.results[0],
            filter_stats=FilterStats(
                extracted=5, after_incomplete=9, after_intra_as=4,
                after_target_as=3, after_transit_diversity=2,
                after_persistence=1),
            metrics={})
        fake = mock.Mock(results=[bad], simulator=run.simulator)
        saved = get_event_bus()
        set_event_bus(EventBus())
        try:
            violations = audit(fake.results, fake, delta)
            events = [event for event in get_event_bus().events
                      if event.kind == "verify.violation"]
        finally:
            set_event_bus(saved)
        assert violations
        assert len(events) == len(violations)
        assert events[0].fields["checker"] == "filter-funnel"


class TestCycleCheckers:
    def test_funnel_widening_fires(self):
        stats = FilterStats(
            extracted=10, after_incomplete=12, after_intra_as=8,
            after_target_as=8, after_transit_diversity=8,
            after_persistence=8)
        result = mock.Mock(filter_stats=stats, iotps={})
        problems = filter_funnel(result)
        assert any("widened" in problem for problem in problems)

    def test_more_iotps_than_survivors_fires(self):
        stats = FilterStats(
            extracted=10, after_incomplete=10, after_intra_as=10,
            after_target_as=10, after_transit_diversity=10,
            after_persistence=1)
        result = mock.Mock(filter_stats=stats,
                           iotps={(1, 2, 3): None, (1, 2, 4): None})
        problems = filter_funnel(result)
        assert any("IOTPs" in problem for problem in problems)

    def test_drop_counter_mismatch_fires(self):
        stats = FilterStats(
            extracted=10, after_incomplete=8, after_intra_as=8,
            after_target_as=8, after_transit_diversity=8,
            after_persistence=8)
        metrics = {"lsps_dropped_total": {"values": [
            {"labels": {"filter": "incomplete"}, "value": 5.0}]}}
        result = mock.Mock(filter_stats=stats, metrics=metrics)
        problems = filter_drop_counters(result)
        assert any("incomplete" in problem for problem in problems)

    def test_drop_counters_accept_empty_metrics_when_no_drops(self):
        stats = FilterStats(
            extracted=10, after_incomplete=10, after_intra_as=10,
            after_target_as=10, after_transit_diversity=10,
            after_persistence=10)
        result = mock.Mock(filter_stats=stats, metrics={})
        assert filter_drop_counters(result) == []

    def test_check_cycle_names_the_checker(self, reference_run):
        run, _ = reference_run
        assert check_cycle(run.results[0]) == []


class TestRunCheckers:
    def test_cache_mismatch_fires(self):
        delta = {"sim_traces_total": _delta(100.0),
                 "route_cache_hits_total": _delta(60.0),
                 "route_cache_misses_total": _delta(30.0)}
        problems = cache_accounting(mock.Mock(), delta)
        assert any("90" in problem for problem in problems)

    def test_traces_without_route_lookups_fire(self):
        """Unmemoized runs count every lookup as a miss, so traces
        with no lookup at all are flagged too."""
        delta = {"sim_traces_total": _delta(100.0)}
        problems = cache_accounting(mock.Mock(), delta)
        assert any("accounted for 0 probes" in problem
                   for problem in problems)

    def test_unmemoized_run_counts_every_lookup_a_miss(self):
        registry = get_registry()
        before = registry.snapshot()
        run = run_study(replace(SPEC, memoize=False), workers=1)
        delta = registry.diff(before, registry.snapshot())
        traces = delta_total(delta, "sim_traces_total")
        assert traces > 0
        assert delta_total(delta, "route_cache_hits_total") == 0
        assert delta_total(delta, "route_cache_misses_total") == traces
        assert cache_accounting(run, delta) == []

    def test_negative_cache_counter_fires(self):
        delta = {"hop_cache_hits_total": _delta(-1.0)}
        problems = cache_accounting(mock.Mock(), delta)
        assert any("backwards" in problem for problem in problems)

    def test_state_roundtrip_detects_lossy_restore(self):
        class LossyInternet:
            def __init__(self):
                self.captures = 0

            def capture_state(self):
                self.captures += 1
                return {"captures": self.captures}

            def restore_state(self, state):
                pass

        run = mock.Mock(simulator=mock.Mock(internet=LossyInternet()))
        problems = state_roundtrip(run, {})
        assert any("idempotent" in problem for problem in problems)

    def test_real_internet_roundtrips(self, reference_run):
        run, delta = reference_run
        assert check_run(run, delta) == []


class TestCanonicalDiff:
    def test_identical_runs_diff_clean(self, reference_run):
        run, _ = reference_run
        config = VerifyConfig(name="self")
        assert diff_cycles(run.results, run.results, config) is None

    def test_strips_layout_dependent_metrics(self, reference_run):
        run, _ = reference_run
        canon = canonical_cycle(run.results[0])
        assert not any(name.startswith("route_cache_")
                       for name in canon["metrics"])

    def test_mutation_pins_cycle_and_stage(self, reference_run):
        run, _ = reference_run
        target = run.results[1]
        mutated = replace(
            target,
            filter_stats=replace(target.filter_stats,
                                 after_persistence=
                                 target.filter_stats.after_persistence
                                 + 1))
        candidate = [run.results[0], mutated]
        divergence = diff_cycles(run.results, candidate,
                                 VerifyConfig(name="mutant"))
        assert divergence is not None
        assert divergence.cycle == target.cycle
        assert divergence.stage == "filter_stats"
        assert any("after_persistence" in entry.path
                   for entry in divergence.entries)
        assert "mutant" in divergence.describe()

    def test_missing_cycle_is_cycle_count(self, reference_run):
        run, _ = reference_run
        divergence = diff_cycles(run.results, run.results[:1],
                                 VerifyConfig(name="short"))
        assert divergence is not None
        assert divergence.stage == "cycle-count"

    def test_partial_config_may_cover_a_prefix(self, reference_run):
        run, _ = reference_run
        config = VerifyConfig(name="arch", archive="strict")
        assert diff_cycles(run.results, run.results[:1],
                           config) is None


class TestMatrixSerialConfigs:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        saved = get_event_bus()
        set_event_bus(EventBus())
        try:
            report = run_matrix(
                SPEC, _SERIAL_CONFIGS,
                workdir=tmp_path_factory.mktemp("verify"),
                shrink=False)
            events = get_event_bus().events
        finally:
            set_event_bus(saved)
        return report, events

    def test_all_configs_byte_identical(self, report):
        matrix, _ = report
        assert matrix.clean
        assert [outcome.status for outcome in matrix.outcomes] == \
            ["ok"] * len(_SERIAL_CONFIGS)

    def test_archive_configs_cover_a_prefix(self, report):
        matrix, _ = report
        by_name = {outcome.config.name: outcome
                   for outcome in matrix.outcomes}
        assert by_name["strict-archive"].cycles == 1
        assert by_name["resume"].cycles == SPEC.cycles

    def test_events_cover_lifecycle(self, report):
        _, events = report
        kinds = [event.kind for event in events]
        assert kinds.count("verify.start") == 1
        assert kinds.count("verify.config") == len(_SERIAL_CONFIGS)
        assert kinds.count("verify.done") == 1

    def test_render_mentions_verdict(self, report):
        matrix, _ = report
        text = matrix.render()
        assert "byte-identical" in text
        for config in _SERIAL_CONFIGS:
            assert config.name in text


class TestMatrixWorkerConfigs:
    def test_workers_match_reference(self, tmp_path):
        configs = [config for config in default_matrix(workers=2)
                   if config.name == "workers"]
        report = run_matrix(SPEC, configs, workdir=tmp_path,
                            shrink=False)
        assert report.clean, report.render()


class TestEveryConfigAudited:
    def test_resume_only_fault_names_resume(self, tmp_path):
        """A resumed run that counts simulation it skipped (the fault
        version-7 checkpoints had) breaks cache accounting under
        ``resume`` alone, with byte-identical results."""
        traces = get_registry().counter("sim_traces_total")
        original = CheckpointStore.load

        def load(self, cycle):
            result = original(self, cycle)
            if result is not None:
                traces.inc(result.stats.trace_count)
            return result

        spec = replace(SPEC, cycles=3)  # the crash leaves cycle 1
        configs = [config for config in default_matrix(workers=1)
                   if config.name in ("no-memo", "resume",
                                      "strict-archive")]
        events_path = tmp_path / "events.jsonl"
        saved = get_event_bus()
        set_event_bus(EventBus(sink=events_path))
        try:
            with mock.patch.object(CheckpointStore, "load", load):
                report = run_matrix(spec, configs, workdir=tmp_path,
                                    shrink=False)
        finally:
            get_event_bus().close()
            set_event_bus(saved)
        assert not report.divergences
        assert [(violation.config, violation.checker)
                for violation in report.violations] == \
            [("resume", "cache-accounting")]
        assert "[cache-accounting] config resume: route cache" in \
            report.render()
        # The resume row itself is not ok: in the outcome, the table,
        # the ``verify.config`` event and ``repro report``.
        statuses = {outcome.config.name: outcome.status
                    for outcome in report.outcomes}
        assert statuses == {"no-memo": "ok", "resume": "VIOLATED",
                            "strict-archive": "ok"}
        assert [violation.checker for violation in
                report.outcomes[1].violations] == ["cache-accounting"]
        rows = {(outcome.config.name, str(outcome.cycles),
                 outcome.status) for outcome in report.outcomes}
        table = {tuple(line.split()[:3])
                 for line in report.render().splitlines()}
        assert rows <= table
        configs_seen = {event.fields["config"]: event.fields["status"]
                        for event in read_events(events_path)
                        if event.kind == "verify.config"}
        assert configs_seen == statuses
        assert rows <= {tuple(line.split()) for line in
                        flight_report(events_path).splitlines()}

    def test_archive_config_cycles_are_checked(self, tmp_path):
        configs = [config for config in default_matrix()
                   if config.name == "strict-archive"]
        broken = FilterStats(extracted=1, after_incomplete=2,
                             after_intra_as=0, after_target_as=0,
                             after_transit_diversity=0,
                             after_persistence=0)
        original = LprPipeline.process_snapshots

        def process(self, cycle, snapshots):
            return replace(original(self, cycle, snapshots),
                           filter_stats=broken)

        with mock.patch.object(LprPipeline, "process_snapshots",
                               process):
            report = run_matrix(replace(SPEC, cycles=1), configs,
                                workdir=tmp_path, shrink=False)
        named = {(violation.config, violation.checker)
                 for violation in report.violations}
        assert ("strict-archive", "filter-funnel") in named


class TestBrokenMemoDetection:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        spec = StudySpec(scale=0.2, seed=7, cycles=3,
                         snapshots_per_cycle=2)
        configs = [config for config in default_matrix()
                   if config.name == "no-memo"]
        patched = _broken_resolve(DataPlane._resolve_route)
        saved = get_event_bus()
        set_event_bus(EventBus())
        try:
            with mock.patch.object(DataPlane, "_resolve_route",
                                   patched):
                report = run_matrix(
                    spec, configs,
                    workdir=tmp_path_factory.mktemp("broken"),
                    shrink=True)
            events = get_event_bus().events
        finally:
            set_event_bus(saved)
        return report, events

    def test_divergence_detected(self, report):
        matrix, _ = report
        assert not matrix.clean
        assert len(matrix.divergences) == 1
        assert matrix.divergences[0].config == "no-memo"

    def test_shrunk_to_at_most_two_cycles(self, report):
        matrix, _ = report
        outcome = matrix.outcomes[0]
        assert outcome.minimal_spec is not None
        assert outcome.minimal_spec.cycles <= 2
        assert outcome.command is not None
        assert "--configs no-memo" in outcome.command

    def test_divergence_and_minimal_events(self, report):
        _, events = report
        kinds = {event.kind for event in events}
        assert "verify.divergence" in kinds
        assert "verify.minimal" in kinds
        assert "verify.shrink.step" in kinds

    def test_render_carries_repro_command(self, report):
        matrix, _ = report
        text = matrix.render()
        assert "DIVERGED" in text
        assert "repro verify" in text


class TestBrokenPlanDetection:
    def test_no_memo_reference_bypasses_walk_plans(self, tmp_path):
        """A wrong cached walk plan (its TE tunnels dropped) diverges
        from ``no-memo``, which plans every walk afresh."""
        original = DataPlane._plan
        dropped = []

        def plan(self, network, entry, target, internal):
            built = original(self, network, entry, target, internal)
            if self.memoize and built.te_sessions:
                dropped.append(built)
                built.te_sessions = ()
            return built

        configs = [config for config in default_matrix()
                   if config.name == "no-memo"]
        with mock.patch.object(DataPlane, "_plan", plan):
            report = run_matrix(SPEC, configs, workdir=tmp_path,
                                shrink=False)
        assert dropped
        assert [divergence.config for divergence in
                report.divergences] == ["no-memo"]
        assert report.outcomes[0].status == "DIVERGED"


class TestReferenceRun:
    def test_reference_keeps_the_spec_memoize(self, tmp_path):
        """The reference runs the spec as given: a ``memoize=False``
        spec's reference builds no cached walk plan."""
        original = DataPlane._plan
        cached = []

        def plan(self, network, entry, target, internal):
            cached.append(self.memoize)
            return original(self, network, entry, target, internal)

        with mock.patch.object(DataPlane, "_plan", plan):
            report = run_matrix(replace(SPEC, memoize=False), [],
                                workdir=tmp_path, shrink=False)
        assert cached and not any(cached)
        assert report.violations == []


class TestShrinkOnCleanSpec:
    def test_unreproducible_divergence_keeps_spec(self, tmp_path):
        spec = StudySpec(scale=0.1, seed=7, cycles=1,
                         snapshots_per_cycle=2)
        config = VerifyConfig(name="no-memo", memoize=False)
        phantom = Divergence(config="no-memo", stage="stats", cycle=1)
        result = shrink_divergence(spec, config, phantom, tmp_path)
        assert result.spec == spec
        assert result.trials >= 1


class TestReproCommand:
    def test_round_trips_spec_fields(self):
        command = repro_command(SPEC, VerifyConfig(name="no-memo"))
        assert "--cycles 2" in command
        assert "--scale 0.2" in command
        assert "--seed 7" in command
        assert "--configs no-memo" in command

    def test_worker_config_carries_worker_count(self):
        command = repro_command(
            SPEC, VerifyConfig(name="workers", workers=4))
        assert "--workers 4" in command


class TestEndStateFingerprint:
    def test_same_spec_same_fingerprint(self, reference_run):
        run, _ = reference_run
        again = run_study(SPEC, workers=1)
        assert state_fingerprint(run.simulator.internet) == \
            state_fingerprint(again.simulator.internet)


class TestConfigNames:
    def test_matrix_names_are_stable(self):
        assert CONFIG_NAMES == (
            "workers", "no-memo", "resume",
            "state-cold", "state-warm", "strict-archive",
            "tolerant-archive")

    def test_parser_choices_name_the_matrix(self):
        # The CLI offers CONFIG_NAMES without loading the oracle; they
        # must name exactly the configurations default_matrix builds.
        assert tuple(config.name for config in default_matrix(workers=3)) \
            == CONFIG_NAMES


class TestVerifyCli:
    def test_defaults(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["verify"])
        assert args.cycles == 4
        assert args.scale == 0.25
        assert args.configs is None

    def test_rejects_unknown_config(self):
        from repro.cli import build_parser
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["verify", "--configs", "warp-drive"])

    def test_rejects_bad_counts(self, capsys):
        assert main(["verify", "--cycles", "0"]) == 2
        assert main(["verify", "--workers", "0"]) == 2
        assert main(["verify", "--snapshots-per-cycle", "0"]) == 2

    def test_clean_subset_exits_zero(self, capsys, tmp_path):
        code = main(["verify", "--cycles", "1", "--scale", "0.2",
                     "--seed", "7", "--snapshots-per-cycle", "2",
                     "--configs", "no-memo", "strict-archive",
                     "--workdir", str(tmp_path)])
        output = capsys.readouterr().out
        assert code == 0
        assert "byte-identical" in output
        assert (tmp_path / "archive-strict").is_dir()

    def test_events_out_restores_the_previous_bus(self, capsys,
                                                  tmp_path):
        before = get_event_bus()
        assert main(["verify", "--cycles", "1", "--scale", "0.2",
                     "--seed", "7", "--snapshots-per-cycle", "2",
                     "--configs", "no-memo",
                     "--events-out", str(tmp_path / "e.jsonl")]) == 0
        assert get_event_bus() is before

    def test_divergence_exits_one_and_reports(self, capsys, tmp_path):
        events_path = tmp_path / "events.jsonl"
        patched = _broken_resolve(DataPlane._resolve_route)
        with mock.patch.object(DataPlane, "_resolve_route", patched):
            code = main(["verify", "--cycles", "2", "--scale", "0.2",
                         "--seed", "7", "--snapshots-per-cycle", "2",
                         "--configs", "no-memo", "--no-shrink",
                         "--events-out", str(events_path)])
        output = capsys.readouterr().out
        assert code == 1
        assert "DIVERGED" in output
        assert main(["report", str(events_path)]) == 0
        report = capsys.readouterr().out
        assert "differential verification" in report
        assert "no-memo" in report
