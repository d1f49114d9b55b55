"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import get_event_bus


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    """A small simulated campaign written to disk once."""
    out = tmp_path_factory.mktemp("campaign")
    code = main(["simulate", "--cycles", "1", "--first-cycle", "30",
                 "--scale", "0.4", "--out", str(out)])
    assert code == 0
    return out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--artifacts", "fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.cycles == 60
        assert args.artifacts == ["table1", "fig7"]


class TestSimulate:
    def test_outputs_archives_and_table(self, campaign_dir):
        cycle_dir = campaign_dir / "cycle-30"
        snapshots = sorted(cycle_dir.glob("snapshot-*.rwts"))
        assert len(snapshots) == 3
        assert (campaign_dir / "pfx2as.txt").exists()
        assert snapshots[0].stat().st_size > 100


class TestShow:
    def test_prints_traces(self, campaign_dir, capsys):
        archive = campaign_dir / "cycle-30" / "snapshot-0.rwts"
        assert main(["show", "--archive", str(archive),
                     "--limit", "2"]) == 0
        output = capsys.readouterr().out
        assert "traceroute from" in output
        assert "2 of" in output

    def test_mpls_only_filter(self, campaign_dir, capsys):
        archive = campaign_dir / "cycle-30" / "snapshot-0.rwts"
        assert main(["show", "--archive", str(archive),
                     "--limit", "1", "--mpls-only"]) == 0
        assert "MPLS" in capsys.readouterr().out

    def test_limit_zero_prints_no_trace(self, campaign_dir, capsys):
        archive = campaign_dir / "cycle-30" / "snapshot-0.rwts"
        assert main(["show", "--archive", str(archive),
                     "--limit", "0"]) == 0
        output = capsys.readouterr().out
        assert "traceroute from" not in output
        assert output.startswith("(0 of ")

    def test_negative_limit_rejected(self, campaign_dir, capsys):
        archive = campaign_dir / "cycle-30" / "snapshot-0.rwts"
        assert main(["show", "--archive", str(archive),
                     "--limit", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--limit" in captured.err
        assert captured.out == ""


class TestClassify:
    def test_full_report(self, campaign_dir, capsys):
        cycle_dir = campaign_dir / "cycle-30"
        assert main(["classify", "--cycle-dir", str(cycle_dir)]) == 0
        output = capsys.readouterr().out
        assert "transit diversity" in output
        assert "mono-lsp" in output

    def test_missing_directory(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["classify", "--cycle-dir", str(empty)]) == 1

    def test_php_heuristic_flag_accepted(self, campaign_dir):
        cycle_dir = campaign_dir / "cycle-30"
        assert main(["classify", "--cycle-dir", str(cycle_dir),
                     "--php-heuristic"]) == 0

    def test_negative_persistence_window_rejected(self, campaign_dir,
                                                  capsys):
        cycle_dir = campaign_dir / "cycle-30"
        assert main(["classify", "--cycle-dir", str(cycle_dir),
                     "--persistence-window", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == \
            "--persistence-window must be >= 0, got -1"
        assert captured.out == ""


class TestStudy:
    def test_regenerates_requested_artifacts(self, capsys):
        code = main(["study", "--cycles", "4", "--scale", "0.4",
                     "--artifacts", "table1", "fig7"])
        assert code == 0
        output = capsys.readouterr().out
        assert "== table1 ==" in output
        assert "== fig7 ==" in output

    @pytest.mark.parametrize("cycles", ["0", "-2"])
    def test_nonpositive_cycles_rejected(self, cycles, capsys):
        assert main(["study", "--cycles", cycles, "--scale", "0.1",
                     "--artifacts", "table1"]) == 2
        captured = capsys.readouterr()
        assert f"--cycles must be >= 1, got {cycles}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", [
        ["study", "--cycles", "1", "--artifacts", "table1"],
        ["simulate", "--cycles", "1"],
        ["verify", "--cycles", "1"],
    ])
    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_bad_scale_rejected(self, command, scale, tmp_path, capsys):
        extra = (["--out", str(tmp_path / "out")]
                 if command[0] == "simulate" else [])
        assert main(command + ["--scale", scale] + extra) == 2
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [
            f"--scale must be a finite number > 0, "
            f"got {float(scale)}"]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cycles", [0, -2])
    def test_api_rejects_nonpositive_cycles(self, cycles):
        from repro.analysis import run_longitudinal_study

        with pytest.raises(ValueError, match="at least 1 cycle"):
            run_longitudinal_study(scale=0.1, cycles=cycles)


class TestObservabilityFlags:
    def test_metrics_out_writes_valid_json(self, campaign_dir,
                                           tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main(["--metrics-out", str(metrics_path),
                     "classify",
                     "--cycle-dir", str(campaign_dir / "cycle-30")]) == 0
        capsys.readouterr()
        payload = json.loads(metrics_path.read_text(encoding="utf-8"))
        metrics = payload["metrics"]
        assert metrics["pipeline_cycles_total"]["values"][0]["value"] >= 1
        drops = {entry["labels"]["filter"]: entry["value"]
                 for entry in metrics["lsps_dropped_total"]["values"]}
        assert set(drops) <= {"incomplete", "intra_as", "target_as",
                              "transit_diversity", "persistence"}

    def test_log_level_emits_structured_lines(self, campaign_dir,
                                              capsys):
        assert main(["--log-level", "info", "classify",
                     "--cycle-dir", str(campaign_dir / "cycle-30")]) == 0
        lines = capsys.readouterr().err.splitlines()
        # The pipeline's cycle.done event, logged by the bus sink.
        assert any(" INFO    cycle.done cycle=30 " in line
                   for line in lines)

    def test_log_json_emits_json_lines(self, campaign_dir, capsys):
        assert main(["--log-level", "info", "--log-json", "classify",
                     "--cycle-dir", str(campaign_dir / "cycle-30")]) == 0
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("{")]
        assert lines
        records = [json.loads(line) for line in lines]
        assert {"ts", "level", "event", "seq"} <= set(records[0])
        assert any(record["event"] == "cycle.done"
                   and record["level"] == "info"
                   and record["cycle"] == 30 for record in records)

    def test_study_profile_prints_stage_table(self, capsys):
        code = main(["study", "--cycles", "2", "--scale", "0.4",
                     "--artifacts", "table1", "--profile"])
        assert code == 0
        output = capsys.readouterr().out
        assert "span" in output
        assert "pipeline.filters" in output
        assert "sim.cycle" in output
        assert "sim.control" in output

    def test_classify_shares_come_from_counts(self, campaign_dir,
                                              capsys):
        assert main(["classify",
                     "--cycle-dir", str(campaign_dir / "cycle-30")]) == 0
        output = capsys.readouterr().out
        class_rows = [line.split() for line in output.splitlines()
                      if line.startswith(("mono-", "multi-",
                                          "unclassified"))]
        total = sum(int(row[1]) for row in class_rows)
        for row in class_rows:
            assert float(row[2]) == pytest.approx(
                int(row[1]) / total, abs=0.005)

    def test_classify_missing_pfx2as(self, tmp_path, campaign_dir,
                                     capsys):
        orphan = tmp_path / "cycle-99"
        orphan.mkdir()
        source = campaign_dir / "cycle-30"
        for snapshot in source.glob("snapshot-*.rwts"):
            (orphan / snapshot.name).write_bytes(
                snapshot.read_bytes())
        assert main(["classify", "--cycle-dir", str(orphan)]) == 1
        assert "missing" in capsys.readouterr().err


@pytest.fixture
def corrupt_cycle(tmp_path, campaign_dir):
    """A copy of cycle 30 whose primary snapshot is cut mid-record."""
    cycle_dir = tmp_path / "corrupt" / "cycle-30"
    cycle_dir.mkdir(parents=True)
    (cycle_dir.parent / "pfx2as.txt").write_bytes(
        (campaign_dir / "pfx2as.txt").read_bytes())
    for snapshot in (campaign_dir / "cycle-30").glob("snapshot-*.rwts"):
        data = snapshot.read_bytes()
        if snapshot.name == "snapshot-0.rwts":
            data = data[:-7]
        (cycle_dir / snapshot.name).write_bytes(data)
    return cycle_dir


class TestCorruptArchive:
    """A strict read of a corrupt archive fails on one line, exit 1."""

    def test_show(self, corrupt_cycle, capsys):
        archive = corrupt_cycle / "snapshot-0.rwts"
        assert main(["show", "--archive", str(archive)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"{archive}: truncated record body "
                                f"(rerun with --tolerant to salvage)\n")
        assert captured.out == ""

    def test_show_tolerant_salvages(self, corrupt_cycle, capsys):
        archive = corrupt_cycle / "snapshot-0.rwts"
        assert main(["show", "--archive", str(archive), "--limit", "1",
                     "--tolerant"]) == 0
        assert "truncated_body=1" in capsys.readouterr().err

    def test_show_missing_file(self, tmp_path, capsys):
        assert main(["show", "--archive",
                     str(tmp_path / "absent.rwts")]) == 1
        assert "absent.rwts" in capsys.readouterr().err

    def test_classify(self, corrupt_cycle, capsys):
        assert main(["classify", "--cycle-dir", str(corrupt_cycle)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"{corrupt_cycle / 'snapshot-0.rwts'}: truncated record "
            f"body (rerun with --tolerant to salvage)"]

    def test_classify_bad_header_even_when_tolerant(self, corrupt_cycle,
                                                    capsys):
        archive = corrupt_cycle / "snapshot-1.rwts"
        archive.write_bytes(b"JUNK" + archive.read_bytes()[4:])
        assert main(["classify", "--cycle-dir", str(corrupt_cycle),
                     "--tolerant"]) == 1
        # Snapshot 0 was salvaged (a logged skip); snapshot 1 aborts.
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == \
            f"{archive}: not a warts-like archive (bad magic)"

    def test_audit_has_no_tolerant_hint(self, corrupt_cycle, capsys):
        assert main(["audit", "--cycle-dir", str(corrupt_cycle)]) == 1
        assert capsys.readouterr().err == (
            f"{corrupt_cycle / 'snapshot-0.rwts'}: "
            f"truncated record body\n")


class TestFlightRecorderFlags:
    def test_parser_accepts_telemetry_flags(self):
        args = build_parser().parse_args(
            ["study", "--progress", "--events-out", "e.jsonl",
             "--trace-out", "t.json"])
        assert args.progress is True
        assert str(args.events_out) == "e.jsonl"
        assert str(args.trace_out) == "t.json"

    def test_study_writes_all_artifacts(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        trace = tmp_path / "trace.json"
        code = main(["study", "--cycles", "1", "--scale", "0.25",
                     "--seed", "7", "--artifacts", "table1",
                     "--progress", "--events-out", str(events),
                     "--trace-out", str(trace)])
        assert code == 0
        captured = capsys.readouterr()
        assert "cycles 1/1 (100%)" in captured.err
        assert "eta" in captured.err
        lines = [json.loads(line)
                 for line in events.read_text().splitlines()]
        assert lines[0]["kind"] == "study.start"
        assert lines[-1]["kind"] == "study.done"
        assert all("ts" in line for line in lines)  # timed run
        payload = json.loads(trace.read_text())
        assert any(event["name"] == "study.run"
                   for event in payload["traceEvents"])

    def test_bare_events_out_is_untimed(self, tmp_path):
        events = tmp_path / "events.jsonl"
        code = main(["study", "--cycles", "1", "--scale", "0.25",
                     "--seed", "7", "--artifacts", "table1",
                     "--events-out", str(events)])
        assert code == 0
        lines = [json.loads(line)
                 for line in events.read_text().splitlines()]
        assert lines
        assert all("ts" not in line for line in lines)

    def test_events_out_restores_the_previous_bus(self, tmp_path):
        before = get_event_bus()
        assert main(["study", "--cycles", "1", "--scale", "0.25",
                     "--seed", "7", "--artifacts", "table1",
                     "--events-out", str(tmp_path / "e.jsonl")]) == 0
        assert get_event_bus() is before

    def test_report_roundtrip(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        trace = tmp_path / "trace.json"
        assert main(["study", "--cycles", "1", "--scale", "0.25",
                     "--seed", "7", "--artifacts", "table1",
                     "--events-out", str(events),
                     "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", str(events),
                     "--trace", str(trace)]) == 0
        output = capsys.readouterr().out
        assert "== study ==" in output
        assert "completed: 1 cycle results" in output
        assert "== per-stage time (from trace) ==" in output

    def test_report_missing_file_fails(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot build report" in capsys.readouterr().err

    def test_report_corrupt_trace_fails(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text('{"seq": 1, "kind": "study.start"}\n')
        trace = tmp_path / "trace.json"
        trace.write_text('{"not": "a trace"}')
        assert main(["report", str(events),
                     "--trace", str(trace)]) == 1
        assert "cannot build report" in capsys.readouterr().err


class TestLiveTelemetryFlags:
    def test_parser_accepts_telemetry_plane_flags(self):
        args = build_parser().parse_args(
            ["study", "--serve-telemetry", "127.0.0.1:9464",
             "--stall-timeout", "120"])
        assert args.serve_telemetry == "127.0.0.1:9464"
        assert args.stall_timeout == 120.0

    def test_telemetry_flags_default_off(self):
        args = build_parser().parse_args(["study"])
        assert args.serve_telemetry is None
        assert args.stall_timeout is None

    def test_bad_endpoint_is_rejected(self, capsys):
        assert main(["study", "--cycles", "1", "--scale", "0.25",
                     "--seed", "7", "--artifacts", "table1",
                     "--serve-telemetry", "notaport"]) == 2
        assert "--serve-telemetry" in capsys.readouterr().err

    def test_nonpositive_stall_timeout_is_rejected(self, capsys):
        assert main(["study", "--cycles", "1", "--scale", "0.25",
                     "--seed", "7", "--artifacts", "table1",
                     "--stall-timeout", "0"]) == 2
        assert "--stall-timeout" in capsys.readouterr().err

    def test_study_serves_telemetry_on_ephemeral_port(self, capsys):
        code = main(["study", "--cycles", "1", "--scale", "0.25",
                     "--seed", "7", "--artifacts", "table1",
                     "--serve-telemetry", "127.0.0.1:0"])
        assert code == 0
        assert "telemetry: listening on http://127.0.0.1:" \
            in capsys.readouterr().err

    def test_report_format_json_roundtrip(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        assert main(["study", "--cycles", "1", "--scale", "0.25",
                     "--seed", "7", "--artifacts", "table1",
                     "--events-out", str(events)]) == 0
        capsys.readouterr()
        assert main(["report", str(events),
                     "--format", "json"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["study"]["completed"] is True
        assert decoded["study"]["cycles"] == 1
        assert "caches" in decoded

    def test_report_format_text_is_the_default(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        assert main(["study", "--cycles", "1", "--scale", "0.25",
                     "--seed", "7", "--artifacts", "table1",
                     "--events-out", str(events)]) == 0
        capsys.readouterr()
        assert main(["report", str(events)]) == 0
        assert "== study ==" in capsys.readouterr().out


class TestAudit:
    def test_per_as_report(self, campaign_dir, capsys):
        cycle_dir = campaign_dir / "cycle-30"
        assert main(["audit", "--cycle-dir", str(cycle_dir),
                     "--limit", "3"]) == 0
        output = capsys.readouterr().out
        assert "IOTPs across" in output
        assert "classes:" in output

    def test_missing_dir(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["audit", "--cycle-dir", str(empty)]) == 1

    def test_negative_limit_rejected(self, campaign_dir, capsys):
        cycle_dir = campaign_dir / "cycle-30"
        assert main(["audit", "--cycle-dir", str(cycle_dir),
                     "--limit", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--limit must be >= 0, got -1" in captured.err
        assert captured.out == ""


class TestAuditCycleNumber:
    def test_report_carries_the_directory_cycle(self, campaign_dir,
                                                capsys):
        cycle_dir = campaign_dir / "cycle-30"
        assert main(["audit", "--cycle-dir", str(cycle_dir)]) == 0
        output = capsys.readouterr().out
        assert "cycle 30:" in output
        assert "cycle 0:" not in output

    def test_unparseable_directory_falls_back_to_zero(self):
        from pathlib import Path

        from repro.cli import _cycle_number

        assert _cycle_number(Path("/tmp/campaign/cycle-07")) == 7
        assert _cycle_number(Path("/tmp/campaign/snapshots")) == 0
        assert _cycle_number(Path("/tmp/campaign/cycle-x")) == 0


class TestBackoffBaseFlag:
    def test_default(self):
        args = build_parser().parse_args(["study"])
        assert args.backoff_base == 0.5

    def test_negative_rejected_before_any_work(self, capsys):
        code = main(["study", "--backoff-base", "-0.5",
                     "--cycles", "1", "--scale", "0.1"])
        assert code == 2
        assert "--backoff-base" in capsys.readouterr().err

    def test_run_study_guards_negative_backoff(self):
        import pytest as _pytest

        from repro.par import StudySpec, run_study

        spec = StudySpec(scale=0.1, seed=1, cycles=1,
                         snapshots_per_cycle=2)
        with _pytest.raises(ValueError, match="backoff_base"):
            run_study(spec, backoff_base=-1.0)
