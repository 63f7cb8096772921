"""CLI tests (argument wiring and the cheap subcommands)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.protocol == "aodv"
        assert args.transport == "udp"
        assert args.duration == 1000.0

    def test_detect_arguments(self):
        args = build_parser().parse_args(
            ["detect", "--protocol", "dsr", "--classifier", "ripper",
             "--attack", "blackhole", "--method", "avg_probability"]
        )
        assert args.protocol == "dsr"
        assert args.classifier == "ripper"
        assert args.attack == "blackhole"
        assert args.method == "avg_probability"

    def test_fleet_arguments(self):
        args = build_parser().parse_args(
            ["fleet", "--monitors", "4", "--quorum", "0.5", "--normal"]
        )
        assert args.monitors == 4
        assert args.quorum == "0.5"  # parsed int-vs-fraction in cmd_fleet
        assert args.normal is True
        args = build_parser().parse_args(["fleet"])
        assert args.monitors is None
        assert args.quorum == "1"
        assert args.classifier == "c45"

    def test_bench_subcommand_removed(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--suite", "fleet", "--quick"])

    def test_unknown_classifier_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect", "--classifier", "svm"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_illustrate_runs(self, capsys):
        assert main(["illustrate"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "alg3_false_alarms" in out

    def test_simulate_runs_small(self, capsys):
        code = main(["simulate", "--nodes", "8", "--duration", "100",
                     "--connections", "10", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "delivery ratio" in out
