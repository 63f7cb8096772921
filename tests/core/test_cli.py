"""CLI tests (argument wiring and the cheap subcommands)."""

import json

import pytest

import repro.cli as cli
from repro.cli import build_parser, main
from repro.runtime.metrics import COUNTERS, EVENT_KINDS, TraceEvent


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
        assert args.quorum == 0.5  # a dot makes it a fraction
        assert args.normal is True
        args = build_parser().parse_args(["fleet"])
        assert args.monitors is None
        assert args.quorum == 1 and isinstance(args.quorum, int)
        assert args.classifier == "c45"
        assert args.task_retries == 2

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


#: The parent printer's line for each kind, given the label ``lbl{x}`` and
#: 12.345 seconds; ``""`` means the kind prints nothing.
PROGRESS_LINES = {
    "cache_hit": "  [cache]  lbl{x}\n",
    "cache_miss": "",
    "simulated": "  [sim]    lbl{x}  (12.3s)\n",
    "evicted": "",
    "fallback": "  [runtime] lbl{x}\n",
    "retry": "  [retry]  lbl{x}\n",
    "timeout": "  [timeout] lbl{x}  (limit 12s)\n",
    "requeue": "",
    "respawn": "  [runtime] lbl{x}\n",
    "resumed": "  [resume] lbl{x}\n",
    "task_failed": "  [runtime] lbl{x}\n",
    "pool_failed": "  [runtime] lbl{x}\n",
    "cache_write_failed": "  [runtime] lbl{x}\n",
    "cache_off": "  [runtime] lbl{x}\n",
    "alarm": "  [ALARM]  lbl{x}\n",
    "fused_alarm": "  [FUSED]  lbl{x}\n",
    "verdict": "",
    "fleet_batch": "",
    "stream_fault": "  [FAULT]  lbl{x}\n",
    "lane_sealed": "  [SEAL]   lbl{x}\n",
    "duplicate_seal": "  [SEAL]   lbl{x} (duplicate, no-op)\n",
    "checkpoint": "  [CKPT]   saved lbl{x}\n",
    "restore": "  [CKPT]   restored lbl{x}\n",
    "stage": "",
}


class TestProgressLines:
    def test_every_kind_is_pinned(self):
        assert set(PROGRESS_LINES) == set(EVENT_KINDS)

    @pytest.mark.parametrize("kind", sorted(PROGRESS_LINES))
    def test_line_is_unchanged(self, kind, capsys):
        cli._progress_printer(TraceEvent(kind, "lbl{x}", 12.345))
        assert capsys.readouterr().out == PROGRESS_LINES[kind]


SMALL = ["--nodes", "6", "--duration", "120", "--connections", "5", "--no-cache"]


class TestBenchDump:
    def test_dump_holds_every_counter(self, tmp_path, monkeypatch, capsys):
        sessions = []
        build = cli._build_session

        def capture(args):
            sessions.append(build(args))
            return sessions[-1]

        monkeypatch.setattr(cli, "_build_session", capture)
        path = tmp_path / "m.json"
        assert main(["simulate", *SMALL, "--bench", str(path)]) == 0
        dump = json.loads(path.read_text())
        metrics = sessions[0].metrics
        assert set(dump) == {*COUNTERS, "fleet_windows", "stage_seconds",
                             "trace_seconds", "summary"}
        assert {name: dump[name] for name in COUNTERS} == \
               {name: getattr(metrics, name) for name in COUNTERS}
        assert dump["simulations"] == 1 and dump["summary"] == metrics.summary()
        assert "[sim]    scenario[1]" in capsys.readouterr().out


#: (argv, the name its one-line usage error must carry).
BAD_CLI_VALUES = [
    (["detect", *SMALL, "--jobs", "0"], "jobs"),
    (["detect", *SMALL, "--jobs", "2", "--task-timeout", "nan"], "task_timeout"),
    (["detect", "--nodes", "1", "--no-cache"], "n_nodes"),
    (["simulate", "--duration", "-1", "--no-cache"], "duration"),
    (["fleet", *SMALL, "--quorum", "abc"], "quorum"),
    (["fleet", *SMALL, "--quorum", "0"], "quorum"),
    (["fleet", *SMALL, "--monitors", "0"], "--monitors"),
    (["stream", *SMALL, "--checkpoint-every", "0"], "--checkpoint-every"),
    # Only simulate reads a scenario seed; the plan commands pin theirs.
    (["detect", *SMALL, "--seed", "3"], "--seed"),
]


class TestUsageErrors:
    @pytest.mark.parametrize("argv, name", BAD_CLI_VALUES)
    def test_bad_value_is_a_usage_error(self, argv, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error:" in err.splitlines()[-1] and name in err.splitlines()[-1]
