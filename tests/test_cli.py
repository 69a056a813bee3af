"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_arguments(self):
        args = build_parser().parse_args(
            ["figures", "--figure", "fig4", "--scale", "tiny"]
        )
        assert args.figure == "fig4"
        assert args.scale == "tiny"

    def test_invalid_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--figure", "fig99"])

    def test_seed_option(self):
        args = build_parser().parse_args(["--seed", "9", "solvers"])
        assert args.seed == 9


class TestCommands:
    def test_solvers_command_runs(self, capsys):
        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        assert "hungarian" in out

    def test_sweep_epsilon_command_runs(self, capsys):
        assert main(["sweep-epsilon"]) == 0
        assert "optimality" in capsys.readouterr().out

    def test_figures_single_tiny(self, capsys):
        assert main(["figures", "--figure", "fig2", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "shape checks" in out

    def test_trace_record_traces_bench_config_as_is(self, tmp_path, capsys):
        """``trace record`` spans equal a direct traced loop at R=4."""
        from repro.obs import MemoryTraceSink, canonical_line, load_trace
        from repro.p2p.config import SystemConfig
        from repro.p2p.system import P2PSystem

        out = tmp_path / "trace.jsonl"
        argv = ["--seed", "3", "trace", "record", str(out),
                "--peers", "40", "--slots", "2"]
        assert main(argv) == 0
        assert "wrote 2 slot spans" in capsys.readouterr().out

        config = SystemConfig.bench(seed=3)
        assert config.bid_rounds_per_slot == 4
        system = P2PSystem(config)
        system.populate_static(40)
        tracer = system.attach_tracer(MemoryTraceSink())
        for _ in range(2):
            system.run_slot()
        expected = [canonical_line(r) for r in tracer.records()]
        assert [canonical_line(r) for r in load_trace(out)] == expected
