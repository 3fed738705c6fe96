"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sort_defaults(self):
        args = build_parser().parse_args(["sort"])
        assert args.algorithm == "coded"
        assert args.nodes == 6 and args.redundancy == 2
        assert args.schedule == "parallel"

    def test_sort_schedule_choices(self):
        for schedule in ("serial", "parallel"):
            args = build_parser().parse_args(["sort", "--schedule", schedule])
            assert args.schedule == schedule
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--schedule", "warp"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_sort_coded(self, capsys):
        rc = main(["sort", "-K", "4", "-r", "2", "-n", "2000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "output valid" in out
        assert "shuffle payload" in out

    def test_sort_terasort(self, capsys):
        rc = main(["sort", "--algorithm", "terasort", "-K", "3", "-n", "1500"])
        assert rc == 0
        assert "output valid" in capsys.readouterr().out

    def test_sort_coded_parallel_schedule(self, capsys):
        rc = main(["sort", "-K", "4", "-r", "2", "-n", "2000",
                   "--schedule", "parallel"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "output valid" in out
        assert "rounds" in out  # turns-into-rounds summary line

    def test_simulate(self, capsys):
        rc = main(["simulate", "-K", "8", "-r", "3", "-n", "1000000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "codegen" in out and "total" in out

    def test_simulate_terasort(self, capsys):
        rc = main(["simulate", "--algorithm", "terasort", "-K", "8",
                   "-n", "1000000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "shuffle" in out

    def test_theory(self, capsys):
        rc = main(["theory", "-K", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "L_CMR" in out

    def test_theory_with_times(self, capsys):
        rc = main([
            "theory", "-K", "16", "--t-map", "1.86",
            "--t-shuffle", "945.72", "--t-reduce", "10.47",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "r* = 16" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "EXP.md"
        rc = main(["report", "--fast", "-o", str(target)])
        assert rc == 0
        content = target.read_text()
        assert "Table II" in content
        assert "Fig. 2" in content

    def test_stragglers(self, capsys):
        rc = main(["stragglers", "-t", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "coded" in out and "saving" in out

    def test_scalable(self, capsys):
        rc = main(["scalable", "-K", "8", "-g", "4", "-r", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Grouped g=4" in out and "CodeGen" in out

    def test_wireless(self, capsys):
        rc = main(["wireless", "-K", "4", "-r", "2", "-n", "3000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "d2d" in out and "uncoded" in out


class TestModelInputs:
    @pytest.mark.parametrize("argv,field", [
        (["simulate", "--algorithm", "terasort", "-K", "0"], "num_nodes"),
        (["simulate", "--algorithm", "terasort", "-n", "-1"], "n_records"),
        (["simulate", "-n", "-1"], "n_records"),
        (["simulate", "-K", "16", "-r", "16"], "redundancy"),
        (["scalable", "-K", "20", "-g", "7", "-r", "5"], "group_size"),
        (["wireless", "-K", "4", "-r", "5"], "redundancy"),
        (["wireless", "-n", "-5"], "n_records"),
        (["theory", "-K", "0"], "num_nodes"),
        (["gen", "--records", "-1", "--out", "{tmp}/x.bin"], "count"),
    ])
    def test_out_of_range_inputs_exit_by_name(self, argv, field, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([arg.format(tmp=tmp_path) for arg in argv])
        assert field in str(exc.value.code)
        assert not list(tmp_path.iterdir())  # nothing written
