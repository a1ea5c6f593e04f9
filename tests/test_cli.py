import json
import os

import numpy as np
import pytest

import mvbetti.cli
import mvbetti.engine
from mvbetti.cli import (DataFormatError, build_parser, config_from_args,
                         emit_report, main, parse_input, report_to_dict)
from mvbetti.core import ConsistencyError, PointCloud
from mvbetti.covering import full_box
from mvbetti.engine import BettiReport, JobError, ScaleResult, run
from mvbetti.mayer_vietoris import MVNodeSolver
from mvbetti.reduction import LeafSolver

from conftest import HEX_POINTS

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN = os.path.join(GOLDEN_DIR, "hexagon.json")

# name -> flags; tests/golden/<name>.csv is the input, <name>.json the report.
GOLDEN_REPORTS = {
    "plane_p2": ["--epsilon", "0.25", "--scale-steps", "5", "--grid", "3,3",
                 "--field", "2"],
    "cube_p3": ["--epsilon", "0.45", "--scale-steps", "3", "--grid", "2,2,2",
                "--max-dim", "2", "--field", "3"],
    "ring_p5": ["--epsilon", "0.9", "--scales", "0.3,0.7,0.9", "--grid", "2,2",
                "--field", "5"],
}


def write_hexagon_csv(path, header=True):
    with open(path, "w") as f:
        if header:
            f.write("x,y\n")
        for p in HEX_POINTS:
            f.write(f"{p[0]!r},{p[1]!r}\n")
    return str(path)


HEX_ARGS = ["--epsilon", "1.0", "--scales", "0.5,1.0", "--grid", "2,2",
            "--parallel", "2", "--no-timings"]


class TestParseInput:
    def test_two_points(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("0,0\n1,0\n")
        pc = parse_input(path)
        assert pc.n == 2 and pc.dim == 2

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("x,y\n0,0\n")
        pc = parse_input(path)
        assert pc.n == 1

    def test_ragged_row_line_number(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("0,0\n1\n")
        with pytest.raises(DataFormatError, match="line 2: expected 2 fields"):
            parse_input(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("0,0\n1,abc\n")
        with pytest.raises(DataFormatError, match="line 2"):
            parse_input(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="no data rows"):
            parse_input(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("x,y\n")
        with pytest.raises(DataFormatError):
            parse_input(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("\n0,0\n\n1,1\n\n")
        assert parse_input(path).n == 2

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("0,0\nnan,1\n")
        with pytest.raises(DataFormatError, match="line 2"):
            parse_input(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            parse_input(tmp_path / "nope.csv")

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        pts = rng.random((25, 3))
        cloud = PointCloud(pts)
        path = tmp_path / "rt.csv"
        with open(path, "w") as f:
            for row in cloud.coords:
                f.write(",".join(repr(float(v)) for v in row) + "\n")
        back = parse_input(path)
        assert np.array_equal(back.coords, cloud.coords)


class TestEmitReport:
    def test_key_order_and_values(self, tmp_path):
        pc = PointCloud(HEX_POINTS)
        rep = run(pc, 1.0, [0.5, 1.0], n_max=1, field=2, workers=2, grid=[2, 2])
        obj = report_to_dict(rep)
        assert list(obj.keys()) == ["epsilon", "field", "grid", "scales", "diagnostics"]
        assert list(obj["diagnostics"].keys()) == [
            "leaf_count", "max_leaf_points", "ranks_f", "timings_ms", "warnings"]
        assert obj["scales"][1] == {"scale": 1.0, "betti": [1, 1]}

    def test_empty_scales_serialized(self):
        rep = BettiReport(epsilon=1.0, field=2, grid=[1], scales=[],
                          diagnostics={"leaf_count": 0, "max_leaf_points": 0,
                                       "ranks_f": {}, "timings_ms": {}, "warnings": []})
        obj = json.loads(emit_report(rep))
        assert obj["scales"] == []

    def test_verify_section(self):
        rep = BettiReport(epsilon=1.0, field=2, grid=[1],
                          scales=[ScaleResult(1.0, [1])],
                          diagnostics={"leaf_count": 1, "max_leaf_points": 1,
                                       "ranks_f": {}, "timings_ms": {}, "warnings": []},
                          verify={"pass": True, "mismatches": []})
        obj = json.loads(emit_report(rep))
        assert obj["verify"] == {"pass": True, "mismatches": []}
        assert list(obj.keys())[-1] == "verify"

    def test_writes_file(self, tmp_path):
        rep = BettiReport(epsilon=1.0, field=2, grid=[1],
                          scales=[], diagnostics={"leaf_count": 0,
                                                  "max_leaf_points": 0, "ranks_f": {},
                                                  "timings_ms": {}, "warnings": []})
        out = tmp_path / "r.json"
        emit_report(rep, path=str(out))
        assert json.loads(out.read_text())["epsilon"] == 1.0

    def test_timings_zeroed_when_disabled(self):
        pc = PointCloud(HEX_POINTS)
        rep = run(pc, 1.0, [1.0], n_max=1, field=2, workers=2, grid=[2, 2])
        obj = report_to_dict(rep, timings=False)
        tm = obj["diagnostics"]["timings_ms"]
        assert tm["total_ms"] == 0.0 and tm["covering_ms"] == 0.0


class TestFlags:
    def test_scale_steps_default(self):
        args = build_parser().parse_args(["in.csv", "--epsilon", "2.0"])
        cfg = config_from_args(args)
        assert cfg.scales == [2.0 * (i / 10) for i in range(1, 11)]
        assert cfg.scales[-1] == 2.0

    def test_scales_list(self):
        args = build_parser().parse_args(["in.csv", "--epsilon", "1", "--scales", "0.4,0.2",
                                          "--grid", "3,2"])
        cfg = config_from_args(args)
        assert cfg.scales == [0.2, 0.4] and cfg.grid == [3, 2]

    def test_mutually_exclusive(self):
        from mvbetti.cli import UsageError
        with pytest.raises(UsageError):
            build_parser().parse_args(
                ["in.csv", "--epsilon", "1", "--scales", "0.5", "--scale-steps", "3"])

    @pytest.mark.parametrize("argv", [
        ["in.csv", "--epsilon", "0"],
        ["in.csv", "--epsilon", "1", "--field", "4"],
        ["in.csv", "--epsilon", "1", "--scales", "2.0"],
        ["in.csv", "--epsilon", "1", "--max-dim", "-1"],
        ["in.csv", "--epsilon", "1", "--parallel", "0"],
        ["in.csv", "--epsilon", "1", "--grid", "0"],
        ["in.csv", "--epsilon", "1", "--slack", "-0.1"],
    ])
    def test_config_errors(self, argv):
        from mvbetti.cli import UsageError
        with pytest.raises(UsageError):
            config_from_args(build_parser().parse_args(argv))


class TestMainExitCodes:
    def test_success_stdout(self, tmp_path, capsys):
        csv = write_hexagon_csv(tmp_path / "hex.csv")
        rc = main([csv] + HEX_ARGS)
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["scales"][1]["betti"] == [1, 1]

    def test_duplicate_scale_reported_once(self, tmp_path, capsys):
        csv = write_hexagon_csv(tmp_path / "hex.csv")
        rc = main([csv, "--epsilon", "1.0", "--scales", "0.5,0.5", "--grid", "2,2",
                   "--no-timings"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["scales"] == [{"scale": 0.5, "betti": [6, 0]}]
        assert list(obj["diagnostics"]["ranks_f"]) == ["0.5"]
        assert list(obj["diagnostics"]["timings_ms"]["per_scale"]) == ["0.5"]

    def test_usage_error(self, tmp_path, capsys):
        csv = write_hexagon_csv(tmp_path / "hex.csv")
        assert main([csv, "--epsilon", "-2"]) == 1
        assert main([csv, "--epsilon", "1", "--grid", "2,2,2"]) == 1

    # NaN passes every one-sided range check, and an infinite epsilon would
    # be written to the report as the non-JSON token Infinity.
    @pytest.mark.parametrize("flags", [
        ["--epsilon", "inf"],
        ["--epsilon", "nan"],
        ["--epsilon", "1", "--scales", "nan"],
        ["--epsilon", "1", "--scales", "0.5,inf"],
        ["--epsilon", "1", "--slack", "nan"],
        ["--epsilon", "1", "--slack", "inf"],
    ])
    def test_non_finite_numbers_are_usage_errors(self, tmp_path, capsys, flags):
        csv = write_hexagon_csv(tmp_path / "hex.csv")
        assert main([csv] + flags + ["--no-timings"]) == 1
        out, err = capsys.readouterr()
        # The message names the flag at fault, the last one given.
        assert out == "" and err.startswith(f"error: {flags[-2]} must ")

    # Every flag is checked before the input file is read, so a bad flag
    # with a missing file is a usage error, not a data error.
    @pytest.mark.parametrize("flags", [
        ["--epsilon", "0"],
        ["--epsilon", "1", "--max-dim", "-1"],
        ["--epsilon", "1", "--budget", "0"],
        ["--epsilon", "1", "--scale-steps", "0"],
        ["--epsilon", "1", "--grid", "0"],
        ["--epsilon", "1", "--grid", "2,0"],
        ["--epsilon", "1", "--parallel", "0"],
        ["--epsilon", "1", "--slack", "-0.1"],
        ["--epsilon", "1", "--scales", "0.5,2"],
        ["--epsilon", "1", "--field", "4"],
        ["--epsilon", "1", "--field", "1"],
    ])
    def test_usage_errors_win_over_data_errors(self, tmp_path, capsys, flags):
        assert main([str(tmp_path / "missing.csv")] + flags) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {flags[-2]} must ")

    def test_cells_touching_after_rounding(self, tmp_path, capsys):
        # extent/3 = 0.10000000000000002 > eps, yet cells 0 and 2 meet at
        # 0.30000000000000004.  The automatic grid lowers k to 2; an
        # explicit grid is a usage error naming the axis.
        path = tmp_path / "line.csv"
        path.write_text("0.1\n0.4\n0.4\n")
        args = [str(path), "--epsilon", "0.1", "--scales", "0.1", "--no-timings"]
        assert main(args + ["--parallel", "4"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["grid"] == [2] and obj["scales"][0]["betti"] == [2, 0]
        assert main(args + ["--grid", "3"]) == 1
        assert "too large on axis 0" in capsys.readouterr().err
        # The same at offset 1e12 in 4-D, on axis 1 of grid 1,3,3,3.
        path = tmp_path / "far.csv"
        path.write_text(",".join(["1e12"] * 4) + "\n" + ",".join([repr(1e12 + 0.9)] * 4) + "\n")
        assert main([str(path), "--epsilon", "0.3", "--grid", "1,3,3,3"]) == 1
        assert "too large on axis 1" in capsys.readouterr().err

    def test_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0\n1\n")
        assert main([str(path), "--epsilon", "1"]) == 2

    def test_budget_exceeded(self, tmp_path):
        csv = write_hexagon_csv(tmp_path / "hex.csv")
        assert main([csv, "--epsilon", "1", "--budget", "3"]) == 3

    def test_consistency_error_in_leaf_exits_5(self, tmp_path, capsys, monkeypatch):
        def broken_leaf(*args, **kwargs):
            raise ConsistencyError("injected leaf invariant failure")

        monkeypatch.setattr(mvbetti.engine, "build_leaf", broken_leaf)
        csv = write_hexagon_csv(tmp_path / "hex.csv")
        assert main([csv] + HEX_ARGS) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "injected leaf invariant failure" in err
        assert "Traceback" not in err

    def test_consistency_error_in_assembly_exits_5(self, tmp_path, capsys, monkeypatch):
        def broken_assemble(*args, **kwargs):
            raise ConsistencyError("injected assembly invariant failure")

        monkeypatch.setattr(mvbetti.engine, "assemble", broken_assemble)
        csv = write_hexagon_csv(tmp_path / "hex.csv")
        assert main([csv] + HEX_ARGS) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: job for box")
        assert "injected assembly invariant failure" in err
        assert "Traceback" not in err

    def test_broken_lift_is_reported_under_the_node_that_reads_it(self, tmp_path, capsys,
                                                                   monkeypatch):
        # A loop inside the overlap strip of axis 0 that crosses the split of
        # axis 1: the overlap node holds it as a kernel class of its f_0, and
        # the root reads that connecting lift when it builds f_1.
        ys = [1.5 + 0.5 * j for j in range(9)]
        pts = ([[0.0, 0.0], [6.0, 6.0], [3.5, 1.2], [3.5, 5.8]]
               + [[3.05, y] for y in ys] + [[3.95, y] for y in ys])
        path = tmp_path / "loop.csv"
        path.write_text("".join(f"{x!r},{y!r}\n" for x, y in pts))
        args = [str(path), "--epsilon", "1.0", "--scales", "0.6", "--grid", "2,2",
                "--field", "3", "--no-timings"]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["scales"][0]["betti"] == [3, 1]

        monkeypatch.setattr(LeafSolver, "bound", lambda self, z, n: None)
        with pytest.raises(JobError, match="kernel difference chain fails to bound") as ei:
            run(np.array(pts), 1.0, [0.6], n_max=1, field=3, workers=1, grid=[2, 2])
        assert ei.value.box == full_box(2)
        assert main(args) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: job for box") and "kernel difference chain" in err

    def test_bare_consistency_error_exits_5(self, tmp_path, capsys, monkeypatch):
        def broken_run(*args, **kwargs):
            raise ConsistencyError("injected covering invariant failure")

        monkeypatch.setattr(mvbetti.cli, "run", broken_run)
        csv = write_hexagon_csv(tmp_path / "hex.csv")
        assert main([csv] + HEX_ARGS) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "injected covering invariant failure" in err

    def test_other_job_failure_exits_6(self, tmp_path, capsys, monkeypatch):
        def broken_leaf(*args, **kwargs):
            raise RuntimeError("injected leaf crash")

        monkeypatch.setattr(mvbetti.engine, "build_leaf", broken_leaf)
        csv = write_hexagon_csv(tmp_path / "hex.csv")
        assert main([csv] + HEX_ARGS) == 6
        err = capsys.readouterr().err
        assert err.startswith("error: job for box") and "injected leaf crash" in err

    def test_verify_pass_and_mismatch(self, tmp_path, capsys, monkeypatch):
        csv = write_hexagon_csv(tmp_path / "hex.csv")
        assert main([csv] + HEX_ARGS + ["--verify"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["verify"]["pass"] is True

        real = MVNodeSolver.betti_all
        monkeypatch.setattr(MVNodeSolver, "betti_all",
                            lambda self: [v + 1 for v in real(self)])
        assert main([csv] + HEX_ARGS + ["--verify"]) == 4

    def test_verify_infeasible_budget(self, tmp_path):
        # Budget passes for the tiny decomposed leaves but the global oracle
        # needs the whole complex at once.
        path = tmp_path / "line.csv"
        with open(path, "w") as f:
            for i in range(40):
                f.write(f"{i * 0.5},0\n")
        rc = main([str(path), "--epsilon", "1.0", "--scales", "1.0",
                   "--budget", "60", "--verify"])
        assert rc == 3

    def test_output_file(self, tmp_path):
        csv = write_hexagon_csv(tmp_path / "hex.csv")
        out = tmp_path / "report.json"
        rc = main([csv] + HEX_ARGS + ["--output", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["grid"] == [2, 2]


class TestGolden:
    def test_hexagon_report_bytes_stable(self, tmp_path):
        csv = write_hexagon_csv(tmp_path / "hex.csv")
        outs = []
        for workers in ("1", "4"):
            out = tmp_path / f"r{workers}.json"
            rc = main([csv, "--epsilon", "1.0", "--scales", "0.5,1.0",
                       "--grid", "2,2", "--parallel", workers, "--no-timings",
                       "--verify", "--output", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        with open(GOLDEN, "rb") as f:
            assert outs[0] == f.read()

    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_report_bytes_match_golden(self, name, tmp_path):
        out = tmp_path / "report.json"
        rc = main([os.path.join(GOLDEN_DIR, f"{name}.csv")] + GOLDEN_REPORTS[name]
                  + ["--parallel", "2", "--no-timings", "--verify", "--output", str(out)])
        assert rc == 0
        with open(os.path.join(GOLDEN_DIR, f"{name}.json"), "rb") as f:
            assert out.read_bytes() == f.read()
