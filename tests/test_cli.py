"""CLI subcommands: exit codes, deterministic output, atomic files."""

import json
import os
import re
import subprocess
import sys
from unittest import mock

import pytest

from isoprof import ZdGroup, build_torus_action, cube_tile, multitile_to_json
from isoprof.cli import main

HEADER = re.compile(r"^# isoprof 0\.1\.0 config=[0-9a-f]{12}$")


def interval_tile_json(k):
    return json.dumps(multitile_to_json(cube_tile(ZdGroup(1), k)))


def torus_json(tmp_path, d, m):
    path = tmp_path / f"torus_{d}_{m}.json"
    path.write_text(json.dumps(build_torus_action(d, m).to_json()))
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    assert HEADER.match(lines[0])
    cols = lines[1].split(",")
    return [dict(zip(cols, line.split(","))) for line in lines[2:]]


class TestProfileGroup:
    def test_z_profile_table(self, tmp_path):
        out = tmp_path / "z.csv"
        code = main(["profile-group", "--group", '{"kind": "Zd", "d": 1}',
                     "--n-max", "6", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert [(r["n"], r["numerator"], r["denominator"]) for r in rows] == [
            ("1", "1", "1"), ("2", "1", "1"), ("3", "2", "3"),
            ("4", "1", "2"), ("5", "2", "5"), ("6", "1", "3"),
        ]
        assert all(r["witness"] for r in rows)

    def test_output_is_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["profile-group", "--group", '{"kind": "Zd", "d": 2}',
                "--n-max", "4"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_matches_the_file(self, tmp_path, capsys):
        out = tmp_path / "z.csv"
        argv = ["profile-group", "--group", '{"kind": "Zd", "d": 1}', "--n-max", "4"]
        assert main(argv + ["--out", str(out)]) == 0
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_config_digest_tracks_parameters(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["profile-group", "--group", '{"kind": "Zd", "d": 1}',
              "--n-max", "3", "--out", str(a)])
        main(["profile-group", "--group", '{"kind": "Zd", "d": 1}',
              "--n-max", "4", "--out", str(b)])
        header = lambda p: p.read_text().splitlines()[0]
        assert header(a) != header(b)

    def test_decimal_column(self, tmp_path):
        out = tmp_path / "z.csv"
        main(["profile-group", "--group", '{"kind": "Zd", "d": 1}',
              "--n-max", "3", "--decimal", "--out", str(out)])
        rows = read_rows(out)
        assert rows[2]["decimal"] == "0.666666666667"

    def test_search_cap_reports_budget_exit(self, tmp_path):
        out = tmp_path / "z.csv"
        code = main(["profile-group", "--group", '{"kind": "Zd", "d": 1}',
                     "--n-max", "12", "--out", str(out)])
        assert code == 3
        assert len(read_rows(out)) == 10  # complete points are still written

    def test_node_budget_env_aborts_without_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ISOPROF_NODE_BUDGET", "50")
        out = tmp_path / "z.csv"
        code = main(["profile-group", "--group", '{"kind": "Zd", "d": 2}',
                     "--n-max", "6", "--out", str(out)])
        assert code == 3
        assert "budget exhausted" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_leaves_the_directory_unchanged(self, tmp_path, monkeypatch):
        stale = tmp_path / "z.csv.tmp"
        stale.write_text("someone else's file")
        monkeypatch.setattr(os, "replace", mock.Mock(side_effect=OSError("refused")))
        with pytest.raises(OSError, match="refused"):
            main(["profile-group", "--group", '{"kind": "Zd", "d": 1}',
                  "--n-max", "3", "--out", str(tmp_path / "z.csv")])
        assert list(tmp_path.iterdir()) == [stale]
        assert stale.read_text() == "someone else's file"

    def test_bad_inputs_exit_2(self, tmp_path, capsys):
        assert main(["profile-group", "--group", '{"kind": "nope"}',
                     "--n-max", "3"]) == 2
        assert main(["profile-group", "--group", "{broken",
                     "--n-max", "3"]) == 2
        assert main(["profile-group", "--group", str(tmp_path / "missing.json"),
                     "--n-max", "3"]) == 2
        assert main(["profile-group", "--group", '{"kind": "Zd", "d": "x"}',
                     "--n-max", "3"]) == 2
        assert "error: Zd needs an integer field 'd'" in capsys.readouterr().err

    def test_argparse_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile-group", "--group", '{"kind": "Zd", "d": 1}'])
        assert exc.value.code == 2
        capsys.readouterr()


class TestProfileAction:
    def test_exact_profile_row(self, tmp_path):
        out = tmp_path / "act.csv"
        code = main(["profile-action", "--graphing", torus_json(tmp_path, 1, 8),
                     "--n", "3", "--out", str(out)])
        assert code == 0
        (row,) = read_rows(out)
        assert (row["numerator"], row["denominator"]) == ("3", "4")
        assert row["method"] == "exhaustive"
        assert row["witness_partition"]

    def test_tiling_upper_bound_row(self, tmp_path):
        out = tmp_path / "tile.csv"
        code = main(["profile-action", "--graphing", torus_json(tmp_path, 1, 9),
                     "--n", "3", "--tiling", interval_tile_json(3),
                     "--epsilon", "1/10", "--out", str(out)])
        assert code == 0
        (row,) = read_rows(out)
        assert (row["numerator"], row["denominator"]) == ("2", "3")
        assert row["method"] == "tiling"

    def test_coverage_failure_exits_1_without_output(self, tmp_path, capsys):
        out = tmp_path / "tile.csv"
        code = main(["profile-action", "--graphing", torus_json(tmp_path, 1, 8),
                     "--n", "3", "--tiling", interval_tile_json(3),
                     "--epsilon", "1/5", "--out", str(out)])
        assert code == 1
        assert "check failed" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_conflicts_exit_2(self, tmp_path, capsys):
        g = torus_json(tmp_path, 1, 8)
        assert main(["profile-action", "--graphing", g, "--n", "3",
                     "--exact", "--tiling", interval_tile_json(3),
                     "--epsilon", "1/4"]) == 2
        assert main(["profile-action", "--graphing", g, "--n", "3",
                     "--tiling", interval_tile_json(3)]) == 2
        capsys.readouterr()

    def test_mistyped_graphing_fields_exit_2(self, capsys):
        graphing = ('{"vertices": 3, "weights": 5, "maps": {}, '
                    '"group": {"kind": "Zd", "d": 1}}')
        assert main(["profile-action", "--n", "2", "--graphing", graphing]) == 2
        err = capsys.readouterr().err
        assert err == "error: weights must be a list of rationals\n"

    def test_budget_truncation_still_writes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ISOPROF_NODE_BUDGET", "1")
        out = tmp_path / "act.csv"
        code = main(["profile-action", "--graphing", torus_json(tmp_path, 2, 4),
                     "--n", "5", "--out", str(out)])
        assert code == 3
        (row,) = read_rows(out)
        assert row["method"] == "bnb"  # upper bound row is still emitted


class TestVerifyTile:
    def test_partitioning_tile_passes(self, tmp_path):
        out = tmp_path / "ok.csv"
        code = main(["verify-tile", "--group", '{"kind": "Zd", "d": 1}',
                     "--tile", interval_tile_json(3), "--window", "8",
                     "--out", str(out)])
        assert code == 0
        (row,) = read_rows(out)
        assert row["passed"] == "True"
        assert row["density"] == "1"

    def test_gappy_tile_fails(self, tmp_path):
        out = tmp_path / "gap.csv"
        gappy = '{"shapes": [[[0], [1]]], "centers": {"kind": "lattice", "generators": [[3]]}}'
        code = main(["verify-tile", "--group", '{"kind": "Zd", "d": 1}',
                     "--tile", gappy, "--window", "8", "--out", str(out)])
        assert code == 1
        (row,) = read_rows(out)
        assert row["passed"] == "False" and row["covered"] == "False"

    def test_window_too_small_exits_2(self, capsys):
        assert main(["verify-tile", "--group", '{"kind": "Zd", "d": 1}',
                     "--tile", interval_tile_json(5), "--window", "3"]) == 2
        capsys.readouterr()


class TestBuildGraphing:
    def test_torus_json_on_stdout(self, capsys):
        assert main(["build-graphing", "--kind", "torus", "--d", "1",
                     "--m", "6"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["vertices"] == 6
        assert set(obj["maps"]) == {"1", "-1"}
        assert obj["free_window"] == 2

    def test_cycle_with_weights(self, tmp_path):
        out = tmp_path / "cycle.json"
        code = main(["build-graphing", "--kind", "cycle", "--m", "4",
                     "--weights", '["4/10","3/10","2/10","1/10"]',
                     "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["weights"] == ["2/5", "3/10", "1/5", "1/10"]
        assert list(tmp_path.iterdir()) == [out]
        umask = os.umask(0)
        os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_deterministic_serialization(self, capsys):
        argv = ["build-graphing", "--kind", "heisenberg", "--m", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_missing_parameters_exit_2(self, capsys):
        assert main(["build-graphing", "--kind", "torus", "--d", "1"]) == 2
        assert main(["build-graphing", "--kind", "cycle", "--m", "4"]) == 2
        capsys.readouterr()


class TestBuildRokhlin:
    def test_exact_cover(self, tmp_path):
        out = tmp_path / "towers.json"
        code = main(["build-rokhlin", "--graphing", torus_json(tmp_path, 1, 9),
                     "--tile", interval_tile_json(3), "--epsilon", "1/10",
                     "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj == {"bases": [[0, 3, 6]], "coverage": "1"}

    def test_coverage_shortfall_exits_1(self, tmp_path):
        out = tmp_path / "towers.json"
        code = main(["build-rokhlin", "--graphing", torus_json(tmp_path, 1, 10),
                     "--tile", interval_tile_json(4), "--epsilon", "1/10",
                     "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["coverage"] == "4/5"


class TestCheckBounds:
    def test_positivity_suite(self, tmp_path):
        out = tmp_path / "pos.csv"
        assert main(["check-bounds", "--suite", "positivity",
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 3
        assert all(r["passed"] == "True" for r in rows)

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check-bounds", "--suite", "nope"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestReproduce:
    def test_zd_table(self, tmp_path, capsys):
        outdir = tmp_path / "results"
        assert main(["reproduce", "--suite", "zd", "--outdir", str(outdir)]) == 0
        assert capsys.readouterr().out == "suite,rows,failures\nzd,18,0\n"
        rows = read_rows(outdir / "zd.csv")
        assert len(rows) == 18
        z2 = [r for r in rows if r["group"] == "Z^2"]
        assert [(r["numerator"], r["denominator"]) for r in z2[:5]] == [
            ("1", "1"), ("1", "1"), ("1", "1"), ("1", "1"), ("4", "5"),
        ]

    def test_cuboid_formula_rows_report_the_mismatch(self, tmp_path, capsys):
        # ratios below 1 are where the closed formula must agree and does not
        # from n=4 on; the table says so and the command signals it
        outdir = tmp_path / "results"
        code = main(["reproduce", "--suite", "heisenberg", "--outdir", str(outdir)])
        capsys.readouterr()
        assert code == 1
        rows = read_rows(outdir / "heisenberg.csv")
        assert len(rows) == 6
        required = [r for r in rows if r["agreement_required"] == "True"]
        assert [r["n"] for r in required] == ["4", "5", "6"]
        assert all(r["match"] == "False" for r in required)
        assert rows[3]["ratio"] == "308/425"
        assert rows[3]["claimed_formula"] == "77/85"

    def test_rokhlin_table(self, tmp_path, capsys):
        outdir = tmp_path / "results"
        assert main(["reproduce", "--suite", "rokhlin",
                     "--outdir", str(outdir)]) == 0
        capsys.readouterr()
        rows = read_rows(outdir / "rokhlin.csv")
        assert [r["coverage"] for r in rows] == ["1", "4/5", "1"]
        assert all(r["verified"] == "True" for r in rows)


def test_console_entry_point_runs():
    out = subprocess.run(
        [sys.executable, "-m", "isoprof.cli", "profile-group",
         "--group", '{"kind": "Zd", "d": 1}', "--n-max", "3"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert HEADER.match(out.stdout.splitlines()[0])
