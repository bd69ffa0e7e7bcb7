"""CLI subcommands: exit codes, deterministic output, atomic files."""

import json
import os
import re
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from isoprof import (
    HeisenbergGroup,
    ZdGroup,
    build_heisenberg_quotient,
    build_torus_action,
    cube_tile,
    folner_multitile_sequence,
    group_from_json,
    multitile_to_json,
)
from isoprof.cli import ERROR_LINE_CAP, EXIT_INTERNAL, _config_digest, _json_friendly, main

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

    def test_flags_do_not_carry_over_between_calls(self, capsys):
        # one parser serves every call in a process; each call parses afresh
        argv = ["profile-group", "--group", '{"kind": "Zd", "d": 1}', "--n-max", "3"]
        assert main(argv + ["--decimal"]) == 0
        columns = capsys.readouterr().out.splitlines()[1]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1] + ",decimal" == columns

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

    def test_failed_rename_leaves_the_directory_unchanged(self, tmp_path, monkeypatch, capsys):
        stale = tmp_path / "z.csv.tmp"
        stale.write_text("someone else's file")
        monkeypatch.setattr(os, "replace", mock.Mock(side_effect=OSError("refused")))
        assert main(["profile-group", "--group", '{"kind": "Zd", "d": 1}',
                     "--n-max", "3", "--out", str(tmp_path / "z.csv")]) == 2
        assert capsys.readouterr().err == f"error: cannot write {tmp_path / 'z.csv'}: refused\n"
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
        assert main(["profile-group", "--group", '{"kind": "Zd", "d": 1}', "--n-max", "3",
                     "--out", str(tmp_path / "missing" / "z.csv")]) == 2
        for tile in ('{"shapes": [[[0]]], "centers": {"kind": "explicit", "list": [["x"]]}}',
                     '{"shapes": [[[0]]], "centers": {"kind": "lattice", "generators": "ab"}}',
                     '{"shapes": [5], "centers": {"kind": "lattice", "generators": [[1]]}}',
                     '{"shapes": [[[0]]], "centers": 5}'):
            assert main(["verify-tile", "--group", '{"kind": "Zd", "d": 1}',
                         "--tile", tile, "--window", "4"]) == 2
        # quotient models past the kernels' vertex ids, refused before any list
        assert main(["build-graphing", "--kind", "torus", "--d", "2", "--m", "100000"]) == 2
        assert main(["build-graphing", "--kind", "heisenberg", "--m", "2000"]) == 2
        # bytes that are not UTF-8, and nesting past the recursion limit, as a
        # file and inline
        not_utf8 = tmp_path / "not_utf8.json"
        not_utf8.write_bytes(b"\xff\xfe{}")
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        for bad in (str(not_utf8), str(deep), "[" * 200_000):
            assert main(["profile-group", "--group", bad, "--n-max", "3"]) == 2
            assert main(["verify-tile", "--group", '{"kind": "Zd", "d": 1}',
                         "--tile", bad, "--window", "4"]) == 2
        # an offending value of thousands of characters, quoted in the message
        long_generator = json.dumps({"kind": "Zd", "d": 1,
                                     "generators": [[1], [-1], "x" * 5000]})
        assert main(["profile-group", "--group", long_generator, "--n-max", "3"]) == 2
        long_center = json.dumps({"shapes": [[[0]]], "centers": {
            "kind": "explicit", "list": [[0, 0, "y" * 4000]]}})
        assert main(["verify-tile", "--group", '{"kind": "Zd", "d": 1}',
                     "--tile", long_center, "--window", "4"]) == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert max(map(len, lines)) <= ERROR_LINE_CAP
        assert [len(line) for line in lines[-2:]] == [ERROR_LINE_CAP] * 2
        assert lines[-2].startswith("error: generators must be a list of integer vectors")
        assert lines[-1].startswith("error: expected a list of integer coordinates")
        assert lines[-1].endswith("yyy...")
        assert "internal error" not in err
        assert f"error: cannot read group file {str(not_utf8)!r}: " in err
        assert "error: invalid tile JSON: nested too deeply" in err
        assert "error: Zd needs an integer field 'd'" in err
        assert f"error: cannot write {tmp_path / 'missing' / 'z.csv'}: " in err
        assert not (tmp_path / "missing").exists()

    def test_unexpected_exception_exits_4_in_one_line(self, monkeypatch, capsys):
        messages = ["division by zero", "z" * 1000]

        def broken(mt, window):
            raise ZeroDivisionError(messages.pop(0))

        monkeypatch.setattr("isoprof.cli.verify_multitile_window", broken)
        for _ in range(2):
            assert main(["verify-tile", "--group", '{"kind": "Zd", "d": 1}', "--tile",
                         interval_tile_json(3), "--window", "8"]) == EXIT_INTERNAL == 4
        err = capsys.readouterr().err
        capped = "internal error: ZeroDivisionError: z"
        capped += "z" * (ERROR_LINE_CAP - len(capped) - 3) + "..."
        assert err == "internal error: ZeroDivisionError: division by zero\n" + capped + "\n"

    def test_readme_group_arguments_parse(self):
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
            groups = re.findall(r"--group '([^']*)'", fh.read())
        assert groups
        for raw in groups:
            group_from_json(json.loads(raw))

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

    def test_list_weight_exits_2(self, capsys):
        # weight strings are parsed once each; any other entry is parsed alone
        graphing = ('{"vertices": 3, "weights": ["1/3", "1/3", [1]], '
                    '"maps": {"1": [1, 2, 0], "-1": [2, 0, 1]}, '
                    '"group": {"kind": "Zd", "d": 1}}')
        assert main(["profile-action", "--n", "2", "--graphing", graphing]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: not a rational number: [1]\n"

    def test_boolean_map_targets_exit_2(self, capsys):
        # true and false are not vertices 1 and 0
        graphing = ('{"vertices": 3, "weights": ["1/3", "1/3", "1/3"], '
                    '"maps": {"1": [true, 2, 0], "-1": [2, 0, 1]}, '
                    '"group": {"kind": "Zd", "d": 1}}')
        assert main(["profile-action", "--n", "2", "--graphing", graphing]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: map '1' has target True out of range\n"

    @pytest.mark.parametrize("graphing, extra, digest", [
        (lambda: build_torus_action(2, 16),
         ["--tiling", json.dumps(multitile_to_json(cube_tile(ZdGroup(2), 2))), "--epsilon", "1/2"],
         "42a5a5e21459"),
        (lambda: build_heisenberg_quotient(8), ["--decimal"], "783239bf4b86"),
    ])
    def test_config_digest_hashes_the_params_as_written(self, tmp_path, graphing, extra,
                                                        digest):
        # the params are JSON-ready, so hashing them as they are gives the
        # digest of their walk through _json_friendly
        g = graphing()
        path = tmp_path / "g.json"
        path.write_text(json.dumps(g.to_json()))
        out = tmp_path / "act.csv"
        assert main(["profile-action", "--graphing", str(path), "--n", "4", *extra,
                     "--out", str(out)]) == 0
        params = {"graphing": g.to_json(), "n": 4, "decimal": "--decimal" in extra}
        if "--tiling" in extra:
            params["tiling"] = json.loads(extra[1])
            params["epsilon"] = extra[3]
        walked = _config_digest("profile-action", _json_friendly(params))
        assert out.read_text().splitlines()[0] == f"# isoprof 0.1.0 config={digest}"
        assert walked == digest

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

    def test_a_row_store_past_its_budget_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr("isoprof.groups.STORE_BUDGET", 5000)
        tile = json.dumps(multitile_to_json(folner_multitile_sequence(HeisenbergGroup(), 45,
                                                                      verify=False)))
        assert main(["verify-tile", "--group", '{"kind": "Heisenberg"}', "--tile", tile,
                     "--window", "40"]) == 3
        assert capsys.readouterr().err.startswith("budget exhausted: growing ball ")

    def test_gappy_tile_fails(self, tmp_path):
        out = tmp_path / "gap.csv"
        gappy = '{"shapes": [[[0], [1]]], "centers": {"kind": "lattice", "generators": [[3]]}}'
        code = main(["verify-tile", "--group", '{"kind": "Zd", "d": 1}',
                     "--tile", gappy, "--window", "8", "--out", str(out)])
        assert code == 1
        (row,) = read_rows(out)
        assert row["passed"] == "False" and row["covered"] == "False"

    def test_heisenberg_425_tile_on_the_radius_64_window(self, tmp_path):
        # 7,179,905 window points: the scan reads them as 8,321 columns
        tile = multitile_to_json(folner_multitile_sequence(HeisenbergGroup(), 425, verify=False))
        out = tmp_path / "h.csv"
        assert main(["verify-tile", "--group", '{"kind": "Heisenberg"}', "--tile",
                     json.dumps(tile), "--window", "64", "--out", str(out)]) == 0
        (row,) = read_rows(out)
        assert row["passed"] == "True"
        assert row["window_size"] == "7179905"

    @pytest.mark.parametrize("backend", ["compiled", "pure"])
    @pytest.mark.parametrize("group, tile, window, row", [
        # a lattice generator past int64 on Z^2, and a period of 2**63 on H3:
        # their scans run on the pure kernel, with these rows on either backend
        ('{"kind": "Zd", "d": 2}', '{"shapes": [[[0, 0], [1, 0]]], "centers": {"kind": '
         '"lattice", "generators": [[1180591620717411303424, 0], [0, 1]]}}', "6",
         'False,True,False,6,1,5,85,61,20,24/85,[],"[""(-1,0)"", ""(-2,0)"", ""(-1,-1)"", '
         '""(-1,1)"", ""(2,0)""]"'),
        ('{"kind": "Heisenberg"}', '{"shapes": [[[0, 0, 0], [1, 0, 0], [0, 0, 1]]], "centers": '
         '{"kind": "lattice", "generators": [[2, 0, 0], [0, 1, 0], [0, 0, 9223372036854775808]]}}',
         "6", 'False,True,False,6,4,2,593,17,11,104/593,[],"[""(-1,-1,0)"", ""(-1,-1,1)"", '
         '""(-1,1,-1)"", ""(-1,1,0)"", ""(1,-1,0)""]"'),
    ])
    def test_lattices_past_int64_keep_their_rows(self, group, tile, window, row, backend,
                                                 monkeypatch, capsys):
        from isoprof import _kernels

        if backend == "pure":
            monkeypatch.setattr(_kernels, "_core", None)
        elif _kernels._core is None:
            pytest.skip("compiled kernel unavailable")
        assert main(["verify-tile", "--group", group, "--tile", tile, "--window", window]) == 1
        assert capsys.readouterr().out.splitlines()[2] == row

    @pytest.mark.parametrize("point", ["[1.7, 0]", '["3", true]', "[true, 0]"])
    def test_non_integer_coordinates_exit_2(self, point, capsys):
        tile = ('{"shapes": [[[0, 0], %s]], "centers": {"kind": "lattice", '
                '"generators": [[2, 0], [0, 1]]}}' % point)
        assert main(["verify-tile", "--group", '{"kind": "Zd", "d": 2}', "--tile", tile,
                     "--window", "4"]) == 2
        assert capsys.readouterr().err.startswith("error: expected a list of integer coordinates")

    def test_free_group_tile(self, capsys):
        tile = '{"shapes": [["1", "a"]], "centers": {"kind": "explicit", "list": ["1", "b", "ab", "A"]}}'
        assert main(["verify-tile", "--group", '{"kind": "Free", "rank": 2}', "--tile", tile,
                     "--window", "4"]) == 1
        out, err = capsys.readouterr()
        assert err == "" and out.splitlines()[2].startswith("False,False,False,4,1,3,161,")

    def test_a_set_that_does_not_generate_exits_2_at_once(self, capsys):
        group = ('{"kind": "Heisenberg", "generators": [[3, 0, 0], [-3, 0, 0], [0, 3, 0], '
                 '[0, -3, 0], [1, 1, 1], [-1, -1, 0]]}')
        tile = '{"shapes": [[[0, 0, 0], [1, 0, 0]]], "centers": {"kind": "explicit", "list": [[0, 0, 0]]}}'
        start = time.perf_counter()
        assert main(["verify-tile", "--group", group, "--tile", tile, "--window", "4"]) == 2
        assert time.perf_counter() - start < 1
        assert "do not generate" in capsys.readouterr().err

    def test_window_too_small_exits_2(self, capsys):
        assert main(["verify-tile", "--group", '{"kind": "Zd", "d": 1}',
                     "--tile", interval_tile_json(5), "--window", "3"]) == 2
        capsys.readouterr()


def _json_values():
    scalars = st.one_of(st.none(), st.booleans(), st.integers(-4, 4), st.floats(-2, 2),
                        st.sampled_from(["", "x", "Zd", "lattice", "explicit", "1"]))
    return st.recursive(scalars, lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.dictionaries(st.sampled_from(["kind", "d", "rank", "generators", "shapes",
                                         "centers", "list", "x"]), kids, max_size=3)),
        max_leaves=8)


def _vectors(n, bound=3):
    return st.lists(st.integers(-bound, bound), min_size=n, max_size=n)


def _symmetric(vectors, heisenberg):
    """The vectors with their inverses, duplicates dropped."""
    out = []
    for v in vectors:
        inv = [-v[0], -v[1], v[0] * v[1] - v[2]] if heisenberg else [-c for c in v]
        out += [w for w in (v, inv) if w not in out]
    return out


@st.composite
def _group_and_tile(draw):
    """Near-valid verify-tile arguments: each part is well formed or garbage."""
    kind = draw(st.sampled_from(["Zd", "Heisenberg", "garbage"]))
    dim = 3 if kind == "Heisenberg" else draw(st.integers(1, 3))
    group = {"Zd": {"kind": "Zd", "d": dim}, "Heisenberg": {"kind": "Heisenberg"}}.get(kind)
    if group is None:
        group = draw(_json_values())
    elif draw(st.booleans()):
        # the unit vectors keep the set generating, so every shape point has a norm
        units = [[int(i == j) for j in range(dim)] for i in range(dim)]
        group["generators"] = draw(st.one_of(
            st.lists(_vectors(dim), max_size=3),
            st.lists(_vectors(dim, 1), max_size=2).map(
                lambda vs: _symmetric(units + vs, kind == "Heisenberg"))))
    shape = st.lists(_vectors(dim, 1), max_size=4).map(lambda s: [[0] * dim] + s)
    centers = st.one_of(
        st.builds(lambda g: {"kind": "lattice", "generators": g},
                  st.lists(_vectors(dim), min_size=dim, max_size=dim)),
        st.builds(lambda m: {"kind": "lattice", "generators": [
            [m[i] if i == j else 0 for j in range(dim)] for i in range(dim)]},
            _vectors(dim)),
        st.builds(lambda c: {"kind": "explicit", "list": c}, st.lists(_vectors(dim), max_size=6)),
        _json_values())
    k = draw(st.integers(1, 2))
    tile = draw(st.one_of(
        st.builds(lambda s, c: {"shapes": [s], "centers": c}, shape, centers),
        st.builds(lambda s, c: {"shapes": s, "centers": c},
                  st.lists(shape, min_size=k, max_size=k), st.lists(centers, min_size=k,
                                                                    max_size=k)),
        _json_values()))
    return group, tile, draw(st.integers(0, 6))


class TestMalformedJson:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_group_and_tile())
    def test_exit_1_only_from_real_checks(self, capsys, args):
        group, tile, window = args
        code = main(["verify-tile", "--group=" + json.dumps(group),
                     "--tile=" + json.dumps(tile), "--window", str(window)])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), err
        if code == 1:
            assert out.splitlines()[2].startswith("False,")
        if code in (2, 3):
            assert len(err.splitlines()) == 1


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

    def test_tiles_table_verifies_at_the_family_windows(self, tmp_path, capsys):
        outdir = tmp_path / "results"
        assert main(["reproduce", "--suite", "tiles", "--outdir", str(outdir)]) == 0
        capsys.readouterr()
        # the group column holds commas: read the last four columns
        rows = (outdir / "tiles.csv").read_text().splitlines()[2:]
        assert [row.split(",")[-4:] for row in rows] == [
            ["10", "1/5", "40", "True"], ["9", "8/9", "12", "True"],
            ["425", "308/425", "36", "True"]]

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
