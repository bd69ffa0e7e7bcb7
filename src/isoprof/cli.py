"""Command-line front end: reproducible exact-profile runs.

Every output is deterministic for a fixed config and version: CSV files open
with a comment line carrying the version and a 12-hex digest of the
canonicalized config, rationals are serialized as "p/q" strings, and files
are written atomically (temp + rename) so failed runs leave nothing behind.

Exit codes: 0 success, 1 check failure, 2 usage or schema error, 3 budget
exhaustion, 4 internal error (an exception isoprof does not expect, reported
in one line).  ISOPROF_NODE_BUDGET overrides the default search node budget.
"""

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
from decimal import Decimal, ROUND_HALF_EVEN
from fractions import Fraction

from . import __version__
from .action_profile import profile_action_exact, profile_action_tiling
from .bounds import SUITES, TOWER_CASES
from .errors import BudgetError, CoverageError, IsoprofError, integer_parameter
from .exact import format_fraction, parse_fraction
from .graphings import (
    MeasuredGraphing,
    build_heisenberg_quotient,
    build_torus_action,
    build_weighted_cycle,
)
from .groups import HeisenbergGroup, ZdGroup, group_from_json
from .isoperimetry import (
    boundary_ratio,
    heisenberg_cuboid,
    inner_boundary,
    profile_exact,
)
from .rokhlin import build_towers, tower_family_to_json, verify_tower_family
from .tilings import (
    cube_tile,
    folner_tiles,
    multitile_from_json,
    multitile_to_json,
    verify_multitile_window,
)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
ERROR_LINE_CAP = 300  # characters of an error line on stderr


def _node_budget():
    raw = os.environ.get("ISOPROF_NODE_BUDGET")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise IsoprofError(f"ISOPROF_NODE_BUDGET must be an integer, got {raw!r}")
    return integer_parameter("ISOPROF_NODE_BUDGET", value, 1)


def _config_digest(command, params):
    blob = json.dumps({"command": command, "params": params},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _header(command, params):
    return f"# isoprof {__version__} config={_config_digest(command, params)}"


def _write_out(path, text):
    """Write text to stdout, or atomically to path through a private temp file."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".tmp",
                                   dir=os.path.dirname(os.path.abspath(path)))
    except OSError as exc:
        raise IsoprofError(f"cannot write {path}: {exc.strerror or exc}") from exc
    try:
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            # mkstemp creates the file 0600; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except OSError as exc:
            raise IsoprofError(f"cannot write {path}: {exc.strerror or exc}") from exc
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(out_path, header, columns, rows):
    buf = io.StringIO()
    buf.write(header + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    _write_out(out_path, buf.getvalue())


def _decimal_str(value):
    q = Decimal(value.numerator) / Decimal(value.denominator)
    return str(q.quantize(Decimal("1.000000000000"), rounding=ROUND_HALF_EVEN))


def _load_json_arg(raw, what):
    """Inline JSON if it looks like JSON, otherwise a path to a JSON file."""
    text = raw
    if not raw.lstrip().startswith(("{", "[")):
        try:
            with open(raw, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise IsoprofError(f"cannot read {what} file {raw!r}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise IsoprofError(f"invalid {what} JSON: {exc}")
    except RecursionError:
        raise IsoprofError(f"invalid {what} JSON: nested too deeply")


def _json_friendly(value):
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, dict):
        return {k: _json_friendly(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_friendly(v) for v in value]
    return value


def _witness_str(group, subset):
    return ";".join(group.element_str(g) for g in subset)


def _cells_str(partition):
    return ";".join(",".join(str(v) for v in cell) for cell in partition.cells)


# -- subcommands ---------------------------------------------------------


def _cmd_profile_group(args):
    group = group_from_json(_load_json_arg(args.group, "group"))
    params = {"group": group.descriptor(), "n_max": args.n_max,
              "decimal": bool(args.decimal)}
    result = profile_exact(group, args.n_max, node_budget=_node_budget())
    columns = ["n", "numerator", "denominator", "witness"]
    if args.decimal:
        columns.append("decimal")
    rows = []
    for point in result.points:
        row = [point.n, point.value.numerator, point.value.denominator,
               _witness_str(group, point.witness)]
        if args.decimal:
            row.append(_decimal_str(point.value))
        rows.append(row)
    _emit(args.out, _header("profile-group", _json_friendly(params)), columns, rows)
    return EXIT_OK if result.complete else EXIT_BUDGET


def _cmd_profile_action(args):
    g = MeasuredGraphing.from_json(_load_json_arg(args.graphing, "graphing"))
    params = {"graphing": g.to_json(), "n": args.n, "decimal": bool(args.decimal)}
    if args.tiling is not None:
        if args.exact:
            raise IsoprofError("--exact and --tiling are mutually exclusive")
        if args.epsilon is None:
            raise IsoprofError("--tiling requires --epsilon")
        mt = multitile_from_json(g.group, _load_json_arg(args.tiling, "tile"))
        params["tiling"] = multitile_to_json(mt)
        params["epsilon"] = format_fraction(parse_fraction(args.epsilon))
        result = profile_action_tiling(g, mt, parse_fraction(args.epsilon))
        value, partition, method, exit_code = (
            result.value, result.partition, "tiling", EXIT_OK)
    else:
        result = profile_action_exact(g, args.n, node_budget=_node_budget())
        value, partition, method = result.value, result.partition, result.method
        exit_code = EXIT_OK if result.optimal else EXIT_BUDGET
    columns = ["n", "numerator", "denominator", "method", "witness_partition"]
    if args.decimal:
        columns.append("decimal")
    row = [args.n, value.numerator, value.denominator, method, _cells_str(partition)]
    if args.decimal:
        row.append(_decimal_str(value))
    # the graphing, tile and epsilon are JSON-ready as written
    _emit(args.out, _header("profile-action", params), columns, [row])
    return exit_code


def _cmd_verify_tile(args):
    group = group_from_json(_load_json_arg(args.group, "group"))
    mt = multitile_from_json(group, _load_json_arg(args.tile, "tile"))
    params = {"group": group.descriptor(), "tile": multitile_to_json(mt),
              "window": args.window}
    report = verify_multitile_window(mt, args.window)
    columns = ["passed", "disjoint", "covered", "window_radius", "margin",
               "region_radius", "window_size", "region_size", "covered_count",
               "density", "collisions", "uncovered"]
    row = [report.passed, report.disjoint, report.covered, report.window_radius,
           report.margin, report.region_radius, report.window_size,
           report.region_size, report.covered_count,
           format_fraction(report.density),
           json.dumps(_json_friendly([
               [group.element_str(w), [[i, group.element_str(c)] for i, c in hits]]
               for w, hits in report.collisions])),
           json.dumps([group.element_str(w) for w in report.uncovered])]
    _emit(args.out, _header("verify-tile", _json_friendly(params)), columns, [row])
    return EXIT_OK if report.passed else EXIT_CHECK


def _cmd_build_graphing(args):
    if args.kind == "torus":
        if args.m is None or args.d is None:
            raise IsoprofError("torus needs --d and --m")
        g = build_torus_action(args.d, args.m)
    elif args.kind == "heisenberg":
        if args.m is None:
            raise IsoprofError("heisenberg needs --m")
        g = build_heisenberg_quotient(args.m)
    elif args.kind == "cycle":
        if args.m is None or args.weights is None:
            raise IsoprofError("cycle needs --m and --weights")
        weights = [parse_fraction(w) for w in
                   _load_json_arg(args.weights, "weights")]
        g = build_weighted_cycle(args.m, weights)
    else:
        raise IsoprofError(f"unknown kind {args.kind!r}")
    _write_out(args.out, json.dumps(g.to_json(), sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def _cmd_build_rokhlin(args):
    g = MeasuredGraphing.from_json(_load_json_arg(args.graphing, "graphing"))
    mt = multitile_from_json(g.group, _load_json_arg(args.tile, "tile"))
    epsilon = parse_fraction(args.epsilon)
    family = build_towers(g, mt, epsilon)
    verification = verify_tower_family(g, mt, family)
    obj = tower_family_to_json(family)
    _write_out(args.out, json.dumps(obj, sort_keys=True, indent=2) + "\n")
    ok = family.success and verification.passed
    return EXIT_OK if ok else EXIT_CHECK


def _bound_rows(checks):
    rows = []
    for c in checks:
        rows.append([
            c.name, format_fraction(c.lhs), format_fraction(c.rhs), c.relation,
            c.passed, json.dumps(_json_friendly(c.context), sort_keys=True),
        ])
    return rows


def _cmd_check_bounds(args):
    checks = SUITES[args.suite]()
    columns = ["name", "lhs", "rhs", "relation", "passed", "context"]
    _emit(args.out, _header("check-bounds", {"suite": args.suite}),
          columns, _bound_rows(checks))
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK


# -- reproduce suites ----------------------------------------------------


def _suite_zd():
    columns = ["group", "n", "numerator", "denominator"]
    rows = []
    z1 = ZdGroup(1)
    for point in profile_exact(z1, 10).points:
        rows.append(["Z", point.n, point.value.numerator, point.value.denominator])
    z2 = ZdGroup(2)
    for point in profile_exact(z2, 8).points:
        rows.append(["Z^2", point.n, point.value.numerator, point.value.denominator])
    return columns, rows, 0


def _suite_heisenberg():
    columns = ["n", "shape_size", "boundary_size", "ratio", "claimed_formula",
               "agreement_required", "match"]
    rows = []
    failures = 0
    group = HeisenbergGroup()
    for n in range(1, 7):
        shape = heisenberg_cuboid(group, n)
        boundary = len(inner_boundary(shape))
        ratio = Fraction(boundary, len(shape))
        claimed = Fraction(4 * n * n + 2 * n + 5, (n + 1) * (n * n + 1))
        required = claimed <= 1
        match = ratio == claimed
        if required and not match:
            failures += 1
        rows.append([n, len(shape), boundary,
                     format_fraction(ratio), format_fraction(claimed),
                     required, match])
    return columns, rows, failures


def _suite_tiles():
    columns = ["group", "n", "shape_size", "ratio", "window", "passed"]
    rows = []
    failures = 0
    cases = [(ZdGroup(1), 10), (ZdGroup(2), 9), (HeisenbergGroup(), 425)]
    for group, n in cases:
        tile = max(folner_tiles(group, n))
        mt = tile.multitile()
        shape = mt.shapes[0]
        report = verify_multitile_window(mt, tile.window)
        if not report.passed:
            failures += 1
        rows.append([json.dumps(group.descriptor()), n, len(shape),
                     format_fraction(boundary_ratio(shape)), tile.window,
                     report.passed])
    return columns, rows, failures


def _suite_rokhlin():
    columns = ["graphing", "tile_side", "epsilon", "coverage", "success", "verified"]
    rows = []
    failures = 0
    eps = Fraction(1, 4)
    for d, m, k in TOWER_CASES:
        g = build_torus_action(d, m)
        name = f"Z/{m}" if d == 1 else f"(Z/{m})^{d}"
        mt = cube_tile(g.group, k)
        family = build_towers(g, mt, eps)
        verification = verify_tower_family(g, mt, family)
        ok = family.success and verification.passed
        if not ok:
            failures += 1
        rows.append([name, k, format_fraction(eps),
                     format_fraction(family.coverage), family.success,
                     verification.passed])
    return columns, rows, failures


def _suite_bounds():
    columns = ["name", "lhs", "rhs", "relation", "passed", "context"]
    rows = []
    failures = 0
    for suite in ("lower-bound", "tiling-upper", "generating-sets", "positivity"):
        checks = SUITES[suite]()
        failures += sum(1 for c in checks if not c.passed)
        rows.extend(_bound_rows(checks))
    return columns, rows, failures


_REPRODUCE = {
    "zd": _suite_zd,
    "heisenberg": _suite_heisenberg,
    "tiles": _suite_tiles,
    "rokhlin": _suite_rokhlin,
    "bounds": _suite_bounds,
}


def _cmd_reproduce(args):
    names = list(_REPRODUCE) if args.suite == "all" else [args.suite]
    total_failures = 0
    summary = []
    for name in names:
        columns, rows, failures = _REPRODUCE[name]()
        total_failures += failures
        summary.append((name, len(rows), failures))
        header = _header("reproduce", {"suite": name})
        if args.outdir:
            os.makedirs(args.outdir, exist_ok=True)
            _emit(os.path.join(args.outdir, f"{name}.csv"), header, columns, rows)
        else:
            _emit(None, header, columns, rows)
    out = sys.stdout
    out.write("suite,rows,failures\n")
    for name, count, failures in summary:
        out.write(f"{name},{count},{failures}\n")
    return EXIT_OK if total_failures == 0 else EXIT_CHECK


@functools.cache
def _parser():
    # one per process: no option appends or has a mutable default, so a parse
    # leaves the parser as it found it
    parser = argparse.ArgumentParser(
        prog="isoprof",
        description="Exact isoperimetric profiles of marked groups and their finite models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile-group", help="group profile with witnesses")
    p.add_argument("--group", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--decimal", action="store_true")
    p.set_defaults(func=_cmd_profile_group)

    p = sub.add_parser("profile-action", help="action profile on a graphing")
    p.add_argument("--graphing", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="exact search (default)")
    p.add_argument("--tiling", help="tile JSON for the tower upper bound")
    p.add_argument("--epsilon", help="coverage slack for --tiling")
    p.add_argument("--out")
    p.add_argument("--decimal", action="store_true")
    p.set_defaults(func=_cmd_profile_action)

    p = sub.add_parser("verify-tile", help="window partition check")
    p.add_argument("--group", required=True)
    p.add_argument("--tile", required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_tile)

    p = sub.add_parser("build-graphing", help="finite quotient models")
    p.add_argument("--kind", required=True, choices=["torus", "heisenberg", "cycle"])
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--weights", help="JSON list of 'p/q' weights for --kind cycle")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_build_graphing)

    p = sub.add_parser("build-rokhlin", help="greedy tower family")
    p.add_argument("--graphing", required=True)
    p.add_argument("--tile", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_build_rokhlin)

    p = sub.add_parser("check-bounds", help="inequality suites")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check_bounds)

    p = sub.add_parser("reproduce", help="full desk-scale result tables")
    p.add_argument("--suite", required=True,
                   choices=sorted(_REPRODUCE) + ["all"])
    p.add_argument("--outdir")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        code, line = EXIT_BUDGET, f"budget exhausted: {exc}"
    except CoverageError as exc:
        code, line = EXIT_CHECK, f"check failed: {exc}"
    except IsoprofError as exc:
        code, line = EXIT_USAGE, f"error: {exc}"
    except Exception as exc:
        # a defect, not a check result: keep it apart from exit 1
        code, line = EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {exc}"
    # the message may quote the input at fault, of any length: cut it
    if len(line) > ERROR_LINE_CAP:
        line = line[:ERROR_LINE_CAP - 3] + "..."
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
