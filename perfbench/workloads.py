"""The three workloads and the checks on every result they produce.

Each workload is a function that runs one pass through a `Pass`.  A pass
builds fresh group and graphing objects (sphere caches live on the group
instance, so a reused group would skip its BFS) and calls the program; each
call is one operation, timed on its own and checked against the expected
table once its clock has stopped.

Seed 0 is the canonical input.  Any other seed shuffles the generator order
of every group and relabels the vertices of every graphing, which reaches
the program as JSON through `MeasuredGraphing.from_json`.  Exact values do
not depend on either, so the table holds for every seed; search node counts
and greedy tower placements do, and stay fixed for a given seed.  Results
that depend on the seed sit under the key "canonical" of a certificate and
are compared at seed 0 only; at other seeds they are checked through the
certificate the operation itself carries (a partition's boundary mass,
a tower family's verification).
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import random
from fractions import Fraction

import isoprof
from isoprof import cli
from speed import Meter, at_reference

CANONICAL = "canonical"


class Mismatch(Exception):
    """A result that contradicts its expected value or its own certificate."""


def frac(x):
    return f"{x.numerator}/{x.denominator}"


# -- inputs drawn from the seed ------------------------------------------------


def _rng(seed, name):
    # one stream per input name, so every pass and every run redraws the same input
    return random.Random(f"{seed}/{name}")


def _shuffled(seed, name, gens):
    gens = [tuple(g) for g in gens]
    if seed:
        _rng(seed, name).shuffle(gens)
    return gens


def zd_group(seed, name, d):
    """Factory for Z^d with the standard generators in the seed's order."""
    if not seed:
        return lambda: isoprof.ZdGroup(d)
    unit = [tuple(int(i == j) * s for j in range(d)) for i in range(d) for s in (1, -1)]
    gens = _shuffled(seed, name, unit)
    return lambda: isoprof.ZdGroup(d, generators=gens)


def heisenberg_group(seed, name):
    """Factory for H3(Z) with the standard generators in the seed's order."""
    if not seed:
        return isoprof.HeisenbergGroup
    gens = _shuffled(seed, name, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)])
    return lambda: isoprof.HeisenbergGroup(generators=gens)


def relabel(obj, seed, name):
    """Graphing JSON with shuffled generator order and vertex numbering, plus the permutation.

    A generator given explicitly is labelled by its coordinates, so the maps
    are re-keyed by those labels.
    """
    V = obj["vertices"]
    if not seed:
        return obj, list(range(V))
    rng = _rng(seed, name)
    group = isoprof.group_from_json(obj["group"])
    gens = [group.generator(lab) for lab in group.labels]
    old_label = dict(zip(gens, group.labels))
    rng.shuffle(gens)
    perm = list(range(V))
    rng.shuffle(perm)
    weights = [None] * V
    for v, w in enumerate(obj["weights"]):
        weights[perm[v]] = w
    maps = {}
    for g in gens:
        row = [None] * V
        for v, t in enumerate(obj["maps"][old_label[g]]):
            row[perm[v]] = None if t is None else perm[t]
        maps[",".join(str(c) for c in g)] = row
    group_obj = dict(obj["group"], generators=[list(g) for g in gens])
    return dict(obj, weights=weights, maps=maps, group=group_obj), perm


def boundary_mass_of(obj, cells, n_bound):
    """Independent recheck of a partition: cells of size <= n_bound covering every
    vertex once, and the weight of the vertices some map sends out of their
    cell or leaves undefined."""
    V = obj["vertices"]
    cell_of = {}
    for i, cell in enumerate(cells):
        if not 1 <= len(cell) <= n_bound:
            raise Mismatch(f"cell of size {len(cell)} with n={n_bound}")
        for v in cell:
            if v in cell_of:
                raise Mismatch(f"vertex {v} lies in two cells")
            cell_of[v] = i
    if sorted(cell_of) != list(range(V)):
        raise Mismatch("the cells do not cover the vertices")
    mass = Fraction(0)
    for v in range(V):
        for row in obj["maps"].values():
            t = row[v]
            if t is None or cell_of[t] != cell_of[v]:
                mass += Fraction(obj["weights"][v])
                break
    return mass


def check_partition(obj, partition, value):
    cells = [list(cell) for cell in partition.cells]
    if boundary_mass_of(obj, cells, partition.n_bound) != value:
        raise Mismatch(f"witness partition does not have boundary mass {frac(value)}")


# -- one pass --------------------------------------------------------------------


class Pass:
    """Times, certificates, failures and deterministic counts of one pass."""

    def __init__(self, workload, seed, expected, workdir, tracer=None, sample_speed=True):
        self.workload = workload
        self.seed = seed
        self.expected = expected  # None while recording the table
        self.workdir = workdir
        self.tracer = tracer
        self.sample_speed = sample_speed
        self.times = {}  # operation -> seconds
        self.scaled = {}  # operation -> seconds at the reference speed
        self.samples = []  # every calibration sample of the pass
        self.calibrating_s = 0.0  # time the pass spent calibrating
        self.certs = {}
        self.failures = []
        self.counts = dict.fromkeys(COUNTS[workload], 0)
        self._digest = hashlib.sha256()

    def count(self, key, n):
        self.counts[key] += n

    def output(self, data):
        """Feed output bytes into the pass digest (seed-dependent outputs included)."""
        self._digest.update(data)

    def digest(self):
        return self._digest.hexdigest()

    def op(self, name, call, summarize):
        """Run one operation, timed alone; then check its certificate."""
        if name in self.times:
            raise ValueError(f"operation {name!r} appears twice in a pass")
        meter = Meter(self.sample_speed)
        try:
            with meter:
                raw = call()
        except Exception as exc:  # any exception is a failed operation, reported below
            raw, error = None, exc
        else:
            error = None
        self.times[name] = meter.seconds
        self.scaled[name] = at_reference(meter.seconds, meter.samples)
        self.samples += meter.samples
        self.calibrating_s += meter.spent
        if error is not None:
            self.failures.append(f"{name}: raised {type(error).__name__}: {error}")
            return None
        try:
            cert = summarize(raw)
        except Mismatch as exc:
            self.failures.append(f"{name}: {exc}")
            return None
        except Exception as exc:  # output the checks cannot parse is a failed operation too
            self.failures.append(f"{name}: checking the result raised {type(exc).__name__}: {exc}")
            return None
        self.certs[name] = cert
        self.output(json.dumps(cert, sort_keys=True).encode())
        if self.expected is None:
            return raw
        want = self.expected.get(name)
        got = cert
        if self.seed and want is not None:
            want = {k: v for k, v in want.items() if k != CANONICAL}
            got = {k: v for k, v in cert.items() if k != CANONICAL}
        if got != want:
            self.failures.append(f"{name}: got {got}, expected {want}")
            return None
        return raw

    def cli(self, name, argv, rc, outputs=(), check=None):
        """One `isoprof.cli.main` call in this process; stdout and `outputs` are its bytes."""

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects its input this way
                    code = exc.code
            return code, out.getvalue().encode(), err.getvalue()

        def summarize(raw):
            code, stdout, stderr = raw
            if code != rc:
                raise Mismatch(f"exit code {code}, expected {rc}: {stderr.strip()}")
            blobs = [stdout]
            for path in outputs:
                with open(path, "rb") as fh:
                    blobs.append(fh.read())
            size = sum(len(b) for b in blobs)
            self.count("cli_bytes", size)
            if self.tracer is not None:
                self.tracer.add("cli.main", bytes_out=size)
            for blob in blobs:
                self.output(blob)
            cert = {"rc": code}
            if check is not None:
                cert.update(check(blobs))
            return cert

        return self.op(name, call, summarize)

    def path(self, name):
        return os.path.join(self.workdir, name)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# -- search ----------------------------------------------------------------------


def _subsets_cert(p, raw):
    if not raw.complete:
        raise Mismatch("node budget hit")
    p.count("kernel_nodes", raw.nodes)
    return {"values": [frac(v) for v in raw.values]}


def _connected_cert(p, raw, cross=None):
    if not raw.complete:
        raise Mismatch("search cap hit")
    values = [frac(pt.value) for pt in raw.points]
    if cross is not None and values[: len(cross)] != cross:
        raise Mismatch(f"connected search {values} disagrees with all-subsets {cross}")
    witnesses = [sorted(pt.witness.elements) for pt in raw.points]
    return {"values": values, "witnesses": [[list(g) for g in w] for w in witnesses]}


def _packing(p, obj, n):
    def call():
        g = isoprof.MeasuredGraphing.from_json(obj)
        return isoprof.profile_action_exact(g, n, method="bnb")

    def summarize(raw):
        if not raw.optimal:
            raise Mismatch("node budget hit")
        check_partition(obj, raw.partition, raw.value)
        p.count("kernel_nodes", raw.nodes)
        p.count("graphing_vertices", obj["vertices"])
        return {"value": frac(raw.value)}

    return call, summarize


def _two_routes(p, obj, n_max):
    def call():
        g = isoprof.MeasuredGraphing.from_json(obj)
        return [(isoprof.profile_action_exact(g, n, method="exhaustive"),
                 isoprof.profile_action_exact(g, n, method="bnb"))
                for n in range(1, n_max + 1)]

    def summarize(raw):
        values = []
        for n, (dp, bnb) in enumerate(raw, start=1):
            if dp.method != "exhaustive" or not bnb.optimal:
                raise Mismatch(f"n={n}: route {dp.method} / optimal={bnb.optimal}")
            if dp.value != bnb.value:
                raise Mismatch(f"n={n}: exhaustive {dp.value} != bnb {bnb.value}")
            check_partition(obj, dp.partition, dp.value)
            check_partition(obj, bnb.partition, bnb.value)
            p.count("kernel_nodes", bnb.nodes)
            values.append(frac(dp.value))
        p.count("graphing_vertices", obj["vertices"])
        return {"values": values}

    return call, summarize


def search_inputs(seed):
    cycle = [Fraction(1 + i % 4) for i in range(14)]
    total = sum(cycle)
    graphings = {
        "(Z/9)^2": isoprof.build_torus_action(2, 9),
        "(Z/10)^2": isoprof.build_torus_action(2, 10),
        "Z/12": isoprof.build_torus_action(1, 12),
        "C14": isoprof.build_weighted_cycle(14, [w / total for w in cycle]),
        "(Z/3)^2": isoprof.build_torus_action(2, 3),
    }
    return {
        "Z2": zd_group(seed, "Z2", 2),
        "Z3": zd_group(seed, "Z3", 3),
        "H3": heisenberg_group(seed, "H3"),
        "graphings": {k: relabel(g.to_json(), seed, k)[0] for k, g in graphings.items()},
    }


def search_pass(p, inp):
    """Exact searches: both group-profile routes, the packing kernel, both action routes."""
    z2, z3, h3, gr = inp["Z2"], inp["Z3"], inp["H3"], inp["graphings"]
    sub = {}
    for name, make, n in (("all-subsets Z^2 n<=6", z2, 6), ("all-subsets H3 n<=5", h3, 5)):
        raw = p.op(name, lambda: isoprof.profile_all_subsets(make(), n),
                   lambda r: _subsets_cert(p, r))
        sub[name] = None if raw is None else p.certs[name]["values"]
    for name, make, n, cross in (
        ("connected Z^3 n<=8", z3, 8, None),
        ("connected Z^2 n<=10", z2, 10, "all-subsets Z^2 n<=6"),
        ("connected H3 n<=8", h3, 8, "all-subsets H3 n<=5"),
        ("connected F2 n<=8", lambda: isoprof.FreeGroup(2), 8, None),
    ):
        p.op(name, lambda: isoprof.profile_exact(make(), n),
             lambda r: _connected_cert(p, r, sub.get(cross)))
    for key in ("(Z/9)^2", "(Z/10)^2"):
        p.op(f"packing {key} n=5", *_packing(p, gr[key], 5))
    for key, n_max in (("Z/12", 5), ("C14", 5), ("(Z/3)^2", 5)):
        p.op(f"exhaustive-vs-bnb {key} n<=5", *_two_routes(p, gr[key], n_max))


# -- windows ---------------------------------------------------------------------


def windows_inputs(seed):
    tori = {"Z/12": (1, 12, 3), "Z/5": (1, 5, 2), "(Z/6)^2": (2, 6, 2), "(Z/12)^2": (2, 12, 3)}
    return {
        "tiles": [
            ("Z n=10 window 40", zd_group(seed, "Z", 1), 10, 40),
            ("Z^2 n=9 window 12", zd_group(seed, "Z2", 2), 9, 12),
            ("H3 n=425 window 36", heisenberg_group(seed, "H3"), 425, 36),
            ("Z^3 n=27 window 12", zd_group(seed, "Z3", 3), 27, 12),
        ],
        "towers": [
            (key, relabel(isoprof.build_torus_action(d, m).to_json(), seed, key)[0], k ** d)
            for key, (d, m, k) in tori.items()
        ],
    }


def windows_pass(p, inp):
    """Group geometry only: Folner tiles verified on ball windows, towers on small tori."""
    for name, make, n, window in inp["tiles"]:
        def call():
            mt = isoprof.folner_multitile_sequence(make(), n, verify=False)
            return isoprof.verify_multitile_window(mt, window)

        def summarize(r):
            p.count("window_points", r.window_size)
            return {"passed": r.passed, "window_size": r.window_size,
                    "region_size": r.region_size, "covered_count": r.covered_count,
                    "density": frac(r.density)}

        p.op(f"tile {name}", call, summarize)
    eps = Fraction(1, 4)
    for key, obj, n in inp["towers"]:
        def call():
            g = isoprof.MeasuredGraphing.from_json(obj)
            mt = isoprof.folner_multitile_sequence(g.group, n, verify=False)
            family = isoprof.build_towers(g, mt, eps)
            return family, isoprof.verify_tower_family(g, mt, family)

        def summarize(raw):
            family, check = raw
            p.count("graphing_vertices", obj["vertices"])
            p.count("tower_fibers", sum(len(f) for f in family.fibers))
            return {"verified": check.passed, "disjoint": check.disjoint,
                    CANONICAL: {"coverage": frac(family.coverage), "success": family.success}}

        p.op(f"towers {key}", call, summarize)


# -- models ----------------------------------------------------------------------

TORI = (16, 17, 18, 19)
SQUARE_TILE = {"shapes": [[[0, 0], [1, 0], [0, 1], [1, 1]]],
               "centers": {"kind": "lattice", "generators": [[2, 0], [0, 2]]}}
CUBOID_TILE = {"shapes": [[[a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)]],
               "centers": {"kind": "lattice", "generators": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]}}


def models_inputs(seed):
    lower = {}
    for d, ms in ((1, (8, 10, 12)), (2, (8, 10))):
        for m in ms:
            key = f"(Z/{m})^{d}"
            lower[key] = relabel(isoprof.build_torus_action(d, m).to_json(), seed, key)[0]
    return {"seed": seed, "lower": lower}


def models_pass(p, inp):
    """A graphing's life cycle through the CLI: build, write, read back, profile, check."""
    seed = inp["seed"]
    tiles = {}
    for name, tile in (("square", SQUARE_TILE), ("cuboid", CUBOID_TILE)):
        tiles[name] = p.path(f"{name}.json")
        with open(tiles[name], "w") as fh:
            json.dump(tile, fh)

    def file_sha(blobs):
        return {"sha256": sha256(blobs[-1])}

    builds = [(f"(Z/{m})^2", ["--kind", "torus", "--d", "2", "--m", str(m)]) for m in TORI]
    builds.append(("H(Z/8)", ["--kind", "heisenberg", "--m", "8"]))
    models = {}
    for i, (key, argv) in enumerate(builds):
        out = p.path(f"g{i}.json")
        p.cli(f"build-graphing {key}", ["build-graphing", *argv, "--out", out], 0, [out], file_sha)
        # the seed's relabelling, applied to the file the CLI just wrote
        with open(out) as fh:
            obj, perm = relabel(json.load(fh), seed, key)
        path = p.path(f"g{i}-input.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        models[key] = (i, path, obj, perm)

    for key, (i, path, obj, perm) in models.items():
        heisenberg = key.startswith("H")
        tile, tile_n, eps = (tiles["cuboid"], 8, "3/4") if heisenberg else (tiles["square"], 4, "1/2")

        def exact_row(blobs):
            value, method, cells = _profile_row(blobs[-1])
            if boundary_mass_of(obj, cells, 4) != value:
                raise Mismatch("witness partition does not have the reported mass")
            return {"value": frac(value), "method": method}

        def tiling_row(blobs):
            value, method, cells = _profile_row(blobs[-1])
            if boundary_mass_of(obj, cells, tile_n) != value:
                raise Mismatch("tower partition does not have the reported mass")
            return {"method": method, CANONICAL: {"value": frac(value)}}

        def towers(blobs):
            coverage = Fraction(json.loads(blobs[-1])["coverage"])
            if coverage < 1 - Fraction(eps):
                raise Mismatch(f"coverage {frac(coverage)} below 1 - {eps}")
            return {CANONICAL: {"coverage": frac(coverage)}}

        csv_out = p.path(f"g{i}-exact.csv")
        p.cli(f"profile-action {key} n=4", ["profile-action", "--graphing", path, "--n", "4",
                                            "--out", csv_out], 0, [csv_out], exact_row)
        if not heisenberg:
            csv_out = p.path(f"g{i}-tiling.csv")
            p.cli(f"profile-action {key} tiling", [
                "profile-action", "--graphing", path, "--n", "4", "--tiling", tile,
                "--epsilon", eps, "--out", csv_out], 0, [csv_out], tiling_row)
        out = p.path(f"g{i}-towers.json")
        p.cli(f"build-rokhlin {key}", ["build-rokhlin", "--graphing", path, "--tile", tile,
                                       "--epsilon", eps, "--out", out], 0, [out], towers)
        p.count("graphing_vertices", obj["vertices"])

    for suite in ("generating-sets", "positivity", "tiling-upper"):
        out = p.path(f"{suite}.csv")
        p.cli(f"check-bounds {suite}", ["check-bounds", "--suite", suite, "--out", out],
              0, [out], file_sha)
    # exits 1 by design: the table refutes the published closed form for n >= 4
    outdir = p.path("reproduce")
    p.cli("reproduce heisenberg", ["reproduce", "--suite", "heisenberg", "--outdir", outdir],
          1, [os.path.join(outdir, "heisenberg.csv")], file_sha)

    for key, obj in inp["lower"].items():
        def call():
            g = isoprof.MeasuredGraphing.from_json(obj)
            return [isoprof.check_lower_bound(g, g.group, n) for n in range(1, g.free_window + 1)]

        def summarize(checks):
            p.count("graphing_vertices", obj["vertices"])
            if not all(c.passed for c in checks):
                raise Mismatch("a lower bound failed")
            return {"rows": [[c.context["n"], frac(c.lhs), frac(c.rhs)] for c in checks]}

        p.op(f"lower-bound {key}", call, summarize)

    _, _, obj, perm = models["(Z/16)^2"]

    def iterated():
        g = isoprof.MeasuredGraphing.from_json(obj)
        blocks = [[perm[(x + a) + 16 * (y + b)] for a in (0, 1) for b in (0, 1)]
                  for x in range(0, 16, 2) for y in range(0, 16, 2)]
        return isoprof.iterated_boundary(g, isoprof.BoundedPartition(g, blocks, 4), 6)

    p.op("iterated-boundary (Z/16)^2 k=6", iterated,
         lambda r: {"mass": frac(r.mass), "bound": frac(r.telescoping_bound)})


def _profile_row(blob):
    """(value, method, cells) of the single row of a profile-action CSV."""
    lines = blob.decode().splitlines()
    (row,) = list(csv.reader(lines[2:]))  # after the config comment and the column names
    cells = [[int(v) for v in cell.split(",")] for cell in row[4].split(";")]
    return Fraction(int(row[1]), int(row[2])), row[3], cells


WORKLOADS = {
    "search": (search_inputs, search_pass),
    "windows": (windows_inputs, windows_pass),
    "models": (models_inputs, models_pass),
}

# deterministic counts reported with every run
COUNTS = {
    "search": ("kernel_nodes", "graphing_vertices"),
    "windows": ("window_points", "graphing_vertices", "tower_fibers"),
    "models": ("cli_bytes", "graphing_vertices"),
}
