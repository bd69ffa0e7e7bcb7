"""End-to-end and per-layer benchmark of isoprof.

    python3 perfbench/run.py --workload {search,windows,models} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from src/
exactly as the tests import it (PYTHONPATH=src), on whatever kernel backend
`isoprof._kernels.BACKEND` resolves to.  One process, one call at a time.

With --trace 0 the run repeats untraced passes of the workload for about S
seconds and reports the end-to-end metrics.  Their times are stated at a
reference machine speed, measured next to every operation (see speed.py);
the raw times are printed in a comment line.  With --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Every result is checked against perfbench/expected.json; --record-expected
rewrites that table from one seed-0 pass of every workload.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

from speed import REFERENCE_S, Meter, at_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")  # working files and the count records
EXPECTED = os.path.join(HERE, "expected.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 5


def declared_units(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for a run with this --trace."""
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def python_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- set-up cost: a fresh interpreter importing the package ------------------------


def setup_seconds():
    """Medians of the wall time of `python -c "import isoprof"` in a fresh interpreter,
    raw and at the reference speed."""

    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        # no samples during the start: they would run on the other core
        with Meter(sample=False) as meter:
            subprocess.run([sys.executable, "-c", "import isoprof"], cwd=ROOT, env=python_env(),
                           check=True, stdin=subprocess.DEVNULL)
        raw.append(meter.seconds)
        scaled.append(at_reference(meter.seconds, meter.samples))
    return statistics.median(raw), statistics.median(scaled)


def import_times():
    """Medians of the cumulative import time of isoprof and of sympy, from -X importtime."""
    total, sympy = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import isoprof"],
                              cwd=ROOT, env=python_env(), check=True, capture_output=True,
                              text=True, stdin=subprocess.DEVNULL)
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1e6
        total.append(cumulative["isoprof"])
        sympy.append(cumulative.get("sympy", 0.0))
    return statistics.median(total), statistics.median(sympy)


# -- facts recorded with every result ----------------------------------------------


def source_digest():
    """sha256 over the package sources, so count records never outlive a code change."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "isoprof")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx", ".c")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_revision():
    try:
        # the ceiling keeps git from reporting an enclosing repository's revision
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, stdin=subprocess.DEVNULL, env=env)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def backend_parity():
    """Compiled and pure kernels must agree on results and node counts when both import.

    The kernel inputs are captured from the package's own table-building code on
    small cases, then replayed through both backends.
    """
    import importlib

    import isoprof
    from isoprof import _kernels
    from isoprof._kernels import _pure

    try:
        _core = importlib.import_module("isoprof._kernels._core")
    except ImportError as exc:
        return None, f"skipped: the compiled kernel does not import ({exc})"
    calls = []
    originals = {name: getattr(_kernels, name) for name in ("subset_min_ratio", "pack_max_weight")}

    def capture(name):
        def kernel(*args):
            calls.append((name, args))
            return originals[name](*args)
        return kernel

    try:
        for name in originals:
            setattr(_kernels, name, capture(name))
        isoprof.profile_all_subsets(isoprof.ZdGroup(1), 9)
        isoprof.profile_all_subsets(isoprof.ZdGroup(2), 5)
        isoprof.profile_action_exact(isoprof.build_torus_action(2, 6), 5, method="bnb")
        isoprof.profile_action_exact(isoprof.build_torus_action(2, 8), 5, method="bnb")
    finally:
        for name, fn in originals.items():
            setattr(_kernels, name, fn)

    def key(out):
        return tuple(tuple(x) if isinstance(x, (list, tuple)) else x for x in out)

    mismatches = [name for name, args in calls
                  if key(getattr(_pure, name)(*args)) != key(getattr(_core, name)(*args))]
    if mismatches:
        return False, f"compiled and pure kernels disagree on {mismatches}"
    return True, f"compiled and pure kernels agree on {len(calls)} calls"


# -- passes ------------------------------------------------------------------------


def run_passes(workload, seed, seconds, traced, expected):
    """Repeat passes for about `seconds`; with `traced`, alternate untraced and traced."""
    from spans import Tracer
    from workloads import WORKLOADS, Pass

    make_inputs, one_pass = WORKLOADS[workload]
    inputs = make_inputs(seed)
    passes = []
    start = perf_counter()
    while True:
        tracing = traced and len(passes) % 2 == 1
        workdir = os.path.join(STATE, "work", str(len(passes)))
        os.makedirs(workdir)
        # a traced run samples no speed, so that no signal handler runs inside a span
        p = Pass(workload, seed, expected, workdir, Tracer() if tracing else None,
                 sample_speed=not traced)
        if tracing:
            p.tracer.install()
            try:
                p.root_s = p.tracer.root(lambda: one_pass(p, inputs))
            finally:
                p.tracer.uninstall()
        else:
            t0 = perf_counter()
            one_pass(p, inputs)
            p.root_s = perf_counter() - t0
        p.root_s -= p.calibrating_s
        p.traced = tracing
        passes.append(p)
        shutil.rmtree(workdir)
        elapsed = perf_counter() - start
        # a traced run needs a warm untraced pass besides the first, which is cold
        need_more = traced and len(passes) < 3
        if not need_more and elapsed + 0.5 * p.root_s >= seconds:
            break
    return passes


def median_wall(passes, scaled=False):
    """Sum over operations of each operation's median time across the passes."""

    def times(p):
        return p.scaled if scaled else p.times

    return sum(statistics.median(times(p)[name] for p in passes) for name in passes[0].times)


def layer_metrics(traced, untraced):
    """Per-layer means over the traced passes, times at the reference speed."""
    from spans import LAYERS, ROOT

    n = len(traced)
    stats = {layer: defaultdict(float) for layer in [*LAYERS, ROOT]}
    for p in traced:
        for layer, values in p.tracer.stats.items():
            for k, v in values.items():
                stats[layer][k] += (at_reference(v, p.samples) if k.endswith("_s") else v) / n
    bench = stats[ROOT]

    def get(layer, key):
        return stats[layer].get(key, 0.0)

    def rate(layer, key):
        return get(layer, key) / get(layer, "self_s") if get(layer, "self_s") else 0.0

    m = {}
    for layer, keys in (
        ("groups.ball", ("calls", "points", "self_s")),
        ("groups.word_norm", ("calls", "self_s")),
        ("isoperimetry.profile_exact", ("calls", "self_s")),
        ("isoperimetry.profile_all_subsets", ("self_s",)),
        ("kernels.subset_min_ratio", ("calls", "nodes", "self_s")),
        ("kernels.pack_max_weight", ("calls", "items", "nodes", "self_s", "incomplete")),
        ("graphings.build", ("calls", "vertices", "self_s")),
        ("action_profile.profile_action_exact", ("calls", "exhaustive_calls", "self_s")),
        ("action_profile.boundary_mass", ("calls", "self_s")),
        ("action_profile.iterated_boundary", ("self_s",)),
        ("tilings.verify_multitile_window", ("calls", "window_points", "self_s")),
        ("rokhlin.build_towers", ("self_s",)),
        ("rokhlin.verify_tower_family", ("self_s",)),
        ("bounds.check_lower_bound", ("self_s",)),
        ("bounds.check_generating_set_comparison", ("self_s",)),
        ("bounds.positivity_check", ("self_s",)),
        ("bounds.check_tiling_upper_bound", ("self_s",)),
        ("cli.main", ("calls", "self_s", "bytes_out")),
    ):
        for key in keys:
            m[f"{layer}.{key}"] = get(layer, key)
    m["kernels.subset_min_ratio.nodes_per_s"] = rate("kernels.subset_min_ratio", "nodes")
    m["kernels.pack_max_weight.nodes_per_s"] = rate("kernels.pack_max_weight", "nodes")
    m["tilings.verify_multitile_window.points_per_s"] = rate(
        "tilings.verify_multitile_window", "window_points")
    m["rokhlin.fibers"] = get("rokhlin.build_towers", "fibers")
    # the pass outside every layer: argument set-up and the result checks
    m["bench.self_s"] = bench["self_s"] - statistics.fmean(
        at_reference(p.calibrating_s, p.samples) for p in traced)
    m["bench.calibration_s"] = statistics.median(c for p in traced for c in p.samples)
    m["trace.wall_s"] = statistics.fmean(at_reference(p.root_s, p.samples) for p in traced)
    m["trace.overhead_s"] = m["trace.wall_s"] - statistics.fmean(
        at_reference(p.root_s, p.samples) for p in untraced[1:])
    return m


# -- determinism of the counts ---------------------------------------------------


def check_counts(passes, workload, seed, src):
    """Counts and output digests must repeat across the passes and across runs of one seed."""
    problems = []
    first = passes[0]
    reference = dict(first.counts, outputs=first.digest())
    for i, p in enumerate(passes[1:], start=1):
        mine = dict(p.counts, outputs=p.digest())
        if mine != reference:
            kind = "traced" if p.traced else "untraced"
            problems.append(f"pass {i} ({kind}) differs from pass 0: {mine} != {reference}")
    record_path = os.path.join(STATE, "counts.json")
    records = {}
    if os.path.exists(record_path):
        with open(record_path) as fh:
            records = json.load(fh)
    key = f"{workload}/{seed}/{src}"
    if key in records and records[key] != reference:
        problems.append(f"counts differ from an earlier run of this seed: "
                        f"{reference} != {records[key]}")
    records.setdefault(key, reference)
    with open(record_path, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
    return reference, problems


# -- entry point -------------------------------------------------------------------


def record_expected():
    from workloads import WORKLOADS

    table = {}
    for workload in WORKLOADS:
        passes = run_passes(workload, 0, 0, False, None)
        if passes[0].failures:
            fail(f"{workload}: {passes[0].failures}")
        table[workload] = passes[0].certs
    with open(EXPECTED, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["search", "windows", "models"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-expected", action="store_true",
                    help="rewrite perfbench/expected.json from seed-0 passes")
    opts = ap.parse_args()
    if opts.seed < 0:
        fail("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "isoprof", "__init__.py")):
        fail(f"no isoprof sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import isoprof
    from isoprof import _kernels

    if os.path.dirname(os.path.abspath(isoprof.__file__)) != os.path.join(SRC, "isoprof"):
        fail(f"imported isoprof from {isoprof.__file__}, not from {SRC}")
    if os.path.exists(STATE):
        shutil.rmtree(os.path.join(STATE, "work"), ignore_errors=True)
    os.makedirs(STATE, exist_ok=True)
    try:
        if opts.record_expected:
            record_expected()
            return
        if opts.workload is None:
            fail("--workload is required")
        with open(EXPECTED) as fh:
            expected = json.load(fh)[opts.workload]
        result = measure(opts, expected, _kernels.BACKEND)
    finally:
        shutil.rmtree(os.path.join(STATE, "work"), ignore_errors=True)
    print(json.dumps(result))


def measure(opts, expected, backend):
    src = source_digest()
    meta = {"workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
            "backend": backend, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "git": git_revision(), "src_sha256": src}
    print("# meta " + json.dumps(meta, sort_keys=True))
    if opts.trace:
        import_total, import_sympy = import_times()
    else:
        raw_setup, setup = setup_seconds()

    passes = run_passes(opts.workload, opts.seed, opts.seconds, bool(opts.trace), expected)
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    counts, problems = check_counts(passes, opts.workload, opts.seed, src)
    if opts.workload == "search":
        ok, message = backend_parity()
        print(f"# backend parity: {message}")
        if ok is not None:
            attempted += 1
            if not ok:
                failed += 1
                failures.append(message)
    failed += len(problems)
    failures += problems
    print("# counts " + json.dumps(counts, sort_keys=True))
    print(f"# passes: {len(untraced)} untraced, {len(traced)} traced; pass walls "
          + " ".join(f"{sum(p.times.values()):.3f}" for p in passes))
    for name in passes[0].times:
        times = " ".join(f"{p.times[name]:.4f}" for p in untraced)
        print(f"# op {name}: {times}")
    for line in failures:
        print(f"# FAILED {line}")
        print(f"perfbench: {line}", file=sys.stderr)

    wall = median_wall(untraced)
    if opts.trace:
        metrics = layer_metrics(traced, untraced)
        metrics["import.total_s"] = import_total
        metrics["import.sympy_s"] = import_sympy
        accounted = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        print(f"# traced pass {metrics['trace.wall_s']:.4f} s = layer and bench self times "
              f"{accounted:.4f} s = untraced pass "
              f"{metrics['trace.wall_s'] - metrics['trace.overhead_s']:.4f} s + overhead "
              f"{metrics['trace.overhead_s']:.4f} s")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"wall_s": median_wall(untraced, scaled=True), "setup_s": setup,
                   "peak_rss_mb": rss_mb, "success_rate": (attempted - failed) / attempted}
        samples = [c for p in untraced for c in p.samples]
        print(f"# raw wall_s {wall} s, setup_s {raw_setup} s; calibration median "
              f"{statistics.median(samples)} s over {len(samples)} samples, "
              f"reference {REFERENCE_S} s")
        print(f"# error_rate {failed / attempted} ({failed} of {attempted} operations failed)")
    units = declared_units(opts.trace)
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} are not both measured and declared "
             f"in {BENCHMARK}")
    out = {}
    for name, unit in units.items():
        out[name] = {"value": metrics[name], "unit": unit}
        print(f"{name} {metrics[name]} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


if __name__ == "__main__":
    main()
