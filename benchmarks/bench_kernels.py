"""Timing comparison of the pure and compiled search kernels.

Both backends run the same branch-and-bound with identical node counts, so
the table measures interpreter overhead against the C extension on the two
hot paths: the all-subsets profile search and the interior-packing search
behind exact action profiles.  --heavy adds the largest workload from the
lower-bound suite.

Usage: python3 benchmarks/bench_kernels.py [--repeat N] [--heavy]
"""

import argparse
import time

from isoprof import ZdGroup, build_torus_action
from isoprof._kernels import _pure
from isoprof.action_profile import packing_items
from isoprof.isoperimetry import neighbor_table

try:
    from isoprof._kernels import _core
except ImportError:
    _core = None

BUDGET = 1 << 62


def subset_inputs(group, n_max):
    """Arguments of subset_min_ratio, from the table the profile search builds."""
    order, nbr = neighbor_table(group, n_max - 1)
    flat = [u for row in nbr for u in row]
    return flat, len(order), len(group.labels), n_max, BUDGET


def packing_inputs(graphing, n):
    """Arguments of pack_max_weight, from the items the exact action profile builds."""
    masks, weights, _ = packing_items(graphing, n)
    return masks, weights, n, BUDGET


def result_key(out):
    """Normalize a kernel result for cross-backend comparison (lists vs tuples)."""
    a, b = out[0], out[1]
    if isinstance(a, (list, tuple)):
        a = tuple(a)
    if isinstance(b, (list, tuple)):
        b = tuple(b)
    return a, b, out[2], out[3]


def best_of(fn, args, repeat):
    out = None
    t_best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        t_best = dt if t_best is None else min(t_best, dt)
    return t_best, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3, help="timing repetitions, best-of")
    ap.add_argument("--heavy", action="store_true", help="include the (Z/12)^2 n=5 packing")
    opts = ap.parse_args()

    cases = [
        ("subset Z^1 n<=9", _pure.subset_min_ratio,
         getattr(_core, "subset_min_ratio", None),
         subset_inputs(ZdGroup(1), 9)),
        ("subset Z^2 n<=6", _pure.subset_min_ratio,
         getattr(_core, "subset_min_ratio", None),
         subset_inputs(ZdGroup(2), 6)),
        ("pack (Z/6)^2 n=5", _pure.pack_max_weight,
         getattr(_core, "pack_max_weight", None),
         packing_inputs(build_torus_action(2, 6), 5)),
        ("pack (Z/8)^2 n=5", _pure.pack_max_weight,
         getattr(_core, "pack_max_weight", None),
         packing_inputs(build_torus_action(2, 8), 5)),
    ]
    if opts.heavy:
        cases.append(("pack (Z/12)^2 n=5", _pure.pack_max_weight,
                      getattr(_core, "pack_max_weight", None),
                      packing_inputs(build_torus_action(2, 12), 5)))

    if _core is None:
        print("compiled extension not importable; timing the pure kernels only")
    print(f"{'workload':<20} {'backend':<9} {'time [s]':>10} {'nodes':>12}")
    for name, pure_fn, core_fn, args in cases:
        t_pure, out_pure = best_of(pure_fn, args, opts.repeat)
        nodes_pure = out_pure[2]
        print(f"{name:<20} {'pure':<9} {t_pure:>10.4f} {nodes_pure:>12}")
        if core_fn is None:
            continue
        t_core, out_core = best_of(core_fn, args, opts.repeat)
        nodes_core = out_core[2]
        if result_key(out_core) != result_key(out_pure):
            raise SystemExit(f"backend mismatch on {name}: {out_pure} vs {out_core}")
        speedup = t_pure / t_core if t_core > 0 else float("inf")
        print(f"{name:<20} {'compiled':<9} {t_core:>10.4f} {nodes_core:>12}  ({speedup:.1f}x)")


if __name__ == "__main__":
    main()
