"""Timing comparison of the pure and compiled search kernels.

Both backends run the same searches with identical node counts, so the
table measures interpreter overhead against kernels.c, compiled on first
import, on the hot paths: the all-subsets profile search, the connected-set
search behind profile_exact, and the interior-packing search and partition
DP behind exact action profiles.  --heavy adds the largest workload from
the lower-bound suite.

Usage: python3 benchmarks/bench_kernels.py [--repeat N] [--heavy]
"""

import argparse
import time
from fractions import Fraction

from isoprof import ZdGroup, build_torus_action, build_weighted_cycle
from isoprof._kernels import BACKEND_REASON, _core, _pure
from isoprof.action_profile import packing_items, partition_tables
from isoprof.isoperimetry import canonical_ranks, neighbor_table

BUDGET = 1 << 62


def subset_inputs(group, n_max):
    """Arguments of subset_min_ratio, from the table the profile search builds."""
    order, flat = neighbor_table(group, n_max - 1)
    return flat, len(order), len(group.labels), n_max, BUDGET


def connected_inputs(group, limit):
    """Arguments of min_boundary_sets, from the table profile_exact builds."""
    order, flat = neighbor_table(group, limit - 1)
    return flat, len(order), len(group.labels), limit, canonical_ranks(order), BUDGET


def partition_inputs(graphing, n):
    """Arguments of partition_dp, from the tables the exhaustive action profile builds."""
    *tables, _ = partition_tables(graphing)
    return (*tables, n)


def packing_inputs(graphing, n):
    """Arguments of pack_max_weight, from the items the exact action profile builds."""
    masks, weights, _ = packing_items(graphing, n)
    return masks, weights, n, BUDGET


def result_key(out):
    """Normalize a kernel result for cross-backend comparison (lists vs tuples)."""
    return tuple(tuple(x) if isinstance(x, (list, tuple)) else x for x in out)


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
        ("connected Z^2 n<=10", _pure.min_boundary_sets,
         getattr(_core, "min_boundary_sets", None),
         connected_inputs(ZdGroup(2), 10)),
        ("connected Z^3 n<=8", _pure.min_boundary_sets,
         getattr(_core, "min_boundary_sets", None),
         connected_inputs(ZdGroup(3), 8)),
        ("partition C14 n=5", _pure.partition_dp,
         getattr(_core, "partition_dp", None),
         partition_inputs(build_weighted_cycle(14, [Fraction(1 + i % 4, 33) for i in range(14)]), 5)),
        ("partition (Z/3)^2 n=5", _pure.partition_dp,
         getattr(_core, "partition_dp", None),
         partition_inputs(build_torus_action(2, 3), 5)),
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
        print(f"compiled kernels unavailable ({BACKEND_REASON}); timing the pure kernels only")
    print(f"{'workload':<22} {'backend':<9} {'time [s]':>10} {'nodes':>12}")
    for name, pure_fn, core_fn, args in cases:
        t_pure, out_pure = best_of(pure_fn, args, opts.repeat)
        nodes_pure = out_pure[2]
        print(f"{name:<22} {'pure':<9} {t_pure:>10.4f} {nodes_pure:>12}")
        if core_fn is None:
            continue
        t_core, out_core = best_of(core_fn, args, opts.repeat)
        nodes_core = out_core[2]
        if result_key(out_core) != result_key(out_pure):
            raise SystemExit(f"backend mismatch on {name}: {out_pure} vs {out_core}")
        speedup = t_pure / t_core if t_core > 0 else float("inf")
        print(f"{name:<22} {'compiled':<9} {t_core:>10.4f} {nodes_core:>12}  ({speedup:.1f}x)")


if __name__ == "__main__":
    main()
