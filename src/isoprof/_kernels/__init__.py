"""Kernel dispatch: the compiled kernels when they build, pure Python otherwise.

The searches (subset_min_ratio, pack_max_weight, min_boundary_sets,
partition_dp), the step that grows the column spheres of Z^d and the
Heisenberg group (next_sphere) and the union of those spheres into a ball
(union_rows) each have both versions.  `_core` compiles kernels.c on first
import.  When that fails BACKEND is "pure" and BACKEND_REASON says why;
otherwise BACKEND is "compiled" and the reason is None.  The compiled packing
kernel and partition DP sum weights in int64, so calls with larger weights
run on the pure kernels; the compiled sphere step and union refuse a call
where a coordinate could reach 2**62, which then runs pure too.  Either way
the results (including node counts and sphere rows) are identical.
"""

from . import _pure

try:
    from . import _core
except ImportError as exc:
    _core = None
    BACKEND, BACKEND_REASON = "pure", str(exc)
else:
    BACKEND, BACKEND_REASON = "compiled", None

_INT64_CAP = 1 << 62


def subset_min_ratio(flat_neighbors, universe, s_count, n_max, node_budget):
    """Minimum boundary count per subset size; see _pure.subset_min_ratio."""
    if _core is not None:
        return _core.subset_min_ratio(flat_neighbors, universe, s_count, n_max, node_budget)
    return _pure.subset_min_ratio(flat_neighbors, universe, s_count, n_max, node_budget)


def _fits_int64(weights):
    return all(0 <= w < _INT64_CAP for w in weights) and sum(weights) < _INT64_CAP


def pack_max_weight(masks, weights, n_bound, node_budget, fix_root):
    """Maximum-weight feasible interior packing; see _pure.pack_max_weight."""
    if _core is not None and _fits_int64(weights):
        return _core.pack_max_weight(masks, weights, n_bound, node_budget, fix_root)
    return _pure.pack_max_weight(masks, weights, n_bound, node_budget, fix_root)


def min_boundary_sets(flat_neighbors, universe, s_count, limit, ranks, node_budget,
                      inverse=None):
    """Fewest boundary members per connected-set size; see _pure.min_boundary_sets."""
    if _core is not None:
        return _core.min_boundary_sets(flat_neighbors, universe, s_count, limit, ranks,
                                       node_budget, inverse)
    return _pure.min_boundary_sets(flat_neighbors, universe, s_count, limit, ranks, node_budget,
                                   inverse)


def partition_dp(flat_neighbors, universe, s_count, weights, limit):
    """Cheapest partition into small connected cells; see _pure.partition_dp."""
    if _core is not None and _fits_int64(weights):
        return _core.partition_dp(flat_neighbors, universe, s_count, weights, limit)
    return _pure.partition_dp(flat_neighbors, universe, s_count, weights, limit)


def next_sphere(key_len, steps, prev_rows, older_rows):
    """Rows of the next column sphere; see _pure.next_sphere.  The compiled kernel
    refuses a call where a coordinate could reach 2**62, which then runs pure."""
    if _core is not None:
        try:
            return _core.next_sphere(key_len, steps, prev_rows, older_rows)
        except OverflowError:
            pass
    return _pure.next_sphere(key_len, steps, prev_rows, older_rows)


def union_rows(key_len, rows, ends):
    """Rows of the union of sorted runs of rows; see _pure.union_rows.  The
    compiled kernel refuses entries that reach 2**62, which then run pure."""
    if _core is not None:
        try:
            return _core.union_rows(key_len, rows, ends)
        except OverflowError:
            pass
    return _pure.union_rows(key_len, rows, ends)
