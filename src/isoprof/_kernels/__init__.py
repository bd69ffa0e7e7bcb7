"""Kernel dispatch: the compiled kernels when they build, pure Python otherwise.

Eight kernels have both versions: the searches (subset_min_ratio,
pack_max_weight, min_boundary_sets, partition_dp), the growth of every
missing column ball of a Z^d or Heisenberg row store in one call, onto the
store in place (grow_balls), a ball's neighbour table (ball_table), a
graphing's paired maps and transitive symmetries (graphing_certificate)
and the cover counts of a tile window, class by class, with the classes
numbered from the row keys by one integer rule (residue_histogram).  `_core` compiles kernels.c on first import.
When that fails BACKEND is "pure" and BACKEND_REASON says why; otherwise
BACKEND is "compiled" and the reason is None.  One rule picks the version of every
call: the compiled twin when `_core` loaded, and the pure twin when it did
not or when the compiled twin raises OverflowError, which it does for
exactly the calls whose numbers could leave its int64 range.  Either way the
results (including node counts, ball rows, tables, sigmas and histograms) are
identical, though compiled residue_histogram hands back array('q')s where
its pure twin gives lists.
"""

from functools import update_wrapper

from . import _pure

try:
    from . import _core
except ImportError as exc:
    _core = None
    BACKEND, BACKEND_REASON = "pure", str(exc)
else:
    BACKEND, BACKEND_REASON = "compiled", None


def _dispatch(name):
    """The kernel name under the one rule; `_core` is read at each call."""
    pure = getattr(_pure, name)

    def kernel(*args, **kwargs):
        if _core is not None:
            try:
                return getattr(_core, name)(*args, **kwargs)
            except OverflowError:
                pass
        return pure(*args, **kwargs)

    return update_wrapper(kernel, pure)


(subset_min_ratio, pack_max_weight, min_boundary_sets, partition_dp, grow_balls,
 ball_table, graphing_certificate, residue_histogram) = map(_dispatch, (
     "subset_min_ratio", "pack_max_weight", "min_boundary_sets", "partition_dp",
     "grow_balls", "ball_table", "graphing_certificate", "residue_histogram"))
