"""Compiled search kernels: kernels.c, built on first import and loaded with ctypes.

The C compiler that sysconfig reports builds kernels.c into ~/.cache/isoprof,
under a name hashed from the source, the platform and the compile command, so
later imports only load the library.  Any failure to build or load raises
ImportError with the reason, and the dispatcher in __init__ then runs the pure
kernels.  The wrappers check every input the C code would otherwise trust:
ValueError for what the pure twin refuses too, and OverflowError for a call
whose numbers could leave int64 (a weight outside [0, 2**62) or a weight sum
past it, a ball row or table image entry that could reach 2**62, a tile
window's period at 2**62), which the dispatcher then runs on the pure twin;
grow_balls raises it with nothing grown, so the pure twin grows the same balls
from the same store; the residue histogram's C checks its rows, its lattices'
numbers and its sums itself, in the same pass that reads them.  _check_status
decodes the C return codes.  Buffers reach C as pointers into array('i'),
array('q') or array('Q') objects, so no call makes a ctypes array type; the
buffers C allocates, the residue histogram's and each grown ball's, are copied
out and released at once, a ball's rows onto the end of the store.
"""

import ctypes
import hashlib
import os
import sysconfig
from array import array
from itertools import chain, islice
from operator import itemgetter

from ._pure import (
    Histogram,
    check_grow_inputs,
    check_certificate_inputs,
    check_connected_inputs,
    check_histogram_inputs,
    check_pack_inputs,
    check_partition_inputs,
    check_subset_inputs,
    check_table_inputs,
)

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernels.c")
_INT_MAX = (1 << 31) - 1
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_LIMB = (1 << 64) - 1
_int, _i64, _u64 = ctypes.c_int, ctypes.c_longlong, ctypes.c_uint64
_int_p, _i64_p, _u64_p = (ctypes.POINTER(t) for t in (_int, _i64, _u64))


def _compile(command, path):
    """Build the library at path, which then holds it complete or not at all."""
    import subprocess
    import tempfile

    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        proc = subprocess.run([*command, "-o", tmp, _SOURCE], capture_output=True, text=True,
                              stdin=subprocess.DEVNULL)
        if proc.returncode != 0:
            raise ImportError(f"{' '.join(command)} exited {proc.returncode}: "
                              f"{proc.stderr.strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load():
    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    # every function starts on a 64-byte line, so code added to one kernel does
    # not shift the hot loops of another: a 752-byte shift once cost
    # subset_min_ratio about 5%
    command = [*(sysconfig.get_config_var("CC") or "cc").split(),
               *(sysconfig.get_config_var("CCSHARED") or "").split(), "-O2",
               "-falign-functions=64", "-shared"]
    key = "\0".join([sysconfig.get_platform(), *command]).encode()
    key = hashlib.sha256(source + key).hexdigest()[:16]
    path = os.path.join(os.path.expanduser("~"), ".cache", "isoprof", f"kernels-{key}.so")
    try:
        if not os.path.exists(path):
            _compile(command, path)
        lib = ctypes.CDLL(path)
    except OSError as exc:
        raise ImportError(f"cannot build or load {_SOURCE}: {exc}") from exc
    lib.subset_min_ratio.argtypes = [_int_p, _int, _int, _int, _i64, _i64_p, _i64_p, _i64_p]
    lib.pack_max_weight.argtypes = [_int, _int, _u64_p, _i64_p, _int_p, _int, _i64, _int,
                                    _i64_p, _u64_p, _i64_p]
    lib.min_boundary_sets.argtypes = [_int_p, _int, _int, _int, _int_p, _int_p, _i64, _i64_p,
                                      _int_p, _i64_p]
    lib.partition_dp.argtypes = [_int_p, _int, _int, _i64_p, _int, _i64_p, _u64_p, _int_p,
                                 _i64_p]
    for fn in (lib.subset_min_ratio, lib.pack_max_weight, lib.min_boundary_sets,
               lib.partition_dp):
        fn.restype = _int
    lib.grow_balls.argtypes = [_int, _int, _i64_p, _i64_p, _i64, _i64, _i64, _i64, _i64_p,
                               _u64_p]
    lib.grow_balls.restype = _i64
    lib.ball_table.argtypes = [_int, _int, _i64_p, _i64_p, _i64_p, _int, _i64_p, _int_p, _int_p,
                               _int_p]
    lib.ball_table.restype = _int
    lib.graphing_certificate.argtypes = [_int_p, _int, _int, _int_p, _int_p]
    lib.graphing_certificate.restype = _int
    lib.residue_histogram.argtypes = [_int, _i64_p, _i64, _i64_p, _i64, _int, _i64_p, _i64_p,
                                      _i64_p, _i64_p, _i64, _i64, _i64_p, _i64_p, _i64_p,
                                      ctypes.POINTER(_i64_p)]
    lib.residue_histogram.restype = _i64
    lib.release.argtypes = [ctypes.c_void_p]
    lib.release.restype = None
    return lib


_lib = _load()
# a read-only memoryview of C memory at an address, which needs no ctypes array type
_view = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_ssize_t, _int)(
    ("PyMemoryView_FromMemory", ctypes.pythonapi))
_PYBUF_READ = 0x100


def _budget(node_budget):
    return max(_INT64_MIN, min(node_budget, _INT64_MAX))


def _at(values, ctype):
    """A pointer to the first item of a writable buffer of ctype items, which
    keeps the buffer alive, or NULL for an empty one.  No ctypes array type is
    made: each one would be a new type per call, a cycle of about 16 objects
    left for the cyclic collector."""
    return ctypes.byref(ctype.from_buffer(values)) if len(values) else None


def _ints(values):
    """A C int pointer to values: shared with an array('i'), copied from anything
    else; OverflowError when a value does not fit."""
    if not (isinstance(values, array) and values.typecode == "i"):
        values = array("i", values)
    return _at(values, _int)


def _i64s(values):
    """A C int64 pointer to values: shared with an array('q'), copied from
    anything else; OverflowError when a value does not fit."""
    if not (isinstance(values, array) and values.typecode == "q"):
        values = array("q", values)
    return _at(values, _i64)


def _check_int32(limit):
    if limit > _INT_MAX:
        raise ValueError("the size limit must fit in int32")


def _check_weights(weights):
    """OverflowError unless every weight and the weight sum lie in [0, 2**62)."""
    if not all(0 <= w < 1 << 62 for w in weights) or sum(weights) >= 1 << 62:
        raise OverflowError("weights and their sum must lie in [0, 2**62)")


def _check_status(code, kernel, refusal=""):
    """Raise what a C return code stands for: -1 MemoryError, -2 ValueError
    with the kernel's refusal, -3 OverflowError; other codes are results."""
    if code == -1:
        raise MemoryError(f"{kernel} could not allocate its working memory")
    if code == -2:
        raise ValueError(refusal)
    if code == -3:
        raise OverflowError(f"{kernel} entries could reach 2**62")


def subset_min_ratio(flat_neighbors, universe, s_count, n_max, node_budget):
    """Compiled twin of _pure.subset_min_ratio; same contract, same node counts."""
    check_subset_inputs(flat_neighbors, universe, s_count, n_max)
    _check_int32(n_max)
    num = array("q", bytes(8 * (n_max + 1)))
    den = array("q", bytes(8 * (n_max + 1)))
    nodes = _i64()
    status = _lib.subset_min_ratio(_ints(flat_neighbors), universe,
                                   s_count, n_max, _budget(node_budget), _i64s(num), _i64s(den),
                                   ctypes.byref(nodes))
    _check_status(status, "subset_min_ratio")
    return list(num), list(den), nodes.value, status == 1


def pack_max_weight(masks, weights, n_bound, node_budget, fix_root):
    """Compiled twin of _pure.pack_max_weight for weights in [0, 2**62) whose
    sum is too."""
    check_pack_inputs(masks, weights, n_bound)
    _check_weights(weights)
    count = len(masks)
    if count == 0:
        return 0, (), 0, True
    limbs = max(1, (max(masks).bit_length() + 63) // 64)
    vmask = array("Q", [(mask >> s) & _LIMB for mask in masks for s in range(0, 64 * limbs, 64)])
    order = sorted(range(count), key=lambda i: (-weights[i], i))
    best = _i64()
    best_set = array("Q", bytes(8 * ((count + 63) // 64)))
    nodes = _i64()
    status = _lib.pack_max_weight(count, limbs, _at(vmask, _u64), _i64s(weights),
                                  _ints(order), min(n_bound, _INT_MAX),
                                  _budget(node_budget), 1 if fix_root else 0,
                                  ctypes.byref(best), _at(best_set, _u64),
                                  ctypes.byref(nodes))
    _check_status(status, "pack_max_weight")
    items = tuple(i for i in range(count) if best_set[i >> 6] >> (i & 63) & 1)
    return best.value, items, nodes.value, status == 1


def min_boundary_sets(flat_neighbors, universe, s_count, limit, ranks, node_budget,
                      inverse=None):
    """Compiled twin of _pure.min_boundary_sets; same contract, same node counts."""
    check_connected_inputs(flat_neighbors, universe, s_count, limit, ranks, inverse)
    _check_int32(limit)
    best = array("q", bytes(8 * (limit + 1)))
    sets = array("i", bytes(4 * (limit + 1) * limit))
    nodes = _i64()
    status = _lib.min_boundary_sets(_ints(flat_neighbors), universe, s_count, limit,
                                    _ints(ranks), None if inverse is None else _ints(inverse),
                                    _budget(node_budget), _i64s(best), _ints(sets),
                                    ctypes.byref(nodes))
    _check_status(status, "min_boundary_sets",
                  "the neighbor table misses a translate of a visited set")
    sets = [tuple(sets[k * limit : k * limit + k]) if best[k] >= 0 else ()
            for k in range(limit + 1)]
    return list(best), sets, nodes.value, status == 1


def partition_dp(flat_neighbors, universe, s_count, weights, limit):
    """Compiled twin of _pure.partition_dp for weights whose sum lies below 2**62."""
    check_partition_inputs(flat_neighbors, universe, s_count, weights, limit)
    _check_weights(weights)
    value = _i64()
    cells = array("Q", bytes(8 * universe))
    n_cells = _int()
    nodes = _i64()
    status = _lib.partition_dp(_ints(flat_neighbors), universe, s_count, _i64s(weights),
                               min(limit, universe), ctypes.byref(value), _at(cells, _u64),
                               ctypes.byref(n_cells), ctypes.byref(nodes))
    _check_status(status, "partition_dp")
    return value.value, tuple(cells[: n_cells.value]), nodes.value


def _step_entries(steps):
    """Steps (head, dc, coef) as the flat entries kernels.c reads."""
    return [x for head, dc, coef in steps for x in (*head, dc, *coef)]


def grow_balls(key_len, steps, store, ends, radius, budget):
    """Compiled twin of _pure.grow_balls.  C hands back each new ball in a
    block of its own, which is copied onto the end of the store and freed
    before the next, so only the ball being copied is held twice.
    OverflowError, with nothing grown, when a coordinate could reach 2**62."""
    n_grow = check_grow_inputs(key_len, steps, store, ends, radius)
    n_last = ends[-1] - ends[-2]
    if n_last:  # each ball grown adds a row, so the budget bounds their number
        n_grow = min(n_grow, max(0, budget - ends[-1]))
    if not n_grow:
        return store, ends
    width, int64s = key_len + 2, isinstance(store, array) and store.typecode == "q"
    last = (ctypes.byref(_i64.from_buffer(store, 8 * width * ends[-2])) if int64s and n_last
            else _i64s(array("q", islice(store, ends[-2] * width, None))))
    grown, balls = array("q", [0]) * n_grow, array("Q", [0]) * n_grow
    count = _lib.grow_balls(key_len, len(steps), _i64s(_step_entries(steps)), last, n_last,
                            ends[-1], n_grow, max(-1, min(budget, _INT64_MAX)), _i64s(grown),
                            _at(balls, _u64))
    del last  # the store's buffer is no longer lent out, so the store can grow
    _check_status(count, "grow_balls", "rows must be sorted by (key, lo), disjoint per key")
    try:
        for g in range(count):
            rows = _view(balls[g], 8 * width * (grown[g] - ends[-1]), _PYBUF_READ)
            if int64s:
                store.frombytes(rows)
            else:
                store.extend(rows.cast("q"))
            rows.release()
            _lib.release(balls[g])
            balls[g] = 0
            ends.append(grown[g])
    finally:
        for block in balls[:count]:
            _lib.release(block)
    return store, ends


def ball_table(key_len, steps, form, rows, ends, inverse):
    """Compiled twin of _pure.ball_table; OverflowError when an image
    coordinate could reach 2**62."""
    size = check_table_inputs(key_len, steps, form, rows, ends)
    flat = array("i", bytes(4 * size * len(steps)))
    inv = array("i", bytes(4 * size)) if inverse else None
    ranks = array("i", bytes(4 * size))
    status = _lib.ball_table(key_len, len(steps), _i64s(_step_entries(steps)),
                             _i64s([x for row in form for x in row]), _i64s(rows), len(ends),
                             _i64s(ends), _ints(flat), None if inv is None else _ints(inv),
                             _ints(ranks))
    _check_status(status, "ball_table",
                  "rows must be sorted by (key, lo) in each run, each ball holding the one before")
    return flat, inv, ranks


def graphing_certificate(table, n_vertices, inverse):
    """Compiled twin of _pure.graphing_certificate."""
    check_certificate_inputs(table, n_vertices, inverse)
    sigmas = array("i", bytes(4 * len(table)))
    status = _lib.graphing_certificate(_ints(table), n_vertices, len(inverse), _ints(inverse),
                                       _ints(sigmas))
    _check_status(status, "graphing_certificate", "table entries must be -1 or vertices")
    if status != 1:
        return status == 0, None
    return True, tuple(tuple(sigmas[s:s + n_vertices]) for s in range(0, len(sigmas), n_vertices))


def residue_histogram(key_len, window, region, lattices, limit):
    """Compiled twin of _pure.residue_histogram; its lists come back as
    array('q')s.  OverflowError when an entry, a lattice's number, the
    period, the number of window points or the sum of counts could reach
    2**62."""
    period = check_histogram_inputs(key_len, window, region, lattices)
    if period >= 1 << 62:  # ctypes would wrap it
        raise OverflowError("the period must lie below 2**62")
    width = key_len + 2
    n_window = len(window) // width
    entry_ends = array("q", [0])
    for _, _, entries in lattices:
        entry_ends.append(entry_ends[-1] + len(entries) // (key_len + 3))
    ids, ends, sums = (array("q", [0]) * size for size in (n_window, n_window + 1, 4))
    block = _i64_p()
    evaluations = _lib.residue_histogram(
        key_len, _i64s(window), n_window, _i64s(region), len(region) // width, len(lattices),
        *(_i64s(list(chain.from_iterable(map(itemgetter(part), lattices))))
          for part in range(3)),
        _i64s(entry_ends), period, _budget(limit), _i64s(ids), _i64s(ends), _i64s(sums),
        ctypes.byref(block))
    _check_status(evaluations, "residue_histogram",
                  "rows must be sorted by (key, lo), disjoint per key, the region in the window")
    if not block:
        return evaluations, None
    n_classes, total, covered, largest = sums
    del ends[n_classes + 1:]
    size = ends[-1]
    try:
        # residues, counts, window and region points
        parts = [array("q", [0]) * size for _ in range(4)]
        first = block.contents
        for i, part in enumerate(parts):
            ctypes.memmove(part.buffer_info()[0], ctypes.byref(first, 8 * size * i), 8 * size)
    finally:
        _lib.release(block)
    return evaluations, Histogram(ids, ends, *parts, total, covered, largest)
