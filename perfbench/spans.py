"""Spans around the public entry points of isoprof, recorded from outside the package.

Nothing under src/ knows about this module.  `Tracer.install()` replaces each
traced function with a wrapper in every place it is bound: the defining
module, every isoprof module that imported it by name, and the class for
methods.  `Tracer.uninstall()` puts the originals back, so untraced passes
run the unmodified code.

A span's self time is its duration minus the time covered by its child
spans.  A call that lands in the same layer as the span directly around it
(`build_torus_action` calling `MeasuredGraphing.__init__`, say) is folded into that
span, so `calls` counts outermost calls of the layer.
"""

import functools
import sys
from collections import defaultdict
from time import perf_counter

ROOT = "bench"


def _count_ball(args, result):
    return {"points": len(result)}


def _count_kernel_subset(args, result):
    return {"nodes": result[2], "incomplete": 0 if result[3] else 1}


def _count_kernel_pack(args, result):
    return {"items": len(args[0]), "nodes": result[2], "incomplete": 0 if result[3] else 1}


def _count_build(args, result):
    graphing = args[0] if result is None else result  # __init__ returns None
    return {"vertices": graphing.n_vertices}


def _count_action(args, result):
    return {"exhaustive_calls": 1 if result.method == "exhaustive" else 0}


def _count_window(args, result):
    return {"window_points": result.window_size}


def _count_towers(args, result):
    return {"fibers": sum(len(f) for f in result.fibers)}


# (layer, module, attribute path, counters); a dotted path names a class member
TRACED = [
    ("groups.ball", "isoprof.groups", "MarkedGroup.ball", _count_ball),
    ("groups.word_norm", "isoprof.groups", "MarkedGroup.word_norm", None),
    ("isoperimetry.profile_exact", "isoprof.isoperimetry", "profile_exact", None),
    ("isoperimetry.profile_all_subsets", "isoprof.isoperimetry", "profile_all_subsets", None),
    ("kernels.subset_min_ratio", "isoprof._kernels", "subset_min_ratio", _count_kernel_subset),
    ("kernels.pack_max_weight", "isoprof._kernels", "pack_max_weight", _count_kernel_pack),
    ("graphings.build", "isoprof.graphings", "build_torus_action", _count_build),
    ("graphings.build", "isoprof.graphings", "build_heisenberg_quotient", _count_build),
    ("graphings.build", "isoprof.graphings", "build_weighted_cycle", _count_build),
    ("graphings.build", "isoprof.graphings", "MeasuredGraphing.__init__", _count_build),
    ("graphings.build", "isoprof.graphings", "MeasuredGraphing.from_json", _count_build),
    ("action_profile.profile_action_exact", "isoprof.action_profile", "profile_action_exact",
     _count_action),
    ("action_profile.boundary_mass", "isoprof.action_profile", "boundary_mass", None),
    ("action_profile.iterated_boundary", "isoprof.action_profile", "iterated_boundary", None),
    ("tilings.verify_multitile_window", "isoprof.tilings", "verify_multitile_window",
     _count_window),
    ("rokhlin.build_towers", "isoprof.rokhlin", "build_towers", _count_towers),
    ("rokhlin.verify_tower_family", "isoprof.rokhlin", "verify_tower_family", None),
    ("bounds.check_lower_bound", "isoprof.bounds", "check_lower_bound", None),
    ("bounds.check_generating_set_comparison", "isoprof.bounds",
     "check_generating_set_comparison", None),
    ("bounds.positivity_check", "isoprof.bounds", "positivity_check", None),
    ("bounds.check_tiling_upper_bound", "isoprof.bounds", "check_tiling_upper_bound", None),
    ("cli.main", "isoprof.cli", "main", None),
]

LAYERS = sorted({layer for layer, *_ in TRACED})


class _Span:
    __slots__ = ("layer", "children")

    def __init__(self, layer):
        self.layer = layer
        self.children = 0.0


class Tracer:
    """Per-layer call counts, counters and self time, summed over traced spans."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def span(self, layer, fn, args, kwargs, counters):
        stack = self._stack
        if stack and stack[-1].layer == layer:
            return fn(*args, **kwargs)
        node = _Span(layer)
        stack.append(node)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1].children += elapsed
            stats = self.stats[layer]
            stats["calls"] += 1
            stats["self_s"] += elapsed - node.children
            stats["span_s"] += elapsed
        if counters is not None:
            for key, value in counters(args, result).items():
                stats[key] += value
        return result

    def root(self, fn):
        """Run one pass of a workload under the root span; returns its duration."""
        t0 = perf_counter()
        self.span(ROOT, fn, (), {}, None)
        return perf_counter() - t0

    def add(self, layer, **counts):
        for key, value in counts.items():
            self.stats[layer][key] += value

    # -- installing the wrappers ----------------------------------------------

    def _wrapper(self, layer, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(layer, fn, args, kwargs, counters)

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, module_name, path, counters in TRACED:
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for name in cls_path:
                owner = getattr(owner, name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrapper(layer, raw.__func__, counters))
                self._patch(owner, attr, raw, wrapped)
                continue
            wrapped = self._wrapper(layer, raw, counters)
            if cls_path:
                self._patch(owner, attr, raw, wrapped)
                continue
            # every module-level binding of the function, wherever it was imported
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] != "isoprof" or module is None:
                    continue
                for name, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, name, raw, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
