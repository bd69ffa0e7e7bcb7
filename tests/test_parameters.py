"""The count rule: every count the Python API takes is an int of at least its
least valid value, and anything else raises ParameterError before any search,
on either backend."""

from fractions import Fraction

import pytest

from isoprof import (
    BoundedPartition,
    FreeGroup,
    HeisenbergGroup,
    MeasuredGraphing,
    ZdGroup,
    _kernels,
    build_heisenberg_quotient,
    build_torus_action,
    build_weighted_cycle,
    check_generating_set_comparison,
    check_lower_bound,
    check_tiling_upper_bound,
    cube_tile,
    folner_multitile_sequence,
    heisenberg_cuboid,
    holder_pushforward_bound,
    iterated_boundary,
    positivity_check,
    profile_action_exact,
    profile_all_subsets,
    profile_exact,
    profile_upper,
    verify_multitile_window,
    zd_cube,
)
from isoprof.bounds import cycle_with_marking
from isoprof.cli import main
from isoprof.errors import ParameterError, UnsupportedError
from isoprof.exact import SqrtSum
from isoprof.isoperimetry import ProfilePoint, ProfileResult, SubsetSearchProfile
from isoprof.rokhlin import TowerFamily, verify_tower_family

KERNELS = ("subset_min_ratio", "pack_max_weight", "min_boundary_sets", "partition_dp",
           "ball_table", "graphing_certificate", "residue_histogram")


@pytest.fixture(params=["compiled", "pure"])
def no_search(request, monkeypatch):
    """Run on one backend with every dispatcher kernel refusing to run."""
    if request.param == "compiled":
        pytest.importorskip("isoprof._kernels._core", exc_type=ImportError)
    else:
        monkeypatch.setattr(_kernels, "_core", None)

    def refuse(*args):
        raise AssertionError("a search kernel ran before the parameters were checked")

    for name in KERNELS:
        monkeypatch.setattr(_kernels, name, refuse)


class Models:
    """Valid objects for every argument but the count under test."""

    def __init__(self):
        self.z1 = ZdGroup(1)
        self.g = build_torus_action(1, 12)
        self.partition = BoundedPartition.singletons(self.g)
        self.tile = cube_tile(self.z1, 3)
        self.coarse = cycle_with_marking(12, self.g.weights, [1, -1, 2, -2])
        # a non-pmp weighted cycle and the same weights under a coarser marking
        raw = [Fraction(2 + (i % 3)) for i in range(8)]
        self.w1 = build_weighted_cycle(8, [w / sum(raw) for w in raw])
        self.w2 = cycle_with_marking(8, self.w1.weights, [1, -1, 2, -2])
        self.profile = ProfileResult([ProfilePoint(n=n, value=Fraction(1, n), witness=None)
                                      for n in (1, 2, 3)], complete=True, nodes=0)


@pytest.fixture(scope="module")
def models():
    return Models()


# entry point -> (least valid value, call with the count x)
ENTRIES = {
    "MarkedGroup max_radius": (1, lambda o, x: ZdGroup(1, max_radius=x)),
    "MarkedGroup.ball": (0, lambda o, x: o.z1.ball(x)),
    "MarkedGroup.sphere": (0, lambda o, x: o.z1.sphere(x)),
    "ZdGroup d": (1, lambda o, x: ZdGroup(x)),
    "FreeGroup rank": (1, lambda o, x: FreeGroup(x)),
    "profile_exact n_max": (1, lambda o, x: profile_exact(o.z1, x)),
    "profile_exact node_budget": (1, lambda o, x: profile_exact(o.z1, 3, node_budget=x)),
    "profile_all_subsets n_max": (1, lambda o, x: profile_all_subsets(o.z1, x)),
    "profile_all_subsets radius": (0, lambda o, x: profile_all_subsets(o.z1, 3, radius=x)),
    "profile_all_subsets node_budget":
        (1, lambda o, x: profile_all_subsets(o.z1, 3, node_budget=x)),
    "ProfileResult.value": (1, lambda o, x: o.profile.value(x)),
    "SubsetSearchProfile.value":
        (1, lambda o, x: SubsetSearchProfile(values=(Fraction(1),), nodes=0,
                                             complete=True).value(x)),
    "zd_cube k": (1, lambda o, x: zd_cube(o.z1, x)),
    "heisenberg_cuboid m": (0, lambda o, x: heisenberg_cuboid(HeisenbergGroup(), x)),
    "profile_upper n": (1, lambda o, x: profile_upper(o.z1, x, "intervals")),
    "MeasuredGraphing free_window":
        (0, lambda o, x: MeasuredGraphing(o.g.group, o.g.weights, o.g.maps, x)),
    "MeasuredGraphing.within radius": (0, lambda o, x: o.g.within({0}, x)),
    "build_torus_action d": (1, lambda o, x: build_torus_action(x, 6)),
    "build_torus_action m": (3, lambda o, x: build_torus_action(2, x)),
    "build_heisenberg_quotient m": (3, lambda o, x: build_heisenberg_quotient(x)),
    "build_weighted_cycle m": (3, lambda o, x: build_weighted_cycle(x, [Fraction(1, 3)] * 3)),
    "cycle_with_marking m": (3, lambda o, x: cycle_with_marking(x, [Fraction(1, 3)] * 3, [1, -1])),
    "BoundedPartition n_bound": (1, lambda o, x: BoundedPartition.singletons(o.g, x)),
    "profile_action_exact n exhaustive":
        (1, lambda o, x: profile_action_exact(o.g, x, method="exhaustive")),
    "profile_action_exact n bnb": (1, lambda o, x: profile_action_exact(o.g, x, method="bnb")),
    "profile_action_exact node_budget":
        (1, lambda o, x: profile_action_exact(o.g, 3, method="bnb", node_budget=x)),
    "iterated_boundary k": (1, lambda o, x: iterated_boundary(o.g, o.partition, x)),
    "check_lower_bound n": (1, lambda o, x: check_lower_bound(o.g, o.g.group, x)),
    "check_tiling_upper_bound n":
        (1, lambda o, x: check_tiling_upper_bound(o.g, cube_tile(o.g.group, 1), x,
                                                  Fraction(1, 4))),
    "check_generating_set_comparison n":
        (1, lambda o, x: check_generating_set_comparison(o.g, o.coarse, x)),
    "positivity_check n": (1, lambda o, x: positivity_check(o.g, x)),
    "verify_multitile_window window_radius": (0, lambda o, x: verify_multitile_window(o.tile, x)),
    "folner_multitile_sequence n": (1, lambda o, x: folner_multitile_sequence(o.z1, x)),
    "SqrtSum power": (0, lambda o, x: SqrtSum.sqrt(2) ** x),
}


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "3", "least - 1"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_bad_counts_raise_before_any_search(entry, bad, models, no_search):
    least, call = ENTRIES[entry]
    x = least - 1 if bad == "least - 1" else bad
    with pytest.raises(ParameterError):
        call(models, x)


@pytest.mark.parametrize("raw", ["0", "-3", "2.5", "true"])
def test_bad_node_budget_variable_exits_2_before_any_search(raw, monkeypatch, no_search):
    monkeypatch.setenv("ISOPROF_NODE_BUDGET", raw)
    assert main(["profile-group", "--group", '{"kind": "Zd", "d": 1}', "--n-max", "3"]) == 2


@pytest.mark.parametrize("p, error", [
    (1, ParameterError), (Fraction(1, 2), ParameterError), (-2, ParameterError),
    (Fraction(4, 3), UnsupportedError), (Fraction(5, 3), UnsupportedError),
])
def test_bad_holder_exponent_raises_before_any_search(p, error, models, no_search):
    # the graphings are built before the kernels refuse, as building one runs
    # the certificate kernel
    with pytest.raises(error):
        check_generating_set_comparison(models.w1, models.w2, 2, p=p)
    with pytest.raises(error):
        holder_pushforward_bound(models.w1, "1", [0], p)


# call with a graphing g (Z on 5 points) and one bad vertex x
VERTEX_ENTRIES = {
    "MeasuredGraphing.phi": lambda g, x: g.phi("1", x),
    "MeasuredGraphing.within": lambda g, x: g.within({x}, 1),
    "MeasuredGraphing.within radius 0": lambda g, x: g.within({x}, 0),
    "MeasuredGraphing.mu": lambda g, x: g.mu([x]),
    "MeasuredGraphing.mu beside a vertex": lambda g, x: g.mu([1, x]),
    "BoundedPartition": lambda g, x: BoundedPartition(g, [[0, 1], [2, 3], [4, x]], 2),
    "holder_pushforward_bound": lambda g, x: holder_pushforward_bound(g, "1", [0, x], 2),
    "verify_tower_family": lambda g, x: verify_tower_family(
        g, cube_tile(g.group, 1), TowerFamily(bases=((0, x),), coverage=Fraction(1, 5),
                                              epsilon_target=Fraction(1), success=True)),
}


@pytest.mark.parametrize("bad", [-1, 5, 99, 1.5, 1.0, True, False, "1", None])
@pytest.mark.parametrize("entry", sorted(VERTEX_ENTRIES))
def test_bad_vertices_raise_parameter_error(entry, bad):
    # every vertex the graphing API takes is an int in [0, V): -1 would index
    # from the end, and 1.0 and True would pass for vertex 1
    g = build_torus_action(1, 5)
    with pytest.raises(ParameterError, match=f"vertex {bad!r} out of range"):
        VERTEX_ENTRIES[entry](g, bad)
