"""Acceptance gate: every headline quantity of the package, checked exactly.

Each test prints one "ACCEPTANCE <name>: PASS/FAIL" line (past pytest's
capture) and then asserts.  All comparisons are exact rationals; the only
floats are wall-clock budgets.  Tests that fail here fail because the claim
they pin is false of the objects themselves, not because of tolerance.
"""

import random
import time
from fractions import Fraction

from isoprof import (
    BoundedPartition,
    FreeGroup,
    HeisenbergGroup,
    LatticeCenters,
    MultiTile,
    ZdGroup,
    boundary_mass,
    boundary_ratio,
    build_torus_action,
    build_towers,
    build_weighted_cycle,
    connected_refinement,
    cube_tile,
    generating_set_containment,
    heisenberg_cuboid,
    holder_pushforward_bound,
    profile_action_exact,
    profile_all_subsets,
    profile_exact,
    profile_upper,
    verify_multitile_window,
    verify_tower_family,
    zd_cube,
)
from isoprof.bounds import cycle_with_marking, suite_lower_bound, suite_tiling_upper

from oracles import (
    action_profile_oracle,
    heisenberg_cuboid_boundary,
    random_graphing,
    random_partition,
    z_profile_oracle,
)


def record(capsys, name, ok, detail=""):
    """Emit the gate line on the real stdout, then assert."""
    with capsys.disabled():
        print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{name}: {detail}" if detail else name


def test_z_profile(capsys):
    # I_Z(1) = 1 and I_Z(n) = 2/n afterwards, against the exhaustive oracle
    t0 = time.monotonic()
    res = profile_exact(ZdGroup(1), 10)
    elapsed = time.monotonic() - t0
    closed_form = [Fraction(1)] + [Fraction(2, n) for n in range(2, 11)]
    ok = (res.values() == closed_form
          and res.values() == z_profile_oracle(10)
          and res.complete
          and elapsed < 1.0)
    record(capsys, "z-profile", ok,
           f"values {res.values()} elapsed {elapsed:.3f}s")


def test_z2_exhaustive(capsys):
    # connected-search route == all-subsets route over ball(6), I(5) = 4/5
    t0 = time.monotonic()
    search = profile_exact(ZdGroup(2), 8)
    brute = profile_all_subsets(ZdGroup(2), 8, radius=6)
    elapsed = time.monotonic() - t0
    ok = (search.values() == list(brute.values)
          and search.value(5) == Fraction(4, 5)
          and search.complete and brute.complete
          and elapsed < 120.0)
    record(capsys, "z2-exhaustive", ok,
           f"search {search.values()} brute {list(brute.values)} "
           f"elapsed {elapsed:.1f}s")


def test_cube_upper_formula(capsys):
    # the best k-cube ratio at n = k^d is (k^d - (k-2)^d)/k^d exactly
    bad = []
    for d in (2, 3):
        for k in range(3, 7):
            got = profile_upper(ZdGroup(d), k ** d, "cubes")
            want = Fraction(k ** d - (k - 2) ** d, k ** d)
            if got != want:
                bad.append((d, k, got, want))
    record(capsys, "cube-upper-formula", not bad, f"mismatches {bad}")


def test_cube_upper_window(capsys):
    # cube ratios track 2d/k within a factor of [1/2, 3/2]
    bad = []
    for d in (2, 3):
        for k in range(3, 7):
            ratio = profile_upper(ZdGroup(d), k ** d, "cubes")
            scaled = ratio / Fraction(2 * d, k)
            if not Fraction(1, 2) <= scaled <= Fraction(3, 2):
                bad.append((d, k, scaled))
    record(capsys, "cube-upper-window", not bad,
           f"outside [1/2, 3/2]: {bad}")


def test_heisenberg_window(capsys):
    # the cuboid [0,n]^2 x [0,n^2] tiles through window radius 2(n^2 + 2)
    group = HeisenbergGroup()
    bad = []
    for n in range(1, 5):
        shape = heisenberg_cuboid(group, n)
        centers = LatticeCenters([(n + 1, 0, 0), (0, n + 1, 0),
                                  (0, 0, n * n + 1)])
        report = verify_multitile_window(MultiTile([shape], [centers]),
                                         2 * (n * n + 2))
        if not report.passed:
            bad.append((n, report))
    record(capsys, "heisenberg-window", not bad, f"failed windows {bad}")


def test_heisenberg_formula(capsys):
    # computed cuboid ratio vs the closed form, where the form is <= 1
    group = HeisenbergGroup()
    lines = []
    ok = True
    for n in range(1, 7):
        F = heisenberg_cuboid(group, n)
        ratio = boundary_ratio(F)
        size, bdry = heisenberg_cuboid_boundary(n)
        assert len(F) == size and ratio == Fraction(bdry, size)
        formula = Fraction(4 * n * n + 2 * n + 5, (n + 1) * (n * n + 1))
        if formula <= 1:
            lines.append(f"n={n} computed {ratio} formula {formula}")
            ok = ok and ratio == formula
    with capsys.disabled():
        for line in lines:
            print(f"  {line}")
    record(capsys, "heisenberg-formula", ok, "; ".join(lines))


def test_heisenberg_small_n(capsys):
    # for n <= 3 the closed form exceeds 1 and cannot match; report both
    group = HeisenbergGroup()
    lines = []
    ok = True
    for n in range(1, 4):
        ratio = boundary_ratio(heisenberg_cuboid(group, n))
        formula = Fraction(4 * n * n + 2 * n + 5, (n + 1) * (n * n + 1))
        lines.append(f"n={n} computed {ratio} formula {formula}")
        ok = ok and formula > 1 >= ratio
    with capsys.disabled():
        for line in lines:
            print(f"  {line}")
    record(capsys, "heisenberg-small-n", ok, "; ".join(lines))


def test_heisenberg_ratio_window(capsys):
    # n * ratio(F_n) stays in [3, 5] for n = 4..6
    group = HeisenbergGroup()
    bad = []
    for n in (4, 5, 6):
        scaled = n * boundary_ratio(heisenberg_cuboid(group, n))
        if not Fraction(3) <= scaled <= Fraction(5):
            bad.append((n, scaled, float(scaled)))
    record(capsys, "heisenberg-ratio-window", not bad,
           f"outside [3, 5]: {bad}")


def test_rokhlin_coverage(capsys):
    # tower coverage 1, 4/5, 1 on the three model cases, all verified
    eps = Fraction(1, 4)
    cases = [
        (build_torus_action(1, 12), cube_tile(ZdGroup(1), 3),
         Fraction(1)),
        (build_torus_action(1, 5), cube_tile(ZdGroup(1), 2),
         Fraction(4, 5)),
        (build_torus_action(2, 6), cube_tile(ZdGroup(2), 2),
         Fraction(1)),
    ]
    bad = []
    for g, mt, want in cases:
        tf = build_towers(g, mt, eps)
        ver = verify_tower_family(g, mt, tf)
        if not (tf.coverage == want and tf.coverage >= 1 - eps
                and tf.success and ver.passed):
            bad.append((g.n_vertices, tf.coverage, want, ver.passed))
    record(capsys, "rokhlin-coverage", not bad, f"failures {bad}")


def test_lower_bound_suite(capsys):
    # action profile >= group profile on all torus models, full window
    checks = suite_lower_bound()
    failures = [c for c in checks if not (c.passed and c.lhs >= c.rhs)]
    ok = len(checks) == 24 and not failures
    record(capsys, "lower-bound-suite", ok,
           f"{len(checks)} checks, failures "
           f"{[(c.name, c.lhs, c.rhs) for c in failures]}")


def test_tiling_upper_suite(capsys):
    # tower partitions meet shape_bound * (1 - eps') + eps' on every build
    checks = suite_tiling_upper(Fraction(1, 4))
    failures = [c for c in checks if not c.passed]
    ok = len(checks) == 3 and not failures
    record(capsys, "tiling-upper-suite", ok,
           f"{len(checks)} checks, failures "
           f"{[(c.name, c.lhs, c.rhs) for c in failures]}")


def test_connected_refinement(capsys):
    # 500 random partitions over 20 random graphings: refining to connected
    # cells keeps boundary mass exactly and only ever shrinks cells
    rng = random.Random(8)
    bad = []
    for gi in range(20):
        g = random_graphing(rng, rng.randint(4, 16),
                            d=rng.choice((1, 2)),
                            uniform=(gi % 2 == 0))
        for pi in range(25):
            n_bound = rng.randint(1, g.n_vertices)
            cells = random_partition(rng, g.n_vertices, n_bound)
            p = BoundedPartition(g, cells, n_bound)
            q = connected_refinement(g, p)
            owner = {}
            for ci, cell in enumerate(p.cells):
                for v in cell:
                    owner[v] = ci
            mass_kept = boundary_mass(g, q).mass == boundary_mass(g, p).mass
            nested = all(len({owner[v] for v in cell}) == 1
                         for cell in q.cells)
            shrunk = (max(len(c) for c in q.cells)
                      <= max(len(c) for c in p.cells))
            if not (mass_kept and nested and shrunk):
                bad.append((gi, pi, mass_kept, nested, shrunk))
    record(capsys, "connected-refinement", not bad, f"violations {bad}")


def test_holder_containment(capsys):
    # pushforward mass obeys the L^p bound on 100 random weighted cycles;
    # the two-step marking's boundary stays inside the one-step translate
    # chain on 100 random partitions
    rng = random.Random(9)
    bad = []
    for i in range(100):
        m = rng.randint(3, 12)
        raw = [rng.randint(1, 9) for _ in range(m)]
        weights = [Fraction(a, sum(raw)) for a in raw]
        g = build_weighted_cycle(m, weights)
        A = rng.sample(range(m), rng.randint(1, m - 1))
        for p in (Fraction(3, 2), Fraction(2), Fraction(3)):
            for label in ("1", "-1"):
                hb = holder_pushforward_bound(g, label, A, p)
                if not hb.passed:
                    bad.append(("holder", i, label, p))
    for i in range(100):
        m = rng.randint(6, 16)
        g1 = build_torus_action(1, m)
        g2 = cycle_with_marking(m, g1.weights, [1, -1, 2, -2])
        n_bound = rng.randint(1, m)
        cells = random_partition(rng, m, n_bound)
        rep = generating_set_containment(
            g1, g2, BoundedPartition(g1, cells, n_bound))
        if not (rep.contained and rep.k == 2 and rep.missing == ()):
            bad.append(("containment", i, rep.missing))
    record(capsys, "holder-containment", not bad, f"violations {bad}")


def test_search_vs_enumeration(capsys):
    # branch-and-bound == exhaustive == set-partition oracle on every
    # builder and seeded random graphing with <= 10 vertices, at every n
    t0 = time.monotonic()
    family = [build_torus_action(1, m) for m in range(3, 11)]
    family.append(build_torus_action(2, 3))
    family.append(build_weighted_cycle(
        5, [Fraction(k, 15) for k in range(1, 6)]))
    family.append(build_weighted_cycle(
        8, [Fraction(3, 16)] * 4 + [Fraction(1, 16)] * 4))
    rng = random.Random(10)
    for i in range(12):
        family.append(random_graphing(rng, rng.randint(3, 10),
                                      d=rng.choice((1, 2)),
                                      uniform=(i % 2 == 0)))
    bad = []
    for gi, g in enumerate(family):
        assert g.n_vertices <= 10
        oracle = action_profile_oracle(g)
        for n in range(1, g.n_vertices + 1):
            bnb = profile_action_exact(g, n, method="bnb")
            full = profile_action_exact(g, n, method="exhaustive")
            agree = (bnb.value == full.value == oracle[n - 1]
                     and bnb.optimal and full.optimal
                     and bnb.method == "bnb"
                     and full.method == "exhaustive")
            if not agree:
                bad.append((gi, n, bnb.value, full.value, oracle[n - 1]))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 300.0
    record(capsys, "search-vs-enumeration", ok,
           f"mismatches {bad} elapsed {elapsed:.1f}s")


def test_free_vs_grid_contrast(capsys):
    # the free-group profile never drops below 1/2 at any reachable size,
    # while grid cubes already push the plane's profile under 1/2
    f2 = profile_exact(FreeGroup(2), 8)
    floor = min(f2.values())
    grid_upper = profile_upper(ZdGroup(2), 49, "cubes")
    ok = (f2.complete
          and floor >= Fraction(1, 2)
          and grid_upper < Fraction(1, 2))
    record(capsys, "free-vs-grid-contrast", ok,
           f"free floor {floor}, 7x7 grid cube {grid_upper}")
