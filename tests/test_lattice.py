"""Lattice enumeration tests, checked against an independent brute-force oracle."""

import hashlib
import itertools
import math
import operator
import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from okbodies import lattice
from okbodies.geometry import (
    AffineFunctional,
    ConcavePL,
    ConvexBody,
    GeometryError,
    HalfSpace,
    empty_body,
    first_coordinate_transform,
    hull,
    intersect_halfspace,
    scale_translate,
    volume,
)
from okbodies.lattice import (
    PointCloud,
    _floor_sum,
    _scaled_constraints,
    analytic_count_constant,
    concave_sum,
    count,
    enumerate_points,
    slab_bound,
)
from okbodies.estimates import sub_body_sampler
from oracles import (check_guards, oracle_box, oracle_count, oracle_discrepancy,
                     oracle_envelope_floor_sum, oracle_envelope_runs, oracle_scaled_constraints,
                     oracle_section_columns, oracle_section_concave_sum, oracle_section_count)

UNIT_SIMPLEX = hull([(0, 0), (1, 0), (0, 1)])
UNIT_SQUARE = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
SEGMENT = hull([(0,), (1,)])


def brute_points(body, k):
    """Oracle: full box scan with exact rational membership tests."""
    box = oracle_box(body)
    ranges = [
        range(math.ceil(lo * k), math.floor(hi * k) + 1)
        for lo, hi in box
    ]
    out = []
    for z in itertools.product(*ranges):
        if body.contains(tuple(F(c, k) for c in z)):
            out.append(z)
    return sorted(out)


def scan_count(body, k):
    """Oracle: the per-node slab scan. It fixes every prefix
    (z_0, ..., z_{n-2}), recomputes each constraint's bound on the last axis
    there and adds the length of that interval."""
    if body.is_empty:
        return 0
    n = body.dim
    lo, hi, levels = _scaled_constraints(body, k)
    prefix = [0] * n
    total = 0

    def bounds_at(level):
        lo_j, hi_j = lo[level], hi[level]
        for a, c in levels[level]:
            rest = c - sum(a[i] * prefix[i] for i in range(level) if a[i])
            aj = a[level]
            if aj > 0:
                hi_j = min(hi_j, rest // aj)
            else:
                lo_j = max(lo_j, -(rest // -aj))
        return lo_j, hi_j

    def rec(level):
        nonlocal total
        lo_j, hi_j = bounds_at(level)
        if lo_j > hi_j:
            return
        if level == n - 1:
            total += hi_j - lo_j + 1
            return
        for z in range(lo_j, hi_j + 1):
            prefix[level] = z
            rec(level + 1)

    rec(0)
    return total


def random_body(seed, n, count_pts=7, denom=8):
    rng = random.Random(seed)
    return hull([
        tuple(F(rng.randrange(0, denom + 1), denom) for _ in range(n))
        for _ in range(count_pts)
    ])


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_simplex_k2():
    cloud = enumerate_points(UNIT_SIMPLEX, 2)
    assert cloud.points == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))
    assert len(cloud) == 6


def test_enumerate_segment():
    for k in (1, 3, 7):
        assert len(enumerate_points(SEGMENT, k)) == k + 1
    # [0, 4] at k = 2 has nine lattice positions
    long_seg = hull([(0,), (4,)])
    cloud = enumerate_points(long_seg, 2)
    assert len(cloud) == 9
    assert cloud.points == tuple((j,) for j in range(9))


def test_enumerate_is_deterministic_and_sorted():
    a = enumerate_points(UNIT_SIMPLEX, 5)
    b = enumerate_points(UNIT_SIMPLEX, 5)
    assert a == b
    assert list(a.points) == sorted(a.points)


def test_enumerate_degenerate_segment_in_plane():
    seg = hull([(0, 0), (1, 1)])
    cloud = enumerate_points(seg, 3)
    assert cloud.points == ((0, 0), (1, 1), (2, 2), (3, 3))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 3]), st.integers(1, 6),
       st.sampled_from(["random", "point", "flat", "skew"]))
def test_enumerate_matches_brute_oracle(seed, n, k, kind):
    """The prefix walk, and for the flat kinds of ``_differential_body`` the
    walk over the chart image lifted back, list exactly the brute scan."""
    if kind == "random":
        body = random_body(seed, n)
    else:
        body, _ = _differential_body(random.Random(seed), n, kind)
    assert list(enumerate_points(body, k).points) == brute_points(body, k)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_count_simplex_formula():
    assert count(UNIT_SIMPLEX, 10) == 66
    for k in (1, 2, 5, 9):
        assert count(UNIT_SIMPLEX, k) == (k + 1) * (k + 2) // 2


def test_count_square_formula():
    for k in (1, 2, 7, 20):
        assert count(UNIT_SQUARE, k) == (k + 1) ** 2


def test_counting_claim_instance():
    doubled = scale_translate(UNIT_SQUARE, 2)
    assert count(UNIT_SQUARE, 4) == 25 == count(doubled, 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]),
       st.integers(1, 8), st.integers(1, 8))
def test_counting_claim_random(seed, n, k, ell):
    body = random_body(seed, n)
    rescaled = scale_translate(body, F(k, ell))
    assert count(body, k) == count(rescaled, ell)


# k caps per dimension keep the oracle scan and the enumeration to seconds
DIFF_K_MAX = {1: 80, 2: 80, 3: 20, 4: 8}
# the flat kinds are also counted against ``oracle_count`` up to this level
FLAT_K_MAX = 60
# direction lattices that no coordinate projection maps onto Z^r
SKEW_DIRECTIONS = {1: [], 2: [(2, 1)], 3: [(3, 2, 0)], 4: [(2, 1, 0, 0), (0, 0, 3, 1)]}
FLAT_KINDS = ("point", "flat", "skew")


def _differential_body(rng, n, kind):
    """A random rational body of one of the shapes the slab counter must
    handle: generic hulls (any dimension up to n), boxes (parallel and
    zero-slope lines), hulls of points on a hyperplane or a line (equality
    pairs), and the empty body; and the flat kinds, counted in their chart:
    a single point, hulls of points on a random flat of every rank r < n
    (integer directions in [-3, 3]^n, denominators up to 12), and hulls on a
    flat along ``SKEW_DIRECTIONS`` through a point with coordinates offset
    by 0, 1/3 or 1/5, which holds no lattice point unless 3 or 5 divides k.
    Returns the body and a common denominator of its vertices."""
    den = rng.randint(1, 12 if kind in FLAT_KINDS else 6)

    def coord():
        return F(rng.randint(-den, den), den)

    if kind == "empty":
        return empty_body(n), den
    if kind == "point":
        return hull([tuple(coord() for _ in range(n))]), den
    if kind in ("flat", "skew"):
        if kind == "flat":
            base = [coord() for _ in range(n)]
            steps = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randrange(n))]
        else:
            base = [rng.randint(-1, 1) + rng.choice([0, F(1, 3), F(1, 5)]) for _ in range(n)]
            steps, den = SKEW_DIRECTIONS[n], 15
        pts = [[b + sum(t * step[i] for t, step in zip(ts, steps)) for i, b in enumerate(base)]
               for ts in ([F(rng.randint(-2, 2), 4) for _ in steps]
                          for _ in range(rng.randint(len(steps) + 1, 8)))]
        return hull([tuple(p) for p in pts]), den
    if kind == "box":
        corners = [sorted((coord(), coord())) for _ in range(n)]
        return hull(list(itertools.product(*corners))), den
    pts = [[coord() for _ in range(n)] for _ in range(rng.randint(1, 8))]
    if kind == "hyperplane":
        # x_{n-1} = c x_{n-2} + d for c in {-1, 0, 1}: tied bounds on the last axis
        c, d = rng.choice([-1, 0, 1]), coord()
        for p in pts:
            p[-1] = c * p[-2] + d if n > 1 else d
    elif kind == "line":
        base, step = [coord() for _ in range(n)], [rng.randint(-2, 2) for _ in range(n)]
        pts = [[b + F(t, den) * s for b, s in zip(base, step)]
               for t in rng.sample(range(-den, den + 1), 2)]
    return hull([tuple(p) for p in pts]), den


def _first_axis_histogram(body, k):
    """{z_1: points} of ``_first_axis_counts``, its counts checked nonnegative
    and, off the chains of a full-dimensional 2-D or 3-D body, its columns or
    slabs no more than ``first_axis_bound``."""
    counts = lattice._first_axis_counts(body, k)
    assert min(counts.values(), default=0) >= 0
    if body.dim in (2, 3) and not body.is_empty and body.is_full_dim():
        assert len(counts) <= lattice.first_axis_bound(body, k)
    return {z: n for z, n in counts.items() if n}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.integers(1, 4),
       st.sampled_from(["hull", "box", "hyperplane", "line", "empty", *FLAT_KINDS]))
def test_count_matches_scan_oracle_and_enumeration(seed, n, kind):
    """``count`` equals the scan oracle, the enumeration and, for n >= 2,
    the pair-clipping ``oracle_count``; a flat body is counted in its chart.
    The points per first numerator (``_first_axis_counts``) are those of the
    enumeration.
    A multiple of the vertex denominator puts the vertices on Z^n/k, where
    constraint lines tie at integer x; for the flat kinds a random level up
    to ``FLAT_K_MAX`` and a multiple of the chart's period, at which the flat
    holds lattice points, are also checked against ``oracle_count``."""
    rng = random.Random(seed)
    body, den = _differential_body(rng, n, kind)
    k_max = DIFF_K_MAX[n]
    for k in (rng.randint(1, k_max), den * rng.randint(1, max(1, k_max // den))):
        expected = scan_count(body, k)
        assert count(body, k) == expected
        assert len(enumerate_points(body, k)) == expected
        assert _first_axis_histogram(body, k) == Counter(z[0] for z in enumerate_points(body, k))
        if n >= 2:
            assert oracle_count(body, k) == expected
    if kind in FLAT_KINDS and n >= 2 and not body.is_full_dim():
        period = lattice._chart(body)[0]
        for k in (rng.randint(1, FLAT_K_MAX), period * rng.randint(1, max(1, FLAT_K_MAX // period))):
            assert count(body, k) == oracle_count(body, k)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.integers(1, 4),
       st.sampled_from(["hull", "box", "hyperplane", "line", "clipped"]))
def test_scaled_constraints_match_fraction_oracle(seed, n, kind):
    """The constraints built once per body in ints equal the ones the Fraction
    bounding box gives on every call, for k up to 10^6, also on the bodies of
    ``intersect_halfspace``, which come with their integer vertex form."""
    rng = random.Random(seed)
    body, den = _differential_body(rng, n, "hull" if kind == "clipped" else kind)
    if kind == "clipped":
        for _ in range(rng.randint(1, 3)):
            normal = [rng.randint(-3, 3) for _ in range(n)]
            if any(normal):
                # through the midpoint of two vertices, so the cut is never empty
                u, v = rng.choice(body.vertices), rng.choice(body.vertices)
                offset = sum(a * (x + y) for a, x, y in zip(normal, u, v)) / 2
                body = intersect_halfspace(body, HalfSpace.make(normal, offset))
    for k in (1, rng.randint(2, 50), den * rng.randint(1, 50), rng.randint(1, 10**6), 10**6):
        assert _scaled_constraints(body, k) == oracle_scaled_constraints(body, k)


def test_scaled_constraints_of_empty_body_raise():
    with pytest.raises(GeometryError):
        _scaled_constraints(empty_body(2), 3)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 60), st.integers(1, 40), st.integers(-200, 200), st.integers(-200, 200))
def test_floor_sum_matches_brute_sum(n, m, a, b):
    assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_floor_sum_large_arguments():
    n, m, a, b = 10**6, 999_983, -123_456_789, 987_654_321_987
    assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_count_is_sublinear_in_k_for_2d_bodies():
    k = 10**12
    assert count(UNIT_SQUARE, k) == (k + 1) ** 2
    assert count(UNIT_SIMPLEX, k) == (k + 1) * (k + 2) // 2


def test_count_2d_rational_body_matches_pick():
    # vertex denominators divide k, so k*body is a lattice polygon and
    # Pick's theorem gives its point count: area + boundary/2 + 1
    k = 10**9
    body = hull([(F(1, 2), F(-3, 8)), (F(7, 4), F(1, 5)), (F(6, 5), F(13, 10)),
                 (F(-2, 5), F(7, 8)), (F(-1, 4), F(0))])
    assert len(body.vertices) == 5
    center = [sum(v[i] for v in body.vertices) / 5 for i in range(2)]
    ring = sorted(body.vertices, key=lambda v: math.atan2(v[1] - center[1], v[0] - center[0]))
    ring = [tuple(int(c * k) for c in v) for v in ring]
    edges = list(zip(ring, ring[1:] + ring[:1]))
    twice_area = abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in edges))
    boundary = sum(math.gcd(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in edges)
    assert count(body, k) == (twice_area + boundary) // 2 + 1


def test_flat_counts_match_closed_forms():
    """Two flat triangles in R^3 with known counts, at small k and at k = 10^9:
    on x2 = x0 + x1 the triangle conv{0, e0 + e2, e1 + e2} is a copy of the
    unit simplex, (k + 1)(k + 2)/2 points; on 2 x2 = x0 + x1 the triangle
    conv{0, (2, 0, 1), (0, 2, 1)} holds the points (x0, x1) of the simplex of
    side 2k with x0 + x1 even, which are (k + 1)^2."""
    tilted = hull([(0, 0, 0), (1, 0, 1), (0, 1, 1)])
    halved = hull([(0, 0, 0), (2, 0, 1), (0, 2, 1)])
    for k in (1, 2, 3, 7, 10**9):
        assert count(tilted, k) == (k + 1) * (k + 2) // 2
        assert count(halved, k) == (k + 1) ** 2
        if k < 10:
            assert len(enumerate_points(tilted, k)) == (k + 1) * (k + 2) // 2
            assert len(enumerate_points(halved, k)) == (k + 1) ** 2


def test_flat_count_builds_its_chart_once_and_walks_no_stack_pass(monkeypatch):
    """A flat body builds its chart on its first count and reads it on every
    later one, and its counts call neither ``_slab_sum`` nor
    ``_envelope_runs``: every chart image has rank <= 3.  A full-dimensional
    body never builds a chart."""
    builds = []
    chart = lattice._chart

    def building(body):
        builds.append("chart" not in body._cache)
        return chart(body)

    def refused(*args):
        raise AssertionError("a flat count runs no stack pass")

    monkeypatch.setattr(lattice, "_chart", building)
    monkeypatch.setattr(lattice, "_slab_sum", refused)
    monkeypatch.setattr(lattice, "_envelope_runs", refused)
    flats = [hull([(F(1, 3), F(1, 2), 0, F(2, 5))]),
             hull([(0, F(1, 3), 0, 0), (4, F(7, 3), 0, 0), (0, F(1, 3), 3, 1)]),
             hull([(x0, x1, x2, x0 - x1 + 2 * x2 + F(1, 3))
                   for x0 in (0, 1) for x1 in (0, 1) for x2 in (0, 1)]),
             hull([(0, 0, 0), (3, 2, 0)]), hull([(0, 0, 0), (1, 0, 1), (0, 1, 1)])]
    for body in flats:
        builds.clear()
        for k in (1, 3, 15, 60):
            assert count(body, k) == oracle_count(body, k)
        assert builds == [True, False, False, False]
    monkeypatch.undo()
    monkeypatch.setattr(lattice, "_chart", refused)
    for body in (SEGMENT, UNIT_SQUARE, *(hull(list(itertools.product((0, 1), repeat=n)))
                                          for n in (3, 4))):
        assert count(body, 5) == 6 ** body.dim
        assert "chart" not in body._cache


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.integers(2, 4), st.sampled_from(FLAT_KINDS))
def test_slab_bound_of_a_flat_body_is_its_chart_images(seed, n, kind):
    """``count`` walks the slabs of a flat body's chart image P', so
    ``slab_bound`` is floor(k w) + 1 for the Fraction width w of P' on each
    of all but its last two axes (1 for a point), however wide the body's
    own box is, and at least the integer points of that box of k P'."""
    body, _ = _differential_body(random.Random(seed), n, kind)
    if body.is_full_dim():
        return
    image = lattice._chart(body)[1]
    box = [] if image is None else oracle_box(image)[:-2]
    for k in (1, 2, 3, 15, 60, 10**9 + 7):
        assert slab_bound(body, k) == math.prod(math.floor(k * (hi - lo)) + 1 for lo, hi in box)
        assert slab_bound(body, k) >= math.prod(
            max(0, math.floor(k * hi) - math.ceil(k * lo) + 1) for lo, hi in box)


def test_slab_count_sums_one_run_per_envelope_edge(monkeypatch):
    # the unit simplex's chains are one facet above (y <= k - x) and one
    # below (y >= 0), with no box bound: one run each, two in all
    calls = []
    floor_sum = lattice._floor_sum

    def counting(*args):
        calls.append(args)
        return floor_sum(*args)

    monkeypatch.setattr(lattice, "_floor_sum", counting)
    assert count(UNIT_SIMPLEX, 10**6) == (10**6 + 1) * (10**6 + 2) // 2
    assert len(calls) == 2


# point and k caps for the slab-bound differential: the unpruned oracle at
# every k, the scan oracle while it stays under ~10^4 nodes
SLAB_POINTS = {2: 12, 3: 10, 4: 7}
SLAB_K_MAX = {2: 10**6, 3: 300, 4: 16}
SCAN_K_MAX = {2: 5000, 3: 25, 4: 4}


def _slab_body(rng, n, kind):
    """A random rational n-body for the slab bounds, with a common denominator
    of its vertices: a hull of random points (up to ~20 facets); a prism
    along the slab's x axis, whose facets are all parallel to that axis, so
    every (upper, lower) pair of y-lines has slope 0; a simplex and its
    translate, whose facets come in parallel pairs; or a thin sliver along a
    tilted hyperplane, on which most slabs are empty (its vertices are not
    on Z^n/den)."""
    den = rng.randint(1, 8)

    def coord():
        return F(rng.randint(0, 4 * den), den)

    size = n + 1 if kind == "parallel" else rng.randint(n + 1, SLAB_POINTS[n])
    pts = [[coord() for _ in range(n)] for _ in range(size)]
    x = n - 2
    if kind == "prism":
        pts = [p[:x] + [t] + p[x + 1:] for p in pts for t in (pts[0][x], pts[1][x])]
    elif kind == "parallel":
        shift = [F(rng.randint(-2 * den, 2 * den), den) for _ in range(n)]
        pts += [[c + d for c, d in zip(p, shift)] for p in pts]
    elif kind == "sliver":
        # within 1/(4 k_max) of d x_0 = g (a . rest) + o with d = 3 g + 1 prime
        # to g: at level k a slab z_0 = Z / k holds points only if d Z - k o is
        # within k / (4 k_max) of a multiple of g, so about one slab in g does
        g = rng.choice([3, 5])
        a = [rng.randint(1, 2) for _ in range(n - 1)]
        o = F(rng.randint(0, g * den), den)
        for p in pts:
            p[0] = (g * sum(ai * c for ai, c in zip(a, p[1:])) + o
                    + F(rng.randint(0, 1), 4 * SLAB_K_MAX[n])) / (3 * g + 1)
    return hull([tuple(p) for p in pts]), den


@settings(max_examples=90, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.integers(2, 4),
       st.sampled_from(["hull", "prism", "parallel", "sliver"]))
def test_count_matches_unpruned_slab_oracle(seed, n, kind):
    """``count`` reads a full-dimensional 2-D or 3-D body off its chains and
    prunes the pair bounds of each slab once per outer axis in 4-D; the
    unpruned oracle clips with every pair on every slab.  A multiple of the
    vertex denominator puts the vertices on Z^n/k, where pair bounds and
    envelope crossings tie at integers."""
    rng = random.Random(seed)
    body, den = _slab_body(rng, n, kind)
    k_max = SLAB_K_MAX[n]
    for k in (rng.randint(1, k_max), den * rng.randint(1, max(1, k_max // den))):
        expected = oracle_count(body, k)
        assert count(body, k) == expected
        if k <= SCAN_K_MAX[n]:
            assert scan_count(body, k) == expected


def _criterion_04_body(n, seed, points):
    cube = hull(list(itertools.product((0, 1), repeat=n)))
    return sub_body_sampler(cube, F(1, 20), seed=seed, points=points)(1)[0]


def test_slab_bounds_evaluate_only_the_binding_lines(monkeypatch):
    """Each slab of ``_slab_sum`` (n = 4 and flat bodies; called here on
    full-dimensional 3-D bodies, which ``count`` reads off their chains)
    evaluates one lower and one upper x-bound: the line of its run.  The unit
    cube's (upper, lower) pairs all have slope 0, so none reaches the slab
    loop and each side is one run of a box bound.  The first 3-D
    criterion-04 body has 7 upper and 7 lower y-lines: its 49 pairs and 2 box
    bounds are 28 lower, 22 upper and 1 flat bound on x, and only 3 lower and
    5 upper ones ever bind at k = 60, where the unpruned path clips each of
    its slabs with all 49 pairs."""
    runs = []
    envelope_floors = lattice._envelope_floors

    def counting(lines, w0, w1):
        runs.append((len(lines), len(lattice._envelope_runs(lines, w0, w1))))
        return envelope_floors(lines, w0, w1)

    monkeypatch.setattr(lattice, "_envelope_floors", counting)
    cube = hull(list(itertools.product((0, 1), repeat=3)))
    _, _, x_lower, x_upper, flat = lattice._slab_form(cube)
    assert (len(x_lower), len(x_upper), len(flat)) == (2, 2, 4)
    assert lattice._slab_sum(cube, *_scaled_constraints(cube, 50)) == 51 ** 3
    assert runs == [(2, 1), (2, 1)]
    runs.clear()
    body = _criterion_04_body(3, 1001, 8)
    _, _, x_lower, x_upper, flat = lattice._slab_form(body)
    assert (len(x_lower), len(x_upper), len(flat)) == (28, 22, 1)
    assert lattice._slab_sum(body, *_scaled_constraints(body, 60)) == oracle_count(body, 60)
    assert runs == [(28, 3), (22, 5)]


def brute_envelope(lines, x0, x1):
    """Oracle: at each integer x0 <= x <= x1, the floor of min_j (p_j + q_j x) / r_j
    in Fractions, and the runs (start, intercept, slope) of the line attaining
    it, ties to the smaller slope, a line taken as the function it is."""
    floors, runs = [], []
    for x in range(x0, x1 + 1):
        value, slope = min((F(p + q * x, r), F(q, r)) for p, q, r in lines)
        floors.append(math.floor(value))
        if not runs or runs[-1][1:] != (value - slope * x, slope):
            runs.append((x, value - slope * x, slope))
    return floors, runs


def _envelope_lines(rng, size, big):
    """``size`` lines (p, q, r), r > 0, of mixed kinds: random ones; lines
    through a few shared integer points, so crossings fall on integers and
    three or more lines meet there (the middle ones own no integer); and
    copies of earlier lines with their slope kept, as they are or scaled by
    an integer (identical lines)."""
    bound = 10**12 if big else 30
    hubs = [(rng.randint(-10, 10), rng.randint(-bound, bound)) for _ in range(2)]
    lines = []
    for _ in range(size):
        kind = rng.choice(["random", "hub", "copy"] if lines else ["random", "hub"])
        r = rng.randint(1, bound if big else 6)
        q = rng.randint(-bound, bound)
        if kind == "random":
            lines.append((rng.randint(-bound, bound), q, r))
        elif kind == "hub":
            x, y = rng.choice(hubs)
            lines.append((y * r - q * x, q, r))
        else:
            p, q, r = rng.choice(lines)
            t = rng.randint(1, 3)
            lines.append((t * p + rng.choice([0, 0, rng.randint(-bound, bound)]), t * q, t * r))
    return lines


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.integers(1, 8), st.booleans())
def test_envelope_matches_oracle_walk_and_brute_sum(seed, size, big):
    """The stack pass over lines in slope order gives the runs of the brute
    per-x minimum, and its floor sum and floors equal the parent's run walk
    (``oracle_envelope_floor_sum``, ``oracle_envelope_runs``, lines in any
    order) and the brute sums, on ranges of one to 31 integers."""
    rng = random.Random(seed)
    lines = _envelope_lines(rng, size, big)
    x0 = rng.randint(-15, 15)
    x1 = x0 + rng.choice([0, 0, rng.randint(1, 30)])
    ordered = lattice._by_slope(lines, lambda line: line[1:])
    floors, runs = brute_envelope(lines, x0, x1)
    assert [(start, F(p, r), F(q, r))
            for start, p, q, r in lattice._envelope_runs(ordered, x0, x1)] == runs
    assert lattice._envelope_floor_sum(ordered, x0, x1) == sum(floors)
    assert oracle_envelope_floor_sum(lines, x0, x1) == sum(floors)
    assert lattice._envelope_floors(ordered, x0, x1) == floors
    # the x-bounds: max_i ceil((A_i w - B_i) / s_i) = -floor(min_i (B_i - A_i w) / s_i)
    ceils = [-((B - A * w) // s) for start, end, A, B, s
             in oracle_envelope_runs([(-q, p, r) for p, q, r in lines], x0, x1)
             for w in range(start, end + 1)]
    assert ceils == [-f for f in floors]
    assert lattice._envelope_floor_sum(ordered, x1 + 1, x1) == 0


def test_count_sorts_lines_once_per_body_and_sums_each_run_once(monkeypatch):
    """The slope orders of ``_slab_sum`` (full-dimensional 4-D bodies; called
    here on a 3-D body, which ``count`` reads off its chains) are built on a
    body's first count and read by every later one: the y-lines and both
    groups of x-bounds.  Each y-envelope calls ``_floor_sum`` once per run of
    its brute per-x minimum."""
    sorts, sums, runs = [], [], []
    by_slope, envelope_floor_sum, floor_sum = (
        lattice._by_slope, lattice._envelope_floor_sum, lattice._floor_sum)

    def sorting(lines, slope):
        sorts.append(len(lines))
        return by_slope(lines, slope)

    def summing(lines, x0, x1):
        runs.append(len(brute_envelope(lines, x0, x1)[1]))
        return envelope_floor_sum(lines, x0, x1)

    def counting(*args):
        sums.append(args)
        return floor_sum(*args)

    monkeypatch.setattr(lattice, "_by_slope", sorting)
    monkeypatch.setattr(lattice, "_envelope_floor_sum", summing)
    monkeypatch.setattr(lattice, "_floor_sum", counting)
    body = _criterion_04_body(3, 1001, 8)
    body._cache.pop("slabs", None)
    for k in (60, 59):
        assert lattice._slab_sum(body, *_scaled_constraints(body, k)) == oracle_count(body, k)
        assert sorts == [7, 7, 28, 22]
    assert len(sums) == sum(runs) and len(runs) > 100


def brute_owner_runs(body, k):
    """Oracle: the runs of a brute per-x owner walk over the slabs of k*body,
    n = 2 or 3.  In the slab w = z (the whole polygon in 2-D), over the
    integers of its x-range, read off the Fraction clip of k*body to w = z,
    the owner on each side is the facet whose real line bounds y first, ties
    to the smaller slope (``brute_envelope`` over every facet of that side);
    one run per maximal stretch of one owner.  On a vertex level a facet that
    meets the slab only at its right end can tie there with a smaller slope
    than the chain's last facet; the walk then starts a run of one row that
    the chain leaves in its last facet's run, so in general a chain count
    makes at most this many floor sums.  The bodies it is used on below meet
    no such tie."""
    scaled = scale_translate(body, k)
    if body.dim == 2:
        slabs = [((), scaled)]
    else:
        w_lo, w_hi = oracle_box(scaled)[0]
        slabs = [((z,), intersect_halfspace(intersect_halfspace(
                    scaled, HalfSpace.make((1, 0, 0), z)), HalfSpace.make((-1, 0, 0), -z)))
                 for z in range(math.ceil(w_lo), math.floor(w_hi) + 1)]
    runs = 0
    for prefix, cut in slabs:
        x0, x1 = oracle_box(cut)[-2]
        for side in (1, -1):
            lines = [(k * h.offset - sum(a * z for a, z in zip(h.normal, prefix)),
                      -h.normal[-2], abs(h.normal[-1]))
                     for h in body.halfspaces if side * h.normal[-1] > 0]
            runs += len(brute_envelope(lines, math.ceil(x0), math.floor(x1))[1])
    return runs


def test_chain_count_builds_once_and_sums_one_run_per_owner(monkeypatch):
    """A full-dimensional 2-D or 3-D count reads the body's chains, a
    polygon's flat edge-run form or a 3-D body's sections: built on its
    first count and read by every later one, with no stack pass and no
    slope sort, and one ``_floor_sum`` per nonempty run of a brute per-x
    owner walk (``brute_owner_runs``)."""
    builds, sums = [], []
    chain_form, floor_sum = lattice._chain_form, lattice._floor_sum

    def building(body):
        builds.append("chains" not in body._cache)
        return chain_form(body)

    def counting(*args):
        sums.append(args)
        return floor_sum(*args)

    def refused(*args):
        raise AssertionError("a chain count runs no stack pass and no slope sort")

    monkeypatch.setattr(lattice, "_chain_form", building)
    monkeypatch.setattr(lattice, "_floor_sum", counting)
    monkeypatch.setattr(lattice, "_envelope_runs", refused)
    monkeypatch.setattr(lattice, "_by_slope", refused)
    cube = hull(list(itertools.product((0, 1), repeat=3)))
    plane = sub_body_sampler(UNIT_SQUARE, F(1, 10), seed=0)(1)[0]
    cases = [(_criterion_04_body(3, 1001, 8), (60, 59, 17)), (plane, range(1, 13)),
             (cube, (1, 7)), (UNIT_SIMPLEX, (1, 10))]
    for body, ks in cases:
        body._cache.pop("chains", None)
        builds.clear()
        for k in ks:
            sums.clear()
            assert count(body, k) == oracle_count(body, k)
            assert len(sums) == brute_owner_runs(body, k), (body, k)
        assert builds == [True] + [False] * (len(ks) - 1)


CHAIN_K_MAX = 300


def _chain_body(rng, n, kind):
    """A random full-dimensional rational n-body, n = 2 or 3, for the chain
    differential, with a common denominator of its vertices: a hull of
    points with denominators 1 to 32 and negative coordinates; a hull on a
    coarse grid (denominator 1 to 4), so that many vertices share a level; a
    box; a prism along a random axis (along y its side facets are vertical
    in every slab, along w it has facets normal to w at its top and bottom);
    a thin sliver along a tilted hyperplane; a hull built again by hand with
    two more halfspaces, tight at one vertex or at none; or a fixed unit
    body."""
    if kind == "redundant":
        body, den = _chain_body(rng, n, "hull")
        extra = []
        for _ in range(2):
            a = [rng.randint(-3, 3) for _ in range(n)]
            if any(a):
                top = max(sum(map(operator.mul, a, v)) for v in body.vertices)
                extra.append(HalfSpace.make(a, top + rng.choice([0, F(1, den)])))
        return ConvexBody(n, body.vertices, [*body.halfspaces, *extra]), den
    den = rng.randint(1, 4 if kind == "grid" else 32)

    def coord(spread=2):
        return F(rng.randint(-spread * den, spread * den), den)

    if kind == "unit":
        corners = [(0,) * n] + [tuple(int(i == j) for j in range(n)) for i in range(n)]
        return rng.choice([hull(corners), hull(list(itertools.product((0, 1), repeat=n)))]), 1
    if kind == "box":
        return hull(list(itertools.product(*(sorted((coord(), coord())) for _ in range(n))))), den
    pts = [[coord(3 if kind == "grid" else 2) for _ in range(n)]
           for _ in range(rng.randint(n + 1, 12))]
    if kind == "prism":
        axis, ends = rng.randrange(n), (coord(), coord())
        pts = [p[:axis] + [t] + p[axis + 1:] for p in pts for t in ends]
    elif kind == "sliver":
        # within 1/(4 k_max) of d x_0 = g (a . rest) + o, d = 3 g + 1
        g = rng.choice([3, 5])
        a = [rng.randint(1, 2) for _ in range(n - 1)]
        o = coord()
        for p in pts:
            p[0] = (g * sum(ai * c for ai, c in zip(a, p[1:])) + o
                    + F(rng.randint(0, 1), 4 * CHAIN_K_MAX)) / (3 * g + 1)
    return hull([tuple(p) for p in pts]), den


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]),
       st.sampled_from(["hull", "grid", "box", "prism", "sliver", "redundant", "unit"]))
def test_chain_count_matches_stack_pass_paths(seed, n, kind):
    """``count`` reads a full-dimensional 2-D or 3-D body off its chains; the
    pair-clipping oracle (n = 2) and the stack-pass ``_slab_sum`` that serves
    n = 4 (n = 3) must agree.  A multiple of the vertex denominator puts the
    vertices on Z^n/k, so slabs fall on vertex levels and breakpoints on
    integers.  At small levels the points per first numerator read off the
    same chains (``_first_axis_counts``) are those of the enumeration."""
    rng = random.Random(seed)
    body, den = _chain_body(rng, n, kind)
    if not body.is_full_dim():
        return
    for k in (1, rng.randint(1, CHAIN_K_MAX), rng.randint(1, CHAIN_K_MAX),
              den, den * rng.randint(1, CHAIN_K_MAX // den)):
        expected = (oracle_count(body, k) if n == 2
                    else lattice._slab_sum(body, *_scaled_constraints(body, k)))
        assert count(body, k) == expected
    for k in {1, rng.randint(1, 12), den if den <= 12 else 1}:
        assert _first_axis_histogram(body, k) == Counter(z[0] for z in enumerate_points(body, k))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 10**6),
       st.sampled_from(["hull", "grid", "box", "prism", "sliver", "redundant", "unit"]),
       st.sampled_from(["random", "duplicate", "constant", "tied", "zero", "negative"]))
def test_polygon_kernels_match_section_oracle(seed, kind, shape):
    """A polygon's count (``_polygon_count``), its points per first numerator
    (``_first_axis_counts``) and its concave sums (``_chain_concave_sum``)
    read its flat edge-run form; the one-section chain form that the 3-D
    kernel reads (``oracle_polygon_sections``) must give the same count, the
    same columns and the same sum, or give up on the same negative score, at
    levels up to ``CHAIN_K_MAX``.  The shapes have redundant halfspaces,
    vertical edges (prisms and boxes) and slivers, and a multiple of the
    vertex denominator puts the vertices on Z^2/k."""
    rng = random.Random(seed)
    body, den = _chain_body(rng, 2, kind)
    if not body.is_full_dim():
        return
    g = _concave_transform(rng, body, shape)
    for k in (1, rng.randint(1, CHAIN_K_MAX), rng.randint(1, CHAIN_K_MAX),
              den, den * rng.randint(1, CHAIN_K_MAX // den)):
        columns = oracle_section_columns(body, k)
        assert list(lattice._polygon_columns(body, k)) == columns
        assert lattice._polygon_count(body, k) == oracle_section_count(body, k) == sum(
            top + bottom + 1 for _, top, bottom in columns)
        assert lattice._first_axis_counts(body, k) == {
            x: top + bottom + 1 for x, top, bottom in columns}
        assert lattice._chain_concave_sum(body, g, k) == oracle_section_concave_sum(body, g, k)


def test_polygon_count_runs_no_slab_loop(monkeypatch):
    """A polygon, on its own or as the chart image of a flat 3-D or 4-D body,
    is counted by ``_polygon_count`` and never by the 3-D ``_slab_counts``,
    and its form is one flat edge-run form: two x-range ends and two chains,
    with no offsets list and no section."""
    def refused(*args):
        raise AssertionError("a polygon count runs no slab loop")

    monkeypatch.setattr(lattice, "_slab_counts", refused)
    rng = random.Random(37)
    flat3 = hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, F(1, 2), F(-1, 2))])
    flat4 = hull([(0, 0, 0, 0), (1, 0, 1, F(1, 2)), (0, 1, 1, F(1, 3))])
    polygons = [_chain_body(rng, 2, kind)[0] for kind in ("hull", "prism", "sliver", "redundant")]
    for body in [UNIT_SIMPLEX, UNIT_SQUARE, *polygons, flat3, flat4]:
        assert body.affine_rank() == 2
        for k in (1, 6, 35):
            assert count(body, k) == oracle_count(body, k)
    for body in [UNIT_SIMPLEX, *polygons]:
        (A0, g0), (A1, g1), upper, lower = lattice._chain_form(body)
        assert A0 * g1 < A1 * g0 and all(len(chain) == 2 for chain in (upper, lower))


def test_frame_puts_a_direction_on_the_first_axis():
    """``_frame(body, u)`` is V body for a unimodular V whose first row is
    the primitive direction u: it has the body's volume, and at every level
    its points are the body's moved by V, so it counts as many and their
    first coordinates are the values u . z.  Each frame is built once per
    body and direction, and e_1 gives the body itself."""
    rng = random.Random(12)
    for n in (2, 3):
        for _ in range(3):
            body, _ = _chain_body(rng, n, rng.choice(["hull", "grid", "sliver"]))
            e1 = (1,) + (0,) * (n - 1)
            directions = [e1, tuple(-a for a in e1), e1[::-1], tuple(-a for a in e1[::-1])]
            while len(directions) < 8:
                u = [rng.randint(-5, 5) for _ in range(n)]
                if any(u):
                    directions.append(tuple(a // math.gcd(*u) for a in u))
            for u in directions:
                frame = lattice._frame(body, u)
                assert lattice._frame(body, u) is frame
                assert (frame is body) == (u == e1)
                assert volume(frame) == volume(body)
                for k in (1, 3, 7):
                    points = enumerate_points(body, k).points
                    assert count(frame, k) == len(points)
                    assert Counter(sum(map(operator.mul, u, z)) for z in points) == Counter(
                        w[0] for w in enumerate_points(frame, k).points)


# SHA-256 of the lines "k count(body, k)" for every k in (C, k_max], C the
# certified count constant: the first ten 3-D criterion-04 bodies (sampler
# seed 1000 + i, odd i) to k = 60 and two 4-D sub-bodies of the unit 4-cube
# to k = 30, recorded before the slab pair bounds were pruned.
COUNT_GOLDEN = {
    (3, 1001, 8, 60): "dc083aaafa27eef56c44e85ec64848849390177a524e4e9f6bf73970275a43e6",
    (3, 1003, 8, 60): "98909040591e420ddb5b984a33b26f1b5e475e4f76822268a0f168ce2128664c",
    (3, 1005, 8, 60): "8adb7fb4a720866c77dcbf61f1b90a6e255b964be62544dfc1820cf2277f1de4",
    (3, 1007, 8, 60): "2fd174a25ab3efaf061e92b5c9be69dd1242ce0370dc38e40d2e8f41075063fc",
    (3, 1009, 8, 60): "ed8beb0bcf1b61211fdb8378dd07d18a7f54c42c58f0010a243fd105bc9fde8d",
    (3, 1011, 8, 60): "61c478efdba97c39cad20abc3f3cbf7676eb866d5ef480c952a1d9c904faa08f",
    (3, 1013, 8, 60): "2ba87dd251b43776e382d7da8a57af432caf4ea45c77f09f82cae42599c8032f",
    (3, 1015, 8, 60): "c7a272b8b0bf09ea26e60df9c49689a882e251720c5bd3f9b00484c3403ddda3",
    (3, 1017, 8, 60): "62ea9a288fcb1460f78c0a6ff0076f035adb0da54a653b9fe6a72b3be1aa8a88",
    (3, 1019, 8, 60): "b8be7d8f1a75655b9fbe5ff759be4b5ddce4bb41eab80d52c062fd88458a2c97",
    (4, 4000, 9, 30): "4a585e799227718107895b5fc0784556b41733c6f6838bff21670fe4f3de19c5",
    (4, 4001, 9, 30): "82bbcbe24e7749795720273914b91c402732e63066fc5a7523b876b4a27abb88",
}


@pytest.mark.parametrize("shape", sorted(COUNT_GOLDEN))
def test_count_golden_digest(shape):
    n, seed, points, k_max = shape
    body = _criterion_04_body(n, seed, points)
    c = analytic_count_constant(body)
    lines = "".join(f"{k} {count(body, k)}\n" for k in range(math.floor(c) + 1, k_max + 1))
    assert hashlib.sha256(lines.encode()).hexdigest() == COUNT_GOLDEN[shape]


def test_count_monotone_under_inclusion():
    inner = hull([(0, 0), (F(1, 2), 0), (0, F(1, 2))])
    for k in range(1, 12):
        assert count(inner, k) <= count(UNIT_SIMPLEX, k)


# ---------------------------------------------------------------------------
# discrepancy
# ---------------------------------------------------------------------------

def test_discrepancy_examples():
    for k in (1, 3, 10):
        assert oracle_discrepancy(UNIT_SQUARE, k) == 2 * k + 1
        assert oracle_discrepancy(SEGMENT, k) == 1
    assert oracle_discrepancy(UNIT_SIMPLEX, 2) == 6 - 2


def test_discrepancy_signed():
    # a thin off-lattice sliver undershoots its volume at k=1
    body = hull([(F(1, 3), F(1, 3)), (F(2, 3), F(1, 3)), (F(1, 3), F(2, 3))])
    assert oracle_discrepancy(body, 1) == -volume(body)


# ---------------------------------------------------------------------------
# concave sums
# ---------------------------------------------------------------------------

def test_concave_sum_simplex():
    g = first_coordinate_transform(UNIT_SIMPLEX)
    assert concave_sum(UNIT_SIMPLEX, g, 2) == F(1, 2)


def test_concave_sum_segment_series():
    g = first_coordinate_transform(SEGMENT)
    for k in (1, 2, 5, 8):
        assert concave_sum(SEGMENT, g, k) == F(k + 1, 2 * k)


def test_concave_sum_zero_transform():
    g = ConcavePL.make([AffineFunctional.make((0, 0), 0)], UNIT_SQUARE)
    assert concave_sum(UNIT_SQUARE, g, 3) == 0


def test_concave_sum_rejects_negative():
    g = ConcavePL((AffineFunctional.make((1, 0), F(-1, 4)),), UNIT_SQUARE)
    with pytest.raises(ValueError, match=re.escape(
            "concave transform is negative at lattice point (Fraction(0, 1), Fraction(0, 1))")):
        concave_sum(UNIT_SQUARE, g, 2)


CONCAVE_K_MAX = 40


def _concave_transform(rng, body, shape):
    """A concave transform on ``body``: 1-3 affine pieces with rational
    gradients and constants, lifted so that their minimum over the vertices
    is 0 or a little more, with one more piece by ``shape``: a duplicate, a
    constant piece, or a piece tied with another in its y-slope; G = 0; or
    (negative) a lift that leaves G negative somewhere on the body."""
    n = body.dim
    if shape == "zero":
        return ConcavePL.make([AffineFunctional.make((0,) * n, 0)], body)

    def gradient():
        return [F(rng.randint(-6, 6), rng.choice([1, 2, 3, 4])) for _ in range(n)]

    pieces = [AffineFunctional.make(gradient(), F(rng.randint(0, 8), rng.choice([1, 2, 5])))
              for _ in range(rng.randint(1, 3))]
    f = rng.choice(pieces)
    if shape == "duplicate":
        pieces.insert(rng.randrange(len(pieces) + 1), f)
    elif shape == "constant":
        pieces.append(AffineFunctional.make((0,) * n, f.constant + rng.randint(-1, 1)))
    elif shape == "tied":
        pieces.append(AffineFunctional.make(gradient()[:-1] + [f.gradient[-1]],
                                            f.constant + rng.randint(-1, 1)))
    low = min(min(p(v) for p in pieces) for v in body.vertices)
    lift = F(rng.randint(-3, 0) if shape == "negative" else rng.randint(0, 2), 3) - low
    pieces = [AffineFunctional(p.gradient, p.constant + lift) for p in pieces]
    return ConcavePL(tuple(pieces), body)


def _enumerated_or_error(body, g, k):
    try:
        return lattice._enumerated_concave_sum(body, g, k)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 10**6),
       st.sampled_from(["hull", "grid", "box", "prism", "sliver", "redundant", "unit"]),
       st.sampled_from(["random", "duplicate", "constant", "tied", "zero", "negative"]))
def test_chain_concave_sum_matches_enumerated_oracle(seed, kind, shape):
    """``concave_sum`` of a full-dimensional polygon sums its scores off the
    chains, column by column; the enumerating path must give the same
    integer sum, or the same error where a lattice point scores negative, and
    the chain sum gives up exactly then."""
    rng = random.Random(seed)
    body, den = _chain_body(rng, 2, kind)
    if not body.is_full_dim():
        return
    g = _concave_transform(rng, body, shape)
    L = g.integer_form[0]
    for k in (1, rng.randint(1, CONCAVE_K_MAX), den, CONCAVE_K_MAX):
        total = lattice._chain_concave_sum(body, g, k)
        expected = _enumerated_or_error(body, g, k)
        if isinstance(expected, str):
            # a negative score sends the sum to the enumerating path's error
            assert total is None
            with pytest.raises(ValueError) as error:
                concave_sum(body, g, k)
            assert str(error.value) == expected
        else:
            assert total == expected
            assert concave_sum(body, g, k) == F(expected, L * k ** 3)


def test_concave_sum_negative_only_off_the_lattice_sums_on_the_chains():
    """G = x_1 + ... + x_n - 1/4 is negative at the corner (1/16, ..., 1/16)
    of [1/16, 1]^n: a level without that corner sums as the enumeration does,
    off the chains for the square, and at k = 16 the corner scores negative,
    raising the enumerating path's error."""
    for n in (2, 3):
        body = hull(list(itertools.product((F(1, 16), 1), repeat=n)))
        g = ConcavePL((AffineFunctional.make((1,) * n, F(-1, 4)),), body)
        for k in (1, 2, 5):
            total = lattice._enumerated_concave_sum(body, g, k)
            if n == 2:
                assert lattice._chain_concave_sum(body, g, k) == total
            assert concave_sum(body, g, k) == F(total, 4 * k ** (n + 1))
        if n == 2:
            assert lattice._chain_concave_sum(body, g, 16) is None
        corner = ", ".join(["Fraction(1, 16)"] * n)
        with pytest.raises(ValueError, match=re.escape(
                f"concave transform is negative at lattice point ({corner})")):
            concave_sum(body, g, 16)


def test_concave_sum_of_a_full_dimensional_polygon_lists_no_point(monkeypatch):
    """A full-dimensional polygon is summed off its chains: with the lattice
    walk refused, ``concave_sum`` still returns, one- and three-piece
    transforms alike."""
    def refused(*args):
        raise AssertionError("concave_sum listed lattice points")

    polygon = hull([(0, 0), (F(3, 2), F(1, 3)), (F(1, 2), F(5, 4))])
    three = [AffineFunctional.make([F(i - j, 2) for j in range(2)], 3) for i in range(3)]
    cases = [(polygon, g, k)
             for g in (first_coordinate_transform(polygon), ConcavePL.make(three, polygon))
             for k in (1, 7, CONCAVE_K_MAX)]
    expected = [concave_sum(*case) for case in cases]
    monkeypatch.setattr(lattice, "_prefixes", refused)
    assert [concave_sum(*case) for case in cases] == expected
    monkeypatch.undo()
    assert expected == [F(lattice._enumerated_concave_sum(body, g, k),
                          g.integer_form[0] * k ** (body.dim + 1)) for body, g, k in cases]


# ---------------------------------------------------------------------------
# shifted minimum counts
# ---------------------------------------------------------------------------

def test_shifted_min_count_square_constant():
    # r = 1/2 and n = 2 give C = 2*sqrt(2), so useful bounds need l >= 3
    c = analytic_count_constant(UNIT_SQUARE)
    assert c * c >= 8            # C >= 2 sqrt 2, rounded up
    assert c * c < 8 + F(1, 2**50)
    for ell in (3, 5, 10):
        assert math.ceil((1 - c / ell) * volume(UNIT_SQUARE) * ell**2) >= 1


def test_shifted_min_count_certified_against_samples():
    c = analytic_count_constant(UNIT_SQUARE)
    shifts = [(F(0), F(0)), (F(1, 3), F(-2, 7)), (F(-11, 16), F(5, 9)), (F(1, 2), F(1, 2))]
    for ell in (3, 4, 7):
        lower = math.ceil((1 - c / ell) * volume(UNIT_SQUARE) * ell**2)
        for x in shifts:
            assert lower <= count(scale_translate(UNIT_SQUARE, 1, x), ell)


def test_shifted_min_count_segment_worst_shift():
    # a generic shift straddles both endpoints: l interior points survive
    shifts = [F(0), F(1, 7), F(-2, 5), F(1, 2)]
    counts = [count(scale_translate(SEGMENT, 1, (x,)), 3) for x in shifts]
    assert counts[0] == 4
    assert min(counts) == 3


# ---------------------------------------------------------------------------
# point clouds
# ---------------------------------------------------------------------------

def test_pointcloud_dedupes_and_sorts():
    cloud = PointCloud(2, ((1, 0), (0, 0), (1, 0)))
    assert cloud.points == ((0, 0), (1, 0))
    assert (1, 0) in cloud and [0, 0] in cloud
    assert (2, 0) not in cloud and (1, 1) not in cloud and (0,) not in cloud
    assert cloud.coordinates()[1] == (F(1, 2), F(0))


def test_lattice_guards_raise_as_pinned():
    """A denominator or level k below 1 raises ValueError before any point is
    listed or counted."""
    g = first_coordinate_transform(UNIT_SQUARE)
    positive = (ValueError, "k must be a positive integer")
    check_guards([
        (lambda: PointCloud(0, ()), (ValueError, "denominator must be a positive integer")),
        (lambda: count(UNIT_SQUARE, 0), positive),
        (lambda: enumerate_points(UNIT_SQUARE, 0), positive),
        (lambda: concave_sum(UNIT_SQUARE, g, 0), positive),
    ])
