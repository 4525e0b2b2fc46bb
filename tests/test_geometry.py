"""Exactness tests for the rational convex geometry kernel."""

import itertools
import random
import sys
from fractions import Fraction
from fractions import Fraction as F
from math import factorial, gcd, lcm
from operator import itemgetter, mul
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from okbodies.geometry import (
    AffineFunctional,
    ConcavePL,
    ConvexBody,
    DegenerateBody,
    DimensionMismatch,
    GeometryError,
    HalfSpace,
    apex_cone,
    barycenter,
    body_from_json,
    chebyshev_ball,
    coordinate_projection,
    first_coordinate_transform,
    hull,
    integrate_transform,
    intersect_halfspace,
    minkowski_cube,
    rat,
    rat_str,
    scale_translate,
    slice_cone,
    slice_volume,
    sqrt_upper_bound,
    superlevel,
    triangulate,
    validate_body,
    volume,
)
from okbodies.geometry import _dot
import okbodies.geometry as geometry
from oracles import (check_guards, oracle_clip_rows, oracle_det, oracle_hull_front,
                     oracle_hull_full, oracle_intersect_halfspace, oracle_linearity_regions,
                     oracle_maximal, oracle_minkowski_cube, oracle_nullspace, oracle_region_max,
                     oracle_row_reduce, oracle_scale_translate, oracle_scaled_values,
                     oracle_simplex_max, oracle_superlevel, vsub)

UNIT_SIMPLEX = hull([(0, 0), (1, 0), (0, 1)])
UNIT_SQUARE = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
SEGMENT = hull([(0,), (1,)])
P1 = coordinate_projection(2)


def fan_points(seed, n, count, denom=8):
    import random

    rng = random.Random(seed)
    return [
        tuple(F(rng.randrange(0, denom + 1), denom) for _ in range(n))
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

def test_rat_parsing_and_formatting():
    assert rat("3/4") == F(3, 4)
    assert rat("-2") == -2
    assert rat_str(F(3, 4)) == "3/4"
    assert rat_str(F(4, 2)) == "2"
    with pytest.raises(ValueError):
        rat("1/0")
    # at most MAX_INPUT_DIGITS = 4300 digits per integer, a sign not counted
    assert rat(f"-{'9' * 4300}/{'7' * 4300}") == F(-int("9" * 4300), int("7" * 4300))
    for text in ("1" * 4301, f"1/{'1' * 4301}"):
        with pytest.raises(ValueError, match="4301 digits"):
            rat(text)
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)


def test_rat_str_prints_any_size():
    """``rat_str`` prints every digit of a rational past the interpreter's
    limit on int/str conversion, also with that limit at its least value,
    640, and leaves the limit as it was."""
    sevens = 7 * (10 ** 5000 - 1) // 9
    cases = [(F(-sevens, 10 ** 4400), "-" + "7" * 5000 + "/1" + "0" * 4400),
             (F(10 ** 5000 + 1), "1" + "0" * 4999 + "1"),
             (F(10 ** 1280, 3), "1" + "0" * 1280 + "/3"),
             (F(-(10 ** 640) + 1), "-" + "9" * 640), (F(10 ** 640), "1" + "0" * 640)]
    limit = sys.get_int_max_str_digits()
    try:
        for digits in (limit, 640):
            sys.set_int_max_str_digits(digits)
            assert [rat_str(q) for q, _ in cases] == [text for _, text in cases]
            assert sys.get_int_max_str_digits() == digits
    finally:
        sys.set_int_max_str_digits(limit)


def test_sqrt_upper_bound_exact_on_squares():
    assert sqrt_upper_bound(F(1)) == 1
    assert sqrt_upper_bound(F(9, 4)) == F(3, 2)
    ub = sqrt_upper_bound(F(2))
    assert ub * ub >= 2
    assert ub * ub - 2 < F(1, 2**60)


# ---------------------------------------------------------------------------
# hull
# ---------------------------------------------------------------------------

def test_hull_unit_simplex():
    assert UNIT_SIMPLEX.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))
    assert len(UNIT_SIMPLEX.halfspaces) == 3
    validate_body(UNIT_SIMPLEX)


def test_hull_drops_interior_point():
    body = hull([(0, 0), (1, 0), (0, 1), (F(1, 4), F(1, 4))])
    assert body == UNIT_SIMPLEX


def test_hull_okounkov_family_hexagon():
    # The drawn heptagon has a straight angle: (3,2) is the midpoint of the
    # segment from (3/2,3) to (9/2,1), so the irredundant hull has 6 vertices.
    pts = [(0, 2), (F(3, 2), 3), (3, 2), (F(9, 2), 1), (4, F(1, 2)), (1, F(1, 2)), (0, 1)]
    mid = tuple((a + b) / 2 for a, b in zip(pts[1], pts[3]))
    assert mid == (F(3), F(2))
    body = hull(pts)
    assert len(body.vertices) == 6
    assert (F(3), F(2)) not in body.vertices
    assert body.contains((F(3), F(2)))
    validate_body(body)


def test_hull_3d_cube():
    import itertools

    cube = hull(list(itertools.product((0, 1), repeat=3)))
    assert len(cube.vertices) == 8
    assert len(cube.halfspaces) == 6
    assert volume(cube) == 1
    validate_body(cube)


def _broken_triangle(*halfspaces):
    """The unit simplex's vertices with the given halfspaces, unsynced."""
    return ConvexBody(2, UNIT_SIMPLEX.vertices,
                      [HalfSpace.make(normal, offset) for normal, offset in halfspaces])


def test_validate_body_names_vertices_and_halfspaces_by_rat_str():
    """A broken body's message prints its vertex and halfspace as p/q text,
    not as Fraction or tuple reprs."""
    sides = [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)]
    with pytest.raises(GeometryError) as err:
        validate_body(_broken_triangle(*sides, ((2, 0), 1)))
    assert str(err.value) == "vertex (1, 0) violates halfspace (1, 0) . x <= 1/2"
    with pytest.raises(GeometryError) as err:
        validate_body(_broken_triangle(*sides, ((1, 0), 2)))
    assert str(err.value) == "halfspace (1, 0) . x <= 2 is tight at no vertex"
    with pytest.raises(GeometryError) as err:
        validate_body(_broken_triangle(*sides[1:]))
    assert str(err.value) == "vertex (0, 0) is tight on a rank-1 set only"
    validate_body(_broken_triangle(*sides))


def assert_primed(body):
    """A body's integer vertex form, affine rank and incidence, read from its
    cache before any query, equal their recomputation from its vertices and
    halfspaces by Fraction arithmetic."""
    cached = [body._cache[key] for key in SEEDED]
    vertices = body.vertices
    D = lcm(1, *(c.denominator for v in vertices for c in v))
    assert cached == [(D, tuple(tuple(int(c * D) for c in v) for v in vertices)),
                      affine_rank(vertices), tight_sets(body)]


def test_a_hand_built_body_is_primed_with_redundant_halfspaces():
    """``ConvexBody(dim, vertices, halfspaces)`` seeds its integer form, affine
    rank and incidence, a redundant halfspace tight at one vertex or at none
    included, as the exact constructors do."""
    sides = [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)]
    # the vertices sort as (0, 0), (0, 1), (1, 0), the normals as (-1, 0),
    # (0, -1), (1, 0), (1, 1)
    for extra, tight in ((((1, 0), 1), {2}), (((1, 0), 2), set())):
        body = _broken_triangle(*sides, extra)
        assert_primed(body)
        assert body.incidence() == ({0, 1}, {0, 2}, tight, {1, 2})
        assert body.int_form() == (1, ((0, 0), (0, 1), (1, 0))) and body.affine_rank() == 2
    for body in (_broken_triangle(*sides), scale_translate(UNIT_SIMPLEX, F(3, 2), (F(1, 2), -1))):
        assert_primed(body)
        validate_body(body)


def test_halfspaces_sort_by_normal_then_offset():
    """A ``HalfSpace`` orders as its (normal, offset) tuple."""
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        hs = [HalfSpace.make([rng.randint(-2, 2) for _ in range(n - 1)] + [rng.choice((-1, 1))],
                             F(rng.randint(-9, 9), rng.randint(1, 4)))
              for _ in range(60)]
        assert sorted(hs) == sorted(hs, key=lambda h: (h.normal, h.offset))
        assert len({h.normal for h in hs}) < len(set(hs))  # offsets break ties


def test_hull_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hull([(0, 0), (1, 0, 0)])


def test_hull_degenerate_segment_in_plane():
    seg = hull([(0, 0), (2, 2), (1, 1)])
    assert seg.vertices == ((F(0), F(0)), (F(2), F(2)))
    assert volume(seg) == 0
    assert seg.contains((F(1), F(1)))
    assert not seg.contains((F(1), F(0)))


def test_hull_single_point():
    pt = hull([(F(1, 3), F(2, 3))])
    assert pt.vertices == ((F(1, 3), F(2, 3)),)
    assert pt.contains((F(1, 3), F(2, 3)))
    assert not pt.contains((F(0), F(0)))
    assert volume(pt) == 0


def test_hull_of_zero_dimensional_points_raises():
    with pytest.raises(GeometryError, match="zero-dimensional"):
        hull([()])
    with pytest.raises(GeometryError, match="zero-dimensional"):
        hull([(), ()])


def tight_sets(body):
    """For each halfspace, the indices of the vertices tight on it, by is_tight."""
    return tuple(frozenset(i for i, v in enumerate(body.vertices) if h.is_tight(v))
                 for h in body.halfspaces)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 3, 4]), st.booleans())
def test_hull_primes_its_incidence(seed, n, flat):
    body = random_body(seed, n, flat)
    assert body._cache["incidence"] == tight_sets(body)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 4]), st.booleans())
def test_primed_sorts_halfspaces_in_normal_offset_order(seed, n, flat):
    """``_primed`` sorts its (halfspace, tight set) pairs by halfspace, and a
    ``HalfSpace`` is the tuple (normal, offset), so by normal, then offset: a
    hull and a body primed again from its pairs shuffled, with a parallel
    copy of one halfspace added, list them as ``sorted(...,
    key=itemgetter(0))`` does."""
    body = random_body(seed, n, flat)
    pairs = list(zip(body.halfspaces, body.incidence()))
    assert pairs == sorted(pairs, key=itemgetter(0))
    rng = random.Random(seed)
    h = rng.choice(body.halfspaces)
    pairs.append((HalfSpace(h.normal, h.offset + F(1, 3)), frozenset()))
    rng.shuffle(pairs)
    D, Z = body.int_form()
    primed = geometry._primed(n, D, Z, pairs, body.affine_rank())
    assert list(zip(primed.halfspaces, primed.incidence())) == sorted(pairs, key=itemgetter(0))


# ---------------------------------------------------------------------------
# the integer linear solver against the Fraction oracles
# ---------------------------------------------------------------------------

def random_rational_matrix(rng):
    """1-7 rows and 1-6 columns of small signed rationals, often sparse, with
    zero, duplicate and dependent rows mixed in."""
    n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 6)
    zero_share = rng.choice((0, 0.3, 0.7))
    rows = [[F(0) if rng.random() < zero_share
             else F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 5, 12)))
             for _ in range(n_cols)] for _ in range(n_rows)]
    for i in range(n_rows):
        kind = rng.choice(("keep", "keep", "zero", "duplicate", "dependent"))
        if kind == "zero":
            rows[i] = [F(0)] * n_cols
        elif kind == "duplicate":
            rows[i] = list(rng.choice(rows))
        elif kind == "dependent":
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = F(rng.randint(-4, 4), rng.randint(1, 3)), F(rng.randint(-4, 4), 7)
            rows[i] = [s * x + t * y for x, y in zip(a, b)]
    return rows


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_int_reduce_and_nullspace_match_fraction_oracles(seed):
    """Rational rows scaled to ints by one common denominator: the same rank,
    pivots and primitive nullspace basis as Gauss-Jordan over Q, and every
    reduced row d > 0 times the matching row of the RREF."""
    rows = random_rational_matrix(random.Random(seed))
    n = len(rows[0])
    _, Z = geometry._int_form(rows)
    rank, pivots, red, d = geometry._int_reduce(Z)
    ref_rank, ref_pivots, ref_red = oracle_row_reduce(rows)
    assert (rank, pivots) == (ref_rank, ref_pivots)
    assert d > 0 and all(isinstance(x, int) for r in red for x in r)
    assert [[F(x, d) for x in r] for r in red] == ref_red
    assert geometry._nullspace(Z, n) == oracle_nullspace(rows, n)


def test_int_reduce_empty_and_zero_matrices():
    assert geometry._int_reduce([]) == (0, [], [], 1) and oracle_row_reduce([]) == (0, [], [])
    assert geometry._int_reduce([[0, 0, 0], [0, 0, 0]]) == (0, [], [], 1)
    for n in range(1, 7):
        assert geometry._nullspace([], n) == oracle_nullspace([], n)
    # a negative last pivot still gives d > 0
    assert geometry._int_reduce([[0, -3], [2, 5]]) == (2, [0, 1], [[6, 0], [0, 6]], 6)


# ---------------------------------------------------------------------------
# oracle: supporting-hyperplane search over every n-subset
# ---------------------------------------------------------------------------

def oracle_hull(pts, n):
    """Supporting-hyperplane search over all n-subsets (desk scale, n in 1..4)."""
    seen: set[HalfSpace] = set()
    for combo in itertools.combinations(range(len(pts)), n):
        base = pts[combo[0]]
        rows = [list(vsub(pts[i], base)) for i in combo[1:]]
        normals = oracle_nullspace(rows, n)
        if len(normals) != 1:
            continue  # affinely dependent subset
        w = normals[0]
        b = _dot(w, base)
        lo = hi = False
        for p in pts:
            s = _dot(w, p) - b
            if s > 0:
                hi = True
            elif s < 0:
                lo = True
            if lo and hi:
                break
        if lo and hi:
            continue
        hs = HalfSpace.make(w, b) if not hi else HalfSpace.make([-c for c in w], -b)
        seen.add(hs)
    halfspaces = sorted(seen)
    vertices = []
    for p in pts:
        tight = [h.normal for h in halfspaces if h.is_tight(p)]
        if len(tight) >= n:
            rank, _, _ = oracle_row_reduce([list(map(Fraction, t)) for t in tight])
            if rank == n:
                vertices.append(p)
    return ConvexBody(n, vertices, halfspaces)


def oracle_hull_rows(D, Z, n):
    """oracle_hull on the points of integer rows Z over D, with the signature
    of ``geometry._hull_full``."""
    return oracle_hull([tuple(F(c, D) for c in z) for z in Z], n)


def oracle_hull_of(points):
    """hull(points) with every full-dimensional hull, the inner hull of a flat
    cloud included, built by oracle_hull; a 2-D cloud's polygon too, which
    ``_hull_rows`` builds with no ``_hull_full`` call."""
    with mock.patch.object(geometry, "_hull_full", oracle_hull_rows), \
            mock.patch.object(geometry, "_polygon", lambda D, P, ring: oracle_hull_rows(D, P, 2)):
        return hull(points)


def corners(n, eps=1):
    return [tuple(F(c) for c in p) for p in itertools.product((-eps, eps), repeat=n)]


# rational points on the sphere through the corners of [-1, 1]^n
SPHERE_POINTS = {2: [(F(1, 5), F(7, 5)), (F(7, 13), F(17, 13))],
                 3: [(F(1, 3), F(1, 3), F(5, 3))], 4: [(F(0), F(0), F(0), F(2))]}


def oracle_cloud(rng, n, kind):
    """A small cloud of one kind; the oracle costs O(N^(n+1)), so N <= 12 (n = 1),
    20 (n = 2), 16 (n = 3) or 11 (n = 4)."""
    size = {1: 12, 2: 20, 3: 16, 4: 11}[n]
    if kind == "grid":  # denominators 1-3: many coplanar and collinear points
        den = rng.randint(1, 3)
        return [tuple(F(rng.randrange(-den, den + 1), den) for _ in range(n))
                for _ in range(rng.randrange(n + 2, size + 1))]
    if kind == "duplicates":  # repeats, some spelled as unreduced "p/q" strings
        pts = oracle_cloud(rng, n, "grid")[:size // 2 + 1]
        return pts + [tuple(f"{2 * c.numerator}/{2 * c.denominator}" for c in p)
                      for p in rng.sample(pts, len(pts) // 2)] + pts[:2]
    if kind == "cospherical":  # cube corners and signed coordinate permutations
        pool = set(corners(n)) | {
            tuple(s * c for s, c in zip(signs, perm))
            for q in SPHERE_POINTS[n] for perm in itertools.permutations(q)
            for signs in itertools.product((-1, 1), repeat=n)}
        return rng.sample(sorted(pool), rng.randrange(n + 2, size + 1))
    if kind == "minkowski":  # vertex + cube-corner sums, as minkowski_cube builds
        eps = F(1, rng.randint(2, 4))
        verts = oracle_cloud(rng, n, "grid")[:2]
        pts = [tuple(a + b for a, b in zip(v, c)) for v in verts for c in corners(n, eps)]
        return rng.sample(pts, min(len(pts), size))
    # flat: on a hyperplane or a line through a grid point
    dirs = [tuple(rng.randrange(-2, 3) for _ in range(n))
            for _ in range(n - 1 if kind == "hyperplane" else 1)]
    base = oracle_cloud(rng, n, "grid")[0]
    pts = []
    for _ in range(rng.randrange(n + 2, size + 1)):
        coeffs = [F(rng.randrange(0, 4), 3) for _ in dirs]
        pts.append(tuple(b + sum(c * d[i] for c, d in zip(coeffs, dirs))
                         for i, b in enumerate(base)))
    return pts


# [-1, 1] has no points on its "sphere" beyond its two corners, so no 1-D cospherical
@pytest.mark.parametrize("n, kind", [
    (n, kind) for n in (1, 2, 3, 4)
    for kind in ("grid", "duplicates", "cospherical", "minkowski", "hyperplane", "line")
    if (n, kind) != (1, "cospherical")])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_hull_matches_supporting_hyperplane_oracle(n, kind, seed):
    rng = random.Random(seed)
    pts = oracle_cloud(rng, n, kind)
    body, ref = hull(pts), oracle_hull_of(pts)
    assert body.vertices == ref.vertices
    assert body.halfspaces == ref.halfspaces
    assert body._cache["incidence"] == tight_sets(ref)
    rng.shuffle(pts)
    again = hull(pts)
    assert (again.vertices, again.halfspaces, again._cache["incidence"]) == (
        body.vertices, body.halfspaces, body._cache["incidence"])


@pytest.mark.parametrize("n, kind", [
    (n, kind) for n in (1, 2, 3, 4)
    for kind in ("grid", "duplicates", "cospherical", "minkowski", "hyperplane", "line")
    if (n, kind) != (1, "cospherical")])
def test_hull_full_matches_rank_test_oracle(n, kind):
    """The facet-count vertex test gives the same body as a rank test at
    every candidate (``oracle_hull_full``): vertices, halfspaces, incidence,
    integer form and affine rank, for full-dimensional clouds and for the
    inner hull of flat ones.  Grid and Minkowski clouds put points inside
    edges and facets.  A full-dimensional 2-D cloud takes ``_polygon``, with
    no ``_hull_full`` call, so the oracle replaces that too, and it must run
    once on every full-dimensional cloud."""
    rng = random.Random(1000 * n + len(kind))
    ran = []

    def oracle(D, P, m):
        ran.append(m)
        return oracle_hull_full(D, P, m)

    for _ in range(12):
        pts = oracle_cloud(rng, n, kind)
        body = hull(pts)
        ran.clear()
        with mock.patch.object(geometry, "_hull_full", oracle), \
                mock.patch.object(geometry, "_polygon", lambda D, P, ring: oracle(D, P, 2)):
            ref = hull(pts)
        assert ran == [n] or not body.is_full_dim()
        assert body.vertices == ref.vertices
        assert body.halfspaces == ref.halfspaces
        assert body._cache["incidence"] == ref._cache["incidence"]
        assert body.int_form() == ref.int_form()
        assert body._cache["arank"] == ref._cache["arank"]


@pytest.mark.parametrize("n", [3, 4])
def test_hull_full_reduces_tight_normals_only_in_4d(monkeypatch, n):
    """In 3-D a candidate on n tight facets is a vertex with no elimination,
    so ``_int_reduce`` runs only for the seed simplex: n calls when the first
    n + 1 rows are affinely independent.  In 4-D every vertex still takes
    one rank test.  In 2-D the monotone chain makes no call at all
    (``test_planar_hull_and_volume_make_no_elimination``)."""
    reduce = geometry._int_reduce
    calls = []
    monkeypatch.setattr(geometry, "_int_reduce", lambda rows: calls.append(rows) or reduce(rows))
    rng = random.Random(n)
    tested = 0
    for kind in ("grid", "cospherical", "minkowski") * 4:
        D, Z = geometry._int_form([tuple(map(rat, p)) for p in oracle_cloud(rng, n, kind)])
        P = sorted(set(Z))
        if geometry._affine_rank(P[:n + 1])[0] != n:
            continue
        calls.clear()
        body = geometry._hull_full(D, P, n)
        if n == 3:
            assert len(calls) == n
        else:
            assert len(calls) >= n + len(body.vertices)
        tested += 1
    assert tested >= 4


def test_planar_hull_and_volume_make_no_elimination(monkeypatch):
    """A full-dimensional 2-D ``hull`` and its ``volume`` and ``barycenter``
    take no rank test, determinant or triangulation: the monotone chain
    finds the polygon and the fan over its edges sums the moments."""
    calls = []
    for name in ("_int_reduce", "_det", "triangulate"):
        original = getattr(geometry, name)
        monkeypatch.setattr(geometry, name,
                            lambda *a, _name=name, _f=original: calls.append(_name) or _f(*a))
    rng = random.Random(2)
    tested = 0
    for kind in ("grid", "cospherical", "minkowski") * 4:
        calls.clear()
        body = hull(oracle_cloud(rng, 2, kind))
        if body.is_full_dim():  # a flat grid cloud takes the rank test
            volume(body), barycenter(body)
            assert calls == []
            tested += 1
    assert tested >= 8
    body = hull([(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), 0)])
    assert volume(body) == 1 and barycenter(body) == (F(1, 2), F(1, 2))
    assert calls == []


FLAT_SQUARE_3D = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]  # a unit square at z = 1
FLAT_POLYTOPE_4D = [(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 1, 1)]


def count_calls(monkeypatch, *names):
    """Wrap the ``geometry`` functions ``names`` to record each call's name in
    the returned list."""
    calls = []
    for name in names:
        original = getattr(geometry, name)
        monkeypatch.setattr(geometry, name,
                            lambda *a, _name=name, _f=original: calls.append(_name) or _f(*a))
    return calls


@pytest.mark.parametrize("points, eliminations", [
    (FLAT_POLYTOPE_4D, 5),  # rank, equalities, three seed-simplex tests
    ([(0, 0, 0), (1, 2, 3)], 3),  # a segment in R^3: rank, equalities, one seed test
])
def test_flat_hull_takes_one_rank_test(monkeypatch, points, eliminations):
    """A flat cloud is ranked once: its projection goes straight to
    ``_hull_full`` in the rank found, with no second rank test."""
    calls = count_calls(monkeypatch, "_int_reduce")
    body = hull(points)
    assert calls == ["_int_reduce"] * eliminations
    monkeypatch.undo()
    assert not body.is_full_dim()
    validate_body(body)


@pytest.mark.parametrize("points", [FLAT_SQUARE_3D, FLAT_POLYTOPE_4D])
def test_flat_cut_keeps_its_parent_equalities(monkeypatch, points):
    """A cut of a flat body carries its parent's equalities: it makes no
    elimination and no nullspace, and the result equals the hull of its
    vertices, equalities included."""
    body = hull(points)
    calls = count_calls(monkeypatch, "_int_reduce", "_nullspace")
    cut = intersect_halfspace(body, HalfSpace((1,) + (0,) * (body.dim - 1), F(1, 2)))
    assert calls == []
    monkeypatch.undo()
    ref = hull(cut.vertices)
    assert (cut.vertices, cut.halfspaces, cut.incidence(), cut.affine_rank()) == (
        ref.vertices, ref.halfspaces, ref.incidence(), ref.affine_rank())
    last = (0,) * (body.dim - 1)
    equalities = {HalfSpace(last + (1,), F(1)), HalfSpace(last + (-1,), F(-1))}
    for b in (body, cut):
        assert {h for h, t in zip(b.halfspaces, b.incidence())
                if len(t) == len(b.vertices)} == equalities
    validate_body(cut)


def test_validate_body_rehulls_only_a_full_dimensional_body(monkeypatch):
    """``validate_body`` builds the vertex hull only to compare the halfspaces
    of a full-dimensional body: never for a flat square in R^3, once for the
    unit cube."""
    flat, cube = hull(FLAT_SQUARE_3D), hull(list(itertools.product((0, 1), repeat=3)))
    calls = count_calls(monkeypatch, "hull")
    validate_body(flat)
    assert calls == []
    validate_body(cube)
    assert calls == ["hull"]


def test_planar_moments_read_only_the_edges_of_a_hand_built_polygon():
    """A polygon built by hand may carry halfspaces tight at one vertex or
    at none; the fan skips them, as the pulling triangulation does."""
    extra = [HalfSpace((1, 1), F(2)), HalfSpace((1, 2), F(5))]
    body = ConvexBody(2, UNIT_SQUARE.vertices, [*UNIT_SQUARE.halfspaces, *extra])
    assert (volume(body), barycenter(body)) == (1, (F(1, 2), F(1, 2)))


def oracle_planar_hull(points):
    """The 2-D hull as ``_hull_rows`` built it before the monotone chain: a
    rank test, then ``oracle_hull_full`` on a cloud that spans the plane, or
    the flat path with ``oracle_hull_full`` for its inner hull."""
    D, Z = geometry._int_form([tuple(map(rat, p)) for p in points])
    P = sorted(set(Z))
    if geometry._affine_rank(P)[0] == 2:
        return oracle_hull_full(D, P, 2)
    with mock.patch.object(geometry, "_hull_full", oracle_hull_full):
        return geometry._hull_rows(D, P, 2)


def planar_cloud(rng, kind):
    """A 2-D cloud of one kind: lattice grids, collinear points only,
    repeats spelled as unreduced "p/q", six sampler-shaped points on the
    1/32 grid of the unit square, or just 3-4 points."""
    if kind == "grid":
        den = rng.randint(1, 3)
        return [tuple(F(rng.randrange(-den, den + 1), den) for _ in range(2))
                for _ in range(rng.randrange(3, 21))]
    if kind == "collinear":
        base = (F(rng.randrange(-3, 4)), F(rng.randrange(-3, 4), 2))
        step = (rng.randrange(-2, 3), rng.randrange(-2, 3))
        return [tuple(b + F(t, 3) * d for b, d in zip(base, step))
                for t in (rng.randrange(7) for _ in range(rng.randrange(1, 9)))]
    if kind == "duplicates":
        pts = [(rng.randrange(-4, 5), F(rng.randrange(-4, 5), rng.randint(1, 3)))
               for _ in range(rng.randrange(1, 10))]
        return pts + [(f"{2 * x}/2", f"{3 * y.numerator}/{3 * y.denominator}")
                      for x, y in pts[:len(pts) // 2 + 1]]
    if kind == "sampler":
        return [(F(rng.randrange(33), 32), F(rng.randrange(33), 32)) for _ in range(6)]
    return [(F(rng.randrange(-6, 7), rng.randint(1, 4)), F(rng.randrange(-6, 7), rng.randint(1, 4)))
            for _ in range(rng.randint(3, 4))]


@pytest.mark.parametrize("kind", ["grid", "collinear", "duplicates", "sampler", "small"])
def test_planar_hull_and_moments_match_beneath_beyond_oracles(kind):
    """On 250 seeded 2-D clouds per kind, ``hull`` (the monotone chain, and
    the flat path when the ring has fewer than three vertices) equals the
    rank-tested ``oracle_planar_hull`` field for field, and the fan moments
    equal the pulling triangulation (``triangulate``) and ``oracle_moments``
    on the hull and on two clips of it."""
    rng = random.Random(kind)
    for _ in range(250):
        pts = planar_cloud(rng, kind)
        body, ref = hull(pts), oracle_planar_hull(pts)
        assert body.vertices == ref.vertices
        assert body.halfspaces == ref.halfspaces
        assert body._cache["incidence"] == ref._cache["incidence"]
        assert body.int_form() == ref.int_form()
        assert body._cache["arank"] == ref._cache["arank"]
        if kind == "collinear":
            assert not body.is_full_dim()
        if not body.is_full_dim():
            continue
        for _ in range(2):
            D, Z = body.int_form()
            dets, first = 0, [0, 0]
            for s in triangulate(body):
                w = abs(geometry._det([[x - y for x, y in zip(Z[j], Z[s[0]])] for j in s[1:]]))
                dets += w
                first = [c + w * sum(Z[j][i] for j in s) for i, c in enumerate(first)]
            assert geometry._moments(body) == (F(dets, 2 * D * D),
                                               tuple(F(c, 6 * D ** 3) for c in first))
            assert (volume(body), barycenter(body)) == oracle_moments(body)
            cut = intersect_halfspace(body, random_cut(rng, body))
            if cut.is_empty or not cut.is_full_dim():
                break
            body = cut


def test_det_matches_laplace_oracle():
    """The closed forms for n = 3, 4 and the expansion above them equal the
    recursive Laplace expansion on seeded int and Fraction matrices, sparse
    and singular ones included."""
    rng = random.Random(7)
    for n in range(7):
        for _ in range(150):
            frac = rng.random() < 0.5
            rows = [[F(rng.randint(-9, 9), rng.randint(1, 6)) if frac else rng.randint(-50, 50)
                     for _ in range(n)] for _ in range(n)]
            if n and rng.random() < 0.3:
                rows[rng.randrange(n)][rng.randrange(n)] = 0
            if n > 1 and rng.random() < 0.2:
                rows[-1] = list(rows[0])
            det = geometry._det(rows)
            assert det == oracle_det(rows)
            assert isinstance(det, int) or frac


# ---------------------------------------------------------------------------
# intersection
# ---------------------------------------------------------------------------

def test_intersect_square_halfplane():
    body = intersect_halfspace(UNIT_SQUARE, HalfSpace.make((1, 0), F(1, 2)))
    assert body == hull([(0, 0), (F(1, 2), 0), (0, 1), (F(1, 2), 1)])


def test_intersect_simplex_derived():
    body = intersect_halfspace(UNIT_SIMPLEX, HalfSpace.make((-1, 0), F(-1, 2)))
    assert body == hull([(F(1, 2), 0), (1, 0), (F(1, 2), F(1, 2))])


def test_intersect_infeasible_is_empty_not_error():
    body = intersect_halfspace(UNIT_SIMPLEX, HalfSpace.make((-1, 0), -2))
    assert body.is_empty
    assert volume(body) == 0


def test_intersect_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        intersect_halfspace(UNIT_SIMPLEX, HalfSpace.make((1,), 1))


# ---------------------------------------------------------------------------
# volume / barycenter
# ---------------------------------------------------------------------------

def test_volume_trivial():
    assert volume(UNIT_SIMPLEX) == F(1, 2)
    assert volume(UNIT_SQUARE) == 1


def test_volume_derived_triangle():
    assert volume(hull([(F(1, 2), 0), (1, 0), (F(1, 2), F(1, 2))])) == F(1, 8)


def test_barycenter_values():
    assert barycenter(UNIT_SIMPLEX) == (F(1, 3), F(1, 3))
    assert barycenter(UNIT_SQUARE) == (F(1, 2), F(1, 2))
    assert barycenter(hull([(F(1, 2), 0), (1, 0), (F(1, 2), F(1, 2))])) == (F(2, 3), F(1, 6))


def test_barycenter_degenerate_raises():
    with pytest.raises(DegenerateBody):
        barycenter(hull([(0, 0), (1, 1)]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]), st.integers(4, 9))
def test_volume_scaling_law(seed, n, count):
    body = hull(fan_points(seed, n, count))
    lam = F(3, 2)
    assert volume(scale_translate(body, lam)) == lam**n * volume(body)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(5, 10))
def test_volume_against_float_hull(seed, count):
    scipy_spatial = pytest.importorskip("scipy.spatial")
    pts = fan_points(seed, 2, count)
    body = hull(pts)
    if not body.is_full_dim():
        return
    qhull = scipy_spatial.ConvexHull([[float(c) for c in p] for p in pts])
    assert abs(float(volume(body)) - qhull.volume) < 1e-9


# ---------------------------------------------------------------------------
# superlevel sets
# ---------------------------------------------------------------------------

def test_superlevel_simplex_values():
    g = first_coordinate_transform(UNIT_SIMPLEX)
    assert superlevel(UNIT_SIMPLEX, g, F(1, 2)) == hull(
        [(F(1, 2), 0), (1, 0), (F(1, 2), F(1, 2))]
    )
    assert superlevel(UNIT_SIMPLEX, g, 0) == UNIT_SIMPLEX
    top = superlevel(UNIT_SIMPLEX, g, 1)
    assert top.vertices == ((F(1), F(0)),)
    assert volume(top) == 0


def test_superlevel_nesting():
    g = first_coordinate_transform(UNIT_SQUARE)
    prev = superlevel(UNIT_SQUARE, g, 0)
    for t in [F(1, 4), F(1, 2), F(3, 4), F(1)]:
        cur = superlevel(UNIT_SQUARE, g, t)
        assert all(prev.contains(v) for v in cur.vertices)
        prev = cur


def test_concavepl_min_of_pieces_and_nonnegativity():
    pieces = [AffineFunctional.make((1, 0), 0), AffineFunctional.make((-1, -1), 3)]
    g = ConcavePL.make(pieces, UNIT_SQUARE)
    assert g((F(0), F(0))) == 0
    assert g((F(1), F(1))) == 1
    bad = [AffineFunctional.make((1, 0), -1)]
    with pytest.raises(GeometryError):
        ConcavePL.make(bad, UNIT_SQUARE)


def test_concavepl_rejects_a_gradient_of_the_wrong_length():
    for grad in [(1,), (1, 0, 0)]:
        pieces = [AffineFunctional.make((0, 1), 0), AffineFunctional.make(grad, 1)]
        with pytest.raises(DimensionMismatch, match="R\\^2"):
            ConcavePL.make(pieces, UNIT_SQUARE)


def test_scaled_values_match_the_per_point_oracle():
    """Column scoring (``ConcavePL.scaled_values``) against scoring point by
    point (``oracles.oracle_scaled_values``): n = 1..4, gradient entries 0,
    +-1, large and rational, constant and duplicated pieces, and point lists
    that are empty, unsorted or repeat a point.  ``ConcavePL.make`` scores
    the vertex rows of its domain, which are not sorted by score either."""
    rng = random.Random(23)
    big = 10**12 + 7
    entries = [0, 0, 1, -1, 1, -1, 2, -3, big, -big, F(1, 2), F(-5, 3)]
    for n in (1, 2, 3, 4):
        for _ in range(40):
            domain = hull([tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n))
                           for _ in range(n + 1 + rng.randint(0, 4))])
            pieces = [AffineFunctional.make([rng.choice(entries) for _ in range(n)],
                                            rng.choice((0, 0, 1, -2, F(7, 2), big, -big)))
                      for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.3:
                pieces.append(AffineFunctional.make([0] * n, rng.choice((0, -1, F(5, 3)))))
            if rng.random() < 0.3:
                pieces.insert(rng.randrange(len(pieces) + 1), rng.choice(pieces))
            g = ConcavePL(tuple(pieces), domain)
            points = [tuple(rng.randint(-9, 9) for _ in range(n))
                      for _ in range(rng.randint(0, 12))]
            points += rng.sample(points, min(len(points), 2))
            rng.shuffle(points)
            for k in (1, rng.randint(2, 50)):
                assert g.scaled_values(points, k) == oracle_scaled_values(g, points, k)
                assert g.scaled_values([], k) == []
            if domain.is_empty:
                continue
            D, Z = domain.int_form()
            rows = list(Z)
            rng.shuffle(rows)
            for vertex_rows in (Z, rows):
                assert g.scaled_values(vertex_rows, D) == oracle_scaled_values(g, vertex_rows, D)
            if min(oracle_scaled_values(g, Z, D)) < 0:
                with pytest.raises(GeometryError, match="negative on the domain"):
                    ConcavePL.make(pieces, domain)
            else:
                assert ConcavePL.make(pieces, domain) == g


def test_scaled_values_of_constant_pieces():
    """A G without any nonzero gradient entry scores k L c for every point."""
    g = ConcavePL.make([AffineFunctional.make((0, 0), F(3, 2)),
                        AffineFunctional.make((0, 0), F(5, 2))], UNIT_SQUARE)
    points = [(4, 1), (0, 0), (4, 1), (-2, 7)]
    assert g.scaled_values(points, 3) == [9, 9, 9, 9]
    assert g.scaled_values([], 3) == []


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------

def test_slice_volume_examples():
    assert slice_volume(UNIT_SIMPLEX, P1, F(1, 2)) == F(1, 2)
    assert slice_volume(UNIT_SQUARE, P1, F(1, 2)) == 1
    assert slice_volume(UNIT_SIMPLEX, P1, 2) == 0


def test_slice_volume_non_axis_direction():
    # {x + y = 1} hits the square in a segment of lattice length 1
    f = AffineFunctional.make((1, 1), 0)
    assert slice_volume(UNIT_SQUARE, f, 1) == 1
    assert slice_volume(UNIT_SQUARE, f, F(1, 2)) == F(1, 2)
    # {x + y/2 + 1/4 = t} has the primitive normal (2, 1): at t = 1/2 it is
    # the segment from (1/4, 0) to (0, 1/2), 1/4 of the lattice vector (-1, 2)
    g = AffineFunctional.make((1, F(1, 2)), F(1, 4))
    assert slice_volume(UNIT_SQUARE, g, F(1, 2)) == F(1, 4)
    assert slice_volume(UNIT_SQUARE, g, F(3, 4)) == F(1, 2)


def test_slice_volume_integrates_to_volume():
    # the slice-area profile of the simplex is 1-t on [0,1]
    breaks = sorted({v[0] for v in UNIT_SIMPLEX.vertices})
    total = F(0)
    for a, b in zip(breaks, breaks[1:]):
        # linear on each piece: trapezoid rule is exact
        total += (b - a) * (slice_volume(UNIT_SIMPLEX, P1, a) + slice_volume(UNIT_SIMPLEX, P1, b)) / 2
    assert total == volume(UNIT_SIMPLEX)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(5, 9))
def test_slice_volume_integrates_to_volume_random_2d(seed, count):
    # 2-D slice lengths are piecewise linear in t: trapezoid per piece is exact
    body = hull(fan_points(seed, 2, count))
    if not body.is_full_dim():
        return
    breaks = sorted({v[0] for v in body.vertices})
    total = F(0)
    for a, b in zip(breaks, breaks[1:]):
        total += (b - a) * (slice_volume(body, P1, a) + slice_volume(body, P1, b)) / 2
    assert total == volume(body)


def test_slice_volume_integrates_to_volume_3d():
    # 3-D slice-area profile is piecewise quadratic: Simpson per piece is exact
    body = hull(fan_points(11, 3, 8))
    assert body.is_full_dim()
    f = coordinate_projection(3)
    breaks = sorted({v[0] for v in body.vertices})
    total = F(0)
    for a, b in zip(breaks, breaks[1:]):
        mid = (a + b) / 2
        total += (b - a) * (
            slice_volume(body, f, a) + 4 * slice_volume(body, f, mid)
            + slice_volume(body, f, b)
        ) / 6
    assert total == volume(body)


def test_brunn_slice_concavity_on_midpoints():
    body = hull(fan_points(7, 2, 8))
    assert body.is_full_dim()
    xs = sorted({v[0] for v in body.vertices})
    grid = sorted({x for x in xs} | {(a + b) / 2 for a, b in zip(xs, xs[1:])})
    # n=2: slice "volume" is a length, and concavity is a rational comparison
    for a, b in zip(grid, grid[2:]):
        mid = (a + b) / 2
        lhs = 2 * slice_volume(body, P1, mid)
        rhs = slice_volume(body, P1, a) + slice_volume(body, P1, b)
        assert lhs >= rhs


# ---------------------------------------------------------------------------
# minkowski sums with cubes
# ---------------------------------------------------------------------------

def test_minkowski_square():
    body = minkowski_cube(UNIT_SQUARE, F(1, 2))
    assert body == hull(
        [(-F(1, 2), -F(1, 2)), (F(3, 2), -F(1, 2)), (-F(1, 2), F(3, 2)), (F(3, 2), F(3, 2))]
    )


def test_minkowski_point_gives_cube():
    body = minkowski_cube(hull([(0, 0)]), F(1, 2))
    assert volume(body) == 1
    assert len(body.vertices) == 4


def test_minkowski_simplex_exact():
    # two of the 3+4 sum edges merge (the legs are axis-parallel): 5 vertices
    body = minkowski_cube(UNIT_SIMPLEX, F(1, 4))
    assert len(body.vertices) == 5
    assert volume(body) == F(7, 4)
    assert volume(body) >= F(1, 2)


# ---------------------------------------------------------------------------
# chebyshev balls
# ---------------------------------------------------------------------------

def test_chebyshev_square():
    center, radius = chebyshev_ball(UNIT_SQUARE)
    assert center == (F(1, 2), F(1, 2))
    assert radius == F(1, 2)


def test_chebyshev_segment():
    center, radius = chebyshev_ball(SEGMENT)
    assert center == (F(1, 2),)
    assert radius == F(1, 2)


def test_chebyshev_simplex_brackets_incircle():
    center, radius = chebyshev_ball(UNIT_SIMPLEX)
    assert F(29, 100) <= radius <= F(2929, 10000)
    # certification: each facet's true distance to the center is >= radius
    for h in UNIT_SIMPLEX.halfspaces:
        slack = h.offset - h.value(center)
        norm_sq = sum(F(c) ** 2 for c in h.normal)
        assert slack > 0 and slack * slack >= radius * radius * norm_sq
    for i in range(2):
        for s in (radius, -radius):
            p = list(center)
            p[i] += s
            assert UNIT_SIMPLEX.contains(tuple(p))


def test_chebyshev_degenerate_raises():
    with pytest.raises(DegenerateBody):
        chebyshev_ball(hull([(0, 0), (1, 1)]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]))
def test_chebyshev_certified_on_random_bodies(seed, n):
    body = hull(fan_points(seed, n, 8))
    if not body.is_full_dim():
        return
    center, radius = chebyshev_ball(body)
    assert radius > 0
    for h in body.halfspaces:
        slack = h.offset - h.value(center)
        norm_sq = sum(F(c) ** 2 for c in h.normal)
        assert slack >= 0 and slack * slack >= radius * radius * norm_sq


def random_lp(rng, shape):
    """A random LP max c.z, A z <= b, z >= 0 with b >= 0 and mixed denominators.

    About a third of b is 0, so the slack basis is often degenerate.  "ties"
    appends positive multiples of rows (equal ratios in the ratio test),
    "degenerate" zeroes all of b, and "unbounded" makes one profitable column
    that no row bounds.  "ball" is shaped as ``chebyshev_ball``'s LP: integer
    normals w split into paired columns (w, -w) for free variables, and a
    last column of norm bounds over 2^64 scaled to integers by their lcm
    S, with objective S on it, and b > 0.
    """
    dens = (1, 2, 3, 4, 6, 7, 12)

    def entry(lo, hi):
        return F(rng.randint(lo, hi), rng.choice(dens))

    m, n = rng.randint(1, 40), rng.randint(1, 9)
    A = [[entry(-3, 5) for _ in range(n)] for _ in range(m)]
    b = [F(0) if rng.random() < 0.35 else entry(1, 6) for _ in range(m)]
    c = [entry(-2, 4) for _ in range(n)]
    if shape == "ties":
        for _ in range(rng.randint(1, 20)):
            i, lam = rng.randrange(m), entry(1, 4)
            A.append([lam * x for x in A[i]])
            b.append(lam * b[i])
    elif shape == "degenerate":
        b = [F(0)] * m
    elif shape == "unbounded":
        j = rng.randrange(n)
        c[j] = entry(1, 3)
        for row in A:
            row[j] = -abs(row[j])
    elif shape == "ball":
        dim = rng.randint(1, 4)
        normals = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(m)]
        for w in normals:
            w[rng.randrange(dim)] = rng.choice((-1, 1)) * rng.randint(1, 3)
        norms = [sqrt_upper_bound(F(sum(x * x for x in w))) for w in normals]
        S = max(rho.denominator for rho in norms)
        A = [[F(e) for x in w for e in (x, -x)] + [rho * S] for w, rho in zip(normals, norms)]
        b = [entry(1, 6) for _ in range(m)]  # x0 lies inside the body
        c = [F(0)] * (2 * dim) + [F(S)]
    return A, b, c


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 10**6),
       st.sampled_from(["random", "ties", "degenerate", "unbounded", "ball"]))
def test_simplex_max_matches_fraction_tableau_oracle(seed, shape):
    A, b, c = random_lp(random.Random(seed), shape)
    try:
        expected = oracle_simplex_max(A, b, c)
    except GeometryError:
        with pytest.raises(GeometryError):
            geometry._simplex_max(A, b, c)
        return
    assert shape != "unbounded"
    assert geometry._simplex_max(A, b, c) == expected


def test_simplex_max_breaks_ratio_ties_by_basis_index():
    # the ratio test ties between a slack row and a later row whose basic
    # variable has a smaller index; taking the earlier row instead ends at
    # the other optimal vertex (0, 1, 0, 1, 2)
    A = [[2, -1, 2, 0, 1], [0, 2, 0, 0, -1], [1, 1, 0, 1, -1],
         [-1, 1, -1, -1, -1], [1, 0, 1, 1, 0], [-1, 2, 0, -1, 0]]
    A = [[F(x) for x in row] for row in A]
    b, c = [F(x) for x in (1, 0, 0, 0, 1, 1)], [F(x) for x in (1, -1, 2, 2, 1)]
    expected = (F(3), [F(0), F(0), F(0), F(1), F(1)])
    assert oracle_simplex_max(A, b, c) == expected
    assert geometry._simplex_max(A, b, c) == expected


def test_simplex_max_enters_the_smallest_label_not_the_first_column():
    # after the pivots z_0 for slack 4, then z_2 for slack 3, the condensed
    # columns hold the labels (4, 1, 3) and both slack 4 (column 0) and z_1
    # (column 1) have negative reduced costs; Bland enters z_1, the smallest
    # label, while entering the first such column ends at the other optimal
    # vertex (0, 0, 2)
    A = [[F(2), F(1), F(1)], [F(1), F(1), F(-1)]]
    b, c = [F(2), F(0)], [F(1), F(1), F(1)]
    expected = (F(2), [F(0), F(1), F(1)])
    assert oracle_simplex_max(A, b, c) == expected
    assert geometry._simplex_max(A, b, c) == expected


def oracle_chebyshev_ball(body):
    """The inscribed-ball LP built over Fractions from the vertex centroid and
    solved by the Fraction tableau."""
    n = body.dim
    x0 = tuple(sum(v[i] for v in body.vertices) / len(body.vertices) for i in range(n))
    A, rhs = [], []
    for h in body.halfspaces:
        A.append([F(c) for w in h.normal for c in (w, -w)]
                 + [sqrt_upper_bound(_dot(h.normal, h.normal))])
        rhs.append(h.offset - h.value(x0))
    radius, z = oracle_simplex_max(A, rhs, [F(0)] * (2 * n) + [F(1)])
    return tuple(x0[i] + z[2 * i] - z[2 * i + 1] for i in range(n)), radius


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 3, 4]))
def test_chebyshev_ball_matches_fraction_lp_on_hulls_and_cut_bodies(seed, n):
    rng = random.Random(seed)
    body = random_body(seed, n)
    for _ in range(3):
        if body.is_empty or not body.is_full_dim():
            break
        assert chebyshev_ball(body) == oracle_chebyshev_ball(body)
        body = intersect_halfspace(body, random_cut(rng, body))


@pytest.mark.parametrize("sides", [(2, 1), (3, 1, 2), (2, 1, 3, F(1, 2))])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chebyshev_ball_keeps_the_non_unique_centers_of_boxes_and_their_cuts(sides, seed):
    """A box that is not a cube, and many bodies cut from it, have a segment or
    more of Chebyshev centers; only the Fraction tableau's own pivot path
    ends at the center it returns."""
    rng = random.Random(seed)
    body = hull(list(itertools.product(*[(0, s) for s in sides])))
    for _ in range(4):
        assert chebyshev_ball(body) == oracle_chebyshev_ball(body)
        body = intersect_halfspace(body, random_cut(rng, body))
        if body.is_empty or not body.is_full_dim():
            break


def test_chebyshev_ball_is_solved_once_per_body_and_bits(monkeypatch):
    """The inscribed-ball LP, at its one precision of 2^-64, is solved once
    per body and read from the body's cache after that."""
    body = hull(fan_points(5, 3, 10))
    calls = []
    lp = geometry._simplex_max
    monkeypatch.setattr(geometry, "_simplex_max", lambda *a: calls.append(1) or lp(*a))
    first = chebyshev_ball(body)
    assert chebyshev_ball(body) == first and len(calls) == 1
    chebyshev_ball(hull(fan_points(6, 3, 10)))
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def test_slice_cone_examples():
    assert slice_cone(UNIT_SQUARE, 0, 1) == UNIT_SQUARE
    assert slice_cone(UNIT_SIMPLEX, 0, 1) == UNIT_SIMPLEX
    assert slice_cone(UNIT_SQUARE, F(1, 4), F(3, 4)) == hull(
        [(F(1, 4), 0), (F(1, 4), 1), (F(3, 4), 0), (F(3, 4), 1)]
    )
    with pytest.raises(GeometryError):
        slice_cone(UNIT_SQUARE, F(3, 4), F(1, 4))
    with pytest.raises(GeometryError):
        slice_cone(UNIT_SQUARE, 0, 2)


def test_apex_cone_examples():
    assert apex_cone(UNIT_SIMPLEX, 0, 1, (1, 0)) == UNIT_SIMPLEX
    cone = apex_cone(UNIT_SQUARE, 0, 1, (1, 0))
    assert cone == hull([(0, 0), (0, 1), (1, 0)])
    cut = superlevel(cone, first_coordinate_transform(cone), F(1, 2))
    assert cut == hull([(F(1, 2), 0), (F(1, 2), F(1, 2)), (1, 0)])
    with pytest.raises(GeometryError):
        apex_cone(UNIT_SQUARE, 0, 1, (2, 0))
    with pytest.raises(GeometryError):
        apex_cone(UNIT_SQUARE, 0, 1, (F(1, 2), 0))


def test_apex_cone_similarity_translation():
    # (b-a)/(b-t) * cone(t) is the cone translated by ((t-a)/(b-t)) * apex
    cone = apex_cone(UNIT_SQUARE, 0, 1, (1, 0))
    a, b, apex = F(0), F(1), (F(1), F(0))
    for t in [F(1, 4), F(1, 2), F(2, 3)]:
        cut = superlevel(cone, first_coordinate_transform(cone), t)
        lam = (b - a) / (b - t)
        shift = tuple((t - a) / (b - t) * c for c in apex)
        assert scale_translate(cut, lam) == scale_translate(cone, 1, shift)


# ---------------------------------------------------------------------------
# rooftop bodies {(x, t) : x in P, 0 <= t <= f(x)}, one dimension up
# ---------------------------------------------------------------------------

def rooftop(body, f):
    """Hull of every vertex lifted to heights 0 and f(v), for affine f >= 0."""
    return hull([tuple(v) + (h,) for v in body.vertices for h in (0, f(v))])


def test_rooftop_volumes():
    assert volume(rooftop(UNIT_SIMPLEX, P1)) == F(1, 6)
    assert volume(rooftop(SEGMENT, coordinate_projection(1))) == F(1, 2)
    assert volume(rooftop(UNIT_SQUARE, P1)) == F(1, 2)


def test_rooftop_volume_is_first_moment():
    body = hull(fan_points(3, 2, 7))
    roof = rooftop(body, P1)
    assert volume(roof) == volume(body) * barycenter(body)[0]


def test_rooftop_4d_over_3d_simplex():
    simplex3 = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    roof = rooftop(simplex3, coordinate_projection(3))
    assert volume(roof) == volume(simplex3) * barycenter(simplex3)[0]
    validate_body(roof)


def test_triangulate_sums_to_volume():
    for body in (UNIT_SIMPLEX, hull(fan_points(4, 2, 9))):
        simplices = [tuple(body.vertices[i] for i in s) for s in triangulate(body)]
        assert sum(
            abs((s[1][0] - s[0][0]) * (s[2][1] - s[0][1])
                - (s[1][1] - s[0][1]) * (s[2][0] - s[0][0])) / 2
            for s in simplices
        ) == volume(body)


# ---------------------------------------------------------------------------
# oracles: project-and-re-hull triangulation, and clipping by segment crossings
# ---------------------------------------------------------------------------

def oracle_triangulate(vertices, halfspaces, n):
    """Fan from the first vertex over every facet missing it; each facet is
    projected along a nonzero normal coordinate, re-hulled and triangulated
    one dimension down."""
    if n == 1:
        return [tuple(sorted(vertices))]
    apex = vertices[0]
    simplices = []
    for h in halfspaces:
        if h.is_tight(apex):
            continue
        tight = [v for v in vertices if h.is_tight(v)]
        if n == 2:
            facet_simplices = [(min(tight), max(tight))]
        else:
            drop = next(i for i, c in enumerate(h.normal) if c != 0)
            keep = [i for i in range(n) if i != drop]
            back = {tuple(v[i] for i in keep): v for v in tight}
            inner = geometry._hull_full(*geometry._int_form(sorted(back)), n - 1)
            facet_simplices = [tuple(back[q] for q in s)
                               for s in oracle_triangulate(inner.vertices, inner.halfspaces, n - 1)]
        simplices.extend((apex,) + s for s in facet_simplices)
    return simplices


def oracle_moments(body):
    n = body.dim
    fact = factorial(n)
    vol, acc = F(0), [F(0)] * n
    for s in oracle_triangulate(body.vertices, body.halfspaces, n):
        w = abs(oracle_det([vsub(p, s[0]) for p in s[1:]])) / fact
        vol += w
        for i in range(n):
            acc[i] += w * sum(p[i] for p in s) / (n + 1)
    return vol, tuple(c / vol for c in acc)


def oracle_integrate(body, g):
    """Sum of volume * value-at-barycenter over the regions where each piece
    realizes the min."""
    total = F(0)
    for f_i in g.pieces:
        region = body
        for f_j in g.pieces:
            normal = tuple(a - b for a, b in zip(f_i.gradient, f_j.gradient))
            if any(normal):
                region = intersect_halfspace(
                    region, HalfSpace.make(normal, f_j.constant - f_i.constant))
            elif f_j.constant < f_i.constant:  # piece j is everywhere smaller
                region = None
                break
        if region is not None and not region.is_empty and region.is_full_dim():
            vol, center = oracle_moments(region)
            total += vol * f_i(center)
    return total


def affine_rank(points):
    """Affine rank of rational points, by the Fraction row reduction oracle."""
    rows = [list(vsub(p, points[0])) for p in points[1:]]
    return oracle_row_reduce(rows)[0] if points else -1


def oracle_clip(body, hs):
    """hull of the kept vertices and every inside-outside segment crossing, and
    the halfspace set the affine-rank facet filter keeps among the body's
    halfspaces and hs, plus the affine-hull equalities of that hull."""
    vals = [hs.value(v) - hs.offset for v in body.vertices]
    pts = [v for v, s in zip(body.vertices, vals) if s <= 0]
    for vi, si in zip(body.vertices, vals):
        for vo, so in zip(body.vertices, vals):
            if si < 0 < so:
                lam = -si / (so - si)
                pts.append(tuple(a + lam * (b - a) for a, b in zip(vi, vo)))
    if not pts:
        return None, None
    ref = hull(pts)
    rank = affine_rank(ref.vertices)
    halfspaces = {h for h in ref.halfspaces if all(h.is_tight(v) for v in ref.vertices)}
    for h in set(body.halfspaces) | {hs}:
        tight = [v for v in ref.vertices if h.is_tight(v)]
        if tight and affine_rank(tight) == rank - 1:
            halfspaces.add(h)
    return ref, halfspaces


def random_body(seed, n, flat=False):
    """Hull of a few random rational points, in R^n or (flat) in a random
    affine subspace of lower dimension."""
    rng = random.Random(seed)
    if flat:
        dirs = [tuple(rng.randrange(-2, 3) for _ in range(n)) for _ in range(rng.randrange(n))]
    else:
        dirs = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    base = tuple(F(rng.randrange(0, 9), 8) for _ in range(n))
    pts = []
    for _ in range(rng.randrange(n + 1, {1: 4, 2: 9, 3: 7, 4: 6}[n] + 1)):
        coeffs = [F(rng.randrange(0, 9), 8) for _ in dirs]
        pts.append(tuple(b + sum(c * d[i] for c, d in zip(coeffs, dirs))
                         for i, b in enumerate(base)))
    return hull(pts)


def random_cut(rng, body):
    """A halfspace whose boundary passes between two random vertices."""
    n = body.dim
    normal = [rng.randrange(-3, 4) for _ in range(n)]
    normal[rng.randrange(n)] = rng.choice((-1, 1)) * rng.randrange(1, 4)
    a, b = rng.choice(body.vertices), rng.choice(body.vertices)
    return HalfSpace.make(normal, sum(c * (x + y) for c, x, y in zip(normal, a, b)) / 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 3, 4]))
def test_moments_match_rehull_oracle_on_hulls_and_cut_chains(seed, n):
    rng = random.Random(seed)
    body = random_body(seed, n)
    pieces = [AffineFunctional.make([rng.randrange(-3, 4) for _ in range(n)], rng.randrange(0, 4))
              for _ in range(rng.randrange(1, 4))]
    for _ in range(4):
        if body.is_empty:
            break
        if body.is_full_dim():
            vol, center = oracle_moments(body)
            assert volume(body) == vol
            assert barycenter(body) == center
            g = ConcavePL(tuple(pieces), body)
            assert integrate_transform(body, g) == oracle_integrate(body, g)
        else:
            assert volume(body) == 0
        body = intersect_halfspace(body, random_cut(rng, body))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 3, 4]), st.booleans())
def test_intersect_halfspace_matches_crossing_hull_oracle(seed, n, flat):
    rng = random.Random(seed)
    body = random_body(seed, n, flat)
    for _ in range(2 if n < 4 else 1):  # the oracle hull costs O(N^(n+1))
        hs = random_cut(rng, body)
        clipped = intersect_halfspace(body, hs)
        ref, halfspaces = oracle_clip(body, hs)
        if ref is None:
            assert clipped.is_empty
            break
        assert clipped.vertices == ref.vertices
        vals = [hs.value(v) - hs.offset for v in body.vertices]
        if min(vals) < 0 < max(vals):
            assert set(clipped.halfspaces) == halfspaces
            if clipped.is_full_dim():
                assert set(clipped.halfspaces) == set(ref.halfspaces)
            assert clipped.incidence() == tuple(
                frozenset(i for i, v in enumerate(clipped.vertices) if h.is_tight(v))
                for h in clipped.halfspaces)
        body = clipped


def test_clip_seeds_int_form_and_validate_body_checks_it():
    clipped = intersect_halfspace(UNIT_SQUARE, HalfSpace((1, 1), F(3, 2)))
    assert clipped._cache["int_form"] == geometry._int_form(clipped.vertices)
    assert clipped._cache["int_form"][0] == 2
    validate_body(clipped)
    # the same vertices over a common but not least denominator
    clipped._cache["int_form"] = (4, tuple(tuple(int(4 * c) for c in v) for v in clipped.vertices))
    with pytest.raises(GeometryError, match="integer vertex form"):
        validate_body(clipped)


def test_validate_body_rejects_a_wrong_cached_affine_rank():
    for body in (hull(list(itertools.product((0, 1), repeat=3))),
                 hull([(0, 0, 0), (1, 2, 3), (F(1, 2), 1, F(3, 2))])):
        assert body._cache["arank"] == geometry._affine_rank(geometry._int_form(body.vertices)[1])[0]
        validate_body(body)
        for wrong in (body._cache["arank"] - 1, body._cache["arank"] + 1):
            body._cache["arank"] = wrong
            with pytest.raises(GeometryError, match="affine rank"):
                validate_body(body)


def representation(body):
    return body.dim, body.vertices, body.halfspaces, body.incidence()


def differential_cloud(rng, n):
    """A rational cloud in R^n, full-dimensional or (one in four) flat, with
    repeated points and a mix of denominators."""
    dims = n if rng.randrange(4) else rng.randrange(n)
    dirs = [tuple(rng.randrange(-2, 3) for _ in range(n)) for _ in range(dims)]
    base = tuple(F(rng.randrange(-6, 7), rng.choice((1, 2, 3, 6))) for _ in range(n))
    pts = []
    for _ in range(rng.randrange(2, {1: 6, 2: 12, 3: 14, 4: 12}[n])):
        coeffs = [F(rng.randrange(-6, 7), rng.choice((1, 2, 4, 5))) for _ in dirs]
        pts.append(tuple(b + sum(c * d[i] for c, d in zip(coeffs, dirs))
                         for i, b in enumerate(base)))
    return pts + pts[:rng.randrange(3)]


def differential_cut(rng, body):
    """A cut of one kind: through a vertex, between two vertices, leaving only
    the face where the body's minimum is attained, or leaving nothing."""
    n = body.dim
    normal = [rng.randrange(-3, 4) for _ in range(n)]
    normal[rng.randrange(n)] = rng.choice((-1, 1)) * rng.randrange(1, 4)
    values = sorted(_dot(normal, v) for v in body.vertices)
    kind = rng.choice(("vertex", "between", "between", "face", "nothing"))
    offset = {"vertex": rng.choice(values),
              "between": (rng.choice(values[:-1] or values) + rng.choice(values)) / 2,
              "face": values[0],
              "nothing": values[0] - F(1, rng.randrange(1, 5))}[kind]
    return HalfSpace.make(normal, offset)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integer_hull_and_clip_match_fraction_oracles(n):
    """The integer-row hull and clip against the parent's Fraction constructors
    on seeded clouds (flat ones included) and 3-cut chains: the same vertices,
    halfspaces and incidence, every output's integer form, affine rank and
    incidence seeded, and validate_body passes on every output."""
    seeded = {"int_form", "arank", "incidence"}
    rng = random.Random(1000 + n)
    for _ in range(40):
        pts = differential_cloud(rng, n)
        body = hull(pts)
        assert seeded <= body._cache.keys()
        assert representation(body) == representation(oracle_hull_front(pts))
        validate_body(body)
        for _ in range(3):
            if body.is_empty:
                break
            hs = differential_cut(rng, body)
            clipped = intersect_halfspace(body, hs)
            assert clipped.is_empty or seeded <= clipped._cache.keys()
            assert representation(clipped) == representation(oracle_intersect_halfspace(body, hs))
            validate_body(clipped)
            body = clipped


SEEDED = ("int_form", "arank", "incidence")


def crossing_cut(rng, body):
    """A cut with vertices strictly on both sides where the normal allows it:
    through a vertex of middle value, or between two vertex values."""
    n = body.dim
    normal = [rng.randrange(-3, 4) for _ in range(n)]
    normal[rng.randrange(n)] = rng.choice((-1, 1)) * rng.randrange(1, 4)
    values = sorted({_dot(normal, v) for v in body.vertices})
    if len(values) < 2:
        return HalfSpace.make(normal, values[0])
    if len(values) > 2 and rng.randrange(2):
        return HalfSpace.make(normal, rng.choice(values[1:-1]))
    i = rng.randrange(len(values) - 1)
    return HalfSpace.make(normal, (values[i] + values[i + 1]) / 2)


def assert_same_clip(clipped, ref):
    """The same vertices, halfspaces and incidence, the same seeded caches,
    and a valid body."""
    assert [clipped._cache.get(key) for key in SEEDED] == [ref._cache.get(key) for key in SEEDED]
    assert representation(clipped) == representation(ref)
    validate_body(clipped)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_clip_matches_dot_product_row_clip_oracle(n):
    """The clip that reads tight sets and rank off the parent's incidence
    against the row clip that re-derives them by dot products and one
    elimination per clip: seeded clouds (flat ones included) and 3-cut chains
    whose cuts pass through a vertex, between vertices, onto a face or leave
    nothing."""
    rng = random.Random(2000 + n)
    for _ in range(50):
        body = hull(differential_cloud(rng, n))
        for _ in range(3):
            if body.is_empty:
                break
            hs = crossing_cut(rng, body) if rng.randrange(3) else differential_cut(rng, body)
            clipped = intersect_halfspace(body, hs)
            assert_same_clip(clipped, oracle_clip_rows(body, hs))
            body = clipped


def test_maximal_matches_all_pairs_oracle():
    """Largest-first maximal sets against comparing every pair, on seeded
    families with nested chains, equal sizes and the empty set."""
    rng = random.Random(17)
    for _ in range(300):
        universe = range(rng.randrange(1, 9))
        family = {frozenset(x for x in universe if rng.randrange(3)) for _ in range(rng.randrange(1, 12))}
        assert geometry._maximal(family) == oracle_maximal(family)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_superlevel_matches_make_path_oracle(n):
    """Superlevels against ``oracle_superlevel``, which clips one
    ``HalfSpace.make`` cut per piece with its own row clip, on seeded clouds
    and transforms with constant and duplicate pieces, at t from below the
    minimum of G to above its maximum."""
    rng = random.Random(3000 + n)
    for _ in range(15):
        body = hull(differential_cloud(rng, n))
        pieces = [AffineFunctional.make([rng.randrange(-3, 4) for _ in range(n)],
                                        F(rng.randrange(0, 9), rng.choice((1, 2, 3))))
                  for _ in range(rng.randrange(1, 4))]
        pieces += rng.sample(pieces, rng.randrange(2))
        g = ConcavePL(tuple(pieces), body)
        values = sorted({g(v) for v in body.vertices})
        for t in {values[0] - 1, *values, (values[0] + values[-1]) / 2, values[-1] + 1}:
            assert_same_clip(superlevel(body, g, t), oracle_superlevel(body, g, t))


def off_denominator_cut(w, body):
    """w . x <= b through the middle of the body, with b in lowest terms over
    p^2 for a prime p that does not divide the body's common denominator D."""
    D = geometry._int_form(body.vertices)[0]
    p = next(p for p in (5, 7, 11, 13, 17, 19, 23) if D % p)
    vals = [_dot(w, v) for v in body.vertices]
    mid = (min(vals) + max(vals)) / 2
    num = mid.numerator * p * p // mid.denominator
    return HalfSpace(w, F(num + (num % p == 0), p * p))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from([3, 4]))
def test_integer_clipping_matches_fraction_tight_sets_and_ranks(seed, n):
    """Each body of a cut chain on a rational cloud that contains the origin:
    its integer form, its incidence against the Fraction is_tight sets, its
    affine rank against the Fraction row reduction, validate_body, and each
    clip against the hull of the kept vertices and segment crossings."""
    rng = random.Random(seed)
    size = rng.randrange(n + 2, {3: 10, 4: 8}[n])  # the crossing-hull oracle grows fast in 4-D
    pts = [(F(0),) * n] + [tuple(F(rng.randrange(0, 13), rng.choice((1, 2, 3, 4, 6)))
                                 for _ in range(n)) for _ in range(size)]
    body = hull(pts)

    def normal():
        w = [rng.choice((-1, 1)) * rng.randrange(1, 4)] + [rng.randrange(-3, 4) for _ in range(n - 1)]
        return tuple(c // gcd(*w) for c in w)

    def check(b):
        D, Z = geometry._int_form(b.vertices)
        assert all(F(x, D) == c for z, v in zip(Z, b.vertices) for x, c in zip(z, v))
        assert b.int_form() == (D, Z)  # seeded by the clip, or computed here
        assert b.incidence() == tight_sets(b)
        assert b.affine_rank() == affine_rank(b.vertices)
        validate_body(b)

    def clip(b, hs):
        clipped = intersect_halfspace(b, hs)
        ref, _ = oracle_clip(b, hs)
        assert clipped.vertices == (ref.vertices if ref else ())
        if not clipped.is_empty:
            check(clipped)
        return clipped

    check(body)
    w = normal()
    off = off_denominator_cut(w, body)
    # no vertex is tight, the origin (w . 0 = 0) included
    assert geometry._tight_set(off, *geometry._int_form(body.vertices)) == frozenset()
    body = clip(clip(body, random_cut(rng, body)), off)
    if body.is_empty:
        return
    vals = [_dot(w, v) for v in body.vertices]
    if min(vals) < max(vals):
        flat = geometry._section(body, HalfSpace(w, (min(vals) + max(vals)) / 2))
        assert flat.affine_rank() == body.affine_rank() - 1
        check(flat)
        flat = clip(flat, random_cut(rng, flat))
        body = flat if not flat.is_empty else body
    u = normal()
    low = min(_dot(u, v) for v in body.vertices)
    face = clip(body, HalfSpace(u, low))  # the face where u . x is least
    assert face.vertices == tuple(v for v in body.vertices if _dot(u, v) == low)
    assert clip(body, HalfSpace(u, low - F(1, 3))).is_empty


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 3, 4]))
def test_triangulate_tiles_the_body_with_proper_simplices(seed, n):
    body = random_body(seed, n)
    if not body.is_full_dim():
        return
    simplices = [tuple(body.vertices[i] for i in s) for s in triangulate(body)]
    dets = [geometry._det([vsub(p, s[0]) for p in s[1:]]) for s in simplices]
    assert all(len(s) == n + 1 and set(s) <= set(body.vertices) for s in simplices)
    assert all(d != 0 for d in dets)
    assert sum(abs(d) for d in dets) / factorial(n) == oracle_moments(body)[0]


def test_moments_of_4d_cut_body_make_no_hull_calls(monkeypatch):
    body = hull(fan_points(23, 4, 14))
    rng = random.Random(23)
    for _ in range(3):
        body = intersect_halfspace(body, random_cut(rng, body))
    assert body.is_full_dim()
    calls = []
    hull_full = geometry._hull_full
    monkeypatch.setattr(geometry, "_hull_full", lambda *a: calls.append(a) or hull_full(*a))
    vol, center = volume(body), barycenter(body)
    assert calls == []
    monkeypatch.undo()
    assert (vol, center) == oracle_moments(body)


def test_min_mean_transform():
    """The maximum and the integral of x1 on the unit simplex; the integral
    over the volume 1/2 is the mean 1/3."""
    from okbodies.geometry import max_transform

    g = first_coordinate_transform(UNIT_SIMPLEX)
    assert max_transform(UNIT_SIMPLEX, g) == 1
    assert integrate_transform(UNIT_SIMPLEX, g) == F(1, 6)


def oracle_max_transform(body, g):
    """max t s.t. t <= f_i(x) for every piece, x in body: an exact LP in the
    shifted variables x = x0 + y+ - y-, t = t0 + s, solved by the dense simplex
    (one piece peaks at a vertex)."""
    if body.is_empty:
        raise GeometryError("max over an empty body")
    if len(g.pieces) == 1:
        return max(g(v) for v in body.vertices)
    n = body.dim
    x0 = tuple(sum(v[i] for v in body.vertices) / len(body.vertices) for i in range(n))
    t0 = g(x0) - 1
    A, b = [], []
    for f in g.pieces:
        A.append([c for i in range(n) for c in (-f.gradient[i], f.gradient[i])] + [F(1)])
        b.append(f(x0) - t0)
    for h in body.halfspaces:
        A.append([F(c) for i in range(n) for c in (h.normal[i], -h.normal[i])] + [F(0)])
        b.append(h.offset - h.value(x0))
    opt, _ = oracle_simplex_max(A, b, [F(0)] * (2 * n) + [F(1)])
    return t0 + opt


def random_pieces(rng, n, shape):
    """1-4 random affine pieces, then the special case named by ``shape``."""
    def piece():
        return AffineFunctional.make([rng.randrange(-3, 4) for _ in range(n)], rng.randrange(0, 4))

    pieces = [piece() for _ in range(1 if shape == "single" else rng.randrange(1, 5))]
    f = rng.choice(pieces)
    if shape == "duplicate":
        pieces.insert(rng.randrange(len(pieces) + 1), f)
    elif shape == "parallel":  # the same gradient, a constant above or below
        pieces.append(AffineFunctional(f.gradient, f.constant + rng.choice((-1, 1))))
    elif shape == "nowhere":  # |x_i| <= 7 on random_body, so this lies above f
        pieces.append(AffineFunctional(piece().gradient, f.constant + 200))
    return pieces


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 3, 4]), st.booleans(),
       st.sampled_from(["single", "random", "duplicate", "parallel", "nowhere"]))
def test_max_transform_matches_lp_oracle(seed, n, flat, shape):
    rng = random.Random(seed)
    body = random_body(seed, n, flat)
    pieces = random_pieces(rng, n, shape)
    for _ in range(2):
        if body.is_empty:
            break
        g = ConcavePL(tuple(pieces), body)
        assert geometry.max_transform(body, g) == oracle_max_transform(body, g)
        body = intersect_halfspace(body, random_cut(rng, body))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 3, 4]), st.booleans(),
       st.sampled_from(["single", "random", "duplicate", "parallel", "nowhere"]))
def test_max_transform_matches_region_vertex_oracle(seed, n, flat, shape):
    """The integer region maxima, compared by cross-multiplication, give the
    largest Fraction value of each piece over its region's vertices, for
    pieces with rational gradients and constants, on hulls and their cuts."""
    rng = random.Random(seed)
    body = random_body(seed, n, flat)
    scale = F(rng.randint(1, 5), rng.choice([1, 3, 8]))
    shift = F(rng.randint(-5, 5), rng.choice([1, 7]))
    pieces = [AffineFunctional(tuple(c * scale for c in f.gradient), f.constant * scale + shift)
              for f in random_pieces(rng, n, shape)]
    for _ in range(2):
        if body.is_empty:
            break
        g = ConcavePL(tuple(pieces), body)
        assert geometry.max_transform(body, g) == oracle_region_max(body, g)
        body = intersect_halfspace(body, random_cut(rng, body))


def test_max_transform_on_empty_body_raises():
    empty = geometry.empty_body(2)
    g = ConcavePL.make([P1, AffineFunctional.make((0, 1), 0)], empty)
    with pytest.raises(GeometryError):
        geometry.max_transform(empty, g)
    with pytest.raises(GeometryError):
        oracle_max_transform(empty, g)
    with pytest.raises(GeometryError):
        oracle_region_max(empty, g)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 3, 4]), st.booleans(),
       st.sampled_from(["single", "random", "duplicate", "parallel", "nowhere", "tie"]))
def test_linearity_regions_match_halfspace_make_oracle(seed, n, flat, shape):
    """The cuts built from the pieces' integer form give the pieces, region
    vertices, halfspaces and integer forms of ``HalfSpace.make`` cuts on the
    Fraction piece differences: for rational pieces, a duplicate piece,
    equal gradients with different constants, and pieces all tied at one
    vertex of the body, on hulls and their cuts."""
    rng = random.Random(seed)
    body = random_body(seed, n, flat)
    scale = F(rng.randint(1, 5), rng.choice([1, 3, 8]))
    shift = F(rng.randint(-5, 5), rng.choice([1, 7]))
    pieces = [AffineFunctional(tuple(c * scale for c in f.gradient), f.constant * scale + shift)
              for f in random_pieces(rng, n, "random" if shape == "tie" else shape)]
    if shape == "tie":  # every piece takes the value shift at one vertex v
        v = rng.choice(body.vertices)
        pieces = [AffineFunctional(f.gradient, shift - sum(map(mul, f.gradient, v)))
                  for f in pieces]
    for _ in range(2):
        if body.is_empty:
            break
        g = ConcavePL(tuple(pieces), body)
        got = geometry._linearity_regions(body, g)
        want = oracle_linearity_regions(body, g)
        assert ([(f, R.vertices, R.halfspaces, R.int_form()) for f, R in got]
                == [(f, R.vertices, R.halfspaces, R.int_form()) for f, R in want])
        body = intersect_halfspace(body, random_cut(rng, body))


def check_lazy_vertices(body):
    """A constructed body's vertex slot starts unfilled, and its first read
    builds the Fraction rows of its integer form and keeps them: the rows a
    body rebuilt by ``ConvexBody(dim, vertices, halfspaces)`` holds."""
    D, Z = body.int_form()
    assert body._vertices is None
    eager = tuple(tuple(F(c, D) for c in z) for z in Z)
    assert body.vertices == eager
    assert body.vertices is body._vertices
    rebuilt = ConvexBody(body.dim, eager, body.halfspaces)
    assert rebuilt.vertices == eager
    assert [rebuilt._cache[key] for key in SEEDED] == [body._cache[key] for key in SEEDED]
    assert geometry._int_form(eager) == (D, Z)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 3, 4]), st.booleans())
def test_lazy_vertices_equal_the_eager_rows(seed, n, flat):
    """On seeded hulls (full-dimensional and flat) and a chain of clips."""
    rng = random.Random(seed)
    body = random_body(seed, n, flat)
    check_lazy_vertices(body)
    assert body.vertices == oracle_hull_front(body.vertices).vertices
    for _ in range(3):
        clipped = intersect_halfspace(body, random_cut(rng, body))
        if clipped.is_empty:
            break
        if clipped is not body:  # a cut that keeps every vertex returns the body
            check_lazy_vertices(clipped)
        body = clipped


def test_lazy_vertices_of_a_point_and_the_empty_body():
    point = hull([(F(1, 3), F(2, 3)), (F(1, 3), F(2, 3))])
    check_lazy_vertices(point)
    assert point.vertices == ((F(1, 3), F(2, 3)),)
    empty = intersect_halfspace(hull([(0, 0), (1, 0), (0, 1)]), HalfSpace((1, 1), F(-1)))
    assert empty.is_empty and empty.vertices == () and repr(empty) == "ConvexBody(dim=2, empty)"
    # a body from the constructors reports its size without building a Fraction
    square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert repr(square) == "ConvexBody(dim=2, vertices=4, halfspaces=4)"
    assert not square.is_empty and square._vertices is None
    # built by hand, a point and the empty body are primed too
    point = ConvexBody(2, [(F(1, 3), F(2, 3))], [HalfSpace.make(w, c) for w, c in (
        ((1, 0), F(1, 3)), ((-1, 0), F(-1, 3)), ((0, 1), F(2, 3)), ((0, -1), F(-2, 3)))])
    assert_primed(point)
    assert (point.int_form(), point.affine_rank(), point.incidence()) == (
        (3, ((1, 2),)), 0, (frozenset({0}),) * 4)
    validate_body(point)
    for n in (1, 3):
        empty = geometry.empty_body(n)
        assert_primed(empty)
        assert (empty.int_form(), empty.affine_rank(), empty.incidence()) == ((1, ()), -1, ())
        assert empty.is_empty and repr(empty) == f"ConvexBody(dim={n}, empty)"


def test_duplicate_pieces_count_once():
    g = ConcavePL.make([P1, P1], UNIT_SIMPLEX)
    assert integrate_transform(UNIT_SIMPLEX, g) == F(1, 6)
    assert geometry.max_transform(UNIT_SIMPLEX, g) == 1


def test_rooftop_of_zero_height_is_flat():
    f = AffineFunctional.make((0, 0), 0)
    roof = rooftop(UNIT_SQUARE, f)
    assert volume(roof) == 0
    assert all(v[2] == 0 for v in roof.vertices)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]), st.integers(4, 9))
def test_hull_idempotent(seed, n, count):
    body = hull(fan_points(seed, n, count))
    again = hull(body.vertices)
    assert again == body
    assert set(again.halfspaces) == set(body.halfspaces)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_cut_order_independent(seed, seed2):
    import random

    body = hull(fan_points(seed, 2, 8))
    rng = random.Random(seed2)
    cuts = [
        HalfSpace.make((rng.randrange(-3, 4) or 1, rng.randrange(-3, 4)),
                       F(rng.randrange(-8, 9), 8))
        for _ in range(3)
    ]
    forward = body
    for h in cuts:
        forward = intersect_halfspace(forward, h)
    backward = body
    for h in reversed(cuts):
        backward = intersect_halfspace(backward, h)
    assert forward == backward


def test_hull_4d_cube():
    import itertools

    cube = hull(list(itertools.product((0, 1), repeat=4)))
    assert len(cube.vertices) == 16
    assert len(cube.halfspaces) == 8
    assert volume(cube) == 1


# ---------------------------------------------------------------------------
# scale / translate
# ---------------------------------------------------------------------------

def test_scale_translate_examples():
    assert scale_translate(UNIT_SQUARE, 2) == hull([(0, 0), (2, 0), (0, 2), (2, 2)])
    assert scale_translate(UNIT_SQUARE, 1) == UNIT_SQUARE


def test_scale_translate_cone_identity():
    small = hull([(F(1, 2), 0), (F(1, 2), F(1, 2)), (1, 0)])
    big = hull([(0, 0), (0, 1), (1, 0)])
    assert scale_translate(small, 2) == scale_translate(big, 1, (1, 0))


def test_scale_rejects_nonpositive():
    with pytest.raises(GeometryError):
        scale_translate(UNIT_SQUARE, 0)


# ---------------------------------------------------------------------------
# representation sync and serialization
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]), st.integers(4, 10))
def test_random_hulls_validate(seed, n, count):
    body = hull(fan_points(seed, n, count))
    validate_body(body)


def test_validate_body_rejects_a_wrong_cached_incidence():
    cube = hull(list(itertools.product((0, 1), repeat=3)))
    validate_body(cube)
    good = cube._cache["incidence"]
    for bad in ((good[0] - {min(good[0])},) + good[1:],  # a tight vertex missing
                good[1:] + good[:1]):  # the right sets on the wrong halfspaces
        cube._cache["incidence"] = bad
        with pytest.raises(GeometryError, match="incidence"):
            validate_body(cube)


def test_body_from_json():
    # given halfspaces are checked against the hull, then recomputed
    data = {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1/4", "2/8"]],
            "halfspaces": [{"normal": ["-1", "0"], "offset": "0"},
                           {"normal": ["0", "-2"], "offset": "0"},
                           {"normal": ["1", "1"], "offset": "1"}]}
    body = body_from_json(data)
    assert body == UNIT_SIMPLEX and body.halfspaces == UNIT_SIMPLEX.halfspaces
    data["halfspaces"][2]["offset"] = "1/2"
    with pytest.raises(ValueError, match="do not contain"):
        body_from_json(data)


def test_json_recomputes_halfspaces_when_absent():
    body = body_from_json({"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]})
    assert body == UNIT_SIMPLEX
    assert len(body.halfspaces) == 3


def test_json_rejects_bad_rational():
    with pytest.raises(ValueError):
        body_from_json({"dim": 1, "vertices": [["1/0"]]})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_derived_bodies_match_fraction_vertex_oracles(n):
    """``scale_translate`` and ``minkowski_cube`` build from integer rows the
    bodies their Fraction-vertex constructions build
    (``oracle_scale_translate``, ``oracle_minkowski_cube``): vertices,
    halfspaces, incidence, integer form and affine rank, on full-dimensional
    and flat clouds (a point for n = 1), for scales and shifts with
    denominators and no shift, and for eps 0 and positive."""
    rng = random.Random(4400 + n)
    for i, kind in enumerate(("grid", "minkowski", "hyperplane", "line") * 3):
        body = hull(oracle_cloud(rng, n, kind)[:8])
        lam = F(rng.randint(1, 9), rng.randint(1, 6))
        shift = None if i % 3 == 0 else [F(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(n)]
        eps = F(0) if i % 4 == 0 else F(rng.randint(1, 5), rng.randint(1, 6))
        for built, ref in ((scale_translate(body, lam, shift), oracle_scale_translate(body, lam, shift)),
                           (minkowski_cube(body, eps), oracle_minkowski_cube(body, eps))):
            assert (built.vertices, built.halfspaces, built.incidence(), built.int_form(),
                    built.affine_rank()) == (ref.vertices, ref.halfspaces, ref.incidence(),
                                             ref.int_form(), ref.affine_rank())


def test_geometry_guards_raise_or_return_as_pinned():
    """The guards no other test reaches: each raises its exception with its
    message, or returns its value (the body itself for an empty body or
    eps = 0, 0 for an empty or lower-dimensional slice)."""
    empty = geometry.empty_body(2)
    diagonal = hull([(0, 0), (1, 1)])
    octahedron = hull([tuple(s * (i == j) for j in range(3)) for i in range(3) for s in (1, -1)])
    # each vertex keeps three tight facets of rank 3, so only the re-hull sees the gap
    open_octahedron = ConvexBody(3, octahedron.vertices, [
        h for h in octahedron.halfspaces if h != HalfSpace((1, 1, 1), F(1))])
    empties = [geometry.empty_body(n) for n in (1, 2, 3, 4)]
    check_guards([
        (lambda: scale_translate(UNIT_SQUARE, 2, (1,)),
         (DimensionMismatch, "shift dimension differs from body dimension")),
        (lambda: scale_translate(empty, 2, (1, 1)) is empty, True),
        (lambda: minkowski_cube(UNIT_SQUARE, F(-1, 2)),
         (GeometryError, "cube half-width must be nonnegative")),
        (lambda: minkowski_cube(UNIT_SQUARE, 0) is UNIT_SQUARE, True),
        (lambda: minkowski_cube(empty, 1) is empty, True),
        (lambda: slice_volume(UNIT_SQUARE, P1, 5), 0),
        (lambda: slice_volume(SEGMENT, coordinate_projection(1), F(1, 2)), 1),
        (lambda: slice_volume(diagonal, P1, F(1, 2)), 0),
        (lambda: triangulate(diagonal),
         (DegenerateBody, "triangulation requires a full-dimensional body")),
        (lambda: integrate_transform(diagonal, first_coordinate_transform(diagonal)), 0),
        (lambda: slice_cone(empty, 0, 1), (GeometryError, "slice cone of an empty body")),
        (lambda: apex_cone(UNIT_SQUARE, 1, 1, (1, 0)), (GeometryError, "need a < b")),
        (lambda: apex_cone(hull([(0, 0), (2, 0), (2, 2)]), -1, 1, (1, 0)),
         (GeometryError, "the a-slice at -1 is empty")),
        (lambda: validate_body(ConvexBody(2, [*UNIT_SQUARE.vertices, (F(1, 2), F(0))],
                                          UNIT_SQUARE.halfspaces)),
         (GeometryError, "vertex (1/2, 0) is tight on a rank-1 set only")),
        (lambda: validate_body(open_octahedron),
         (GeometryError, "halfspace list out of sync with the vertex hull")),
        (lambda: validate_body(octahedron), None),
        *((lambda e=e: e.is_full_dim(), False) for e in empties),
        *((lambda e=e: volume(e), 0) for e in empties),
        *((lambda e=e: integrate_transform(e, first_coordinate_transform(e)), 0)
          for e in empties),
        *((lambda e=e: barycenter(e),
           (DegenerateBody, "barycenter requires a full-dimensional body")) for e in empties),
        *((lambda e=e: chebyshev_ball(e),
           (DegenerateBody, "chebyshev_ball requires a full-dimensional body")) for e in empties),
        (lambda: HalfSpace.make((0, 0), 1), (GeometryError, "halfspace normal must be nonzero")),
        (lambda: hull([]), (GeometryError, "hull of an empty point set")),
        (lambda: UNIT_SQUARE.contains((F(0),)),
         (DimensionMismatch, "point (Fraction(0, 1),) not in R^2")),
        (lambda: empty.contains((F(0), F(0))), False),
    ])
