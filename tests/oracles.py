"""Fraction linear-algebra oracles shared by the test modules, and
``check_guards``, which runs a module's table of guarded calls.

``oracle_row_reduce`` is Gauss-Jordan over Q and ``oracle_nullspace`` reads a
primitive nullspace basis from it: the slow paths that the library's integer
``_int_reduce`` and ``_nullspace`` are checked against.  ``oracle_det`` is
the recursive Laplace expansion that the library's closed-form 3x3 and 4x4
``_det`` must equal.  ``oracle_simplex_max``
is the dense Fraction tableau simplex, slack identity block and all, that
the library's condensed fraction-free dictionary ``_simplex_max`` must match
pivot for pivot: Bland's rule picks the same labels in both, so both end at
the same optimal vertex even where the optimum is not unique.  ``oracle_level`` builds
k*Delta_k per backend by enumeration and set difference, the way the series
models did before each backend stated only its gap sets, and
``oracle_recover_gaps`` reads the Weierstrass gaps off those levels.
``oracle_is_gap_sequence`` tests closure of the complement of a gap sequence
over every pair of members: the quadratic loop that the library's bitset
``series.is_gap_sequence`` must agree with.
``oracle_superadditive`` checks k Delta_k + k' Delta_k' inside
(k+k') Delta_{k+k'} over every pair of levels: the all-pairs check that a
check from the gaps alone must agree with.
``oracle_scaled_constraints`` and ``oracle_sub_body_sampler`` take a body's
bounding box by Fraction ``min``/``max`` over its vertices on every call and
test candidate points with Fraction ``contains``: the per-call paths that the
library's per-body integer ``lattice._scaled_constraints`` and
``estimates.sub_body_sampler`` must match exactly.  ``oracle_hull_front`` and
``oracle_intersect_halfspace`` are the Fraction constructors the library's
integer-row ``hull`` and ``intersect_halfspace`` replaced: they coerce,
de-duplicate and sort Fraction tuples, hash Fraction crossing points, and
re-derive each body's integer form from its Fraction vertices.  Both call the
library's one beneath-beyond core for a full-dimensional hull.
``oracle_scale_translate`` builds lam * body + shift from Fraction vertices
by ``ConvexBody(...)``, and ``oracle_minkowski_cube`` hulls the Fraction
vertex + corner sums: the paths that the library's ``scale_translate``, its
integer rows seeded with the parent's incidence and rank, and its
``minkowski_cube``, which hulls integer rows over lcm(D, den eps), must
match exactly.
``oracle_hull_full`` is that core with a rank test of the tight facet
normals at every candidate vertex and ``oracle_det`` facet normals: the path
that the library's facet-count vertex test (a rank test only for n >= 4)
must match exactly.
``oracle_score_level`` scores and sorts Delta_k (``discrete_body``) or the
idealized level directly, each with the per-point ``oracle_scaled_values``
and one sort of (score, point) pairs, and ``oracle_jumping_values`` builds
one Fraction per point and compares every neighbour: the paths that the
library's single idealized score table (a histogram of distinct scores,
read off first-axis counts for a one-piece G), the Delta_k table left by
subtracting the gaps' scores from it, column-wise scoring, the compatible
families ranked on demand and the shared-Fraction ``JumpingVector`` must
match exactly.
``oracle_sorted_scores`` is the library's enumerate, score and sort table
of the idealized level: its listed points scored by columns and sorted as
ints, the path that the tables read off first-axis counts must match at
levels too large for the per-point oracle.
``oracle_region_max`` takes max G as the largest Fraction value of each
piece over the vertices of its linearity region: the path that the
library's ``max_transform``, which compares each region's integer maximum
by cross-multiplication and builds one Fraction, must match exactly.
``oracle_linearity_regions`` cuts each region with ``HalfSpace.make`` on the
Fraction differences (``vsub``) of the pieces' gradients and constants: the
path that the library's ``_linearity_regions``, which builds each primitive
cut from the pieces' integer form, must match region for region.
``oracle_plus_body_count`` scans every point of the idealized level for the
plus-body count of the maxp1 suite: the path that the library's suffix sum
of the level's first-axis counts must match.
``oracle_count`` clips every 2-D slab with every (upper, lower) pair of its
y-lines (``oracle_slab_count``) in the body's own coordinates, flat bodies
included, and ``oracle_envelope_floor_sum`` and ``oracle_envelope_runs``
walk an envelope run by run, scanning every line twice per run, on lines in
any order: the paths that the library's chain count (one run per facet
between breakpoints read off the body's edges, on a flat body read off the
full-dimensional image of its unimodular chart) and the stack-pass slab sum
of a 4-D body (its pair bounds pruned once per level and its one stack pass
over lines sorted once per body) must match exactly.
``oracle_polygon_sections`` builds a polygon's chains as one section of
the 3-D chain form, and ``oracle_section_count``,
``oracle_section_columns`` and ``oracle_section_concave_sum`` read counts,
columns and concave sums off it the way the 3-D chain kernel reads one
slab: the paths that the library's flat edge-run form of a polygon, and
its ``_polygon_count`` and ``_polygon_columns``, must match exactly.
``oracle_discrepancy`` is the signed Ehrhart discrepancy count - |P| k^n in
Fractions, which the verify suite's integer cross-multiplied maximum must
match.
``oracle_clip_rows`` is the integer-row clip that re-derives every tight set
by dot products and the rank by one elimination per clip, and
``oracle_maximal`` compares each set with every other: the paths that the
library's clip, which reads tight sets and rank off the parent's incidence,
and its largest-first ``_maximal`` must match exactly.
``oracle_superlevel`` builds one ``HalfSpace.make`` cut per piece and call,
and ``oracle_ccdf_data`` fits every candidate interval of the ccdf from its
own n+1 superlevel volumes with the O(m^3) ``oracle_lagrange``, reading s0
off ``oracle_hypograph_points``; ``oracle_ccdf_fit`` measures n superlevel
volumes per interval between real breaks and fits them with the divided
differences of ``oracle_newton``: the paths that the library's
``superlevel`` clip and its closed-form ccdf, summed over the simplices of
the triangulated linearity regions with no superlevel body, must match
exactly.
``oracle_S_tau`` averages G over the superlevel body at the quantile
(``oracle_tail_mean``), and at every step of a bisection of an inexact
quantile's bracket until the tail means at its ends are within tol, with
``superlevel``, ``integrate_transform`` and ``volume``: the path that the
library's layer-cake tail mean, read off the cached ccdf at the bracket's
two ends only, must match exactly.
``oracle_bisect`` halves a quantile's bracket in Fractions, evaluating the
piece at every midpoint: the path that the library's integer bisection must
match bracket for bracket.
``oracle_candidates`` reduces every (n+1)-combination of the hypograph's
facet and piece rows by Bareiss elimination, facet-only ones included: the
path that the library's candidate breaks, solved by Cramer's rule only over
combinations that hold a piece row, must match tuple for tuple.
"""

import itertools
import random
from fractions import Fraction
from itertools import accumulate, combinations
from math import gcd, lcm
from operator import mul

from okbodies.geometry import (ConvexBody, DimensionMismatch, GeometryError, HalfSpace,
                               _affine_equalities, _affine_rank, _hull_full, _hull_rows,
                               _int_form, _int_reduce, _linearity_regions, _primed, _primitive,
                               _tight_set, empty_body, hull, integrate_transform,
                               intersect_halfspace, max_transform, rat, superlevel, volume)
from okbodies.lattice import (_envelope_runs, _floor_sum, _interval, _prefixes, _rest,
                              _scaled_constraints, count, enumerate_points)
from okbodies.series import ModelError
from okbodies.thresholds import DEFAULT_TOL, _ccdf_data, _poly_eval, quantile


def oracle_row_reduce(rows: list[list[Fraction]]) -> tuple[int, list[int], list[list[Fraction]]]:
    """Gauss-Jordan over Q. Returns (rank, pivot columns, reduced rows)."""
    mat = [list(r) for r in rows]
    n_cols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    row = 0
    for col in range(n_cols):
        piv = next((r for r in range(row, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [x * inv for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return row, pivots, mat[:row]


def oracle_nullspace(rows: list[list[Fraction]], n: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of {w : rows @ w = 0} in R^n."""
    if not rows:
        return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rank, pivots, red = oracle_row_reduce(rows)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        w = [Fraction(0)] * n
        w[f] = Fraction(1)
        for i, p in enumerate(pivots):
            w[p] = -red[i][f]
        basis.append(_primitive(w))
    return basis


def oracle_det(mat):
    """Laplace expansion along the first row at every size, skipping zero
    entries; exact over ints and Fractions alike, 1 for a 0x0 matrix."""
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    total = 0
    sign = 1
    for j in range(n):
        if mat[0][j] != 0:
            minor = [tuple(row[c] for c in range(n) if c != j) for row in mat[1:]]
            total += sign * mat[0][j] * oracle_det(minor)
        sign = -sign
    return total


def oracle_simplex_max(A: list[list[Fraction]], b: list[Fraction],
                       c: list[Fraction]) -> tuple[Fraction, list[Fraction]]:
    """max c.z s.t. A z <= b, z >= 0, with b >= 0 (slack basis feasible).

    Dense tableau simplex with Bland's rule; everything exact.
    """
    m, n = len(A), len(c)
    # tableau rows: [A | I | b]; objective row: [-c | 0 | 0]
    tab = [list(A[i]) + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    obj = [-x for x in c] + [Fraction(0)] * (m + 1)
    basis = [n + i for i in range(m)]
    while True:
        col = next((j for j in range(n + m) if obj[j] < 0), None)
        if col is None:
            break
        ratios = [
            (tab[i][-1] / tab[i][col], basis[i], i)
            for i in range(m) if tab[i][col] > 0
        ]
        if not ratios:
            raise GeometryError("unbounded linear program")
        _, _, piv = min(ratios)  # Bland: smallest ratio, then smallest basis index
        pr = tab[piv]
        f = pr[col]
        tab[piv] = [x / f for x in pr]
        for i in range(m):
            if i != piv and tab[i][col] != 0:
                g = tab[i][col]
                tab[i] = [x - g * y for x, y in zip(tab[i], tab[piv])]
        if obj[col] != 0:
            g = obj[col]
            obj = [x - g * y for x, y in zip(obj, tab[piv])]
        basis[piv] = col
    z = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            z[bi] = tab[i][-1]
    return obj[-1], z


def _oracle_numerators(model, k: int, gaps) -> set[tuple[int, ...]]:
    """k*Delta_k of one backend, built from the enumerated ideal set."""
    ideal = set(enumerate_points(model.ambient, k).points)
    if model.backend == "toric":
        return ideal
    if model.backend == "curve":
        return {(k - s,) for s in range(k + 1) if s not in set(model.gaps)}
    if model.backend == "canonical":
        g, top = model.genus, k * (2 * model.genus - 2)
        if k in model.per_k_gap_sets:
            return {(j,) for j in range(top + 1) if j not in set(model.per_k_gap_sets[k])}
        return {(j,) for j in range(g if k == 1 else top + 1 - g)}
    gaps = {tuple(int(c) for c in z) for z in gaps}  # synthetic: the level's gaps as given
    if not gaps <= ideal:
        raise ModelError(f"level {k} gap set is not contained in the idealized lattice set")
    return ideal - gaps


def oracle_level(model, k: int, gaps=()) -> tuple[list, int, int, list]:
    """(sorted k*Delta_k, d_k, D_k, sorted gap set) of level k, all by
    enumeration: d_k = #Delta_k, D_k = #(ambient ∩ Z^n/k) and the gap set is
    the ideal set minus Delta_k.  ``gaps`` are a synthetic model's gap vectors
    at level k; the other backends ignore it."""
    ideal = enumerate_points(model.ambient, k).points
    actual = _oracle_numerators(model, k, gaps)
    return sorted(actual), len(actual), len(ideal), [z for z in ideal if z not in actual]


def oracle_recover_gaps(model) -> list[tuple[int, int]]:
    """The curve model's gap sequence as [(N_i, N_i)]: the levels at which the
    enumerated count deficit D_k - d_k grows."""
    found, seen, k = [], 0, 0
    while seen < model.genus:
        k += 1
        _, d, D, _ = oracle_level(model, k)
        if D - d > seen:
            found.append((k, k))
            seen = D - d
    return found


def oracle_is_gap_sequence(gaps) -> bool:
    """Weierstrass gap data by the pair loop: 1 = N_1 < ... < N_g <= 2g-1 and
    no sum of two members at most N_g is a gap."""
    g = len(gaps)
    if g == 0:
        return False
    gaps = list(gaps)
    if gaps[0] != 1 or sorted(set(gaps)) != gaps or gaps[-1] > 2 * g - 1:
        return False
    gap_set = set(gaps)
    members = [s for s in range(1, gaps[-1] + 1) if s not in gap_set]
    for s in members:
        for t in members:
            if s + t <= gaps[-1] and (s + t) in gap_set:
                return False
    return True


def oracle_superadditive(model, k_max: int) -> None:
    """Check k Delta_k + k' Delta_k' subset (k+k') Delta_{k+k'} over every pair
    of levels up to k_max, building each level once; ModelError on a failure."""
    bodies = {k: model.discrete_body(k).points for k in model.levels_in(range(1, k_max + 1))}
    for (k, left), (kp, right) in itertools.product(bodies.items(), repeat=2):
        if k + kp not in bodies:
            continue
        target = set(bodies[k + kp])
        for a, b in itertools.product(left, right):
            if tuple(x + y for x, y in zip(a, b)) not in target:
                raise ModelError(
                    f"superadditivity fails: {a}/{k} + {b}/{kp} not in Delta_{k + kp}"
                )


def oracle_box(body) -> list[tuple[Fraction, Fraction]]:
    """The bounding box of a nonempty body, by Fraction min/max over its vertices."""
    return [(min(v[i] for v in body.vertices), max(v[i] for v in body.vertices))
            for i in range(body.dim)]


def oracle_scaled_constraints(body, k: int):
    """(lo, hi, levels) of k*body: the box lo <= z <= hi and the constraints
    (normal, floor(k * offset)) grouped by last active axis, with every
    denominator cleared on this call."""
    box = oracle_box(body)
    lo = [-((-k * b.numerator) // b.denominator) for b, _ in box]
    hi = [(k * b.numerator) // b.denominator for _, b in box]
    levels = [[] for _ in range(body.dim)]
    for h in body.halfspaces:
        c = (k * h.offset.numerator) // h.offset.denominator
        level = max(i for i, a in enumerate(h.normal) if a != 0)
        levels[level].append((h.normal, c))
    return lo, hi, levels


def oracle_sub_body_sampler(K, min_volume, seed: int, points: int = 6, denom: int = 32):
    """Seeded sub-bodies of K with |P| >= min_volume from Fraction grid
    candidates lo + (r / denom)(hi - lo), r = rng.randrange(0, denom + 1) per
    axis, kept when K contains them."""
    min_volume = rat(min_volume)

    def sample(count_bodies: int) -> list:
        rng = random.Random(seed)
        out = []
        guard = 0
        while len(out) < count_bodies:
            guard += 1
            if guard > 200 * count_bodies:
                raise RuntimeError("sampler failed to reach the volume floor")
            pts = []
            while len(pts) < points:
                cand = tuple(lo + Fraction(rng.randrange(0, denom + 1), denom) * (hi - lo)
                             for lo, hi in oracle_box(K))
                if K.contains(cand):
                    pts.append(cand)
            body = hull(pts)
            if body.is_full_dim() and volume(body) >= min_volume:
                out.append(body)
        return out

    return sample


def _oracle_primed(n, vertices, tight):
    """The body on sorted, distinct vertices and the halfspaces of ``tight``,
    with its incidence cached from ``tight``."""
    body = ConvexBody(n, vertices, tight)
    body._cache["incidence"] = tuple(tight[h] for h in body.halfspaces)
    return body


def _oracle_full(pts, n):
    """The library's beneath-beyond core on sorted, distinct Fraction points."""
    return _hull_full(*_int_form(pts), n)


def oracle_hull_full(D, P, n):
    """The beneath-beyond hull of the points P / D (D > 0; sorted, distinct
    integer rows spanning R^n) with ``oracle_det`` facet normals and one
    ``_int_reduce`` rank test of the tight normals per candidate vertex, at
    every n."""
    seed = [0]
    for i in range(1, len(P)):
        rows = [[x - y for x, y in zip(P[j], P[0])] for j in seed[1:] + [i]]
        if _int_reduce(rows)[0] == len(seed):
            seed.append(i)
            if len(seed) == n + 1:
                break
    inner = [sum(c) for c in zip(*(P[i] for i in seed))]

    def facet(verts):
        base = P[verts[0]]
        rows = [[x - y for x, y in zip(P[v], base)] for v in verts[1:]]
        w = tuple((-1) ** j * oracle_det([r[:j] + r[j + 1:] for r in rows]) for j in range(n))
        b = sum(map(mul, w, base))
        if sum(map(mul, w, inner)) > (n + 1) * b:
            w, b = tuple(-c for c in w), -b
        return verts, w, b

    facets = [facet(verts) for verts in combinations(seed, n)]
    for i in sorted(set(range(len(P))) - set(seed)):
        p = P[i]
        beneath, visible = [], []
        for f in facets:
            (visible if sum(map(mul, f[1], p)) > f[2] else beneath).append(f)
        if not visible:
            continue
        ridges = {}
        for verts, _, _ in visible:
            for r in combinations(verts, n - 1):
                ridges[r] = ridges.get(r, 0) + 1
        horizon = [r for r, seen in ridges.items() if seen == 1]
        facets = beneath + [facet(tuple(sorted(r + (i,)))) for r in horizon]

    merged = {}
    for _, w, b in facets:
        g = gcd(*w)
        merged[tuple(c // g for c in w)] = b // g
    tight_at = {w: [] for w in merged}
    vertices = []
    for i in sorted({v for verts, _, _ in facets for v in verts}):
        tight = [w for w, b in merged.items() if sum(map(mul, w, P[i])) == b]
        if _int_reduce(tight)[0] == n:
            for w in tight:
                tight_at[w].append(len(vertices))
            vertices.append(P[i])
    return _primed(n, D, vertices, [(HalfSpace(w, Fraction(b, D)), frozenset(tight_at[w]))
                                    for w, b in merged.items()], n)


def oracle_hull_front(points):
    """Convex hull of rational points: Fraction coercion, a set of Fraction
    tuples, and the flat case projected and lifted as Fraction tuples."""
    if not points:
        raise GeometryError("hull of an empty point set")
    pts = [tuple(rat(c) for c in p) for p in points]
    n = len(pts[0])
    if n == 0:
        raise GeometryError("hull of zero-dimensional points")
    for p in pts:
        if len(p) != n:
            raise DimensionMismatch("points of mixed dimension")
    pts = sorted(set(pts))
    D, Z = _int_form(pts)
    rank, pivots = _affine_rank(Z)
    if rank == n:
        return _oracle_full(pts, n)
    equalities = _affine_equalities(D, Z, n)
    if not pivots:
        return _oracle_primed(n, pts[:1], dict.fromkeys(equalities, frozenset({0})))
    back = {tuple(p[j] for j in pivots): p for p in pts}
    inner = _oracle_full(sorted(back), len(pivots))
    vertices = sorted(back[q] for q in inner.vertices)
    index = {v: i for i, v in enumerate(vertices)}
    tight = dict.fromkeys(equalities, frozenset(range(len(vertices))))
    for h, t in zip(inner.halfspaces, inner.incidence()):
        normal = [0] * n
        for coeff, j in zip(h.normal, pivots):
            normal[j] = coeff
        tight[HalfSpace.make(normal, h.offset)] = frozenset(
            index[back[inner.vertices[i]]] for i in t)
    return _oracle_primed(n, vertices, tight)


def oracle_scale_translate(body, lam, shift=None):
    """lam * body + shift with Fraction vertices and every cache re-derived
    by ``ConvexBody(...)``."""
    lam = rat(lam)
    shift = tuple(rat(c) for c in shift) if shift is not None else (Fraction(0),) * body.dim
    if body.is_empty:
        return body
    vertices = [tuple(lam * x + c for x, c in zip(v, shift)) for v in body.vertices]
    halfspaces = [HalfSpace(h.normal, lam * h.offset + sum(map(mul, h.normal, shift)))
                  for h in body.halfspaces]
    return ConvexBody(body.dim, vertices, halfspaces)


def oracle_minkowski_cube(body, eps):
    """body + [-eps, eps]^n as the ``hull`` of the Fraction vertex + corner sums."""
    eps = rat(eps)
    if eps == 0 or body.is_empty:
        return body
    corners = list(itertools.product((-eps, eps), repeat=body.dim))
    return hull([tuple(x + c for x, c in zip(v, corner))
                 for v in body.vertices for corner in corners])


def _oracle_synced_body(vertices, candidates, n):
    """The body on sorted, distinct Fraction vertices with the facet-inducing
    candidates and the affine-hull equalities, its integer form re-derived."""
    D, Z = _int_form(vertices)
    rank = _affine_rank(Z)[0]
    tight = {h: _tight_set(h, D, Z) for h in set(candidates)}
    facets = oracle_maximal({t for t in tight.values() if 0 < len(t) < len(vertices)})
    synced = {h: t for h, t in tight.items() if t in facets}
    if rank < n:
        synced.update(dict.fromkeys(_affine_equalities(D, Z, n), frozenset(range(len(vertices)))))
    return _oracle_primed(n, vertices, synced)


def oracle_intersect_halfspace(body, hs):
    """body ∩ hs with Fraction crossing points, hashed as Fraction tuples."""
    if len(hs.normal) != body.dim:
        raise DimensionMismatch("halfspace dimension differs from body dimension")
    if body.is_empty:
        return body
    D, Z = body.int_form()
    q, target = hs.offset.denominator, D * hs.offset.numerator
    vals = [q * sum(map(mul, hs.normal, z)) - target for z in Z]
    if all(s <= 0 for s in vals):
        return body
    if all(s >= 0 for s in vals):
        on = [v for v, s in zip(body.vertices, vals) if s == 0]
        return oracle_hull_front(on) if on else empty_body(body.dim)
    inside = [i for i, s in enumerate(vals) if s < 0]
    on = [i for i, s in enumerate(vals) if s == 0]
    outside = [i for i, s in enumerate(vals) if s > 0]
    incidence = body.incidence()
    everything = frozenset(range(len(vals)))
    crossings = set()
    for i in inside:
        at_i = [t for t in incidence if i in t]
        for j in outside:
            if len(everything.intersection(*(t for t in at_i if j in t))) != 2:
                continue
            si, sj = vals[i], vals[j]
            den = D * (sj - si)
            crossings.add(tuple(Fraction(a * sj - b * si, den) for a, b in zip(Z[i], Z[j])))
    new_vertices = tuple(sorted(
        {body.vertices[i] for i in inside} | {body.vertices[i] for i in on} | crossings))
    return _oracle_synced_body(new_vertices, list(body.halfspaces) + [hs], body.dim)


def oracle_scaled_values(g, points, k: int) -> list[int]:
    """k L G(z/k) = min_i(L grad_i . z + k L c_i), point by point."""
    rows = [(grad, k * c) for grad, c in g.integer_form[1]]
    return [min(sum(map(mul, grad, z)) + kc for grad, kc in rows) for z in points]


def vsub(a, b) -> tuple:
    """The difference a - b of two vectors, entry by entry."""
    return tuple(x - y for x, y in zip(a, b))


def oracle_linearity_regions(body, g):
    """(f_i, R_i) for every nonempty R_i = body ∩ {f_i <= f_j for all j}, a
    duplicate piece once, each cut a ``HalfSpace.make`` on Fractions."""
    pieces = tuple(dict.fromkeys(g.pieces))
    regions = []
    for f_i in pieces:
        region = body
        for f_j in pieces:
            normal = vsub(f_i.gradient, f_j.gradient)
            if any(normal):
                region = intersect_halfspace(
                    region, HalfSpace.make(normal, f_j.constant - f_i.constant))
            elif f_j.constant < f_i.constant:
                region = empty_body(body.dim)
            if region.is_empty:
                break
        if not region.is_empty:
            regions.append((f_i, region))
    return regions


def oracle_region_max(body, g) -> Fraction:
    """max G over a nonempty body: the largest f_i(v) over the vertices v of
    every linearity region R_i, one Fraction dot product per vertex."""
    if body.is_empty:
        raise GeometryError("max over an empty body")
    return max(f(v) for f, region in _linearity_regions(body, g) for v in region.vertices)


def oracle_score_level(model, g, k: int, ideal: bool):
    """(L, scores, points, prefix) of Delta_k, or of ambient ∩ Z^n/k if ideal,
    each scored and sorted on its own (descending, lex-larger point first)."""
    cloud = model.idealized_body(k) if ideal else model.discrete_body(k)
    pairs = sorted(zip(oracle_scaled_values(g, cloud.points, k), cloud.points), reverse=True)
    scores = tuple(s for s, _ in pairs)
    return (g.integer_form[0], scores, tuple(z for _, z in pairs),
            tuple(accumulate(scores, initial=0)))


def oracle_sorted_scores(model, g, k: int):
    """(scores, prefix) of ambient ∩ Z^n/k: the listed points of the level
    scored by ``ConcavePL.scaled_values``, sorted descending as ints, and
    their prefix sums."""
    scores = tuple(sorted(g.scaled_values(model.idealized_body(k).points, k), reverse=True))
    return scores, tuple(accumulate(scores, initial=0))


def oracle_plus_body_count(model, k: int, quantum_max: Fraction) -> int:
    """# of idealized lattice points strictly above the quantum maximum, z1 / k
    > quantum_max, point by point."""
    return sum(1 for z in model.idealized_body(k).points if Fraction(z[0], k) > quantum_max)


def oracle_jumping_values(table) -> tuple[Fraction, ...]:
    """The jumping values j/k of a score table, one Fraction per point, checked
    non-increasing neighbour by neighbour."""
    L, scores, _, _ = table
    values = tuple(Fraction(s, L) for s in scores)
    if any(a < b for a, b in zip(values, values[1:])):
        raise ValueError("jumping values must be non-increasing")
    return values


def oracle_envelope_floor_sum(lines, x0: int, x1: int) -> int:
    """sum over x0 <= x <= x1 of floor(min_j (p_j + q_j x) / r_j), all r_j > 0,
    lines in any order.

    The minimum of lines is concave, so each line is active on at most one
    run of consecutive x: walk the runs, scanning every line twice per run,
    and sum each with ``_floor_sum``.
    """
    total = 0
    while x0 <= x1:
        # active line at x0: the smallest value, ties to the smaller slope,
        # so every line of smaller slope is strictly above it at x0
        p, q, r = lines[0]
        for pj, qj, rj in lines[1:]:
            here, best = (pj + qj * x0) * r, (p + q * x0) * rj
            if here < best or (here == best and qj * r < q * rj):
                p, q, r = pj, qj, rj
        # the run lasts until a line of smaller slope drops strictly below it
        end = x1
        for pj, qj, rj in lines:
            d = rj * q - r * qj
            if d > 0:
                end = min(end, (r * pj - rj * p) // d)
        total += _floor_sum(end - x0 + 1, r, q, p + q * x0)
        x0 = end + 1
    return total


def oracle_envelope_runs(lines, w0: int, w1: int) -> list[tuple[int, int, int, int, int]]:
    """The runs (start, end, A, B, s) of max_i (A_i w - B_i) / s_i over the
    integers w0 <= w <= w1, all s_i > 0, lines in any order: line (A, B, s)
    is the maximum for start <= w <= end.  Walked as
    ``oracle_envelope_floor_sum`` walks its runs; a line that is never the
    maximum has no run.
    """
    runs = []
    while w0 <= w1:
        # active line at w0: the largest value, ties to the larger slope,
        # so every line of larger slope is at or below it at w0
        A, B, s = lines[0]
        for Aj, Bj, sj in lines[1:]:
            here, best = (Aj * w0 - Bj) * s, (A * w0 - B) * sj
            if here > best or (here == best and Aj * s > A * sj):
                A, B, s = Aj, Bj, sj
        # the run lasts until a line of larger slope rises strictly above it
        end = w1
        for Aj, Bj, sj in lines:
            d = Aj * s - A * sj
            if d > 0:
                end = min(end, (Bj * s - B * sj) // d)
        runs.append((w0, end, A, B, s))
        w0 = end + 1
    return runs


def oracle_slab_count(lo, hi, levels, prefix) -> int:
    """Points of the 2-D slab over ``prefix`` (the last two axes), in closed form.

    With x the second-to-last axis and y the last, each constraint on y is a
    line (p + q x) / r with r > 0: an upper bound on y if its y-coefficient is
    positive, else an upper bound on -y.  Row x then holds
    floor(min upper) + floor(min lower) + 1 points, which is never negative
    where the real envelopes satisfy min upper + min lower >= 0.  Outside that
    x-interval the row is empty, so clip to it (one inequality per pair of
    lines) and sum each envelope in closed form.
    """
    x_axis = len(prefix)
    y_axis = x_axis + 1
    x_lo, x_hi = _interval(lo[x_axis], hi[x_axis], levels[x_axis], prefix)
    if x_lo > x_hi:
        return 0
    upper = [(hi[y_axis], 0, 1)]
    lower = [(-lo[y_axis], 0, 1)]
    for a, c in levels[y_axis]:
        line = (_rest(a, c, prefix), -a[x_axis], abs(a[y_axis]))
        (upper if a[y_axis] > 0 else lower).append(line)
    for pu, qu, ru in upper:
        for pl, ql, rl in lower:
            # (pu + qu x) / ru + (pl + ql x) / rl >= 0  <=>  slope x >= -offset
            slope, offset = qu * rl + ql * ru, pu * rl + pl * ru
            if slope > 0:
                x_lo = max(x_lo, -(offset // slope))
            elif slope < 0:
                x_hi = min(x_hi, offset // -slope)
            elif offset < 0:
                return 0
    if x_lo > x_hi:
        return 0
    return (oracle_envelope_floor_sum(upper, x_lo, x_hi)
            + oracle_envelope_floor_sum(lower, x_lo, x_hi) + x_hi - x_lo + 1)


def oracle_count(body, k: int) -> int:
    """#(body ∩ Z^n/k) for n >= 2: ``oracle_slab_count`` on every integer
    prefix of all but the last two axes."""
    if body.is_empty:
        return 0
    lo, hi, levels = _scaled_constraints(body, k)
    return sum(oracle_slab_count(lo, hi, levels, prefix)
               for prefix in _prefixes(lo, hi, levels, body.dim - 2))


def oracle_polygon_sections(body):
    """The chain form ``lattice._chain_form`` built for a full-dimensional
    polygon before its flat edge-run form: (D, offsets, sections) as for a
    3-D body, with one section (0, 0, left, right, upper, lower) whose
    breakpoints (alpha, 0, D) are the vertices alpha / D, each facet as
    (0, -a_x, |a_y|, i) with i indexing the offsets (p, q)."""
    D, Z = body.int_form()
    offsets, split = [], ([], [])
    for h, t in zip(body.halfspaces, body.incidence()):
        a = h.normal
        if len(t) >= 2 and a[1]:
            u, v = sorted(t)
            split[a[1] > 0].append((Z[u][0], (Z[u][0], 0, D), (Z[v][0], 0, D),
                                    (0, -a[0], abs(a[1]), len(offsets))))
            offsets.append((h.offset.numerator, h.offset.denominator))
    upper, lower = map(sorted, split[::-1])
    return D, offsets, [(0, 0, upper[0][1], upper[-1][2],
                         *(([(*facet, *right) for _, _, right, facet in chain[:-1]],
                            chain[-1][3]) for chain in (upper, lower)))]


def _oracle_section(body, k: int):
    """The scaled offsets, the x-range and the two chains of the one section
    of ``oracle_polygon_sections`` at level k."""
    _, offsets, ((_, _, (A0, _, g0), (A1, _, g1), upper, lower),) = oracle_polygon_sections(body)
    return ([(k * p) // q for p, q in offsets], -((-k * A0) // g0), (k * A1) // g1,
            (upper, lower))


def oracle_section_count(body, k: int) -> int:
    """Points of a full-dimensional polygon at level k, as the 2-D and 3-D
    chain count summed the one section of ``oracle_polygon_sections``: one
    ``_floor_sum`` per facet that owns a row."""
    c, x_lo, x_hi, chains = _oracle_section(body, k)
    if x_lo > x_hi:
        return 0
    total = x_hi - x_lo + 1
    for inner, (_, q, r, i) in chains:
        start = x_lo
        for _, q_i, r_i, i_i, al, _, ga in inner:
            end = -((-k * al) // ga)
            if end > start:
                total += _floor_sum(end - start, r_i, q_i, c[i_i] + q_i * start)
                start = end
        if x_hi >= start:
            total += _floor_sum(x_hi + 1 - start, r, q, c[i] + q * start)
    return total


def _oracle_chain_floors(chain, c, k: int, x_lo: int, x_hi: int) -> list[int]:
    """[floor((c_i + q x) / r) for x_lo <= x <= x_hi] for the owner facet i
    of each row of one chain of the section of ``oracle_polygon_sections``,
    split at its breakpoints as ``oracle_section_count`` splits them."""
    inner, (_, q, r, i) = chain
    floors = []
    start = x_lo
    for _, q_i, r_i, i_i, al, _, ga in inner:
        end = -((-k * al) // ga)
        if end > start:
            floors += [(c[i_i] + q_i * x) // r_i for x in range(start, end)]
            start = end
    floors += [(c[i] + q * x) // r for x in range(start, x_hi + 1)]
    return floors


def oracle_section_columns(body, k: int) -> list[tuple[int, int, int]]:
    """The columns (x, top, bottom) of a full-dimensional polygon at level k,
    column x running from y = -bottom to top, read off the one section of
    ``oracle_polygon_sections`` owner by owner (``_oracle_chain_floors``)."""
    c, x_lo, x_hi, chains = _oracle_section(body, k)
    return list(zip(range(x_lo, x_hi + 1),
                    *(_oracle_chain_floors(chain, c, k, x_lo, x_hi) for chain in chains)))


def oracle_section_concave_sum(body, g, k: int):
    """The sum of the integer scores k L G(z/k) over the points of a
    full-dimensional polygon at level k, or None if a score is negative, off
    ``oracle_section_columns`` as the chain concave sum read them: one
    arithmetic run per column and piece of the pieces' lower envelope."""
    forms = sorted({(grad[0], grad[1], k * const) for grad, const in g.integer_form[1]},
                   key=lambda form: form[1], reverse=True)
    twice = 0
    for x, top, bottom in oracle_section_columns(body, k):
        if top + bottom < 0:
            continue
        runs = _envelope_runs([(v + ax * x, ay, 1) for ax, ay, v in forms], -bottom, top)
        (_, p0, q0, _), (_, p1, q1, _) = runs[0], runs[-1]
        if p0 - q0 * bottom < 0 or p1 + q1 * top < 0:
            return None
        end = top + 1
        for start, p, q, _ in reversed(runs):
            twice += (2 * p + q * (start + end - 1)) * (end - start)
            end = start
    return twice // 2


def oracle_discrepancy(body, k: int) -> Fraction:
    """Signed Ehrhart discrepancy count(body, k) - |body| k^n, exact."""
    return count(body, k) - volume(body) * Fraction(k) ** body.dim


def oracle_maximal(sets):
    """The members of a family of sets that lie in no other member, each
    compared with every member."""
    return {s for s in sets if not any(s < t for t in sets)}


def _oracle_synced_rows(D, Z, candidates, n):
    """The body on the vertices Z / D (D > 0, sorted, distinct integer rows)
    with the facet-inducing candidates and the affine-hull equalities: every
    tight set by dot products over (D, Z), and the affine rank by one
    ``_affine_rank`` on the rows."""
    rank = _affine_rank(Z)[0]
    tight = {h: _tight_set(h, D, Z) for h in set(candidates)}
    facets = oracle_maximal({t for t in tight.values() if 0 < len(t) < len(Z)})
    synced = {h: t for h, t in tight.items() if t in facets}
    if rank < n:
        synced.update(dict.fromkeys(_affine_equalities(D, Z, n), frozenset(range(len(Z)))))
    return _primed(n, D, Z, synced.items(), rank)


def oracle_clip_rows(body, hs):
    """body ∩ hs on integer rows, each crossing on an edge (i, j) formed as
    (s_j z_i - s_i z_j) / (D (s_j - s_i)); the tight sets of every candidate
    halfspace and the rank are re-derived from the new rows
    (``_oracle_synced_rows``)."""
    if len(hs.normal) != body.dim:
        raise DimensionMismatch("halfspace dimension differs from body dimension")
    if body.is_empty:
        return body
    D, Z = body.int_form()
    q, target = hs.offset.denominator, D * hs.offset.numerator
    vals = [q * sum(map(mul, hs.normal, z)) - target for z in Z]
    if all(s <= 0 for s in vals):
        return body
    if all(s >= 0 for s in vals):
        on = [z for z, s in zip(Z, vals) if s == 0]
        if not on:
            return empty_body(body.dim)
        return _hull_rows(D, on, body.dim)
    inside = [i for i, s in enumerate(vals) if s <= 0]
    outside = [i for i, s in enumerate(vals) if s > 0]
    incidence = body.incidence()
    everything = frozenset(range(len(vals)))
    crossings = []
    for i in inside:
        si = vals[i]
        if si == 0:
            continue
        at_i = [t for t in incidence if i in t]
        for j in outside:
            if len(everything.intersection(*(t for t in at_i if j in t))) != 2:
                continue
            sj = vals[j]
            num = [a * sj - b * si for a, b in zip(Z[i], Z[j])]
            g = gcd(sj - si, *num)
            crossings.append(((sj - si) // g, tuple(c // g for c in num)))
    L = lcm(*(den for den, _ in crossings))
    rows = {tuple(L * c for c in Z[i]) for i in inside}
    rows.update(tuple(L // den * c for c in num) for den, num in crossings)
    return _oracle_synced_rows(D * L, sorted(rows), list(body.halfspaces) + [hs], body.dim)


def oracle_superlevel(body, g, t):
    """body ∩ {g >= t}: one ``HalfSpace.make`` cut per affine piece, each
    clipped by ``oracle_clip_rows``."""
    t = rat(t)
    result = body
    for piece in g.pieces:
        if all(c == 0 for c in piece.gradient):
            if piece.constant < t:
                return empty_body(body.dim)
            continue
        hs = HalfSpace.make([-c for c in piece.gradient], piece.constant - t)
        result = oracle_clip_rows(result, hs)
        if result.is_empty:
            return result
    return result


def _oracle_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def oracle_lagrange(ts, vals):
    """Coefficients (ascending) of the interpolating polynomial, trailing zeros
    dropped: the Lagrange basis polynomials multiplied out, O(m^3)."""
    m = len(ts)
    coeffs = [Fraction(0)] * m
    for i in range(m):
        num = [Fraction(1)]
        den = Fraction(1)
        for j in range(m):
            if j == i:
                continue
            num = _oracle_poly_mul(num, [-ts[j], Fraction(1)])
            den *= ts[i] - ts[j]
        w = vals[i] / den
        for d, c in enumerate(num):
            coeffs[d] += w * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def oracle_hypograph_points(ambient, g):
    """(t, feasible) for every point (x, t) where n+1 constraint hyperplanes of
    the hypograph {(x, t) : x in ambient, t <= G(x)} meet, by Gauss-Jordan
    over Q; feasible if the point satisfies every constraint, i.e. is a vertex
    of the hypograph."""
    n = ambient.dim
    rows = [[Fraction(c) for c in h.normal] + [Fraction(0), h.offset] for h in ambient.halfspaces]
    rows += [[-c for c in f.gradient] + [Fraction(1), f.constant] for f in g.pieces]
    points = []
    for combo in combinations(rows, n + 1):
        _, pivots, red = oracle_row_reduce(list(combo))
        if pivots == list(range(n + 1)):
            xt = [r[-1] for r in red]
            points.append((xt[-1], all(sum(map(mul, r[:-1], xt)) <= r[-1] for r in rows)))
    return points


def oracle_candidates(ambient, g):
    """The candidate breaks of the ccdf, ascending, by one Bareiss
    ``_int_reduce`` of every (n+1)-combination of facet and piece rows of the
    hypograph, facet-only combinations included: 0, s0 and the t in [0, s0]
    of each combination whose first n+1 columns are its pivots."""
    n = ambient.dim
    s0 = max_transform(ambient, g)
    # rows (a, b) of the constraints a . (x, t) <= b, all scaled by one
    # common denominator to integers, which changes no solution
    _, rows = _int_form([(*h.normal, 0, h.offset) for h in ambient.halfspaces]
                        + [(*(-c for c in f.gradient), 1, f.constant) for f in g.pieces])
    cuts = {Fraction(0), s0}
    for combo in combinations(rows, n + 1):
        _, pivots, red, d = _int_reduce(combo)
        if pivots == list(range(n + 1)):
            cuts.add(Fraction(red[n][-1], d))
    return tuple(sorted(c for c in cuts if 0 <= c <= s0))


def oracle_ccdf_data(ambient, g):
    """(s0, sigma, vol, atom, breaks, pieces) of the all-candidates ccdf: every
    t of ``oracle_hypograph_points`` is a breakpoint, and each interval
    between two is interpolated from its own n+1 interior superlevel volumes
    (``oracle_superlevel``, ``oracle_lagrange``).  s0 is the largest t of a
    hypograph vertex, and the atom the volume of the superlevel body at s0."""
    n = ambient.dim
    vol = volume(ambient)
    sigma = min(g(x) for x in ambient.vertices)
    points = oracle_hypograph_points(ambient, g)
    s0 = max(t for t, feasible in points if feasible)
    cuts = {Fraction(0), s0, min(sigma, s0)} | {t for t, _ in points}
    breaks = sorted(c for c in cuts if 0 <= c <= s0)
    pieces = []
    for lo, hi in zip(breaks, breaks[1:]):
        ts = [lo + (hi - lo) * Fraction(j + 1, n + 2) for j in range(n + 1)]
        vals = [volume(oracle_superlevel(ambient, g, t)) / vol for t in ts]
        pieces.append((lo, hi, oracle_lagrange(ts, vals)))
    atom = volume(oracle_superlevel(ambient, g, s0)) / vol
    return s0, sigma, vol, atom, tuple(breaks), tuple(pieces)


def oracle_ccdf_fit(ambient, g):
    """(s0, sigma, vol, atom, breaks, pieces) of the ccdf fitted from
    superlevel volumes: every candidate t is a break, a candidate whose
    hypograph point satisfies every constraint is a real break, and one
    polynomial of degree <= n is fitted per interval between real breaks
    (``oracle_newton``) and carried by every candidate interval inside it.
    F = 1 on [0, sigma] with no volume; each fit takes F(a) from the fit
    before it and F(s0) from the atom, so it measures n new superlevel
    volumes, the last one n - 1 besides the atom."""
    n = ambient.dim
    vol = volume(ambient)
    if vol == 0:
        raise ValueError("ambient body must be full-dimensional")
    s0 = max_transform(ambient, g)
    sigma = min(g(x) for x in ambient.vertices)

    def ccdf(t: Fraction) -> Fraction:
        return volume(superlevel(ambient, g, t)) / vol

    atom = Fraction(1) if s0 <= sigma else ccdf(s0)  # s0 = sigma: G is constant
    # rows (a, b) of the constraints a . (x, t) <= b, all scaled by one
    # common denominator to integers, which changes no solution
    _, rows = _int_form([(*h.normal, 0, h.offset) for h in ambient.halfspaces]
                        + [(*(-c for c in f.gradient), 1, f.constant) for f in g.pieces])
    cuts = {Fraction(0), s0, min(sigma, s0)}
    real = set(cuts)
    for combo in combinations(rows, n + 1):
        _, pivots, red, d = _int_reduce(combo)
        if pivots != list(range(n + 1)):
            continue
        t = Fraction(red[n][-1], d)
        if not 0 <= t <= s0:
            continue
        # the point (x, t) where the n+1 hyperplanes meet is xt / d, with d > 0
        xt = [r[-1] for r in red]
        cuts.add(t)
        if all(sum(map(mul, r[:-1], xt)) <= r[-1] * d for r in rows):
            real.add(t)
    breaks = sorted(c for c in cuts if 0 <= c <= s0)
    real_breaks = sorted(c for c in real if 0 <= c <= s0)
    next_real = dict(zip(real_breaks, real_breaks[1:]))
    pieces = []
    coeffs: tuple[Fraction, ...] = ()
    for lo, hi in zip(breaks, breaks[1:]):
        if lo in next_real:  # 0 is real, so the first interval starts a fit
            a, b = lo, next_real[lo]
            if b <= sigma:
                coeffs = (Fraction(1),)
            else:
                # F(a) is measured only at a = 0 with sigma < 0 (G < 0 somewhere)
                fa = Fraction(1) if a <= sigma else _poly_eval(coeffs, a) if coeffs else ccdf(a)
                inner = n - 1 if b == s0 else n
                ts = [a] + [a + (b - a) * Fraction(j, inner + 1) for j in range(1, inner + 1)]
                vals = [fa] + [ccdf(t) for t in ts[1:]]
                if b == s0:
                    ts.append(s0)
                    vals.append(atom)
                coeffs = oracle_newton(ts, vals)
        pieces.append((lo, hi, coeffs))
    return s0, sigma, vol, atom, tuple(breaks), tuple(pieces)


def oracle_newton(ts: list[Fraction], vals: list[Fraction]) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of the polynomial of degree < len(ts) through
    (ts[i], vals[i]), trailing zeros dropped: divided differences, then the
    Newton form expanded by Horner's rule, O(m^2) Fraction operations."""
    m = len(ts)
    dd = list(vals)
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (ts[i] - ts[i - j])
    # p = dd[0] + (t - ts[0]) (dd[1] + (t - ts[1]) (... + (t - ts[m-2]) dd[m-1]))
    coeffs = [dd[-1]]
    for i in range(m - 2, -1, -1):
        coeffs = ([dd[i] - ts[i] * coeffs[0]]
                  + [below - ts[i] * c for below, c in zip(coeffs, coeffs[1:])] + [coeffs[-1]])
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def oracle_bisect(coeffs, tau, lo, hi, tol):
    """Halve [lo, hi] in Fractions until b - a <= tol, evaluating the
    polynomial at each midpoint by Horner's rule; returns (a, b)."""
    a, b = lo, hi
    while b - a > tol:
        mid = (a + b) / 2
        if _poly_eval(coeffs, mid) >= tau:
            a = mid
        else:
            b = mid
    return a, b


def oracle_tail_mean(model, v, q):
    """E[G | G >= q] as the mean of G over the superlevel body {G >= q}; at
    q = s0, where that body may have no volume, its limit s0."""
    if q == max_transform(model.ambient, v.G):
        return q
    body = superlevel(model.ambient, v.G, q)
    return integrate_transform(body, v.G) / volume(body)


def oracle_S_tau(model, v, tau, tol=DEFAULT_TOL):
    """The tail expectation as the mean of G over the superlevel body at the
    quantile.  This reference still bisects an inexact quantile's bracket,
    with one superlevel body per end, until the two tail means are within
    tol, and returns their midpoint; ``S_tau`` reads the midpoint at the
    bracket's ends, which the 1-Lipschitz tail mean already puts within
    tol of each other."""
    tau = rat(tau)
    s0, _, pieces = _ccdf_data(model.ambient, v.G)
    if tau == 0:
        return s0
    spec = quantile(model, v, tau, tol)
    if spec.quantile == s0:
        return s0

    if spec.exact:
        return oracle_tail_mean(model, v, spec.quantile)
    a, b = spec.bracket
    coeffs = next(c for lo, hi, c in pieces if lo <= a and b <= hi)
    lo_val, hi_val = oracle_tail_mean(model, v, a), oracle_tail_mean(model, v, b)
    for _ in range(256):
        if hi_val - lo_val <= tol:
            break
        mid = (a + b) / 2
        if _poly_eval(coeffs, mid) >= tau:
            a = mid
            lo_val = oracle_tail_mean(model, v, a)
        else:
            b = mid
            hi_val = oracle_tail_mean(model, v, b)
    return (lo_val + hi_val) / 2


def check_guards(table):
    """Run each (call, result) of a guard table: a (type, message) result is
    the exception the call must raise, with exactly that message, and any
    other result the value it must return."""
    for call, result in table:
        if isinstance(result, tuple):
            error, message = result
            try:
                call()
            except error as raised:
                assert str(raised) == message
            else:
                raise AssertionError(f"no {error.__name__}: {message}")
        else:
            assert call() == result
