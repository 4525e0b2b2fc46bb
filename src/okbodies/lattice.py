"""Enumeration and counting of scaled-lattice points Z^n/k in rational polytopes.

Denominators are cleared once per body (``_lattice_form``, cached on the
body) and the rest is pure integer arithmetic.  Per call only the k-scaling
runs, one floor division per bound: a point z/k (z integral) satisfies
a.x <= b iff a.z <= floor(k*b), since a is a primitive integer normal.
``enumerate_points`` lists integer prefixes axis by axis in lexicographic
order (``_prefixes``), so its output is deterministic and sorted.  ``count``
counts 2-D slabs in closed form with the Euclid-like ``floor_sum``
recurrence (Beck & Robins, *Computing the Continuous Discretely*,
ch. 1-2), so its cost grows like log k, not k, in the last two axes.

A flat body (affine rank r < n) is counted and enumerated in its own
lattice aff(P) ∩ Z^n: a unimodular change of coordinates (``_chart``, built
once per body) maps that lattice onto {c} x Z^r and the body onto {c} x P'
for a full-dimensional P' in R^r, so count(P, k) = count(P', k) when k c is
integral and 0 otherwise, and the points of P are those of P' mapped back.
``count`` then picks its kernel by affine rank alone:
- rank 0, a point: 1 or 0;
- rank 1, an interval: its two halfspaces are its box, so it is one range
  read off the scaled box of ``_lattice_form``;
- rank 2, a polygon: its two chains of edges, flat (``_chain_form``, built
  once per body from its vertices and incidence).  The vertices split its
  rows into one run per facet of its upper and lower chain, each run one
  ``floor_sum`` (``_polygon_count``): no section, no slab loop.
- rank 3, the chains of the slabs (``_chain_form``, built once per body
  from its vertices, edges and incidence).  Between consecutive vertex
  levels of the first axis the same edges cross every slab in the same x
  order, so a slab's rows split at breakpoints linear in the slab's level
  into one run per facet of its upper and lower chain, and each run is one
  ``floor_sum``: no per-slab line lists, stack passes or pair bounds.  One
  walk (``_slab_counts``) gives each slab's total, which ``count`` sums.
- rank 4, a full-dimensional 4-D body: the prefixes of the first two axes,
  walked as ``enumerate_points`` walks all n, each slab counted from its
  constraint lines (``_slab_sum``).

``concave_sum`` of a full-dimensional polygon walks the rows of its
chains, reads each row's column of points off its two owner facets
(``_polygon_columns``) and sums G along the column in closed form, one run
of one piece at a time (``_chain_concave_sum``), so it lists no point.
Every other body, 3-D ones included, and a polygon where G scores a point
negative, sum over the listed points (``_enumerated_concave_sum``).  The
chains also give the points per first coordinate (``_first_axis_counts``:
a polygon's columns, a 3-D body's ``_slab_counts``), in any unimodular
frame (``_frame``).

On that last path, which only full-dimensional 4-D bodies take, a slab's
rows are empty outside the x-range where every (upper, lower) pair of its
y-lines allows a row.  These pair bounds, the x-box and the constraints on
x are built once per body (``_slab_form``) and set up once per level: a
bound free of x narrows the ranges of the outer axes once, and the others
become lines over the last outer axis, of which only the upper envelope of
the lower bounds on x and the lower envelope of the upper ones can bind, so
each slab evaluates one bound per side.

Every envelope is the minimum of lines over a range of integers: the y-lines
of a slab, the upper bounds on x, and the lower bounds on x as the minimum of
their negations.  A line's slope depends only on the body, so each body
sorts its lines by slope once (``_slab_form``), and one stack pass over
that order finds the runs of the envelope (``_envelope_runs``): O(m + runs)
per envelope of m lines, and one ``floor_sum`` per run of a y-envelope.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import gcd, prod
from operator import itemgetter, lt, mul

from .geometry import (ConcavePL, ConvexBody, GeometryError, _hull_rows, _nullspace,
                       chebyshev_ball, sqrt_upper_bound)


class PointCloud:
    """Finite subset of Z^n/k stored as integer numerator vectors over a shared k,
    sorted and distinct.  The producers hand it sorted, distinct points, which
    it keeps after one O(n) check; other input is sorted once here.  Frozen:
    it hashes and compares as the tuple (denominator, points)."""

    __slots__ = ("denominator", "points")

    def __init__(self, denominator: int, points: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "points", points)
        self.__post_init__()

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("denominator must be a positive integer")
        points = tuple(self.points)
        if not all(map(lt, points, points[1:])):
            points = tuple(sorted(set(points)))
        object.__setattr__(self, "points", points)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a PointCloud")

    def __eq__(self, other):
        if other.__class__ is not PointCloud:
            return NotImplemented
        return self.denominator == other.denominator and self.points == other.points

    def __hash__(self):
        return hash((self.denominator, self.points))

    def __len__(self):
        return len(self.points)

    def __contains__(self, z):
        z = tuple(z)
        i = bisect_left(self.points, z)  # points are sorted and distinct (__post_init__)
        return i < len(self.points) and self.points[i] == z

    def __iter__(self):
        return iter(self.points)

    def coordinates(self) -> list[tuple[Fraction, ...]]:
        """The actual rational points (numerators divided by k)."""
        k = self.denominator
        return [tuple(Fraction(c, k) for c in z) for z in self.points]


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{0 <= i < n} floor((a i + b) / m) for n >= 0, m > 0 and any integers
    a, b.

    The Euclid-like recurrence: split off the integer parts of a/m and b/m,
    then count the points under the remaining line from the other axis, which
    swaps a and m.  O(log m) steps on exact Python ints.
    """
    q = a // m
    a -= q * m
    total = q * (n * (n - 1) // 2)
    q = b // m
    b -= q * m
    total += q * n
    while True:
        top = a * n + b
        if top < m:
            return total
        n = top // m
        b = top - n * m
        m, a = a, m
        q = a // m
        a -= q * m
        total += q * (n * (n - 1) // 2)
        q = b // m
        b -= q * m
        total += q * n


def _lattice_form(body: ConvexBody):
    """The k-free part of ``_scaled_constraints``, built once per body from its
    integer vertex form (D, Z): the bounding box as integer bounds over D, and
    each halfspace as (normal, offset numerator, offset denominator), grouped
    by its last active axis."""
    if "lattice" not in body._cache:
        if body.is_empty:
            raise GeometryError("empty body has no bounding box")
        D, Z = body.int_form()
        levels: list[list[tuple[tuple[int, ...], int, int]]] = [[] for _ in range(body.dim)]
        for h in body.halfspaces:
            level = max(i for i, a in enumerate(h.normal) if a != 0)
            levels[level].append((h.normal, h.offset.numerator, h.offset.denominator))
        body._cache["lattice"] = (D, [(min(col), max(col)) for col in zip(*Z)], levels)
    return body._cache["lattice"]


def _scaled_constraints(body: ConvexBody, k: int):
    """Integer constraints a.z <= c for z in k*body, grouped by last active axis,
    and the box lo <= z <= hi: one floor division per bound on the cached
    ``_lattice_form``."""
    D, box, groups = _lattice_form(body)
    lo = [_ceil_div(k * b, D) for b, _ in box]
    hi = [(k * b) // D for _, b in box]
    levels = [[(a, (k * p) // q) for a, p, q in group] for group in groups]
    return lo, hi, levels


def _rest(a: tuple[int, ...], c: int, prefix) -> int:
    """c - a.prefix: the right-hand side of a.z <= c once the prefix is fixed."""
    return c - sum(map(mul, a, prefix))


def _range(lo: int, hi: int, split, prefix) -> tuple[int, int]:
    """Integer range of the axis after ``prefix`` allowed by its constraints,
    each split as (a[:axis], a[axis], c) once per axis, not once per prefix."""
    for a, aj, c in split:
        rest = c - sum(map(mul, a, prefix))
        if aj > 0:
            hi = min(hi, rest // aj)
        else:
            # a_j z <= rest with a_j < 0  <=>  z >= ceil(rest / a_j)
            lo = max(lo, -(rest // -aj))
    return lo, hi


def _interval(lo: int, hi: int, constraints, prefix) -> tuple[int, int]:
    """Integer range of the axis after ``prefix`` allowed by its constraints."""
    axis = len(prefix)
    return _range(lo, hi, [(a[:axis], a[axis], c) for a, c in constraints], prefix)


def _prefixes(lo, hi, levels, depth: int) -> list[tuple[int, ...]]:
    """Every integer prefix (z_0, ..., z_{depth-1}) allowed by the constraints
    of its axes, in lexicographic order.  With depth = n these are the points."""
    prefixes: list[tuple[int, ...]] = [()]
    for axis in range(depth):
        split = [(a[:axis], a[axis], c) for a, c in levels[axis]]
        grown = []
        for p in prefixes:
            lo_j, hi_j = _range(lo[axis], hi[axis], split, p)
            grown.extend([p + (z,) for z in range(lo_j, hi_j + 1)])
        prefixes = grown
    return prefixes


def _by_slope(lines, slope):
    """``lines`` sorted by slope, largest first, where ``slope(line)`` gives
    (q, r) for the slope q / r, r > 0: the order ``_envelope_runs`` takes.
    Slopes depend only on the body, so each body sorts once."""
    return sorted(lines, key=lambda line: Fraction(*slope(line)), reverse=True)


def _envelope_runs(lines, x0: int, x1: int) -> list[tuple[int, int, int, int]]:
    """The runs (start, p, q, r) of min_j (p_j + q_j x) / r_j over the integers
    x0 <= x <= x1, all r_j > 0, for lines in ``_by_slope`` order: line
    (p, q, r) is the minimum from its start up to the next run's start, the
    last one up to x1, ties to the smaller slope.

    The minimum of lines is concave, so in slope order each line can only
    take over from the ones before it.  One stack pass: a line takes over
    from the top of the stack at the first integer where it is no larger; a
    top it takes over from no later than that top's own start owns no
    integer and is popped, and a line that takes over after x1 owns none.
    """
    runs: list[tuple[int, int, int, int]] = []
    for p, q, r in lines:
        start = x0
        while runs:
            top, pt, qt, rt = runs[-1]
            # (p + q x) / r <= (pt + qt x) / rt  <=>  d x >= e, with d >= 0
            d, e = qt * r - q * rt, p * rt - pt * r
            if d:
                t = -(e // -d)
                if t > top:
                    start = t
                    break
            elif e > 0:
                start = x1 + 1  # parallel and above
                break
            runs.pop()
        if start <= x1:
            runs.append((start, p, q, r))
    return runs


def _envelope_floor_sum(lines, x0: int, x1: int) -> int:
    """sum over x0 <= x <= x1 of floor(min_j (p_j + q_j x) / r_j), all r_j > 0,
    lines in ``_by_slope`` order: one ``_floor_sum`` per run."""
    total = 0
    end = x1 + 1
    for start, p, q, r in reversed(_envelope_runs(lines, x0, x1)):
        total += _floor_sum(end - start, r, q, p + q * start)
        end = start
    return total


def _envelope_floors(lines, x0: int, x1: int) -> list[int]:
    """[floor(min_j (p_j + q_j x) / r_j) for x0 <= x <= x1], all r_j > 0, lines
    in ``_by_slope`` order: each x evaluates only the line of its run."""
    runs = _envelope_runs(lines, x0, x1)
    ends = [start for start, _, _, _ in runs[1:]] + [x1 + 1]
    return [(p + q * x) // r for (start, p, q, r), end in zip(runs, ends)
            for x in range(start, end)]


def _slab_form(body: ConvexBody):
    """The k-free bounds of the 2-D slabs of a body of dimension n >= 3, cached
    next to ``_lattice_form``.  x and y are the last two axes and the outer
    axes the n - 2 before them.  A bound's right-hand side at level k is read
    off the level's scaled offsets c: c[0] = hi_x, c[1] = -lo_x, c[2] = hi_y,
    c[3] = -lo_y, then the constraints of the x-level and of the y-level in
    order.

    First the y-lines ``upper`` and ``lower``, each side in ``_by_slope``
    order, as (a, q, r, i): y <= (p + q x) / r, or -y <= (p + q x) / r, with
    p = c[i] - a.outer.  Only p depends on k and on the outer prefix, so the
    slope order q / r is the body's.  Then every bound on x, each a bound
    s x >= A.outer - B with B = w_1 c[i_1] + w_2 c[i_2]: the x-box, each
    x-constraint, and each (upper, lower) pair of y-lines, whose rows are
    empty unless (p_u + q_u x) / r_u + (p_l + q_l x) / r_l >= 0, i.e.
    s = q_u r_l + q_l r_u, A = a_u r_l + a_l r_u and B = c_u r_l + c_l r_u.
    Only B depends on k.  The bounds are kept as (A, |s|, w_1, i_1, w_2, i_2)
    in three groups: lower bounds on x (s > 0), upper bounds on x (s < 0) and
    flat bounds (s = 0), which read A.outer <= B and bound the outer axes
    alone.  Over the last outer axis w both x-bounds read
    x >= -floor((B' - A_w w) / s) and x <= floor((B' - A_w w) / |s|), with
    B' = B - A.prefix, floors of a lower envelope, so each group is kept in
    the ``_by_slope`` order of the lines (B', -A_w, |s|).
    """
    if "slabs" not in body._cache:
        _, _, levels = _lattice_form(body)
        x = body.dim - 2
        y = x + 1
        zero = (0,) * x
        upper, lower = [(zero, 0, 1, 2)], [(zero, 0, 1, 3)]
        first_y = 4 + len(levels[x])
        for j, (a, _, _) in enumerate(levels[y]):
            (upper if a[y] > 0 else lower).append((a[:x], -a[x], abs(a[y]), first_y + j))
        upper, lower = (_by_slope(side, lambda line: line[1:3]) for side in (upper, lower))
        bounds = [(1, zero, 1, 1, 0, 0), (-1, zero, 1, 0, 0, 0)]
        bounds += [(-a[x], a[:x], 1, 4 + j, 0, 0) for j, (a, _, _) in enumerate(levels[x])]
        bounds += [(qu * rl + ql * ru, tuple(u * rl + l * ru for u, l in zip(au, al)),
                    rl, iu, ru, il)
                   for au, qu, ru, iu in upper for al, ql, rl, il in lower]
        x_lower, x_upper, flat = [], [], []
        for s, A, *terms in bounds:
            (x_lower if s > 0 else x_upper if s < 0 else flat).append((A, abs(s), *terms))
        w = x - 1
        x_lower, x_upper = (_by_slope(side, lambda bound: (-bound[0][w], bound[1]))
                            for side in (x_lower, x_upper))
        body._cache["slabs"] = (upper, lower, x_lower, x_upper, flat)
    return body._cache["slabs"]


def _slab_sum(body: ConvexBody, lo, hi, levels) -> int:
    """Points of a full-dimensional 4-D body at one level, as a sum of 2-D
    slabs (the walk holds for any body of dimension n >= 3, flat or not, but
    ``count`` sends it 4-D bodies only).

    With the bounds of ``_slab_form`` at this level, the flat bounds join the
    constraints of the outer axes, so they narrow the outer ranges once.  Then
    for each prefix of all outer axes but the last one, w, the other bounds
    become lines in w, and the x-range of each slab is read off the two
    envelopes of the bounds on x (``_envelope_floors``): only the lines that
    bind are evaluated, one per slab and side.  Each nonempty slab is then
    summed in closed form, one ``_envelope_floor_sum`` per side.
    """
    upper, lower, x_lower, x_upper, flat = _slab_form(body)
    x = body.dim - 2
    y = x + 1
    c = [hi[x], -lo[x], hi[y], -lo[y], *(cj for _, cj in levels[x]), *(cj for _, cj in levels[y])]
    outer = [list(group) for group in levels[:x]]
    for A, _, w1, i1, w2, i2 in flat:
        B = w1 * c[i1] + w2 * c[i2]
        if any(A):
            outer[max(i for i, a in enumerate(A) if a)].append((A, B))
        elif B < 0:
            return 0
    x_lower = [(A, w1 * c[i1] + w2 * c[i2], s) for A, s, w1, i1, w2, i2 in x_lower]
    x_upper = [(A, w1 * c[i1] + w2 * c[i2], s) for A, s, w1, i1, w2, i2 in x_upper]
    upper = [(c[i], a, q, r) for a, q, r, i in upper]
    lower = [(c[i], a, q, r) for a, q, r, i in lower]
    w = x - 1
    total = 0
    for prefix in _prefixes(lo, hi, outer, w):
        w_lo, w_hi = _interval(lo[w], hi[w], outer[w], prefix)
        if w_lo > w_hi:
            continue
        # everything but the w-term is fixed on this prefix: s x >= A w - B
        # reads as a floor of a lower envelope on each side (``_slab_form``)
        x_lo = [-f for f in _envelope_floors(
            [(_rest(A, B, prefix), -A[w], s) for A, B, s in x_lower], w_lo, w_hi)]
        x_hi = _envelope_floors(
            [(_rest(A, B, prefix), -A[w], s) for A, B, s in x_upper], w_lo, w_hi)
        up = [(_rest(a, p, prefix), a[w], q, r) for p, a, q, r in upper]
        down = [(_rest(a, p, prefix), a[w], q, r) for p, a, q, r in lower]
        for z, x0, x1 in zip(range(w_lo, w_hi + 1), x_lo, x_hi):
            if x0 <= x1:
                # row x holds floor(min upper) + floor(min lower) + 1 points
                total += (_envelope_floor_sum([(p - a * z, q, r) for p, a, q, r in up], x0, x1)
                          + _envelope_floor_sum([(p - a * z, q, r) for p, a, q, r in down], x0, x1)
                          + x1 - x0 + 1)
    return total


def _chain_form(body: ConvexBody):
    """The k-free chains of a full-dimensional body of dimension 2 or 3,
    cached next to ``_lattice_form`` and built in integers from the body's
    vertex form (D, Z) and incidence.

    With y the last axis and x the one before it, the rows of a polygon, or
    of the slab w = z of a 3-D body with first axis w, run from its lower
    chain to its upper one: runs of the facets with a_y < 0 and a_y > 0.

    A polygon's form is flat: ((alpha_0, gamma_0), (alpha_1, gamma_1),
    upper, lower), its x-range ends alpha / gamma, and each chain a pair:
    every facet but the last, left to right, as (p, q, -a_x, |a_y|, alpha,
    gamma), with the offset p / q of a.x <= p / q and the vertex alpha /
    gamma that ends its rows, then the last facet as (p, q, -a_x, |a_y|).

    A 3-D body's form is (D, offsets, sections): the offsets (p, q) of the
    facets that bound y, and one section per open interval between
    consecutive vertex levels of w, where the same body edges cross the slab
    in the same x order.  A section (w_0, w_1, left, right, upper, lower)
    lies between the levels w_0 / D and w_1 / D and lists each chain's edges
    left to right as breakpoints X(z) = (k alpha + z beta) / gamma, gamma >
    0, with the facet that bounds y between each consecutive pair: an edge
    (u, v) with u_w < v_w crosses w = z at alpha = u_x v_w - u_w v_x, beta =
    D (v_x - u_x) and gamma = D (v_w - u_w).  left and right are the
    breakpoints that end both chains.  A chain is a pair: each facet but the
    last as (a_w, -a_x, |a_y|, i, alpha, beta, gamma), with the breakpoint
    that ends its rows and i indexing the offsets, then the last facet as
    (a_w, -a_x, |a_y|, i).
    """
    if "chains" not in body._cache:
        D, Z = body.int_form()
        n = body.dim
        incidence = body.incidence()
        # a halfspace tight at fewer than n vertices is redundant, no facet,
        # and a facet with a_y = 0 bounds no row
        facets = [(h, t) for h, t in zip(body.halfspaces, incidence)
                  if len(t) >= n and h.normal[-1]]
        if n == 2:
            split = ([], [])
            for h, t in facets:
                u, v = sorted(t)  # the rows are sorted, so u is the left end
                (a, b), offset = h.normal, h.offset
                split[b > 0].append((Z[u][0], Z[v][0],
                                     (offset.numerator, offset.denominator, -a, abs(b))))
            upper, lower = map(sorted, split[::-1])
            body._cache["chains"] = ((upper[0][0], D), (upper[-1][1], D), *(
                (tuple((*facet, right, D) for _, right, facet in chain[:-1]), chain[-1][2])
                for chain in (upper, lower)))
            return body._cache["chains"]
        offsets = [(h.offset.numerator, h.offset.denominator) for h, _ in facets]
        sides = [(t, (h.normal[0], -h.normal[1], abs(h.normal[2]), i), h.normal[2] > 0)
                 for i, (h, t) in enumerate(facets)]

        def line(u, v):
            (uw, ux, _), (vw, vx, _) = Z[u], Z[v]
            alpha, beta, gamma = ux * vw - uw * vx, D * (vx - ux), D * (vw - uw)
            g = gcd(alpha, beta, gamma)
            return uw, vw, (alpha // g, beta // g, gamma // g)

        # the edges of a facet that are not level in w, each the two
        # vertices it shares with another facet
        crossing = [[line(*sorted(e)) for e in {t & s for s in incidence} if len(e) == 2
                     and Z[min(e)][0] < Z[max(e)][0]] for t, _, _ in sides]
        W = sorted({z[0] for z in Z})
        sections = []
        for w0, w1 in zip(W, W[1:]):
            split = ([], [])
            for (_, term, up), edges in zip(sides, crossing):
                cut = [ln for uw, vw, ln in edges if uw <= w0 and vw >= w1]
                if cut:
                    # the facet's two edges across the section, in the
                    # order of X at the level (w0 + w1) / (2D), times 2D
                    (x, left), (_, right) = sorted(
                        (Fraction(2 * D * al + (w0 + w1) * be, ga), (al, be, ga))
                        for al, be, ga in cut)
                    split[up].append((x, left, right, term))
            upper, lower = map(sorted, split[::-1])
            sections.append((w0, w1, upper[0][1], upper[-1][2],
                             *(([(*facet, *right) for _, _, right, facet in chain[:-1]],
                                chain[-1][3]) for chain in (upper, lower))))
        body._cache["chains"] = (D, offsets, sections)
    return body._cache["chains"]


def _slab_counts(body: ConvexBody, k: int) -> dict[int, int]:
    """{z: points of the slab w = z} for each slab of a full-dimensional 3-D
    body at level k that holds a row, read off the sections of its
    ``_chain_form``: the one walk behind its ``count`` and its
    ``_first_axis_counts``.

    A slab on a vertex level takes the section above it, and the top level
    the last section.  Its rows are the integers ceil X_left <= x <=
    floor X_right, row x holding floor U(x) + floor(-L(x)) + 1 points for
    the upper and lower envelopes U and L of y.  Each facet of a chain owns
    the rows ceil X_i <= x < ceil X_{i+1} between its breakpoints, the last
    one up to floor X_right: one ``_floor_sum`` per facet and slab, and none
    for a facet that owns no row.  The floored offsets are exact there,
    since floor((floor(k b) - a.prefix) / |a_y|) = floor((k b - a.prefix) /
    |a_y|), so at every row the floor of the facet's line is the floor of the
    real envelope.
    """
    D, offsets, sections = _chain_form(body)
    c = [(k * p) // q for p, q in offsets]
    last = len(sections) - 1
    counts = {}
    for s, (w0, w1, (A0, b0, g0), (A1, b1, g1), *chains) in enumerate(sections):
        z0 = _ceil_div(k * w0, D)
        z1 = (k * w1) // D if s == last else _ceil_div(k * w1, D) - 1
        A0, A1 = k * A0, k * A1
        for z in range(z0, z1 + 1):
            x_lo = -((-A0 - b0 * z) // g0)
            x_hi = (A1 + b1 * z) // g1
            if x_lo > x_hi:
                continue
            total = x_hi - x_lo + 1
            for inner, closing in chains:
                start = x_lo
                for aw, q, r, i, al, be, ga in inner:
                    end = -((-k * al - be * z) // ga)
                    if end > start:
                        total += _floor_sum(end - start, r, q, c[i] - aw * z + q * start)
                        start = end
                if x_hi >= start:
                    aw, q, r, i = closing
                    total += _floor_sum(x_hi + 1 - start, r, q, c[i] - aw * z + q * start)
            counts[z] = total
    return counts


def _polygon_count(body: ConvexBody, k: int) -> int:
    """Points of a full-dimensional polygon at level k, read off its flat
    ``_chain_form``: rows ceil(k alpha_0 / gamma_0) <= x <= floor(k alpha_1 /
    gamma_1), row x holding floor U(x) + floor(-L(x)) + 1 points for the
    upper and lower envelopes U and L of y.  A facet owns the rows up to
    ceil(k alpha / gamma) - 1 for its breakpoint, the last one up to the
    right end: one floor division per breakpoint and one ``_floor_sum`` per
    facet that owns a row, on the offset floor(k p / q), exact as in
    ``_slab_counts``."""
    (A0, g0), (A1, g1), *chains = _chain_form(body)
    x_lo = -((-k * A0) // g0)
    x_hi = (k * A1) // g1
    if x_lo > x_hi:
        return 0
    total = x_hi - x_lo + 1
    for inner, (p, q, a, r) in chains:
        start = x_lo
        for p_i, q_i, a_i, r_i, al, ga in inner:
            end = -((-k * al) // ga)
            if end > start:
                total += _floor_sum(end - start, r_i, a_i, (k * p_i) // q_i + a_i * start)
                start = end
        if x_hi >= start:
            total += _floor_sum(x_hi + 1 - start, r, a, (k * p) // q + a * start)
    return total


def _polygon_columns(body: ConvexBody, k: int):
    """The columns (x, top, bottom) of a full-dimensional polygon at level
    k, column x running from y = -bottom to y = top (empty if top + bottom
    < 0), read off the rows and owners of ``_polygon_count``."""
    (A0, g0), (A1, g1), *chains = _chain_form(body)
    x_lo = -((-k * A0) // g0)
    x_hi = (k * A1) // g1
    floors = ([], [])
    for (inner, (p, q, a, r)), out in zip(chains, floors):
        start = x_lo
        for p_i, q_i, a_i, r_i, al, ga in inner:
            end = -((-k * al) // ga)
            if end > start:
                c = (k * p_i) // q_i
                out += [(c + a_i * x) // r_i for x in range(start, end)]
                start = end
        c = (k * p) // q
        out += [(c + a * x) // r for x in range(start, x_hi + 1)]
    return zip(range(x_lo, x_hi + 1), *floors)


def _first_axis_counts(body: ConvexBody, k: int) -> dict[int, int]:
    """{z1: points of body ∩ Z^n/k with that first numerator}, some 0.  A
    full-dimensional 2-D or 3-D body lists no point: a polygon's column x
    holds floor U(x) + floor(-L(x)) + 1 (``_polygon_columns``), and a 3-D
    body's slabs are those ``count`` sums (``_slab_counts``); other bodies
    count listed points."""
    if body.dim not in (2, 3) or not body.is_full_dim():
        return Counter(z[0] for z in _numerators(body, k))
    if body.dim == 2:
        return {x: top + bottom + 1 for x, top, bottom in _polygon_columns(body, k)}
    return _slab_counts(body, k)


def first_axis_bound(body: ConvexBody, k: int) -> int:
    """Upper bound on the columns or slabs ``_first_axis_counts(body, k)``
    reads off a full-dimensional 2-D or 3-D body: floor(k w) + 1 for its
    width w on the first axis."""
    D, box, _ = _lattice_form(body)
    return (k * (box[0][1] - box[0][0])) // D + 1


def _chain_concave_sum(body: ConvexBody, g: ConcavePL, k: int) -> int | None:
    """The sum of the integer scores k L G(z/k) (``ConcavePL.scaled_values``)
    over the points z of a full-dimensional polygon at one level, read off
    its columns (``_polygon_columns``), or None if a score is negative.

    Column x runs from y = -floor(-L(x)) to floor U(x).  Along a column a
    piece scores e + a_y y for an e fixed by the column, so a run of m points
    on one piece sums in closed form to m (e_0 + e_1) / 2, e_0 and e_1 its
    end scores.  The pieces split each column into the runs of their lower
    envelope (``_envelope_runs``, r = 1), one run for a one-piece G.  G is
    concave along a column, so a negative score shows at one of the column's
    two ends, and only the ends are checked.
    """
    # (a_x, a_y, k L c) of each distinct piece, largest a_y first: the
    # ``_by_slope`` order of their lines in y
    forms = sorted({(ax, ay, k * const) for (ax, ay), const in g.integer_form[1]},
                   key=itemgetter(1), reverse=True)
    twice = 0  # every run adds m (e_0 + e_1), an even number
    for x, top, bottom in _polygon_columns(body, k):
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


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s a + t b."""
    s, s1, t, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b, s, s1, t, t1 = b, a - q * b, s1, s - q * s1, t1, t - q * t1
    return (a, s, t) if a >= 0 else (-a, -s, -t)


def _column_reduction(E: list[list[int]], n: int) -> tuple[list[list[int]], list[list[int]]]:
    """(U, U^-1) for a unimodular U with E U = [H | 0], H lower triangular,
    reducing the integer rows E in place by extended-gcd column operations
    (Cohen, *A Course in Computational Algebraic Number Theory*, §2.4.2).
    The same column operations build U from the identity, and each one's
    inverse acts on the rows of U^-1, so nothing is inverted."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in U]
    for i, row in enumerate(E):
        for j in range(i + 1, n):
            if row[j]:
                # columns (i, j) <- (s col_i + t col_j, (x col_j - y col_i) / g),
                # which clears row[j]; rows of E before i are zero in both
                g, s, t = _xgcd(row[i], row[j])
                x, y = row[i] // g, row[j] // g
                for e in E[i:] + U:
                    e[i], e[j] = s * e[i] + t * e[j], x * e[j] - y * e[i]
                inv[i], inv[j] = ([x * a + y * b for a, b in zip(inv[i], inv[j])],
                                  [s * b - t * a for a, b in zip(inv[i], inv[j])])
    return U, inv


def _chart(body: ConvexBody):
    """The unimodular chart of a flat nonempty body P (affine rank r < n),
    cached next to ``_lattice_form`` and built in integers from its vertex
    form (D, Z).

    The rows of E, a primitive integer basis of the equalities of aff(P)
    (``_nullspace`` of the vertex differences), are reduced to [H | 0]
    (``_column_reduction``), E U = [H | 0] with U unimodular.
    The last r columns of U are a basis of the direction lattice of P, so
    y = U^-1 z maps Z^n onto itself and aff(P) onto {y : y_head = c}, where
    the head c (the first n - r coordinates of U^-1 v) is one point for
    every vertex v, and P onto {c} x P' for the full-dimensional hull P' in
    R^r of the tails of U^-1 Z / D.  So P holds no point at level k unless
    the period, the least common denominator of c, divides k, and then its
    points are z = (k / period) o + L y for the points y of P' at level k,
    with o = U (period c, 0) and L the last r columns of U: count(P, k) =
    count(P', k).

    Returns (period, P', o, L as rows), P' None for a point (r = 0).
    """
    if "chart" not in body._cache:
        D, Z = body.int_form()
        n, base = body.dim, Z[0]
        E = [list(w) for w in _nullspace([[x - y for x, y in zip(z, base)] for z in Z[1:]], n)]
        U, inv = _column_reduction(E, n)
        m = len(E)
        head = [sum(map(mul, u, base)) for u in inv[:m]]
        g = gcd(D, *head)
        image = None
        if m < n:
            rows = sorted(tuple(sum(map(mul, u, z)) for u in inv[m:]) for z in Z)
            image = _hull_rows(D, rows, n - m)
        origin = tuple(sum(a * h // g for a, h in zip(u, head)) for u in U)
        body._cache["chart"] = (D // g, image, origin, tuple(tuple(u[m:]) for u in U))
    return body._cache["chart"]


def _frame(body: ConvexBody, direction: tuple[int, ...]) -> ConvexBody:
    """V body, cached next to ``_chart`` by the primitive direction u, for
    the U^-1 = V of ``_column_reduction`` of the row u, whose first row ±u is
    set to u: w = V z maps Z^n onto itself and u . z onto w_1.  The body
    itself for u = e_1."""
    key = ("frame", direction)
    if key not in body._cache:
        frame = body
        if direction[0] != 1 or any(direction[1:]):
            D, Z = body.int_form()
            _, inv = _column_reduction([list(direction)], body.dim)
            inv[0] = direction
            frame = _hull_rows(D, sorted(tuple(sum(map(mul, v, z)) for v in inv) for z in Z),
                               body.dim)
        body._cache[key] = frame
    return body._cache[key]


def _numerators(body: ConvexBody, k: int) -> list[tuple[int, ...]]:
    """The integer numerators z of body ∩ Z^n/k, sorted and distinct: the
    ``_prefixes`` walk over all n axes, or for a flat body over the r axes
    of its chart image, each point lifted back (``_chart``) and the lifts
    sorted."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if body.is_empty:
        return []
    if not body.is_full_dim():
        period, image, origin, lift = _chart(body)
        if k % period:
            return []
        q = k // period
        return sorted(tuple(q * o + sum(map(mul, row, y)) for o, row in zip(origin, lift))
                      for y in ([()] if image is None else _numerators(image, k)))
    lo, hi, levels = _scaled_constraints(body, k)
    return _prefixes(lo, hi, levels, body.dim)


def enumerate_points(body: ConvexBody, k: int) -> PointCloud:
    """Exactly body ∩ Z^n/k, in deterministic lexicographic order."""
    return PointCloud(k, tuple(_numerators(body, k)))


def count(body: ConvexBody, k: int) -> int:
    """#(body ∩ Z^n/k) without materializing the points.

    A full-dimensional body of dimension 2 or 3 is read off its chains: a
    polygon of m edges (``_polygon_count``) takes one floor division per
    vertex and one floor sum per facet that owns a row, O(m log k), and a
    3-D body sums the totals of its slabs (``_slab_counts``), one floor sum
    per facet run of each slab, O(k (b + t log k)) for b breakpoints per
    slab, t of them ending a nonempty run.  The chains are built once, in
    O(m log m) for a polygon and O(F^2 + L F log F) for F facets and L
    vertex levels in 3-D.  A flat body of affine rank r is the
    full-dimensional body P' of its chart (``_chart``, built once per body
    in O(n^3) integer operations and one r-dimensional hull), counted the
    same way: a point is 1 or 0, an interval the range of its scaled box,
    and ranks 2 and 3 take the chains.  Only a full-dimensional 4-D body
    lists the integer prefixes of its first two axes with the walk
    ``enumerate_points`` runs over all n and counts each slab from its
    constraint lines (``_slab_sum``): one stack pass per slab and side and
    one floor sum per envelope run, after the body's pair bounds and slope
    orders are built once, in O(m^2 log m) for m constraints.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if body.is_empty:
        return 0
    if not body.is_full_dim():
        period, image, _, _ = _chart(body)
        if k % period:
            return 0
        return 1 if image is None else count(image, k)
    if body.dim == 1:
        # an interval's two halfspaces are its box
        D, ((lo, hi),), _ = _lattice_form(body)
        return max(0, (k * hi) // D - _ceil_div(k * lo, D) + 1)
    if body.dim == 2:
        return _polygon_count(body, k)
    if body.dim == 3:
        return sum(_slab_counts(body, k).values())
    return _slab_sum(body, *_scaled_constraints(body, k))


def slab_bound(body: ConvexBody, k: int) -> int:
    """Upper bound on the 2-D slabs ``count(body, k)`` sums, known before any
    counting, at least 1 and non-decreasing in k: floor(k w) + 1 for each of
    all but the last two axes, w the width of the body whose slabs ``count``
    walks, the body itself or the chart image P' of a flat body (``_chart``)
    (1 for n <= 2 and for a point)."""
    if not body.is_full_dim():
        body = _chart(body)[1]
        if body is None:
            return 1
    D, box, _ = _lattice_form(body)
    return prod((k * (hi - lo)) // D + 1 for lo, hi in box[:-2])


def prefix_bound(body: ConvexBody, k: int) -> int:
    """Upper bound on the integer prefixes ``enumerate_points(body, k)`` walks
    before its last axis, known before any walking: the integer points of
    the bounding box of k*body on its first j axes, summed over j < n (0 for
    n = 1), taken on the chart image P' of a flat body (``_chart``), whose
    prefixes the enumeration walks (0 for a point).  A long body too thin to
    hold many points still has many prefixes."""
    if not body.is_full_dim():
        body = _chart(body)[1]
        if body is None:
            return 0
    lo, hi, _ = _scaled_constraints(body, k)
    return sum(accumulate((max(0, h - l + 1) for l, h in zip(lo[:-1], hi[:-1])), mul))


def _enumerated_concave_sum(body: ConvexBody, g: ConcavePL, k: int) -> int:
    """The sum of the integer scores k L G(z/k) (``ConcavePL.scaled_values``)
    over the numerators of the lattice walk (``_numerators``: no
    ``PointCloud``, no sort), raising ValueError at the first negative
    score with its point: the sum of every body the chains do not serve,
    and the oracle of ``_chain_concave_sum``."""
    points = _numerators(body, k)
    scores = g.scaled_values(points, k)
    if scores and min(scores) < 0:
        z = next(z for z, score in zip(points, scores) if score < 0)
        x = tuple(Fraction(c, k) for c in z)
        raise ValueError(f"concave transform is negative at lattice point {x}")
    return sum(scores)


def concave_sum(body: ConvexBody, g: ConcavePL, k: int) -> Fraction:
    """(1/k^n) * sum of g over body ∩ Z^n/k; g must be nonnegative there.

    Sums the exact integer scores k L g(z/k) and divides once by L k^(n+1).
    A full-dimensional polygon is summed off the chains that ``count``
    reads, column by column with no point listed (``_chain_concave_sum``).
    Other bodies walk their lattice points (``_enumerated_concave_sum``),
    and so does a polygon with a negative score, to name the first negative
    point.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    total = None
    if body.dim == 2 and body.is_full_dim():
        total = _chain_concave_sum(body, g, k)
    if total is None:
        total = _enumerated_concave_sum(body, g, k)
    return Fraction(total, g.integer_form[0] * k ** (body.dim + 1))


def analytic_count_constant(body: ConvexBody) -> Fraction:
    """Certified C with count(body + x, l) >= (1 - C/l)|body| l^n for every shift x.

    C = n^{3/2} / (2 r) where r is the certified Chebyshev radius lower bound;
    rounding the square root up only increases C, keeping the bound valid.
    """
    n = body.dim
    _, r_lb = chebyshev_ball(body)
    return Fraction(n) * sqrt_upper_bound(Fraction(n)) / (2 * r_lb)
