"""Enumeration and counting of scaled-lattice points Z^n/k in rational polytopes.

Denominators are cleared once per body (``_lattice_form``, cached on the
body) and the rest is pure integer arithmetic.  Per call only the k-scaling
runs, one floor division per bound: a point z/k (z integral) satisfies
a.x <= b iff a.z <= floor(k*b), since a is a primitive integer normal.  Both
queries list integer prefixes axis by axis in lexicographic order
(``_prefixes``), so enumeration output is deterministic and sorted.
``enumerate_points`` runs that walk over all n axes; ``count`` stops two axes
early and counts each 2-D slab in closed form with the Euclid-like
``floor_sum`` recurrence (Beck & Robins, *Computing the Continuous
Discretely*), so its cost grows like log k, not k, in the last two axes.

A slab's rows are empty outside the x-range where every (upper, lower) pair
of its y-lines allows a row.  For n >= 3 these pair bounds, the x-box and the
constraints on x are built once per body (``_slab_form``) and set up once per
level: a bound free of x narrows the ranges of the outer axes once, and the
others become lines over the last outer axis, of which only the upper
envelope of the lower bounds on x and the lower envelope of the upper ones
can bind (``_envelope_runs``), so each slab evaluates one bound per side.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .geometry import (ConcavePL, ConvexBody, GeometryError, chebyshev_ball, sqrt_upper_bound,
                       volume)


@dataclass(frozen=True)
class PointCloud:
    """Finite subset of Z^n/k stored as integer numerator vectors over a shared k."""

    denominator: int
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("denominator must be a positive integer")
        object.__setattr__(self, "points", tuple(sorted(set(self.points))))

    def __len__(self):
        return len(self.points)

    def __contains__(self, z):
        z = tuple(z)
        i = bisect_left(self.points, z)  # points are sorted in __post_init__
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
    """sum_{0 <= i < n} floor((a i + b) / m) for m > 0 and any integers a, b.

    The Euclid-like recurrence: split off the integer parts of a/m and b/m,
    then count the points under the remaining line from the other axis, which
    swaps a and m.  O(log m) steps on exact Python ints.
    """
    total = 0
    while n > 0:
        q, a = divmod(a, m)
        total += q * (n * (n - 1) // 2)
        q, b = divmod(b, m)
        total += q * n
        top = a * n + b
        if top < m:
            break
        n, b = divmod(top, m)
        m, a = a, m
    return total


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
    return c - sum(ai * zi for ai, zi in zip(a, prefix) if ai)


def _interval(lo: int, hi: int, constraints, prefix) -> tuple[int, int]:
    """Integer range of the axis after ``prefix`` allowed by its constraints."""
    axis = len(prefix)
    for a, c in constraints:
        rest = _rest(a, c, prefix)
        aj = a[axis]
        if aj > 0:
            hi = min(hi, rest // aj)
        else:
            # a_j z <= rest with a_j < 0  <=>  z >= ceil(rest / a_j)
            lo = max(lo, -(rest // -aj))
    return lo, hi


def _prefixes(lo, hi, levels, depth: int) -> list[tuple[int, ...]]:
    """Every integer prefix (z_0, ..., z_{depth-1}) allowed by the constraints
    of its axes, in lexicographic order.  With depth = n these are the points."""
    prefixes: list[tuple[int, ...]] = [()]
    for axis in range(depth):
        grown = []
        for p in prefixes:
            lo_j, hi_j = _interval(lo[axis], hi[axis], levels[axis], p)
            grown.extend([p + (z,) for z in range(lo_j, hi_j + 1)])
        prefixes = grown
    return prefixes


def _envelope_floor_sum(lines, x0: int, x1: int) -> int:
    """sum over x0 <= x <= x1 of floor(min_j (p_j + q_j x) / r_j), all r_j > 0.

    The minimum of lines is concave, so each line is active on at most one
    run of consecutive x: walk the runs and sum each with ``_floor_sum``.
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


def _rows(upper, lower, x_lo: int, x_hi: int) -> int:
    """Points of a 2-D slab whose x-range [x_lo, x_hi] is already clipped so that
    min upper + min lower >= 0 there: row x holds floor(min upper) +
    floor(min lower) + 1 points, each envelope summed in closed form."""
    if x_lo > x_hi:
        return 0
    return (_envelope_floor_sum(upper, x_lo, x_hi)
            + _envelope_floor_sum(lower, x_lo, x_hi) + x_hi - x_lo + 1)


def _plane_count(lo, hi, levels) -> int:
    """Points of a 2-D body, one slab in closed form.

    With x the first axis and y the second, each constraint on y is a line
    (p + q x) / r with r > 0: an upper bound on y if its y-coefficient is
    positive, else an upper bound on -y.  Outside the x-interval where
    min upper + min lower >= 0 the rows are empty, so clip to it (one
    inequality per pair of lines) and sum each envelope (``_rows``).
    """
    x_lo, x_hi = _interval(lo[0], hi[0], levels[0], ())
    if x_lo > x_hi:
        return 0
    upper = [(hi[1], 0, 1)]
    lower = [(-lo[1], 0, 1)]
    for a, c in levels[1]:
        (upper if a[1] > 0 else lower).append((c, -a[0], abs(a[1])))
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
    return _rows(upper, lower, x_lo, x_hi)


def _slab_form(body: ConvexBody):
    """The k-free bounds of the 2-D slabs of a body of dimension n >= 3, cached
    next to ``_lattice_form``.  x and y are the last two axes and the outer
    axes the n - 2 before them.  A bound's right-hand side at level k is read
    off the level's scaled offsets c (built by ``_slab_sum``): c[0] = hi_x,
    c[1] = -lo_x, c[2] = hi_y, c[3] = -lo_y, then the constraints of the
    x-level and of the y-level in order.

    ``upper`` and ``lower`` are the y-lines (a, q, r, i): y <= (p + q x) / r,
    or -y <= (p + q x) / r, with p = c[i] - a.outer.  Every other bound is a
    bound s x >= A.outer - B with B = w_1 c[i_1] + w_2 c[i_2]: the x-box, each
    x-constraint, and each (upper, lower) pair of y-lines, whose rows are
    empty unless (p_u + q_u x) / r_u + (p_l + q_l x) / r_l >= 0, i.e.
    s = q_u r_l + q_l r_u, A = a_u r_l + a_l r_u and B = c_u r_l + c_l r_u.
    Only B depends on k.  The bounds are kept as (A, |s|, w_1, i_1, w_2, i_2)
    in three groups: lower bounds on x (s > 0), upper bounds on x (s < 0) and
    flat bounds (s = 0), which read A.outer <= B and bound the outer axes
    alone.
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
        bounds = [(1, zero, 1, 1, 0, 0), (-1, zero, 1, 0, 0, 0)]
        bounds += [(-a[x], a[:x], 1, 4 + j, 0, 0) for j, (a, _, _) in enumerate(levels[x])]
        bounds += [(qu * rl + ql * ru, tuple(u * rl + l * ru for u, l in zip(au, al)),
                    rl, iu, ru, il)
                   for au, qu, ru, iu in upper for al, ql, rl, il in lower]
        x_lower, x_upper, flat = [], [], []
        for s, A, *terms in bounds:
            (x_lower if s > 0 else x_upper if s < 0 else flat).append((A, abs(s), *terms))
        body._cache["slabs"] = (upper, lower, x_lower, x_upper, flat)
    return body._cache["slabs"]


def _envelope_runs(lines, w0: int, w1: int) -> list[tuple[int, int, int, int, int]]:
    """The runs (start, end, A, B, s) of max_i (A_i w - B_i) / s_i over the
    integers w0 <= w <= w1, all s_i > 0: line (A, B, s) is the maximum for
    start <= w <= end.

    The maximum of lines is convex, so each line is the maximum on at most
    one run of consecutive w.  Walk the runs as ``_envelope_floor_sum`` does;
    a line that is never the maximum has no run.
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


def _envelope_ceil(lines, w0: int, w1: int) -> list[int]:
    """[max_i ceil((A_i w - B_i) / s_i) for w0 <= w <= w1], all s_i > 0.  Ceil
    is monotone, so each w evaluates only the line of its ``_envelope_runs``
    run."""
    return [-((B - A * w) // s) for start, end, A, B, s in _envelope_runs(lines, w0, w1)
            for w in range(start, end + 1)]


def _slab_sum(body: ConvexBody, lo, hi, levels) -> int:
    """Points of a body of dimension n >= 3 at one level, as a sum of 2-D slabs.

    With the bounds of ``_slab_form`` at this level, the flat bounds join the
    constraints of the outer axes, so they narrow the outer ranges once.  Then
    for each prefix of all outer axes but the last one, w, the other bounds
    become lines in w, and the x-range of each slab is the ceil of the upper
    envelope of the lower bounds and the floor of the lower envelope of the
    upper bounds (``_envelope_ceil``): only the lines that bind are
    evaluated, one per slab and side.  Each slab is then summed in closed
    form (``_rows``).
    """
    upper, lower, x_lower, x_upper, flat = _slab_form(body)
    n = body.dim
    x, y = n - 2, n - 1
    c = [hi[x], -lo[x], hi[y], -lo[y],
         *(cj for _, cj in levels[x]), *(cj for _, cj in levels[y])]
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
        # everything but the w-term is fixed on this prefix; s x >= A w - B
        # is x >= ceil((A w - B) / s) for s > 0, x <= -ceil((A w - B) / -s) else
        x_lo = _envelope_ceil([(A[w], _rest(A, B, prefix), s) for A, B, s in x_lower],
                              w_lo, w_hi)
        x_hi = [-x1 for x1 in _envelope_ceil([(A[w], _rest(A, B, prefix), s)
                                              for A, B, s in x_upper], w_lo, w_hi)]
        up = [(_rest(a, p, prefix), a[w], q, r) for p, a, q, r in upper]
        down = [(_rest(a, p, prefix), a[w], q, r) for p, a, q, r in lower]
        for z, x0, x1 in zip(range(w_lo, w_hi + 1), x_lo, x_hi):
            if x0 <= x1:
                total += _rows([(p - a * z, q, r) for p, a, q, r in up],
                               [(p - a * z, q, r) for p, a, q, r in down], x0, x1)
    return total


def _numerators(body: ConvexBody, k: int) -> list[tuple[int, ...]]:
    """The integer numerators z of body ∩ Z^n/k, sorted and distinct: the
    ``_prefixes`` walk over all n axes."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if body.is_empty:
        return []
    lo, hi, levels = _scaled_constraints(body, k)
    return _prefixes(lo, hi, levels, body.dim)


def enumerate_points(body: ConvexBody, k: int) -> PointCloud:
    """Exactly body ∩ Z^n/k, in deterministic lexicographic order."""
    return PointCloud(k, tuple(_numerators(body, k)))


def count(body: ConvexBody, k: int) -> int:
    """#(body ∩ Z^n/k) without materializing the points.

    Lists the integer prefixes of all but the last two axes with the walk
    ``enumerate_points`` runs over all n, and counts each 2-D slab in closed
    form (``_plane_count``, ``_slab_sum``), so a 2-D count takes
    O(m^2 + m log k) for m constraints and a 3-D count O(r m^2 + k m log k),
    with r the runs of the pair-bound envelopes (the few pairs that bind).
    A 1-D body is one interval.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if body.is_empty:
        return 0
    lo, hi, levels = _scaled_constraints(body, k)
    if body.dim == 1:
        lo_j, hi_j = _interval(lo[0], hi[0], levels[0], ())
        return max(0, hi_j - lo_j + 1)
    if body.dim == 2:
        return _plane_count(lo, hi, levels)
    return _slab_sum(body, lo, hi, levels)


def slab_bound(body: ConvexBody, k: int) -> int:
    """Upper bound on the 2-D slabs ``count(body, k)`` sums, known before any
    counting: the integer points of the bounding box of k*body on all but the
    last two axes (1 for n <= 2)."""
    lo, hi, _ = _scaled_constraints(body, k)
    return prod(max(0, h - l + 1) for l, h in zip(lo[:-2], hi[:-2]))


def discrepancy(body: ConvexBody, k: int) -> Fraction:
    """Signed Ehrhart discrepancy count(body,k) - |body| k^n, exact."""
    return count(body, k) - volume(body) * Fraction(k) ** body.dim


def concave_sum(body: ConvexBody, g: ConcavePL, k: int) -> Fraction:
    """(1/k^n) * sum of g over body ∩ Z^n/k; g must be nonnegative there.

    Sums the exact integer scores k L g(z/k) of ``ConcavePL.scaled_values``
    over the numerators of the lattice walk (no ``PointCloud``, no sort) and
    divides once by L k^(n+1).
    """
    points = _numerators(body, k)
    total = 0
    for z, score in zip(points, g.scaled_values(points, k)):
        if score < 0:
            x = tuple(Fraction(c, k) for c in z)
            raise ValueError(f"concave transform is negative at lattice point {x}")
        total += score
    return Fraction(total, g.integer_form[0] * k ** (body.dim + 1))


def analytic_count_constant(body: ConvexBody, bits: int = 64) -> Fraction:
    """Certified C with count(body + x, l) >= (1 - C/l)|body| l^n for every shift x.

    C = n^{3/2} / (2 r) where r is the certified Chebyshev radius lower bound;
    rounding the square root up only increases C, keeping the bound valid.
    """
    n = body.dim
    _, r_lb = chebyshev_ball(body, bits)
    return Fraction(n) * sqrt_upper_bound(Fraction(n), bits) / (2 * r_lb)
