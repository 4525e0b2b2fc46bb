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


def _slab_count(lo, hi, levels, prefix) -> int:
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
    return (_envelope_floor_sum(upper, x_lo, x_hi)
            + _envelope_floor_sum(lower, x_lo, x_hi) + x_hi - x_lo + 1)


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
    form (``_slab_count``), so a 2-D count takes O(m^2 + m log k) for m
    constraints and a 3-D count O(k (m^2 + m log k)).  A 1-D body is one
    interval.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if body.is_empty:
        return 0
    lo, hi, levels = _scaled_constraints(body, k)
    if body.dim == 1:
        lo_j, hi_j = _interval(lo[0], hi[0], levels[0], ())
        return max(0, hi_j - lo_j + 1)
    return sum(_slab_count(lo, hi, levels, prefix)
               for prefix in _prefixes(lo, hi, levels, body.dim - 2))


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
