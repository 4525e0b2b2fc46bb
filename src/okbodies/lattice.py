"""Enumeration and counting of scaled-lattice points Z^n/k in rational polytopes.

The scanner clears all denominators once per body/k pair and then works in pure
integer arithmetic: a point z/k (z integral) satisfies a.x <= b iff
a.z <= floor(k*b), since a is a primitive integer normal. Slabs are visited in
lexicographic order, so enumeration output is deterministic and sorted.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .geometry import ConcavePL, ConvexBody, chebyshev_ball, sqrt_upper_bound, volume


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

    def to_json(self) -> dict:
        return {"k": self.denominator, "points": [list(z) for z in self.points]}

    @staticmethod
    def from_json(data: dict) -> "PointCloud":
        return PointCloud(int(data["k"]), tuple(tuple(int(c) for c in z) for z in data["points"]))


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def _scaled_constraints(body: ConvexBody, k: int):
    """Integer constraints a.z <= c for z in k*body, grouped by last active axis."""
    n = body.dim
    box = body.bounding_box()
    lo = [_ceil_div(k * b.numerator, b.denominator) for b, _ in box]
    hi = [(k * b.numerator) // b.denominator for _, b in box]
    levels: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(n)]
    for h in body.halfspaces:
        c = (k * h.offset.numerator) // h.offset.denominator
        level = max(i for i, a in enumerate(h.normal) if a != 0)
        levels[level].append((h.normal, c))
    return lo, hi, levels


def _scan(body: ConvexBody, k: int, collect: bool):
    """Core slab scan. Returns (count, points or None)."""
    if body.is_empty:
        return 0, [] if collect else None
    n = body.dim
    lo, hi, levels = _scaled_constraints(body, k)
    points: list[tuple[int, ...]] = []
    prefix = [0] * n
    total = 0

    def bounds_at(level: int) -> tuple[int, int]:
        lo_j, hi_j = lo[level], hi[level]
        for a, c in levels[level]:
            rest = c - sum(a[i] * prefix[i] for i in range(level) if a[i])
            aj = a[level]
            if aj > 0:
                hi_j = min(hi_j, rest // aj)
            else:
                # a_j z <= rest with a_j < 0  <=>  z >= ceil(rest / a_j)
                lo_j = max(lo_j, -(rest // -aj))
        return lo_j, hi_j

    def rec(level: int):
        nonlocal total
        lo_j, hi_j = bounds_at(level)
        if lo_j > hi_j:
            return
        if level == n - 1:
            if collect:
                base = tuple(prefix[:level])
                for z in range(lo_j, hi_j + 1):
                    points.append(base + (z,))
            total += hi_j - lo_j + 1
            return
        for z in range(lo_j, hi_j + 1):
            prefix[level] = z
            rec(level + 1)

    rec(0)
    return total, points if collect else None


def enumerate_points(body: ConvexBody, k: int) -> PointCloud:
    """Exactly body ∩ Z^n/k, in deterministic lexicographic order."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    _, pts = _scan(body, k, collect=True)
    return PointCloud(k, tuple(pts))


def count(body: ConvexBody, k: int) -> int:
    """#(body ∩ Z^n/k) via per-slab interval arithmetic (no materialization)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    total, _ = _scan(body, k, collect=False)
    return total


def discrepancy(body: ConvexBody, k: int) -> Fraction:
    """Signed Ehrhart discrepancy count(body,k) - |body| k^n, exact."""
    return count(body, k) - volume(body) * Fraction(k) ** body.dim


def concave_sum(body: ConvexBody, g: ConcavePL, k: int) -> Fraction:
    """(1/k^n) * sum of g over body ∩ Z^n/k; g must be nonnegative there.

    Sums the exact integer scores k L g(z/k) of ``ConcavePL.scaled_values``
    (no sort needed) and divides once by L k^(n+1).
    """
    points = enumerate_points(body, k).points
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
