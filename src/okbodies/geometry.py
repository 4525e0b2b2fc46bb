"""Exact rational convex geometry.

Polytopes are kept in synchronized vertex/halfspace form over ``fractions.Fraction``.
Everything here is exact: no floats enter any computation, and all operations are
pure functions on immutable values.

Scale assumptions: ambient dimension n <= 4 and at most a few hundred vertices.

Every body has an integer vertex form (D, Z): the least common denominator D
of its vertices and their integer numerator rows, vertices[i] = Z[i] / D.
The exact constructors run on integer rows: ``hull`` clears the denominators
of its points once, and builds every full-dimensional hull from the sorted,
distinct rows: by Andrew's monotone chain for polygons (n = 2), and by one
incremental beneath-beyond hull in exact integers in every other dimension
n >= 1, and for a flat cloud's projection by its rank.  ``intersect_halfspace``
forms its crossing points as integer rows from the parent's (D, Z),
``scale_translate`` maps them to the rows lam Z / D + shift, and
``minkowski_cube`` hulls the rows of the vertex + corner sums.  Every body
comes with its (D, Z), affine rank and vertex-facet incidence already
cached: the exact constructors seed them (``_primed``) and build their
Fraction vertex tuples on the first read of ``vertices``, and
``ConvexBody(...)``, left to ``empty_body`` and hand-built bodies, computes
them from its vertices and halfspaces.  Tight sets, the sign tests and
crossings of clipping, and affine ranks read (D, Z), so they compare and
eliminate exact ints instead of summing Fractions; a clip that cuts a body
reads its tight sets, rank and equalities off the parent's instead.

``_int_reduce``, a fraction-free Gauss-Jordan on integer rows, is the
Gaussian elimination of this module: every rank, pivot set and nullspace
here reads it, except the facet normals of ``_hull_full``, which are
cofactor minors over ``_det``.  Two solvers live elsewhere:
``thresholds._meet`` solves for a point by Cramer's rule over ``_det``, and
``lattice._column_reduction`` reduces integer rows by extended-gcd column
operations.
The inscribed-ball LP ``_simplex_max`` pivots a condensed fraction-free integer
dictionary the same way (one column per nonbasic variable, no slack block,
Bland's rule by variable label, one exact division per update), and volumes and
first moments sum integer determinants of Z-row differences over n! D^n:
over the fan from vertex 0 for a polygon, else over a pulling triangulation.

Face structure is read from one cached vertex-facet incidence per body: for
each halfspace, the set of vertex indices tight on it.  The facets of a face F
are the maximal proper nonempty sets among F & t over the incidence sets t,
and two vertices span an edge iff the smallest face holding both (the
intersection of the incidence sets that hold both) has exactly two vertices.
Triangulation, clipping and facet filtering all work on these index sets.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, isqrt, lcm
from operator import add, itemgetter, mul, neg, sub
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]


class GeometryError(ValueError):
    """Base class for geometric failures."""


class DimensionMismatch(GeometryError):
    pass


class DegenerateBody(GeometryError):
    """Raised when an operation requires a full-dimensional body."""


# ---------------------------------------------------------------------------
# rational scalars and vectors
# ---------------------------------------------------------------------------

def rat(x) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, or Fractions to an exact rational.

    A string must be ``p`` or ``p/q`` in ASCII digits, with an optional minus
    sign on p: ``int`` alone would also read spaces, "+", "_" and non-ASCII
    digits."""
    if isinstance(x, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not re.fullmatch("-?[0-9]+(/[0-9]+)?", x):
            raise ValueError(f"{x!r} is not a rational p or p/q")
        num, _, den = x.partition("/")
        d = read_int(den or "1")
        if d == 0:
            raise ValueError(f"zero denominator in rational {x!r}")
        return Fraction(read_int(num), d)
    if isinstance(x, float):
        raise TypeError("floats are not allowed in the exact geometry kernel")
    return Fraction(x)


def json_int(x, what: str) -> int:
    """An integer read from JSON, exactly: booleans, floats and strings raise
    ValueError, so ``int()`` never truncates ``1.9`` or turns ``true`` into 1."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} {x!r} is not an integer")
    return x


def json_array(x, what: str) -> Sequence:
    """An array read from JSON: a string, object, number, boolean or null
    raises ValueError, so a string such as ``"30"`` is never read as the
    sequence of its characters."""
    if not isinstance(x, (list, tuple)):
        raise ValueError(f"{what} {x!r} is not a JSON array")
    return x


MAX_INPUT_DIGITS = 4300  # per input integer: the interpreter's default int/str limit
_STR_BOUND = 10 ** 640  # 640 digits pass any int/str limit an interpreter can be set to


def read_int(text: str) -> int:
    """The int of a decimal string, an optional minus sign and digits, of at
    most MAX_INPUT_DIGITS digits; a longer one raises ValueError."""
    digits = len(text) - text.startswith("-")
    if digits > MAX_INPUT_DIGITS:
        raise ValueError(f"an input integer has {digits} digits, "
                         f"more than the limit of {MAX_INPUT_DIGITS}")
    return int(text)


def _int_str(n: int) -> str:
    """The decimal digits of n at any size: ``str`` below ``_STR_BOUND``,
    else n >= 0 split as hi 10^e + lo for the least e = 640 * 2^j with n <
    10^(2e), and lo zero-padded to e digits."""
    if -_STR_BOUND < n < _STR_BOUND:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    e = 640
    while n >= 10 ** (2 * e):
        e *= 2
    hi, lo = divmod(n, 10 ** e)
    return _int_str(hi) + _int_str(lo).zfill(e)


def rat_str(q: Fraction) -> str:
    """Serialize a rational as ``"p/q"`` (or ``"p"`` when integral), every
    digit at any size (``_int_str``)."""
    q = Fraction(q)
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:  # past the interpreter's limit on int/str conversion
        p = _int_str(q.numerator)
        return p if q.denominator == 1 else f"{p}/{_int_str(q.denominator)}"


def _dot(a: Sequence, b: Sequence) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _primitive(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector (same direction)."""
    denl = 1
    for c in vec:
        denl = denl * c.denominator // gcd(denl, c.denominator)
    ints = [int(c * denl) for c in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g == 0:
        raise GeometryError("zero vector has no primitive form")
    return tuple(v // g for v in ints)


def sqrt_upper_bound(q: Fraction) -> Fraction:
    """Smallest representable rational upper bound on sqrt(q) at 2^-64 precision.

    Exact whenever q is the square of a rational; otherwise overshoots by
    less than 2^-64 / q.denominator.
    """
    if q < 0:
        raise ValueError("negative radicand")
    num, den = q.numerator, q.denominator
    m = num * den << 128
    r = isqrt(m)
    if r * r < m:
        r += 1
    return Fraction(r, den << 64)


def _int_reduce(rows: Sequence[Sequence[int]]) -> tuple[int, list[int], list[list[int]], int]:
    """Fraction-free (Bareiss) Gauss-Jordan on integer rows.

    Returns (rank, pivot columns, reduced rows, d) with d > 0 and every reduced
    row d times the matching row of the reduced row echelon form over Q.  Each
    update (p x - f y) // d divides exactly by the previous pivot d, so the
    entries stay minors of the input and never become Fractions.
    """
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    d = 1
    for col in range(len(mat[0]) if mat else 0):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        p = top[col]
        for r, row in enumerate(mat):
            if r != rank:
                f = row[col]
                mat[r] = [(p * x - f * y) // d for x, y in zip(row, top)]
        d = p
        pivots.append(col)
        if len(pivots) == len(mat):
            break
    red = mat[:len(pivots)]
    if d < 0:
        d, red = -d, [[-x for x in r] for r in red]
    return len(pivots), pivots, red, d


def _int_form(vertices: Sequence[Vec]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, Z): the least common denominator D of every coordinate and the
    integer numerator rows Z, so that vertices[i] == Z[i] / D."""
    D = lcm(*(c.denominator for v in vertices for c in v))
    return D, tuple(tuple(c.numerator * (D // c.denominator) for c in v) for v in vertices)


def _affine_rank(Z: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Affine rank of integer rows (-1 for none) and the pivot coordinates of
    their direction space, by _int_reduce on differences."""
    if not Z:
        return -1, []
    rank, pivots, _, _ = _int_reduce([[x - y for x, y in zip(z, Z[0])] for z in Z[1:]])
    return rank, pivots


def _tight_set(h: HalfSpace, D: int, Z: Sequence[Sequence[int]]) -> frozenset[int]:
    """Indices of the rows z of an integer vertex form (D, Z) with h tight at z / D."""
    q = h.offset.denominator
    if D % q:
        return frozenset()  # w . z / D = p / q in lowest terms needs q | D
    target = h.offset.numerator * (D // q)
    return frozenset(i for i, z in enumerate(Z) if sum(map(mul, h.normal, z)) == target)


def _nullspace(rows: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of {w : rows @ w = 0} in R^n, for integer rows."""
    _, pivots, red, d = _int_reduce(rows)
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        w = [0] * n
        w[f] = d
        for i, p in enumerate(pivots):
            w[p] = -red[i][f]
        g = gcd(*w)
        basis.append(tuple(c // g for c in w))
    return basis


def _det(mat: Sequence[Sequence]) -> Fraction | int:
    """Exact determinant over ints and Fractions alike.  A 0x0 matrix has
    determinant 1: it is the empty cofactor of a 1-D hull's facet normal.

    Closed forms up to n = 4, where every volume and facet normal of a body
    of dimension <= 4 lands: cofactors of the first row for n = 3, and for
    n = 4 the Laplace expansion along rows 0-1, each 2x2 minor of those rows
    times the complementary 2x2 minor of rows 2-3.  Larger matrices expand
    along the first row down to n = 4.
    """
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = mat
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = mat
        return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
                - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
                + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
                + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
                - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
                + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))
    total = 0
    sign = 1
    for j in range(n):
        if mat[0][j] != 0:
            minor = [tuple(row[c] for c in range(n) if c != j) for row in mat[1:]]
            total += sign * mat[0][j] * _det(minor)
        sign = -sign
    return total


# ---------------------------------------------------------------------------
# halfspaces and affine data
# ---------------------------------------------------------------------------

class HalfSpace(tuple):
    """The set {x : normal . x <= offset}, with a primitive integer normal.

    The tuple (normal, offset), which it hashes, compares and orders as."""

    __slots__ = ()
    normal = property(itemgetter(0))
    offset = property(itemgetter(1))

    def __new__(cls, normal: tuple[int, ...], offset: Fraction) -> "HalfSpace":
        return tuple.__new__(cls, (normal, offset))

    @staticmethod
    def make(normal: Sequence, offset) -> "HalfSpace":
        normal = [rat(c) for c in normal]
        if all(c == 0 for c in normal):
            raise GeometryError("halfspace normal must be nonzero")
        prim = _primitive(normal)
        # offset rescales by the same positive factor normal was divided by
        idx = next(i for i, c in enumerate(prim) if c != 0)
        scale = Fraction(prim[idx]) / normal[idx]
        return HalfSpace(prim, rat(offset) * scale)

    def value(self, p: Vec) -> Fraction:
        return _dot(self.normal, p)

    def contains(self, p: Vec) -> bool:
        return self.value(p) <= self.offset

    def is_tight(self, p: Vec) -> bool:
        return self.value(p) == self.offset

    def flipped(self) -> "HalfSpace":
        return HalfSpace(tuple(-c for c in self.normal), -self.offset)


class AffineFunctional(tuple):
    """x |-> gradient . x + constant, the tuple (gradient, constant)."""

    __slots__ = ()
    gradient = property(itemgetter(0))
    constant = property(itemgetter(1))

    def __new__(cls, gradient: Vec, constant: Fraction) -> "AffineFunctional":
        return tuple.__new__(cls, (gradient, constant))

    @staticmethod
    def make(gradient: Sequence, constant=0) -> "AffineFunctional":
        return AffineFunctional(tuple(rat(c) for c in gradient), rat(constant))

    def __call__(self, p: Vec) -> Fraction:
        return _dot(self.gradient, p) + self.constant


def coordinate_projection(n: int) -> AffineFunctional:
    """The projection onto the first coordinate of R^n."""
    return AffineFunctional.make([1] + [0] * (n - 1), 0)


# ---------------------------------------------------------------------------
# convex bodies
# ---------------------------------------------------------------------------

class ConvexBody:
    """A bounded rational polytope with synchronized V- and H-representations.

    Lower-dimensional bodies are first-class values (their halfspace list then
    carries equality pairs for the affine hull); the empty body is represented
    by an empty vertex list.  Every body is primed: its integer vertex form,
    affine rank and vertex-facet incidence are cached when it is built, here
    from its vertices and halfspaces, and by ``_primed`` for the exact
    constructors, whose Fraction vertex tuples alone wait for their first read.
    """

    __slots__ = ("dim", "_vertices", "halfspaces", "_cache")

    def __init__(self, dim: int, vertices: Iterable[Vec], halfspaces: Iterable[HalfSpace]):
        self.dim = dim
        self._vertices: tuple[Vec, ...] | None = tuple(sorted(set(vertices)))
        self.halfspaces: tuple[HalfSpace, ...] = tuple(sorted(set(halfspaces)))
        for v in self._vertices:
            if len(v) != dim:
                raise DimensionMismatch(f"vertex {v} not in R^{dim}")
        D, Z = _int_form(self._vertices)
        self._cache: dict = {"int_form": (D, Z), "arank": _affine_rank(Z)[0],
                             "incidence": tuple(_tight_set(h, D, Z) for h in self.halfspaces)}

    # -- basic queries ------------------------------------------------------

    @property
    def vertices(self) -> tuple[Vec, ...]:
        """The sorted vertex tuples, built from (D, Z) if the slot is unfilled."""
        v = self._vertices
        if v is None:
            D, Z = self._cache["int_form"]
            v = self._vertices = tuple(tuple(Fraction(c, D) for c in z) for z in Z)
        return v

    @property
    def is_empty(self) -> bool:
        return not self._cache["int_form"][1]

    def int_form(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The integer vertex form (D, Z) of ``_int_form``, cached when the
        body is built."""
        return self._cache["int_form"]

    def affine_rank(self) -> int:
        return self._cache["arank"]

    def is_full_dim(self) -> bool:
        return self.affine_rank() == self.dim

    def contains(self, p: Vec) -> bool:
        if len(p) != self.dim:
            raise DimensionMismatch(f"point {p} not in R^{self.dim}")
        if self.is_empty:
            return False
        return all(h.contains(p) for h in self.halfspaces)

    def incidence(self) -> tuple[frozenset[int], ...]:
        """For each halfspace, the indices of the vertices tight on it."""
        return self._cache["incidence"]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConvexBody)
            and self.dim == other.dim
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.dim, self.vertices))

    def __repr__(self):
        if self.is_empty:
            return f"ConvexBody(dim={self.dim}, empty)"
        return (
            f"ConvexBody(dim={self.dim}, vertices={len(self.int_form()[1])}, "
            f"halfspaces={len(self.halfspaces)})"
        )


def empty_body(dim: int) -> ConvexBody:
    return ConvexBody(dim, (), ())


# ---------------------------------------------------------------------------
# hull construction
# ---------------------------------------------------------------------------

def hull(points: Sequence[Sequence]) -> ConvexBody:
    """Convex hull of rational points, with both representations synchronized.

    The returned vertex list is irredundant (a subset of the input points), and
    every halfspace is a facet of the hull inside its affine span; for
    lower-dimensional hulls the affine-span equalities are included as
    opposite halfspace pairs.  The body's incidence, integer vertex form and
    affine rank come already cached.

    The points are coerced, scaled once to integer rows over one common
    denominator D, de-duplicated and sorted as rows (for D > 0 the row order is
    the Fraction order) and handed to ``_hull_rows``: a monotone chain in the
    plane, the beneath-beyond hull in every other dimension.  Its vertex
    tuples are built on first read (``_primed``).
    """
    if not points:
        raise GeometryError("hull of an empty point set")
    pts = [tuple(rat(c) for c in p) for p in points]
    n = len(pts[0])
    if n == 0:
        raise GeometryError("hull of zero-dimensional points")
    for p in pts:
        if len(p) != n:
            raise DimensionMismatch("points of mixed dimension")
    D, Z = _int_form(pts)
    return _hull_rows(D, sorted(set(Z)), n)


def _hull_rows(D: int, Z: Sequence[tuple[int, ...]], n: int) -> ConvexBody:
    """Hull of the points Z / D, for D > 0 and sorted, distinct integer rows Z
    in R^n, by their affine rank r: ``_hull_full`` if r = n, else the hull of
    their projection onto the pivot coordinates of their direction space
    (``_polygon`` for r = 2, else ``_hull_full``), lifted back, plus the
    affine-hull equalities.

    For n = 2 the monotone chain (``_chain``) runs first, with no rank test:
    a ring of three or more vertices is the polygon (``_polygon``), and a
    shorter one means the rows are collinear."""
    if n == 2 and len(ring := _chain(Z)) > 2:
        return _polygon(D, Z, ring)
    rank, pivots = _affine_rank(Z)
    if rank == n:
        return _hull_full(D, Z, n)
    equalities = _affine_equalities(D, Z, n)
    if not pivots:
        return _primed(n, D, Z[:1], [(h, frozenset({0})) for h in equalities], 0)
    back = {tuple(z[j] for j in pivots): z for z in Z}
    P = sorted(back)
    inner = _polygon(D, P, _chain(P)) if rank == 2 else _hull_full(D, P, rank)
    d, rows = inner.int_form()
    scale = D // d  # the inner rows are over a divisor d of D
    lifted = [back[tuple(scale * c for c in z)] for z in rows]
    vertices = sorted(lifted)
    index = {z: i for i, z in enumerate(vertices)}
    tight = dict.fromkeys(equalities, frozenset(range(len(vertices))))
    for h, t in zip(inner.halfspaces, inner.incidence()):
        normal = [0] * n
        for coeff, j in zip(h.normal, pivots):
            normal[j] = coeff
        tight[HalfSpace(tuple(normal), h.offset)] = frozenset(index[lifted[i]] for i in t)
    return _primed(n, D, vertices, tight.items(), rank)


def _affine_equalities(D: int, Z: Sequence[Sequence[int]], n: int) -> list[HalfSpace]:
    """Opposite halfspace pairs cutting out the affine hull of the points of an
    integer vertex form (D, Z) (none if it is R^n)."""
    base = Z[0]
    equalities = []
    for w in _nullspace([[x - y for x, y in zip(z, base)] for z in Z[1:]], n):
        hs = HalfSpace(w, Fraction(sum(map(mul, w, base)), D))
        equalities.extend([hs, hs.flipped()])
    return equalities


def _maximal(sets: set[frozenset[int]]) -> set[frozenset[int]]:
    """The members of a family of sets that lie in no other member.

    Largest first: a set inside another member lies inside a maximal one,
    which is larger and already kept, so each set is compared with the kept
    sets only."""
    kept: list[frozenset[int]] = []
    for s in sorted(sets, key=len, reverse=True):
        if not any(s < t for t in kept):
            kept.append(s)
    return set(kept)


def _primed(n: int, D: int, Z: Sequence[tuple[int, ...]],
            tight: Iterable[tuple[HalfSpace, frozenset[int]]], rank: int) -> ConvexBody:
    """The body on the vertices Z / D (D > 0, sorted, distinct integer rows of
    affine rank ``rank``) and the distinct halfspaces of ``tight``, pairs
    (halfspace, tight row indices).

    Its caches are seeded: the incidence from ``tight``, the affine rank, and
    the integer vertex form, (D, Z) divided by gcd(D, every entry), which is
    ``_int_form`` of the vertices.  No Fraction is built here: the vertex
    slot stays unfilled until ``ConvexBody.vertices`` is first read.  The
    rows are already sorted and distinct, and for D > 0 the row order is the
    Fraction order, so ``ConvexBody.__init__``'s sort is skipped.
    """
    g = gcd(D, *itertools.chain.from_iterable(Z))
    if g > 1:
        D, Z = D // g, [tuple(c // g for c in z) for z in Z]
    body = object.__new__(ConvexBody)
    body.dim = n
    body._vertices = None
    pairs = sorted(tight, key=itemgetter(0))
    body.halfspaces = tuple(h for h, _ in pairs)
    body._cache = {"int_form": (D, tuple(Z)), "arank": rank,
                   "incidence": tuple(t for _, t in pairs)}
    return body


def _chain(P: Sequence[tuple[int, ...]]) -> list[int]:
    """Andrew's monotone chain (A. M. Andrew, Inf. Proc. Letters 9, 1979) on
    sorted, distinct 2-D integer rows P: the indices of their hull's
    vertices, a counter-clockwise ring from P[0].

    The lower and the upper chain each pop their last index while it makes
    no left turn (an integer cross product <= 0), so a point inside an edge
    is no vertex.  Fewer than three indices means the rows are collinear."""
    def half(order: Iterable[int]) -> list[int]:
        out: list[int] = []
        for i in order:
            x, y = P[i]
            while len(out) > 1:
                ax, ay = P[out[-2]]
                bx, by = P[out[-1]]
                if (bx - ax) * (y - ay) > (by - ay) * (x - ax):
                    break
                out.pop()
            out.append(i)
        return out

    return half(range(len(P)))[:-1] + half(reversed(range(len(P))))[:-1]


def _polygon(D: int, P: Sequence[tuple[int, ...]], ring: list[int]) -> ConvexBody:
    """The polygon over D > 0 on the counter-clockwise ring of at least three
    indices into the sorted, distinct rows P (``_chain``).  An edge from a
    to b, with (dx, dy) = P[b] - P[a], is the facet with the primitive
    outward normal (dy, -dx) / gcd(dx, dy) and the tight set {a, b}: the
    facet the beneath-beyond hull merges there."""
    order = sorted(ring)  # row order, as P is sorted
    index = {i: k for k, i in enumerate(order)}
    tight = []
    for a, b in zip(ring, ring[1:] + ring[:1]):
        ax, ay = P[a]
        bx, by = P[b]
        g = gcd(bx - ax, by - ay)
        wx, wy = (by - ay) // g, (ax - bx) // g
        tight.append((HalfSpace((wx, wy), Fraction(wx * ax + wy * ay, D)),
                      frozenset((index[a], index[b]))))
    return _primed(2, D, [P[i] for i in order], tight, 2)


def _hull_full(D: int, P: Sequence[tuple[int, ...]], n: int) -> ConvexBody:
    """The beneath-beyond hull of the points P / D, for D > 0 and sorted,
    distinct integer rows P that affinely span R^n, in exact integers.
    ``_hull_rows`` calls it for every n >= 1 but 2, where the monotone chain
    (``_chain``, ``_polygon``) gives the same body.

    It starts as the simplex on the first n + 1 affinely independent rows
    and takes the rest in sorted order.  Each simplicial facet keeps an
    outward integer normal w and offset b (w . z <= b); a new point replaces
    the facets it lies strictly beyond (a coplanar point is beneath) by the
    cone from it over the horizon, the ridges of exactly one replaced facet.
    Every later row lies outside the hull so far, so its horizon is never
    empty.
    Coplanar simplices are then merged by their primitive normal.  A point of
    a boundary simplex is a vertex iff the normals of the facets tight at it
    have rank n, so one on fewer than n facets is none.  Every (n-2)-face of
    an n-polytope lies on exactly two facets, and a facet's relative interior
    on one, so for n <= 3 a boundary point that is no vertex lies on at most
    n - 1 facets: there n tight facets make a vertex, and only n >= 4 (where
    an edge can lie on n facets) needs the rank.  The vertex rows stay
    integers (``_primed``).
    """
    seed = [0]
    for i in range(1, len(P)):
        rows = [[x - y for x, y in zip(P[j], P[0])] for j in seed[1:] + [i]]
        if _int_reduce(rows)[0] == len(seed):
            seed.append(i)
            if len(seed) == n + 1:
                break
    # (n + 1) times the centroid of the seed simplex, strictly inside every hull
    inner = [sum(c) for c in zip(*(P[i] for i in seed))]

    def facet(verts: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        base = P[verts[0]]
        rows = [[x - y for x, y in zip(P[v], base)] for v in verts[1:]]
        w = tuple((-1) ** j * _det([r[:j] + r[j + 1:] for r in rows]) for j in range(n))
        b = sum(map(mul, w, base))
        if sum(map(mul, w, inner)) > (n + 1) * b:
            w, b = tuple(-c for c in w), -b
        return verts, w, b

    facets = [facet(verts) for verts in itertools.combinations(seed, n)]
    for i in sorted(set(range(len(P))) - set(seed)):
        p = P[i]
        beneath, visible = [], []
        for f in facets:
            (visible if sum(map(mul, f[1], p)) > f[2] else beneath).append(f)
        ridges: dict[tuple[int, ...], int] = {}
        for verts, _, _ in visible:
            for r in itertools.combinations(verts, n - 1):
                ridges[r] = ridges.get(r, 0) + 1
        horizon = [r for r, seen in ridges.items() if seen == 1]
        facets = beneath + [facet(tuple(sorted(r + (i,)))) for r in horizon]

    merged: dict[tuple[int, ...], int] = {}
    for _, w, b in facets:
        g = gcd(*w)
        merged[tuple(c // g for c in w)] = b // g
    tight_at: dict[tuple[int, ...], list[int]] = {w: [] for w in merged}
    vertices: list[tuple[int, ...]] = []
    for i in sorted({v for verts, _, _ in facets for v in verts}):
        tight = [w for w, b in merged.items() if sum(map(mul, w, P[i])) == b]
        if len(tight) >= n and (n <= 3 or _int_reduce(tight)[0] == n):
            for w in tight:
                tight_at[w].append(len(vertices))
            vertices.append(P[i])
    return _primed(n, D, vertices, [(HalfSpace(w, Fraction(b, D)), frozenset(tight_at[w]))
                                    for w, b in merged.items()], n)


# ---------------------------------------------------------------------------
# clipping and derived bodies
# ---------------------------------------------------------------------------

def intersect_halfspace(body: ConvexBody, hs: HalfSpace) -> ConvexBody:
    """Exact intersection of a body with a halfspace; may return an empty body.

    Works on the body's integer vertex form (D, Z): with s_i the scaled value
    of hs at z_i, the crossing on an edge (i, j) is
    (s_j z_i - s_i z_j) / (D (s_j - s_i)), so every new vertex is an integer
    row over D times the lcm of the reduced crossing denominators and never
    becomes a Fraction on the way.

    When hs cuts the body (some s_i < 0 < some s_j), the tight sets of the
    result are read off the parent's incidence, with no dot product: a parent
    halfspace is tight at a kept vertex iff it was tight there, and at the
    crossing on (i, j) iff it is tight at both ends; hs is tight at every
    crossing and every vertex with s_i = 0.  The facets are the candidates
    whose tight sets are maximal among the proper, nonempty ones.  The
    relatively open part {s < 0} of the body is nonempty, so the result keeps
    the parent's affine hull and rank r, and its candidates tight at every
    new vertex are the parent's equalities (hs misses a vertex with s < 0,
    and a facet holding the cut would drop its rank).  An edge of the parent
    lies on at least r - 1 of its facets, all of which are among its
    halfspaces, so only vertex pairs that share r - 1 halfspaces are tested
    for an edge.
    """
    if len(hs.normal) != body.dim:
        raise DimensionMismatch("halfspace dimension differs from body dimension")
    if body.is_empty:
        return body
    D, Z = body.int_form()
    q, target = hs.offset.denominator, D * hs.offset.numerator
    # the sign of hs.value(v) - hs.offset, scaled by D q > 0
    vals = [q * sum(map(mul, hs.normal, z)) - target for z in Z]
    if all(s <= 0 for s in vals):
        return body
    if all(s >= 0 for s in vals):
        on = [z for z, s in zip(Z, vals) if s == 0]
        if not on:
            return empty_body(body.dim)
        return _hull_rows(D, on, body.dim)
    n, rank = body.dim, body.affine_rank()
    outside = [j for j, s in enumerate(vals) if s > 0]
    incidence = body.incidence()
    at: list[list[int]] = [[] for _ in Z]  # the halfspaces tight at each vertex
    mask = [0] * len(Z)  # the same, as bit masks
    for h, t in enumerate(incidence):
        for i in t:
            at[i].append(h)
            mask[i] |= 1 << h
    everything = frozenset(range(len(vals)))
    # each new vertex: (numerator row, its denominator over D, the parent
    # halfspaces tight at it, whether hs is tight at it)
    new: list[tuple[tuple[int, ...], int, list[int], bool]] = []
    for i, si in enumerate(vals):
        if si > 0:
            continue
        new.append((Z[i], 1, at[i], si == 0))
        if si == 0:
            continue
        for j in outside:
            if (mask[i] & mask[j]).bit_count() < rank - 1:
                continue  # an edge lies on at least rank - 1 facets
            common = [h for h in at[i] if j in incidence[h]]
            # an edge iff the smallest face holding both ends has two vertices
            if len(everything.intersection(*(incidence[h] for h in common))) != 2:
                continue
            # z_i / D + lam (z_j - z_i) / D with lam = -s_i / (s_j - s_i)
            sj = vals[j]
            num = [a * sj - b * si for a, b in zip(Z[i], Z[j])]
            g = gcd(sj - si, *num)
            new.append((tuple(c // g for c in num), (sj - si) // g, common, True))
    L = lcm(*(den for _, den, _, _ in new))
    rows = sorted((tuple(L // den * c for c in z), tight, on) for z, den, tight, on in new)
    tight_sets: list[list[int]] = [[] for _ in incidence]
    on_hs = []
    for idx, (_, tight, on) in enumerate(rows):
        for h in tight:
            tight_sets[h].append(idx)
        if on:
            on_hs.append(idx)
    candidates = [*zip(body.halfspaces, map(frozenset, tight_sets)), (hs, frozenset(on_hs))]
    kept = _maximal({t for _, t in candidates if 0 < len(t) < len(rows)})
    kept.add(frozenset(range(len(rows))))  # the equalities
    return _primed(n, D * L, [z for z, _, _ in rows],
                   [(h, t) for h, t in candidates if t in kept], rank)


def scale_translate(body: ConvexBody, lam, shift: Sequence = None) -> ConvexBody:
    """lam * body + shift, exact; lam must be positive.

    The rows lam Z / D + shift, over E = lcm(D * den lam, the shift's
    denominators), are integers.  A positive scale and a shift keep the row
    order, every tight set and the affine rank, so the parent's incidence and
    rank seed the result (``_primed``)."""
    lam = rat(lam)
    if lam <= 0:
        raise GeometryError("scale factor must be positive")
    shift = tuple(rat(c) for c in shift) if shift is not None else (Fraction(0),) * body.dim
    if len(shift) != body.dim:
        raise DimensionMismatch("shift dimension differs from body dimension")
    if body.is_empty:
        return body
    D, Z = body.int_form()
    E = lcm(D * lam.denominator, *(c.denominator for c in shift))
    f = lam.numerator * (E // (D * lam.denominator))
    offsets = [c.numerator * (E // c.denominator) for c in shift]
    rows = [tuple(f * x + o for x, o in zip(z, offsets)) for z in Z]
    tight = [(HalfSpace(h.normal, lam * h.offset + _dot(h.normal, shift)), t)
             for h, t in zip(body.halfspaces, body.incidence())]
    return _primed(body.dim, E, rows, tight, body.affine_rank())


def minkowski_cube(body: ConvexBody, eps) -> ConvexBody:
    """Minkowski sum body + [-eps, eps]^n: the hull (``_hull_rows``) of the
    vertex + corner sums, as integer rows over E = lcm(D, den eps)."""
    eps = rat(eps)
    if eps < 0:
        raise GeometryError("cube half-width must be nonnegative")
    if eps == 0 or body.is_empty:
        return body
    D, Z = body.int_form()
    E = lcm(D, eps.denominator)
    m, e = E // D, eps.numerator * (E // eps.denominator)
    corners = list(itertools.product((-e, e), repeat=body.dim))
    rows = {tuple(m * x + c for x, c in zip(z, corner)) for z in Z for corner in corners}
    return _hull_rows(E, sorted(rows), body.dim)


def superlevel(body: ConvexBody, g: "ConcavePL", t) -> ConvexBody:
    """body intersected with {g >= t}: one halfspace cut -grad . x <= c - t
    per affine piece c + grad . x.  The ccdf reads no superlevel body; this
    serves the cone counts, where G has one piece."""
    t = rat(t)
    result = body
    for piece in g.pieces:
        if not any(piece.gradient):
            if piece.constant < t:
                return empty_body(body.dim)
            continue  # constant piece >= t everywhere
        result = intersect_halfspace(
            result, HalfSpace.make([-c for c in piece.gradient], piece.constant - t))
        if result.is_empty:
            return result
    return result


# ---------------------------------------------------------------------------
# concave piecewise-affine transforms
# ---------------------------------------------------------------------------

class ConcavePL(tuple):
    """Pointwise min of affine functionals: concave by construction.  The
    tuple (pieces, domain), with a dict for its cached properties.

    The nonnegativity invariant on the domain is checked at construction
    (min of a concave function over a polytope sits at a vertex).
    """

    pieces = property(itemgetter(0))
    domain = property(itemgetter(1))

    def __new__(cls, pieces: tuple[AffineFunctional, ...], domain: ConvexBody) -> "ConcavePL":
        return tuple.__new__(cls, (pieces, domain))

    @staticmethod
    def make(pieces: Sequence[AffineFunctional], domain: ConvexBody) -> "ConcavePL":
        if not pieces:
            raise GeometryError("a concave transform needs at least one piece")
        for piece in pieces:
            if len(piece.gradient) != domain.dim:
                raise DimensionMismatch(f"gradient of length {len(piece.gradient)} "
                                        f"on a body in R^{domain.dim}")
        g = ConcavePL(tuple(pieces), domain)
        if not domain.is_empty:
            # D L G(z / D) at the vertex rows z, the minimum over D L
            D, Z = domain.int_form()
            m = min(g.scaled_values(Z, D))
            if m < 0:
                raise GeometryError(f"transform is negative on the domain "
                                    f"(min {Fraction(m, D * g.integer_form[0])})")
        return g

    def __call__(self, p: Vec) -> Fraction:
        return min(piece(p) for piece in self.pieces)

    @cached_property
    def integer_form(self) -> tuple[int, tuple[tuple[tuple[int, ...], int], ...]]:
        """(L, ((L grad_i, L c_i), ...)) in integers, with L the lcm of every
        denominator in the pieces."""
        L = lcm(*(c.denominator for f in self.pieces for c in (*f.gradient, f.constant)))
        return L, tuple((tuple(int(c * L) for c in f.gradient), int(f.constant * L))
                        for f in self.pieces)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The tuple hash of (pieces, domain), computed once: level slots and
        ``_ccdf_data`` look G up by it on every query."""
        return tuple.__hash__(self)

    def scaled_values(self, points: Sequence[Sequence[int]], k: int) -> list[int]:
        """k L G(z/k) = min_i(L grad_i . z + k L c_i) for each integer numerator
        vector z, as exact ints (L from integer_form), in the order of points.

        Scored by columns: the points are transposed once into axes, and each
        piece sums its axes in one pass.  A zero gradient entry adds nothing,
        an entry of +-1 adds or subtracts the axis itself and any other entry
        adds its multiple of the axis; k L c_i is added once.  The pieces are
        then combined by one element-wise min.
        """
        axes = list(zip(*points))
        cols = []
        for grad, c in self.integer_form[1]:
            col = None  # the sum of the axis terms so far, lazily
            for a, axis in zip(grad, axes):
                if a == 1:
                    col = axis if col is None else map(add, col, axis)
                elif a == -1:
                    col = map(neg, axis) if col is None else map(sub, col, axis)
                elif a:
                    term = map(mul, itertools.repeat(a), axis)
                    col = term if col is None else map(add, col, term)
            if col is None:
                col = itertools.repeat(k * c, len(points))
            elif c:
                col = map(add, col, itertools.repeat(k * c))
            cols.append(col)
        return list(cols[0] if len(cols) == 1 else map(min, *cols))


def first_coordinate_transform(domain: ConvexBody) -> ConcavePL:
    """The divisorial-case transform: projection onto the first coordinate."""
    return ConcavePL.make([coordinate_projection(domain.dim)], domain)


# ---------------------------------------------------------------------------
# volume, barycenter, slices
# ---------------------------------------------------------------------------

def triangulate(body: ConvexBody) -> list[tuple[int, ...]]:
    """Pulling triangulation of a full-dimensional body, as tuples of indices
    into body.vertices, in any dimension.

    Each face is coned from its smallest vertex over its facets that miss that
    vertex; faces are vertex-index sets read from the incidence, and each face
    is triangulated once.  ``_moments`` uses it for n != 2; for a polygon it
    is the fan from vertex 0, which ``_moments`` reads off the edges directly.
    """
    if not body.is_full_dim():
        raise DegenerateBody("triangulation requires a full-dimensional body")
    incidence = body.incidence()
    memo: dict[frozenset[int], list[tuple[int, ...]]] = {}

    def pull(face: frozenset[int]) -> list[tuple[int, ...]]:
        if face not in memo:
            apex = min(face)
            facets = _maximal({face & t for t in incidence} - {face, frozenset()})
            # a vertex has no facets and is its own triangulation
            memo[face] = [(apex,) + s for facet in facets if apex not in facet
                          for s in pull(facet)] or [(apex,)]
        return memo[face]

    return pull(frozenset(range(len(body.int_form()[1]))))


def _moments(body: ConvexBody) -> tuple[Fraction, Vec]:
    """(volume, integral of x) of a full-dimensional body, over one triangulation.

    With vertices Z / D (``ConvexBody.int_form``), a simplex s has volume
    w / (n! D^n) for the integer w = |det(Z[s_j] - Z[s_0])|, and its integral
    of x_i is that volume times the mean of its vertices' x_i, so both moments
    are integer sums over a common denominator.

    For n = 2 the simplices are the fan from vertex 0 over the edges, the
    tight sets of two vertices (a redundant halfspace of a body built by
    hand may be tight at one or none), with cross products for
    determinants: the triangles, and so the sums, of the pulling
    triangulation, as the two edges at vertex 0 add 0.  Every other n pulls
    (``triangulate``).
    """
    if "moments" not in body._cache:
        n = body.dim
        D, Z = body.int_form()
        dets = 0
        first = [0] * n
        if n == 2:
            x0, y0 = Z[0]
            for a, b in (t for t in body.incidence() if len(t) == 2):
                ax, ay = Z[a]
                bx, by = Z[b]
                w = abs((ax - x0) * (by - y0) - (ay - y0) * (bx - x0))
                dets += w
                first[0] += w * (x0 + ax + bx)
                first[1] += w * (y0 + ay + by)
        else:
            for s in triangulate(body):
                base = Z[s[0]]
                w = abs(_det([[x - y for x, y in zip(Z[j], base)] for j in s[1:]]))
                dets += w
                for i in range(n):
                    first[i] += w * sum(Z[j][i] for j in s)
        den = factorial(n) * D ** n
        body._cache["moments"] = (Fraction(dets, den),
                                  tuple(Fraction(c, den * (n + 1) * D) for c in first))
    return body._cache["moments"]


def volume(body: ConvexBody) -> Fraction:
    """Exact Lebesgue n-volume; 0 for empty or lower-dimensional bodies."""
    if not body.is_full_dim():
        return Fraction(0)
    return _moments(body)[0]


def barycenter(body: ConvexBody) -> Vec:
    """Exact centroid via simplex decomposition; requires positive volume."""
    if not body.is_full_dim():
        raise DegenerateBody("barycenter requires a full-dimensional body")
    vol, first = _moments(body)
    return tuple(c / vol for c in first)


def slice_volume(body: ConvexBody, f: AffineFunctional, t) -> Fraction:
    """Exact (n-1)-volume of body ∩ {f = t} in the lattice-normalized form.

    The slice hyperplane {g . x = c} (g primitive integer) carries the volume
    form for which the induced rank-(n-1) lattice has covolume 1; projecting
    out a coordinate j with g_j != 0 turns this into (Lebesgue volume of the
    projection) / |g_j|, which is exact.  A point slice of a segment has
    0-dimensional volume 1.
    """
    t = rat(t)
    if body.is_empty:
        return Fraction(0)
    plane = HalfSpace.make(f.gradient, t - f.constant)
    g = plane.normal
    idx = next(i for i, c in enumerate(g) if c != 0)
    face = _section(body, plane)
    if face.is_empty:
        return Fraction(0)
    n = body.dim
    if n == 1:
        return Fraction(1)
    if face.affine_rank() < n - 1:
        return Fraction(0)
    keep = [i for i in range(n) if i != idx]
    proj = [tuple(v[i] for i in keep) for v in face.vertices]
    return volume(hull(proj)) / abs(g[idx])


def _linearity_regions(body: ConvexBody, g: ConcavePL) -> list[tuple[AffineFunctional, ConvexBody]]:
    """(f_i, R_i) for every nonempty region R_i = body ∩ {f_i <= f_j for all j}.

    The regions cover the body and G = f_i on R_i; lower-dimensional regions
    are kept.  A duplicate piece counts once.  The subdivision is built once
    per (body, pieces) and cached on the body, so ``max_transform`` and
    ``integrate_transform`` share it.  The cut f_i <= f_j is read off
    ``g.integer_form``: normal L (grad_i - grad_j) / d, d its gcd, and offset
    L (c_j - c_i) / d, the primitive halfspace ``HalfSpace.make`` gives.
    """
    form = dict(zip(g.pieces, g.integer_form[1]))
    pieces = tuple(form)
    key = ("regions", pieces)
    if key in body._cache:
        return body._cache[key]
    regions = []
    for f_i in pieces:
        grad_i, c_i = form[f_i]
        region = body
        for f_j in pieces:
            grad_j, c_j = form[f_j]
            normal = tuple(map(sub, grad_i, grad_j))
            if any(normal):
                d = gcd(*normal)
                region = intersect_halfspace(region, HalfSpace(
                    tuple(c // d for c in normal), Fraction(c_j - c_i, d)))
            elif c_j < c_i:
                region = empty_body(body.dim)  # piece j is everywhere smaller
            if region.is_empty:
                break
        if not region.is_empty:
            regions.append((f_i, region))
    body._cache[key] = regions
    return regions


def max_transform(body: ConvexBody, g: ConcavePL) -> Fraction:
    """Exact maximum of a concave PL transform over a nonempty body.

    G is the affine piece f_i on its linearity region R_i, and the regions
    cover the body, so the maximum is the largest f_i(v) over the vertices v
    of every region.  This holds for lower-dimensional bodies too.  With
    f_i = (grad_i . x + c_i) / L in integers (``integer_form``) and a
    region's vertices z / D (``int_form``), each region's maximum is the
    largest grad_i . z + c_i D over its vertex rows, over L D; the regions
    are compared by cross-multiplication and one Fraction is built.
    """
    if body.is_empty:
        raise GeometryError("max over an empty body")
    L, forms = g.integer_form
    form = dict(zip(g.pieces, forms))
    top, den = None, 1
    for f, region in _linearity_regions(body, g):
        grad, c = form[f]
        D, Z = region.int_form()
        m = max(sum(map(mul, grad, z)) for z in Z) + c * D
        if top is None or m * den > top * D:
            top, den = m, D
    return Fraction(top, L * den)


def integrate_transform(body: ConvexBody, g: ConcavePL) -> Fraction:
    """Exact integral of a concave PL transform over a body; 0 unless the body
    is full-dimensional.

    On each full-dimensional linearity region (``_linearity_regions``) the
    integrand grad . x + c is affine, so its integral is
    grad . (integral of x) + c * volume.  Region overlaps have measure zero.
    """
    if not body.is_full_dim():
        return Fraction(0)
    total = Fraction(0)
    for f, region in _linearity_regions(body, g):
        if region.is_full_dim():
            vol, first = _moments(region)
            total += _dot(f.gradient, first) + f.constant * vol
    return total


# ---------------------------------------------------------------------------
# inscribed balls (exact rational LP)
# ---------------------------------------------------------------------------

def _simplex_max(A: list[list[Fraction]], b: list[Fraction],
                 c: list[Fraction]) -> tuple[Fraction, list[Fraction]]:
    """max c.z s.t. A z <= b, z >= 0, with b >= 0 (slack basis feasible), for
    exact rationals (ints or Fractions).

    Bland's-rule simplex on a condensed dictionary, pivoted fraction-free in
    ints as in Avis's lrs.  Labels 0..n-1 are z, n..n+m-1 the slacks; rows
    belong to basic labels, columns to nonbasic ones (no slack block).  Row i
    of [A | b] is scaled by the lcm of its denominators (scaling slack n+i),
    the objective [-c | 0] by cs, the lcm of c's: each row is then d times
    the Fraction dictionary's (cs d for the objective), d the last pivot.  A
    pivot p > 0 at (r, s) keeps row r but puts d at column s; every other
    row gets -f at column s (f its old entry) and (p x - f y) // d elsewhere,
    y row r's entry (exact, as in _int_reduce); then d = p and the labels
    swap.  Entering: the smallest label with a negative reduced cost; ratio
    ties: the smallest basic label.  Positive row and variable scales keep
    every sign and ratio order, so the pivots are the Fraction tableau's.
    """
    m, n = len(A), len(c)
    tab = []
    for i in range(m):
        row = [*A[i], b[i]]
        s = lcm(*(x.denominator for x in row))
        tab.append([x.numerator * (s // x.denominator) for x in row])
    cs = lcm(*(x.denominator for x in c))
    obj = [-x.numerator * (cs // x.denominator) for x in c] + [0]
    basis = list(range(n, n + m))  # label of the basic variable of each row
    labels = list(range(n))  # label of the nonbasic variable of each column
    d = 1
    while True:
        col = min((j for j in range(n) if obj[j] < 0), key=labels.__getitem__, default=None)
        if col is None:
            break
        # Bland: smallest ratio b_i / a_i (cross-multiplied), then smallest basic label
        piv = None
        for i, row in enumerate(tab):
            a = row[col]
            if a > 0 and (piv is None or row[-1] * pa < pb * a
                          or (row[-1] * pa == pb * a and basis[i] < basis[piv])):
                piv, pa, pb = i, a, row[-1]
        if piv is None:
            raise GeometryError("unbounded linear program")
        top = tab[piv]
        for i, row in enumerate(tab):
            if i != piv:
                f = row[col]
                tab[i] = row = [(pa * x - f * y) // d for x, y in zip(row, top)]
                row[col] = -f
        f = obj[col]
        obj = [(pa * x - f * y) // d for x, y in zip(obj, top)]
        obj[col] = -f
        top[col] = d
        d = pa
        basis[piv], labels[col] = labels[col], basis[piv]
    z = [Fraction(0)] * n
    for i, label in enumerate(basis):
        if label < n:
            z[label] = Fraction(tab[i][-1], d)
    return Fraction(obj[-1], d * cs), z


def chebyshev_ball(body: ConvexBody) -> tuple[Vec, Fraction]:
    """Certified inscribed Euclidean ball: center and a rational radius lower bound.

    Facet norms enter the LP as rational upper bounds (rounded up at 2^-64),
    so the optimal r is a lower bound on the true Chebyshev radius and the
    returned ball is guaranteed to fit inside the body.  The LP starts from the
    vertex centroid x0, read from the integer vertex form, and is solved once
    per body.  Its norm column is scaled to ints, r = S r' with S the lcm of
    the rho_i denominators (powers of two), so no row lcm holds 2^64.
    """
    if not body.is_full_dim():
        raise DegenerateBody("chebyshev_ball requires a full-dimensional body")
    if "ball" not in body._cache:
        n = body.dim
        D, Z = body.int_form()
        total = [sum(col) for col in zip(*Z)]
        den = D * len(Z)  # x0 = total / den
        norms = [sqrt_upper_bound(Fraction(sum(w * w for w in h.normal)))
                 for h in body.halfspaces]  # a full-dimensional body holds only facets
        S = max(rho.denominator for rho in norms)  # their lcm: all are powers of two
        A, rhs = [], []
        for h, rho in zip(body.halfspaces, norms):
            A.append([e for w in h.normal for e in (w, -w)]
                     + [rho.numerator * (S // rho.denominator)])
            q = h.offset.denominator  # h.offset - h.value(x0) over q den
            rhs.append(Fraction(h.offset.numerator * den - q * sum(map(mul, h.normal, total)),
                                q * den))
        radius, z = _simplex_max(A, rhs, [0] * (2 * n) + [S])  # r = S r'
        body._cache["ball"] = (tuple(Fraction(total[i], den) + z[2 * i] - z[2 * i + 1]
                                     for i in range(n)), radius)
    return body._cache["ball"]


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def _section(body: ConvexBody, hs: HalfSpace) -> ConvexBody:
    """body ∩ {hs.normal . x = hs.offset}."""
    return intersect_halfspace(intersect_halfspace(body, hs), hs.flipped())


def coordinate_slice(body: ConvexBody, value) -> ConvexBody:
    """body ∩ {x_1 = value}; may be empty."""
    return _section(body, HalfSpace((1,) + (0,) * (body.dim - 1), rat(value)))


def slice_cone(body: ConvexBody, a, b) -> ConvexBody:
    """Convex hull of the first-coordinate slices at heights a and b."""
    a, b = rat(a), rat(b)
    if body.is_empty:
        raise GeometryError("slice cone of an empty body")
    lo = min(v[0] for v in body.vertices)
    hi = max(v[0] for v in body.vertices)
    if not (lo <= a < b <= hi):
        raise GeometryError(f"need {lo} <= a < b <= {hi}, got a={a}, b={b}")
    fa = coordinate_slice(body, a)
    fb = coordinate_slice(body, b)
    return hull(list(fa.vertices) + list(fb.vertices))


def apex_cone(body: ConvexBody, a, b, apex: Sequence) -> ConvexBody:
    """Convex hull of the a-slice and an apex vertex on the b-slice."""
    a, b = rat(a), rat(b)
    apex = tuple(rat(c) for c in apex)
    if a >= b:
        raise GeometryError("need a < b")
    if not body.contains(apex):
        raise GeometryError(f"apex {apex} is not in the body")
    if apex[0] != b:
        raise GeometryError(f"apex must lie on the b-slice (p1 = {b})")
    fa = coordinate_slice(body, a)
    if fa.is_empty:
        raise GeometryError(f"the a-slice at {a} is empty")
    return hull(list(fa.vertices) + [apex])


# ---------------------------------------------------------------------------
# validation and serialization
# ---------------------------------------------------------------------------

def validate_body(body: ConvexBody) -> None:
    """Check representation sync, and the cached integer vertex form, affine
    rank and incidence against the vertices and tight sets; raises
    GeometryError on violation.  A vertex on tight normals of rank n is
    extreme, so none is redundant; only a full-dimensional body is re-hulled,
    to compare its halfspaces with the hull's facets."""
    if body.is_empty:
        return
    D, Z = _int_form(body.vertices)
    if body.int_form() != (D, Z):
        raise GeometryError("cached integer vertex form differs from the vertices")
    rank = _affine_rank(Z)[0]
    if body.affine_rank() != rank:
        raise GeometryError("cached affine rank differs from the vertices")
    n = body.dim
    for v in body.vertices:
        for h in body.halfspaces:
            if not h.contains(v):
                raise GeometryError(f"vertex {_vec_str(v)} violates halfspace {_halfspace_str(h)}")
        trank = _int_reduce([h.normal for h in body.halfspaces if h.is_tight(v)])[0]
        if trank < n:
            raise GeometryError(f"vertex {_vec_str(v)} is tight on a rank-{trank} set only")
    tight = tuple(frozenset(i for i, v in enumerate(body.vertices) if h.is_tight(v))
                  for h in body.halfspaces)
    for h, t in zip(body.halfspaces, tight):
        if not t:
            raise GeometryError(f"halfspace {_halfspace_str(h)} is tight at no vertex")
    if body.incidence() != tight:
        raise GeometryError("cached incidence differs from the tight vertex sets")
    if rank == n and set(hull(body.vertices).halfspaces) != set(body.halfspaces):
        raise GeometryError("halfspace list out of sync with the vertex hull")


def _vec_str(v: Sequence) -> str:
    """A vector as ``(p/q, ...)``, each entry by ``rat_str``."""
    return f"({', '.join(map(rat_str, v))})"


def _halfspace_str(h: HalfSpace) -> str:
    """A halfspace as ``(a, ...) . x <= b``."""
    return f"{_vec_str(h.normal)} . x <= {rat_str(h.offset)}"


def body_from_json(data: dict) -> ConvexBody:
    if "dim" not in data or "vertices" not in data:
        raise ValueError("polytope JSON needs 'dim' and 'vertices'")
    n = json_int(data["dim"], "polytope dimension")
    if not 1 <= n <= 4:
        raise ValueError(f"polytope dimension {n} is outside the supported range 1..4")
    verts = [tuple(rat(c) for c in json_array(v, "vertex"))
             for v in json_array(data["vertices"], "vertices")]
    if not verts:
        raise ValueError("polytope JSON has no vertices")
    for v in verts:
        if len(v) != n:
            raise ValueError(f"vertex {v} does not have dimension {n}")
    body = hull(verts)
    if "halfspaces" in data:
        # given halfspaces are validated against the hull, then the canonical
        # recomputed representation is kept (the schema treats them as a hint)
        given = []
        for h in json_array(data["halfspaces"], "halfspaces"):
            normal = json_array(h["normal"], "halfspace normal")
            if len(normal) != n:
                raise ValueError(f"halfspace normal {normal} does not have dimension {n}")
            given.append(HalfSpace.make([rat(c) for c in normal], rat(h["offset"])))
        for h in given:
            for v in body.vertices:
                if not h.contains(v):
                    raise ValueError("given halfspaces do not contain the hull")
    return body
