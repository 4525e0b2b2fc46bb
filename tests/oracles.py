"""Fraction linear-algebra oracles shared by the test modules.

``oracle_row_reduce`` is Gauss-Jordan over Q and ``oracle_nullspace`` reads a
primitive nullspace basis from it: the slow paths that the library's integer
``_int_reduce`` and ``_nullspace`` are checked against.
"""

from fractions import Fraction

from okbodies.geometry import _primitive


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
