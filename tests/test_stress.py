"""Randomized cross-validation of the geometry kernel.

Random cut chains are the hardest path through the clip/sync machinery;
each surviving body must keep its representations synchronized, agree with
an independent float hull on volume, and count lattice points identically
to a brute-force box scan.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from okbodies.geometry import (
    GeometryError,
    HalfSpace,
    hull,
    intersect_halfspace,
    validate_body,
    volume,
)
from okbodies.lattice import count
from oracles import oracle_box


def random_cut_chain(trial: int):
    rng = random.Random(trial)
    n = rng.choice([2, 3])
    pts = [tuple(F(rng.randrange(0, 9), 8) for _ in range(n)) for _ in range(6 + n)]
    body = hull(pts)
    if not body.is_full_dim():
        return None
    for _ in range(rng.randrange(1, 4)):
        normal = [rng.randrange(-3, 4) for _ in range(n)]
        if all(c == 0 for c in normal):
            normal[0] = 1
        body = intersect_halfspace(body, HalfSpace.make(normal, F(rng.randrange(-8, 17), 8)))
        if body.is_empty:
            return None
    return body if body.is_full_dim() else None


@pytest.mark.parametrize("trial", range(60))
def test_cut_chain_consistency(trial):
    body = random_cut_chain(trial)
    if body is None:
        return
    validate_body(body)
    scipy_spatial = pytest.importorskip("scipy.spatial")
    q = scipy_spatial.ConvexHull([[float(c) for c in v] for v in body.vertices])
    assert abs(float(volume(body)) - q.volume) < 1e-9
    rng = random.Random(10_000 + trial)
    k = rng.randrange(1, 5)
    box = oracle_box(body)
    ranges = [range(math.ceil(lo * k), math.floor(hi * k) + 1) for lo, hi in box]
    brute = sum(
        1 for z in itertools.product(*ranges)
        if body.contains(tuple(F(c, k) for c in z))
    )
    assert brute == count(body, k)
