"""okbodies: exact-arithmetic toolkit for discrete Okounkov bodies.

Submodules:

* ``geometry``   — exact rational polytopes (hulls, cuts, volumes, barycenters,
  slices, cones, certified inscribed balls).
* ``lattice``    — scaled-lattice enumeration, counting, concave sums, the
  certified count constant.
* ``series``     — graded-series backends generating discrete bodies with gaps
  (toric, curve divisor, canonical curve, synthetic).
* ``thresholds`` — jumping numbers, S_{k,m} invariants, volume quantiles and
  tail expectations, restricted stability thresholds.
* ``estimates``  — the verification harness (sweep reports, certified and
  stability assertions, rate fits).
* ``cli``        — the ``okbodies`` command-line front end.
"""

from .geometry import (
    AffineFunctional,
    ConcavePL,
    ConvexBody,
    HalfSpace,
    barycenter,
    chebyshev_ball,
    hull,
    intersect_halfspace,
    rat,
    rat_str,
    volume,
)
from .lattice import PointCloud, count, enumerate_points
from .series import (
    CanonicalCurveModel,
    CurveDivisorModel,
    SyntheticModel,
    ToricModel,
    model_from_json,
)
from .thresholds import (
    S0_and_sigma,
    S_km,
    S_tau,
    Sbar_km,
    ValuationModel,
    delta_km_restricted,
    delta_tau_restricted,
    jumping_numbers,
    quantile,
)

__version__ = "0.1.0"

__all__ = [
    "AffineFunctional", "ConcavePL", "ConvexBody", "HalfSpace",
    "barycenter", "chebyshev_ball", "hull", "intersect_halfspace",
    "rat", "rat_str", "volume",
    "PointCloud", "count", "enumerate_points",
    "CanonicalCurveModel", "CurveDivisorModel", "SyntheticModel", "ToricModel",
    "model_from_json",
    "S0_and_sigma", "S_km", "S_tau", "Sbar_km", "ValuationModel",
    "delta_km_restricted", "delta_tau_restricted", "jumping_numbers",
    "quantile",
    "__version__",
]
