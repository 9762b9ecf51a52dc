"""Empirical-measure arithmetic: sampling, pushforwards, norms, transport.

Measures are equal-weight point clouds of identical size N; unequal sizes
are rejected rather than approximated so the exact assignment solver stays
a trustworthy oracle.  All operations are pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import NonFinite, SizeCap, UnequalSupport, UnknownFamily

Array = np.ndarray

#: Largest N accepted by the exact assignment path (configurable per call).
DEFAULT_ASSIGNMENT_CAP = 4096

# Stream tag separating initial-law sampling from path-noise streams, which
# are keyed by (seed, particle index).
_INIT_STREAM_TAG = 0x1E17_5EED_0001_0001


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform-weight point cloud standing in for a probability measure."""

    points: Array

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, copy=True)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError(f"points must be an (N, d) array with N >= 1, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise NonFinite("empirical measure contains non-finite coordinates")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def N(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def shifted(self, v) -> "EmpiricalMeasure":
        """Translate every sample by the vector v."""
        return EmpiricalMeasure(self.points + np.asarray(v, dtype=float))


@dataclass(frozen=True)
class TransportPlan:
    """Permutation pairing between two equal-size clouds plus realized cost."""

    pairing: Array
    cost: float

    def __post_init__(self):
        pairing = np.array(self.pairing, dtype=np.intp, copy=True)
        n = pairing.shape[0]
        if not np.array_equal(np.sort(pairing), np.arange(n)):
            raise ValueError("pairing must be a permutation of 0..N-1")
        pairing.setflags(write=False)
        object.__setattr__(self, "pairing", pairing)

    def recompute_cost(self, a: EmpiricalMeasure, b: EmpiricalMeasure, k: float) -> float:
        diff = a.points - b.points[self.pairing]
        return float(np.mean(np.linalg.norm(diff, axis=1) ** k))


def wasserstein(a: EmpiricalMeasure, b: EmpiricalMeasure, k: float,
                method: str = "auto",
                size_cap: int = DEFAULT_ASSIGNMENT_CAP) -> tuple[float, TransportPlan]:
    """Exact k-Wasserstein distance between two equal-size point clouds.

    For d=1 the sorted pairing is optimal for any convex cost |x-y|^k and
    runs in O(N log N); otherwise the |x-y|^k cost matrix goes through the
    exact O(N^3) assignment solver, guarded by ``size_cap``.  Returns the
    distance (mean cost to the 1/k) together with the optimal pairing.

    ``method`` forces a specific path: "sorted" (d=1 only) or "assignment".
    """
    if a.N != b.N:
        raise UnequalSupport(f"cannot transport between N={a.N} and N={b.N} samples")
    if not k >= 1:
        raise ValueError("Wasserstein exponent k must be >= 1")
    if a.d != b.d:
        raise ValueError("point clouds must share the ambient dimension")

    if method == "auto":
        method = "sorted" if a.d == 1 else "assignment"
    if method == "sorted":
        if a.d != 1:
            raise ValueError("sorted pairing is only optimal in dimension 1")
        ia = np.argsort(a.points[:, 0], kind="stable")
        ib = np.argsort(b.points[:, 0], kind="stable")
        pairing = np.empty(a.N, dtype=np.intp)
        pairing[ia] = ib
        cost = float(np.mean(np.abs(a.points[ia, 0] - b.points[ib, 0]) ** k))
    elif method == "assignment":
        if a.N > size_cap:
            raise SizeCap(f"assignment requested for N={a.N} above cap {size_cap}")
        cost_matrix = cdist(a.points, b.points) ** k
        rows, cols = linear_sum_assignment(cost_matrix)
        pairing = np.empty(a.N, dtype=np.intp)
        pairing[rows] = cols
        cost = float(cost_matrix[rows, cols].mean())
    else:
        raise ValueError(f"unknown method {method!r}")

    distance = cost ** (1.0 / k)
    return distance, TransportPlan(pairing=pairing, cost=cost)


def pushforward(mu: EmpiricalMeasure, phi, eps: float) -> EmpiricalMeasure:
    """Image measure of mu under x -> x + eps * phi(x); preserves sample order."""
    moved = mu.points + eps * np.asarray(phi(mu.points), dtype=float)
    if not np.all(np.isfinite(moved)):
        raise NonFinite("pushforward produced non-finite coordinates")
    return EmpiricalMeasure(moved)


def dual_exponent(k: float) -> float:
    """Conjugate exponent k/(k-1); math.inf (sup-norm mode) when k = 1.

    The returned value is meant for the mode switch in :func:`lk_norm`,
    never for arithmetic.
    """
    if not k >= 1:
        raise ValueError("k must be >= 1")
    if k == 1.0:
        return math.inf
    return k / (k - 1.0)


def lk_norm(phi, mu: EmpiricalMeasure, k: float) -> float:
    """L^k(mu) norm of a vector field; pass k=math.inf for the sup-norm mode."""
    norms = np.linalg.norm(np.asarray(phi(mu.points), dtype=float), axis=1)
    if k == math.inf:
        return float(np.max(norms))
    if not k >= 1:
        raise ValueError("k must be >= 1 (or math.inf for the sup mode)")
    return float(np.mean(norms ** k) ** (1.0 / k))


def _rng_for_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), _INIT_STREAM_TAG]))


def _sample_family(law: dict, N: int, rng: np.random.Generator) -> Array:
    family = law.get("family")
    if family == "point_mass":
        x0 = np.atleast_1d(np.asarray(law["x0"], dtype=float))
        return np.tile(x0, (N, 1))
    if family == "gaussian":
        mean = np.atleast_1d(np.asarray(law.get("mean", 0.0), dtype=float))
        d = mean.shape[0]
        cov = law.get("cov", 1.0)
        z = rng.standard_normal((N, d))
        cov = np.asarray(cov, dtype=float)
        if cov.ndim == 0:
            return mean + math.sqrt(float(cov)) * z
        if cov.ndim == 1:
            return mean + np.sqrt(cov) * z
        chol = np.linalg.cholesky(cov)
        return mean + z @ chol.T
    if family == "uniform_box":
        low = np.atleast_1d(np.asarray(law["low"], dtype=float))
        high = np.atleast_1d(np.asarray(law["high"], dtype=float))
        return low + (high - low) * rng.random((N, low.shape[0]))
    if family == "mixture":
        comps = law["components"]
        weights = np.asarray(law["weights"], dtype=float)
        weights = weights / weights.sum()
        idx = rng.choice(len(comps), size=N, p=weights)
        # sample each component at full size for a schedule-free draw order,
        # then select rows by component label
        draws = [_sample_family(c, N, rng) for c in comps]
        out = np.empty_like(draws[0])
        for j, block in enumerate(draws):
            out[idx == j] = block[idx == j]
        return out
    if family == "points":
        pts = np.asarray(law["points"], dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[0] != N:
            raise ValueError(f"explicit point list has {pts.shape[0]} rows, expected {N}")
        return np.array(pts, dtype=float)
    raise UnknownFamily(f"unknown initial-law family {family!r}")


def sample_initial(dist_spec: dict, N: int, seed: int) -> EmpiricalMeasure:
    """Draw N initial samples; bit-identical for identical (spec, N, seed).

    Supported families: ``point_mass`` (x0), ``gaussian`` (mean, cov),
    ``uniform_box`` (low, high), ``mixture`` (components, weights) and
    ``points`` (explicit list).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    pts = _sample_family(dict(dist_spec), N, _rng_for_seed(seed))
    return EmpiricalMeasure(pts)
