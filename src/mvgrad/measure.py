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

#: Largest N accepted by the exact assignment path.
ASSIGNMENT_CAP = 4096

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
    """Permutation pairing between two equal-size clouds."""

    pairing: Array

    def __post_init__(self):
        pairing = np.array(self.pairing, dtype=np.intp, copy=True)
        n = pairing.shape[0]
        if not np.array_equal(np.sort(pairing), np.arange(n)):
            raise ValueError("pairing must be a permutation of 0..N-1")
        pairing.setflags(write=False)
        object.__setattr__(self, "pairing", pairing)


def wasserstein(a: EmpiricalMeasure, b: EmpiricalMeasure,
                k: float) -> tuple[float, TransportPlan]:
    """Exact k-Wasserstein distance between two equal-size point clouds.

    For d=1 the sorted pairing is optimal for any convex cost |x-y|^k and
    runs in O(N log N); otherwise the |x-y|^k cost matrix goes through the
    exact O(N^3) assignment solver, guarded by :data:`ASSIGNMENT_CAP`.
    Returns the distance (mean cost to the 1/k) together with the optimal
    pairing.
    """
    if a.N != b.N:
        raise UnequalSupport(f"cannot transport between N={a.N} and N={b.N} samples")
    if not 1 <= k < math.inf:
        raise ValueError("Wasserstein exponent k must be finite and >= 1")
    if a.d != b.d:
        raise ValueError("point clouds must share the ambient dimension")
    if a.d != 1:
        return _assignment(a, b, k)
    ia = np.argsort(a.points[:, 0], kind="stable")
    ib = np.argsort(b.points[:, 0], kind="stable")
    pairing = np.empty(a.N, dtype=np.intp)
    pairing[ia] = ib
    cost = float(np.mean(np.abs(a.points[ia, 0] - b.points[ib, 0]) ** k))
    return cost ** (1.0 / k), TransportPlan(pairing=pairing)


def _assignment(a: EmpiricalMeasure, b: EmpiricalMeasure,
                k: float) -> tuple[float, TransportPlan]:
    """:func:`wasserstein` through the assignment solver, in any dimension."""
    if a.N > ASSIGNMENT_CAP:
        raise SizeCap(f"assignment requested for N={a.N} above cap {ASSIGNMENT_CAP}")
    cost_matrix = cdist(a.points, b.points) ** k
    rows, cols = linear_sum_assignment(cost_matrix)
    pairing = np.empty(a.N, dtype=np.intp)
    pairing[rows] = cols
    cost = float(cost_matrix[rows, cols].mean())
    return cost ** (1.0 / k), TransportPlan(pairing=pairing)


def pushforward(mu: EmpiricalMeasure, phi, eps: float) -> EmpiricalMeasure:
    """Image measure of mu under x -> x + eps * phi(x); preserves sample order."""
    moved = mu.points + eps * np.asarray(phi(mu.points), dtype=float)
    if not np.all(np.isfinite(moved)):
        raise NonFinite("pushforward produced non-finite coordinates")
    return EmpiricalMeasure(moved)


def lk_norm(phi, mu: EmpiricalMeasure, k: float) -> float:
    """L^k(mu) norm of a vector field, for a finite k >= 1."""
    if not 1 <= k < math.inf:
        raise ValueError("k must be finite and >= 1")
    norms = np.linalg.norm(np.asarray(phi(mu.points), dtype=float), axis=1)
    return float(np.mean(norms ** k) ** (1.0 / k))


def _rng_for_seed(seed: int) -> np.random.Generator:
    # exact uint64 words: a list would send any word >= 2^63 through float64
    key = np.array([seed & (2**64 - 1), _INIT_STREAM_TAG], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_initial(dist_spec: dict, N: int, seed: int) -> EmpiricalMeasure:
    """Draw N samples of a Gaussian law; bit-identical for identical (spec, N, seed).

    ``dist_spec`` is ``{"family": "gaussian", "mean": [...], "cov": v}`` with
    a scalar variance v (default 1); any other family raises
    :class:`UnknownFamily`.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    family = dist_spec.get("family")
    if family != "gaussian":
        raise UnknownFamily(f"unknown initial-law family {family!r}")
    mean = np.atleast_1d(np.asarray(dist_spec.get("mean", 0.0), dtype=float))
    z = _rng_for_seed(seed).standard_normal((N, mean.shape[0]))
    return EmpiricalMeasure(mean + math.sqrt(float(dist_spec.get("cov", 1.0))) * z)
