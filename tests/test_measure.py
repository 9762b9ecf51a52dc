import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvgrad.errors import NonFinite, SizeCap, UnequalSupport, UnknownFamily
from mvgrad.measure import (ASSIGNMENT_CAP, EmpiricalMeasure, TransportPlan,
                            _assignment, lk_norm, pushforward, sample_initial,
                            wasserstein)
from mvgrad.model import CylindricalDrift, PerturbationField

identity = PerturbationField(phi=lambda x: np.array(x, copy=True), name="id")


def brute_force_wk(a, b, k):
    """Factorial-enumeration oracle, N <= 6 only."""
    n = a.N
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = np.mean(np.linalg.norm(a.points - b.points[list(perm)], axis=1) ** k)
        best = min(best, cost)
    return best ** (1.0 / k)


class TestWasserstein:
    def test_identical_clouds(self, rng):
        a = EmpiricalMeasure(rng.standard_normal((9, 2)))
        dist, plan = wasserstein(a, a, 2.0)
        assert dist == 0.0
        assert np.array_equal(plan.pairing, np.arange(9))

    def test_rigid_shift_1d(self):
        a = EmpiricalMeasure(np.array([[0.0], [2.0]]))
        b = EmpiricalMeasure(np.array([[1.0], [3.0]]))
        dist, plan = wasserstein(a, b, 1.0)
        assert dist == pytest.approx(1.0)
        assert np.array_equal(plan.pairing, [0, 1])

    def test_two_point_enumeration(self):
        # both pairings enumerated by hand: identity costs (0+4)/2=2,
        # the swap costs (9+1)/2=5, so W_2 = sqrt(2)
        a = EmpiricalMeasure(np.array([[0.0], [1.0]]))
        b = EmpiricalMeasure(np.array([[0.0], [3.0]]))
        costs = {}
        for perm in itertools.permutations(range(2)):
            costs[perm] = np.mean(np.abs(a.points - b.points[list(perm)]) ** 2)
        assert min(costs.values()) == pytest.approx(2.0)
        dist, _ = wasserstein(a, b, 2.0)
        assert dist == pytest.approx(math.sqrt(2.0))

    def test_matches_brute_force_2d(self, rng):
        a = EmpiricalMeasure(rng.standard_normal((4, 2)))
        b = EmpiricalMeasure(rng.standard_normal((4, 2)))
        dist, _ = wasserstein(a, b, 2.0)
        assert dist == pytest.approx(brute_force_wk(a, b, 2.0), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("k", [1.0, 2.0, 3.0])
    def test_small_instances_exact(self, n, k, rng):
        a = EmpiricalMeasure(rng.standard_normal((n, 2)))
        b = EmpiricalMeasure(rng.standard_normal((n, 2)))
        dist, _ = wasserstein(a, b, k)
        assert dist == pytest.approx(brute_force_wk(a, b, k), abs=1e-10)

    @pytest.mark.parametrize("n", [32, 129, 512])
    def test_sorted_equals_assignment_1d(self, n, rng):
        a = EmpiricalMeasure(rng.standard_normal((n, 1)))
        b = EmpiricalMeasure(rng.standard_normal((n, 1)))
        d_sorted, _ = wasserstein(a, b, 2.0)
        d_assign, _ = _assignment(a, b, 2.0)
        assert d_sorted == pytest.approx(d_assign, abs=1e-10)

    def test_symmetry_and_multiset_identity(self, rng):
        a = EmpiricalMeasure(rng.standard_normal((12, 2)))
        b = EmpiricalMeasure(rng.standard_normal((12, 2)))
        dab, _ = wasserstein(a, b, 2.0)
        dba, _ = wasserstein(b, a, 2.0)
        assert dab == pytest.approx(dba, abs=1e-12)
        # same points, different order: identical as multisets
        perm = rng.permutation(12)
        d0, _ = wasserstein(a, EmpiricalMeasure(a.points[perm]), 2.0)
        assert d0 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("k", [1.0, 2.0])
    def test_triangle_inequality(self, k, rng):
        for _ in range(10):
            pts = [EmpiricalMeasure(rng.standard_normal((8, 2))) for _ in range(3)]
            dab, _ = wasserstein(pts[0], pts[1], k)
            dbc, _ = wasserstein(pts[1], pts[2], k)
            dac, _ = wasserstein(pts[0], pts[2], k)
            assert dac <= dab + dbc + 1e-9

    def test_power_mean_ordering(self, rng):
        a = EmpiricalMeasure(rng.standard_normal((20, 2)))
        b = EmpiricalMeasure(rng.standard_normal((20, 2)))
        d1, _ = wasserstein(a, b, 1.0)
        for k in (1.5, 2.0, 3.0):
            dk, _ = wasserstein(a, b, k)
            assert d1 <= dk + 1e-12

    def test_unequal_support_rejected(self, rng):
        a = EmpiricalMeasure(rng.standard_normal((4, 1)))
        b = EmpiricalMeasure(rng.standard_normal((5, 1)))
        with pytest.raises(UnequalSupport):
            wasserstein(a, b, 2.0)

    def test_size_cap(self, rng):
        # the cap is checked before the cost matrix is built
        a = EmpiricalMeasure(rng.standard_normal((ASSIGNMENT_CAP + 1, 2)))
        b = EmpiricalMeasure(rng.standard_normal((ASSIGNMENT_CAP + 1, 2)))
        with pytest.raises(SizeCap):
            wasserstein(a, b, 2.0)

    def test_bad_exponent(self, rng):
        a = EmpiricalMeasure(rng.standard_normal((3, 1)))
        with pytest.raises(ValueError):
            wasserstein(a, a, 0.5)
        with pytest.raises(ValueError):
            wasserstein(a, a, math.inf)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            TransportPlan(pairing=np.array([0, 0, 1]))


class TestPushforward:
    def test_zero_eps_bit_exact(self, rng):
        mu = EmpiricalMeasure(rng.standard_normal((10, 3)))
        out = pushforward(mu, identity, 0.0)
        assert np.array_equal(out.points, mu.points)

    def test_half_identity(self):
        mu = EmpiricalMeasure(np.array([[1.0], [2.0]]))
        out = pushforward(mu, identity, 0.5)
        assert np.allclose(out.points, [[1.5], [3.0]])

    def test_nonfinite_rejected(self):
        mu = EmpiricalMeasure(np.array([[1.0]]))
        bad = PerturbationField(phi=lambda x: np.full_like(x, np.inf))
        with pytest.raises(NonFinite):
            pushforward(mu, bad, 1.0)

    @given(eps=st.floats(0.0, 2.0), seed=st.integers(0, 2**20), k=st.sampled_from([1.0, 2.0, 3.0]))
    @settings(max_examples=25, deadline=None)
    def test_distance_bounded_by_field_norm(self, eps, seed, k):
        # the identity coupling witnesses W_k(pushforward, mu) <= eps |phi|_k
        r = np.random.default_rng(seed)
        mu = EmpiricalMeasure(r.standard_normal((6, 2)))
        moved = pushforward(mu, identity, eps)
        dist, _ = wasserstein(moved, mu, k)
        assert dist <= eps * lk_norm(identity, mu, k) + 1e-9


class TestLkNorm:
    def test_zero_field(self, rng):
        mu = EmpiricalMeasure(rng.standard_normal((5, 2)))
        zero = PerturbationField(phi=np.zeros_like)
        assert lk_norm(zero, mu, 2.0) == 0.0

    @pytest.mark.parametrize("k", [1.0, 2.0, 5.0])
    def test_constant_field(self, k, rng):
        mu = EmpiricalMeasure(rng.standard_normal((7, 2)))
        c = np.array([3.0, -4.0])
        const = PerturbationField(phi=lambda x: np.tile(c, (x.shape[0], 1)))
        assert lk_norm(const, mu, k) == pytest.approx(5.0)

    def test_hand_sum(self):
        mu = EmpiricalMeasure(np.array([[0.0], [3.0]]))
        assert lk_norm(identity, mu, 2.0) == pytest.approx(math.sqrt(4.5))

    def test_bad_exponent(self):
        mu = EmpiricalMeasure(np.array([[1.0], [-4.0]]))
        for k in (0.5, math.inf):
            with pytest.raises(ValueError):
                lk_norm(identity, mu, k)


def moment_vector(mu, h):
    """Empirical moments through CylindricalDrift.moment_vector."""
    zero = lambda t, x, z: np.zeros_like(x)
    drift = CylindricalDrift(n=len(h), F=zero, grad_x_F=zero, grad_z_F=zero,
                             h=tuple(h), grad_h=tuple(h))
    return drift.moment_vector(mu.points)


class TestMoments:
    def test_normalization(self, rng):
        mu = EmpiricalMeasure(rng.standard_normal((11, 1)))
        out = moment_vector(mu, [lambda x: np.ones(x.shape[0])])
        assert out[0] == pytest.approx(1.0)

    def test_symmetry(self):
        mu = EmpiricalMeasure(np.array([[-1.0], [1.0]]))
        assert moment_vector(mu, [lambda x: x[:, 0]])[0] == pytest.approx(0.0)

    def test_hand_sum(self):
        mu = EmpiricalMeasure(np.array([[1.0], [2.0], [3.0]]))
        out = moment_vector(mu, [lambda x: x[:, 0] ** 2])
        assert out[0] == pytest.approx(14.0 / 3.0)


class TestSampleInitial:
    def test_gaussian_clt_bound(self):
        n = 100_000
        mu = sample_initial({"family": "gaussian", "mean": [0.0, 0.0], "cov": 1.0}, n, 7)
        assert np.all(np.abs(mu.points.mean(axis=0)) < 4.0 / math.sqrt(n))

    def test_determinism(self):
        spec = {"family": "gaussian", "mean": [0.0], "cov": 2.0}
        a = sample_initial(spec, 100, 42)
        b = sample_initial(spec, 100, 42)
        assert np.array_equal(a.points, b.points)
        c = sample_initial(spec, 100, 43)
        assert not np.array_equal(a.points, c.points)

    def test_seed_is_keyed_as_a_64_bit_word(self):
        # key words >= 2^63 must not pass through float64, where these seeds share a cloud
        spec = {"family": "gaussian", "mean": [0.0], "cov": 1.0}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = {seed: sample_initial(spec, 50, seed).points
                     for seed in (-1, -2, -1000, 2**64 - 1, 2**63, 2**63 + 1)}
        assert np.array_equal(draws[-1], draws[2**64 - 1])
        for a, b in [(-1, -2), (-1, -1000), (2**63, 2**63 + 1)]:
            assert not np.array_equal(draws[a], draws[b])

    # The point_mass, uniform_box, mixture and points families are deleted:
    # each formerly valid spec must be refused, not drawn as another law.
    def test_point_mass(self):
        with pytest.raises(UnknownFamily):
            sample_initial({"family": "point_mass", "x0": [1.0, -2.0]}, 5, 0)

    def test_uniform_box(self):
        with pytest.raises(UnknownFamily):
            sample_initial({"family": "uniform_box", "low": [0.0], "high": [2.0]}, 500, 3)

    def test_mixture(self):
        spec = {"family": "mixture",
                "components": [{"family": "gaussian", "mean": [-5.0]},
                               {"family": "gaussian", "mean": [5.0]}],
                "weights": [0.5, 0.5]}
        with pytest.raises(UnknownFamily):
            sample_initial(spec, 400, 11)

    def test_explicit_points(self):
        with pytest.raises(UnknownFamily):
            sample_initial({"family": "points", "points": [[1.0], [2.0]]}, 2, 0)

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            sample_initial({"family": "cauchy"}, 3, 0)

    def test_bad_count(self):
        with pytest.raises(ValueError):
            sample_initial({"family": "gaussian", "mean": [0.0]}, 0, 0)


class TestEmpiricalMeasure:
    def test_validation(self):
        with pytest.raises(NonFinite):
            EmpiricalMeasure(np.array([[np.nan]]))
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.zeros((0, 2)))

    def test_points_read_only(self, rng):
        mu = EmpiricalMeasure(rng.standard_normal((4, 2)))
        with pytest.raises(ValueError):
            mu.points[0, 0] = 7.0
