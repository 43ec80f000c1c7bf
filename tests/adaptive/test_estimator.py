"""Unit tests for repro.adaptive.estimator — online Zipf MLE."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.adaptive.estimator import (
    _HEAD_RANKS,
    ExponentEstimator,
    _log_rank_moments,
    estimate_exponent,
)
from repro.catalog import ZipfModel
from repro.errors import ParameterError
from repro.obs import session


@functools.cache
def _log_ranks(catalog: int) -> np.ndarray:
    return np.log(np.arange(1, catalog + 1, dtype=np.float64))


def _continuous_zipf_ranks(
    rng: np.random.Generator, exponents: np.ndarray, per_row: int, catalog: int
) -> np.ndarray:
    """Rows of ranks drawn by inverting the continuous Zipf CDF on
    ``[1, N + 1)`` and flooring, one row per exponent."""
    a = (1.0 - exponents)[:, None]
    u = rng.random((exponents.size, per_row))
    x = (1.0 + u * ((catalog + 1.0) ** a - 1.0)) ** (1.0 / a)
    return np.clip(x.astype(np.int64), 1, catalog)


def _exact_sum_newton(
    mean_log_rank: float, log_ranks: np.ndarray, initial: float
) -> float:
    """Root of f'(s) = m − E_s[log j] by bisection-guarded Newton on the
    exact O(N) sums over every rank, started at ``initial``."""
    squares = log_ranks * log_ranks
    lo, hi = 0.05, 1.95
    x = initial
    for _ in range(100):
        weights = np.exp(-x * log_ranks)
        total = float(weights.sum())
        mean = float(weights @ log_ranks) / total
        variance = float(weights @ squares) / total - mean * mean
        derivative = mean_log_rank - mean
        if derivative < 0.0:
            lo = x
        else:
            hi = x
        proposed = x - derivative / variance
        if not lo < proposed < hi:
            proposed = 0.5 * (lo + hi)
        if abs(proposed - x) <= 1e-14:
            return proposed
        x = proposed
    return x


class TestLogRankMoments:
    """The O(1) Euler–Maclaurin moments against exact ``math.fsum`` sums."""

    @pytest.mark.parametrize(
        "catalog",
        [2, 3, _HEAD_RANKS - 1, _HEAD_RANKS, _HEAD_RANKS + 1, 50_000, 10**6],
    )
    @pytest.mark.parametrize(
        "s", [0.05, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.6, 1.95]
    )
    def test_matches_fsum_reference(self, s, catalog):
        log_ranks = _log_ranks(catalog)
        weights = np.exp(-s * log_ranks)
        ref0 = math.fsum(weights)
        ref1 = math.fsum(weights * log_ranks)
        s0, s1, _ = _log_rank_moments(s, catalog)
        assert s0 == pytest.approx(ref0, rel=1e-13, abs=0.0)
        assert s1 == pytest.approx(ref1, rel=1e-13, abs=0.0)
        assert s1 / s0 == pytest.approx(ref1 / ref0, rel=0.0, abs=1e-13)


class TestBatchMLE:
    @pytest.mark.parametrize("true_s", [0.5, 0.8, 1.2, 1.6])
    def test_recovers_true_exponent(self, true_s):
        model = ZipfModel(true_s, 5_000)
        ranks = model.sample(30_000, np.random.default_rng(7))
        estimate = estimate_exponent(ranks, 5_000)
        assert estimate == pytest.approx(true_s, abs=0.05)

    def test_more_samples_tighter(self):
        model = ZipfModel(0.9, 2_000)
        rng = np.random.default_rng(1)
        small = abs(estimate_exponent(model.sample(500, rng), 2_000) - 0.9)
        rng = np.random.default_rng(1)
        large = abs(estimate_exponent(model.sample(50_000, rng), 2_000) - 0.9)
        assert large <= small + 0.02

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            estimate_exponent(np.array([]), 100)

    def test_rejects_out_of_catalog_ranks(self):
        with pytest.raises(ParameterError):
            estimate_exponent(np.array([1, 500]), 100)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ParameterError):
            estimate_exponent(np.array([1, 2]), 100, bounds=(1.0, 0.5))


class TestWindowedEstimator:
    def test_single_batch_matches_batch_mle(self):
        model = ZipfModel(0.8, 2_000)
        ranks = model.sample(10_000, np.random.default_rng(3))
        estimator = ExponentEstimator(2_000, memory=0.5)
        estimator.observe(ranks)
        assert estimator.estimate() == pytest.approx(
            estimate_exponent(ranks, 2_000), abs=1e-9
        )

    def test_tracks_drift(self):
        """After a regime change, low memory forgets the old exponent."""
        old = ZipfModel(0.5, 2_000)
        new = ZipfModel(1.5, 2_000)
        rng = np.random.default_rng(5)
        estimator = ExponentEstimator(2_000, memory=0.2)
        estimator.observe(old.sample(5_000, rng))
        for _ in range(6):
            estimator.observe(new.sample(5_000, rng))
        assert estimator.estimate() == pytest.approx(1.5, abs=0.1)

    def test_high_memory_averages_regimes(self):
        old = ZipfModel(0.5, 2_000)
        new = ZipfModel(1.5, 2_000)
        rng = np.random.default_rng(5)
        sticky = ExponentEstimator(2_000, memory=0.95)
        sticky.observe(old.sample(20_000, rng))
        sticky.observe(new.sample(5_000, rng))
        estimate = sticky.estimate()
        assert 0.5 < estimate < 1.4  # still pulled toward the old regime

    def test_empty_observation_is_noop(self):
        estimator = ExponentEstimator(100)
        estimator.observe(np.array([], dtype=int))
        assert not estimator.has_observations

    def test_estimate_without_observations_raises(self):
        with pytest.raises(ParameterError):
            ExponentEstimator(100).estimate()

    def test_reset(self):
        estimator = ExponentEstimator(100)
        estimator.observe(np.array([1, 2, 3]))
        estimator.reset()
        assert not estimator.has_observations

    def test_validates_construction(self):
        with pytest.raises(ParameterError):
            ExponentEstimator(1)
        with pytest.raises(ParameterError):
            ExponentEstimator(100, memory=1.0)

    def test_validates_observed_ranks(self):
        estimator = ExponentEstimator(100)
        with pytest.raises(ParameterError):
            estimator.observe(np.array([0]))


class TestWarmNewtonMLE:
    """The warm Newton solve is pinned to the scalar MLE (satellite 1)."""

    @staticmethod
    def _brentq_reference(mean_log_rank: float, catalog: int) -> float:
        """Root of the score f'(s) = m − E_s[log j] by high-precision brentq."""
        from scipy import optimize

        log_ranks = np.log(np.arange(1, catalog + 1, dtype=np.float64))

        def score(s: float) -> float:
            weights = np.exp(-s * log_ranks)
            return mean_log_rank - float(weights @ log_ranks) / float(
                weights.sum()
            )

        return float(optimize.brentq(score, 0.05, 1.95, xtol=1e-13))

    @pytest.mark.parametrize("true_s", [0.3, 0.7, 1.1, 1.6, 1.9])
    def test_newton_pins_to_scalar_mle_within_1e9(self, true_s):
        from repro.adaptive.estimator import _solve_mle

        catalog = 50_000
        log_ranks = np.log(np.arange(1, catalog + 1, dtype=np.float64))
        weights = np.exp(-true_s * log_ranks)
        mean_log_rank = float(weights @ log_ranks) / float(weights.sum())
        got = _solve_mle(mean_log_rank, catalog, (0.05, 1.95))
        assert got == pytest.approx(
            self._brentq_reference(mean_log_rank, catalog), abs=1e-9
        )

    def test_newton_matches_legacy_bounded_minimization(self):
        """Agreement with the pre-incremental solver within its xatol."""
        from scipy import optimize
        import math

        from repro.adaptive.estimator import _solve_mle
        from repro.core.zipf import harmonic_number

        catalog = 20_000
        model = ZipfModel(1.1, catalog)
        ranks = model.sample(30_000, np.random.default_rng(11))
        mean_log_rank = float(np.mean(np.log(ranks.astype(np.float64))))
        legacy = optimize.minimize_scalar(
            lambda s: s * mean_log_rank
            + math.log(harmonic_number(catalog, s)),
            bounds=(0.05, 1.95),
            method="bounded",
            options={"xatol": 1e-8},
        )
        got = _solve_mle(mean_log_rank, catalog, (0.05, 1.95))
        assert got == pytest.approx(float(legacy.x), abs=5e-8)

    def test_non_convergence_falls_back_to_bounded_minimization(
        self, monkeypatch
    ):
        from repro.adaptive import estimator as est_mod

        monkeypatch.setattr(est_mod, "_NEWTON_MAX_ITERATIONS", 0)
        catalog = 5_000
        model = ZipfModel(0.9, catalog)
        ranks = model.sample(10_000, np.random.default_rng(13))
        fallback = estimate_exponent(ranks, catalog)
        monkeypatch.undo()
        newton = estimate_exponent(ranks, catalog)
        assert fallback == pytest.approx(newton, abs=5e-8)

    def test_huge_catalog_converges_by_newton(self):
        """At N = 1e9 Newton settles without the fallback and matches it."""
        from repro.adaptive.estimator import _minimize_fallback, _solve_mle

        catalog = 10**9
        ranks = _continuous_zipf_ranks(
            np.random.default_rng(17), np.full(1, 0.9), 20_000, catalog
        )[0]
        mean_log_rank = float(np.mean(np.log(ranks.astype(np.float64))))
        with session() as obs:
            newton = _solve_mle(mean_log_rank, catalog, (0.05, 1.95))
            counters = obs.snapshot()["counters"]
        assert counters["adaptive.estimator.newton_steps"] >= 1
        assert "adaptive.estimator.fallbacks" not in counters
        fallback = _minimize_fallback(mean_log_rank, catalog, 0.05, 1.95)
        assert newton == pytest.approx(fallback, abs=5e-8)
        assert newton == pytest.approx(0.9, abs=0.02)

    def test_drifting_stream_pins_to_exact_sum_newton_within_1e12(self):
        """Every warm estimate on a drifting N = 1e6 stream matches a
        Newton solve on the exact O(N) log-rank sums."""
        catalog = 10**6
        log_ranks = _log_ranks(catalog)
        ticks = np.arange(16)
        exponents = 0.8 + 0.12 * np.sin(2.0 * np.pi * ticks / 16.0)
        stream = _continuous_zipf_ranks(
            np.random.default_rng(23), exponents, 500, catalog
        )
        estimator = ExponentEstimator(catalog, memory=0.5)
        reference = 1.0
        for ranks in stream:
            estimator.observe(ranks)
            mean_log_rank = estimator._weighted_log_sum / estimator._weight
            reference = _exact_sum_newton(mean_log_rank, log_ranks, reference)
            assert estimator.estimate() == pytest.approx(reference, abs=1e-12)

    def test_obs_counters_record_newton_steps_and_fallbacks(self, monkeypatch):
        from repro.adaptive import estimator as est_mod

        ranks = ZipfModel(0.9, 5_000).sample(10_000, np.random.default_rng(13))
        with session() as obs:
            estimate_exponent(ranks, 5_000)
            steps = obs.snapshot()["counters"]["adaptive.estimator.newton_steps"]
            monkeypatch.setattr(est_mod, "_NEWTON_MAX_ITERATIONS", 0)
            estimate_exponent(ranks, 5_000)
            counters = obs.snapshot()["counters"]
        assert steps >= 1
        assert counters["adaptive.estimator.newton_steps"] == steps
        assert counters["adaptive.estimator.fallbacks"] == 1

    def test_single_rank_stream_returns_upper_bound(self):
        """All-rank-1 traffic (mean log-rank 0) is maximally skewed."""
        estimator = ExponentEstimator(1_000)
        estimator.observe(np.ones(100, dtype=int))
        assert estimator.estimate() == pytest.approx(1.95)

    def test_near_uniform_stream_returns_lower_bound(self):
        """Traffic flatter than the lower bound clamps to it."""
        catalog = 1_000
        ranks = np.arange(1, catalog + 1)  # perfectly uniform sweep
        assert estimate_exponent(ranks, catalog) == pytest.approx(0.05)

    def test_warm_start_is_cached_and_reset_clears_it(self):
        estimator = ExponentEstimator(2_000, memory=0.5)
        estimator.observe(ZipfModel(0.8, 2_000).sample(5_000, np.random.default_rng(3)))
        first = estimator.estimate()
        assert estimator._last_estimate == pytest.approx(first)
        again = estimator.estimate()
        assert again == pytest.approx(first, abs=1e-12)
        estimator.reset()
        assert estimator._last_estimate is None
