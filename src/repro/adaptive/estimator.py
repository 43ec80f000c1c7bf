"""Online Zipf-exponent estimation from observed request ranks.

The model-based adaptive controller needs the current popularity
exponent ``s``.  Routers observe request ranks directly (CCN names map
to catalog objects), so ``s`` can be estimated by maximum likelihood:

.. math::

    \\hat s = \\arg\\max_s \\Big[-s \\sum_m \\log r_m - M \\log H_{N,s}\\Big],

a smooth 1-D convex problem in the negative log-likelihood
``f(s) = s·m + log H_{N,s}`` (``m`` the mean observed log-rank).  Its
derivative ``f'(s) = m − E_s[log j]`` is increasing (``f'' =
Var_s(log j) > 0``), so the MLE is found by a safeguarded Newton
iteration on ``f'``, warm-started from the previous estimate inside
:class:`ExponentEstimator`, whose exponentially weighted window keeps
``m`` as an O(1) sufficient statistic.

Score and curvature need the log-rank moments
``S_k(s) = Σ_{j=1}^{N} j^{-s} (log j)^k`` for ``k = 0, 1, 2``.  They are
evaluated in O(1) time and memory for any ``N``: the first
``_HEAD_RANKS - 1`` ranks are summed exactly and the tail by
Euler–Maclaurin (a fixed Gauss–Legendre rule for the integral in
``u = log x``, which has no singularity at ``s = 1``, plus end-point and
Bernoulli corrections).  Bounded scalar minimization on ``log S_0``
remains only as the fallback when Newton fails to settle.
"""

from __future__ import annotations

import math
import numpy as np
from scipy import optimize as _scipy_optimize

from ..errors import ConvergenceError, ParameterError
from ..obs import get_session

__all__ = ["estimate_exponent", "ExponentEstimator"]

#: Safeguarded-Newton iteration cap before falling back to bounded
#: minimization (module-level so tests can force the fallback).
_NEWTON_MAX_ITERATIONS = 24

#: Absolute tolerance on the estimate (bracket width / Newton step).
_NEWTON_TOLERANCE = 1e-12

#: ``J``: catalogs with ``N <= J`` are summed exactly; larger ones sum
#: ranks ``1 .. J-1`` exactly and the tail ``[J, N]`` by Euler–Maclaurin.
_HEAD_RANKS = 64

#: Gauss–Legendre nodes for the tail integral over ``[log J, log N]``.
_QUADRATURE_NODES = 32

#: ``B_{2m} / (2m)!`` for ``m = 1..4``: the Euler–Maclaurin corrections.
_BERNOULLI_COEFFICIENTS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600)

#: Evaluation points per catalog size: ``(u, u², weight, shift)`` for the
#: exact head ranks (``u = log j``, weight 1, shift 0) followed by the
#: quadrature nodes (weight ``w·h``, shift 1 for the ``dx = e^u du`` Jacobian).
_MOMENT_TABLES: dict[int, tuple[np.ndarray, ...]] = {}
_MOMENT_TABLES_MAX = 4

#: ``E_s[log j]`` memoized at the (few, fixed) search bounds — the
#: boundary probes of every warm re-estimate skip the moment sums.
_BOUND_MEAN_CACHE: dict[tuple[int, float], float] = {}
_BOUND_MEAN_CACHE_MAX = 16


def _moment_tables(catalog_size: int) -> tuple[np.ndarray, ...]:
    cached = _MOMENT_TABLES.get(catalog_size)
    if cached is not None:
        return cached
    exact = catalog_size if catalog_size <= _HEAD_RANKS else _HEAD_RANKS - 1
    points = np.log(np.arange(1, exact + 1, dtype=np.float64))
    weights = np.ones(exact)
    shifts = np.zeros(exact)
    if catalog_size > _HEAD_RANKS:
        nodes, node_weights = np.polynomial.legendre.leggauss(_QUADRATURE_NODES)
        lo, hi = math.log(_HEAD_RANKS), math.log(catalog_size)
        half = 0.5 * (hi - lo)
        points = np.concatenate([points, lo + half * (nodes + 1.0)])
        weights = np.concatenate([weights, half * node_weights])
        shifts = np.concatenate([shifts, np.ones(_QUADRATURE_NODES)])
    tables = (points, points * points, weights, shifts)
    while len(_MOMENT_TABLES) >= _MOMENT_TABLES_MAX:
        _MOMENT_TABLES.pop(next(iter(_MOMENT_TABLES)))
    _MOMENT_TABLES[catalog_size] = tables
    return tables


def _endpoint_terms(s: float, x: float, sign: float) -> list[float]:
    """Euler–Maclaurin end-point terms of ``f_k(x) = x^{-s} (log x)^k``.

    Returns ``f_k(x)/2 + sign · Σ_m B_{2m}/(2m)! · f_k^{(2m-1)}(x)`` for
    ``k = 0, 1, 2`` (``sign`` is +1 at the upper end, −1 at the lower).
    The ``d``-th derivative is ``x^{-s-d} P_d(log x)`` with ``P_0 = L^k``
    and ``P_{d+1} = (−s−d) P_d + P_d′``; ``P`` has degree at most 2.
    """
    log_x = math.log(x)
    power = x**-s
    terms = []
    for k in range(3):
        p0, p1, p2 = float(k == 0), float(k == 1), float(k == 2)
        total = 0.5 * power * log_x**k
        scale = power
        for order in range(1, 8):
            c = 1.0 - s - order
            p0, p1, p2 = c * p0 + p1, c * p1 + 2.0 * p2, c * p2
            scale /= x
            if order % 2:
                total += (
                    sign
                    * _BERNOULLI_COEFFICIENTS[order // 2]
                    * scale
                    * (p0 + (p1 + p2 * log_x) * log_x)
                )
        terms.append(total)
    return terms


def _log_rank_moments(s: float, catalog_size: int) -> tuple[float, float, float]:
    """``S_k(s) = Σ_{j=1}^{N} j^{-s} (log j)^k`` for ``k = 0, 1, 2``.

    O(1) in ``N``: an exact head sum, then for ``N > J`` the tail
    ``[J, N]`` as ``∫ e^{(1−s)u} u^k du`` over ``[log J, log N]`` by
    Gauss–Legendre (no singularity at ``s = 1``) plus the end-point and
    four Bernoulli terms of Euler–Maclaurin.
    """
    points, squares, weights, shifts = _moment_tables(catalog_size)
    terms = weights * np.exp((shifts - s) * points)
    s0, s1, s2 = float(terms.sum()), float(terms @ points), float(terms @ squares)
    if catalog_size > _HEAD_RANKS:
        lower = _endpoint_terms(s, float(_HEAD_RANKS), -1.0)
        upper = _endpoint_terms(s, float(catalog_size), 1.0)
        s0 += lower[0] + upper[0]
        s1 += lower[1] + upper[1]
        s2 += lower[2] + upper[2]
    return s0, s1, s2


def _minimize_fallback(
    mean_log_rank: float, catalog_size: int, lo: float, hi: float
) -> float:
    def negative_log_likelihood(s: float) -> float:
        return s * mean_log_rank + math.log(_log_rank_moments(s, catalog_size)[0])

    result = _scipy_optimize.minimize_scalar(
        negative_log_likelihood, bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-8},
    )
    if not result.success:  # pragma: no cover - bounded Brent rarely fails
        raise ConvergenceError(f"exponent MLE failed: {result.message}")
    return float(result.x)


def _solve_mle(
    mean_log_rank: float,
    catalog_size: int,
    bounds: tuple[float, float],
    initial: float | None = None,
) -> float:
    """MLE of ``s`` given the sufficient statistic ``mean_log_rank``.

    Safeguarded Newton on the increasing score ``f'(s) = m − E_s[log j]``
    with the bracket ``bounds`` maintained as a bisection fallback per
    step; ``initial`` (e.g. the previous online estimate) seeds the
    iteration.  Falls back to bounded scalar minimization if Newton
    fails to settle within ``_NEWTON_MAX_ITERATIONS``.
    """
    lo, hi = float(bounds[0]), float(bounds[1])

    def score(s: float) -> tuple[float, float]:
        """``(f'(s), f''(s))`` — score and observed information."""
        s0, s1, s2 = _log_rank_moments(s, catalog_size)
        mean = s1 / s0
        return mean_log_rank - mean, s2 / s0 - mean * mean

    def bound_mean(s: float) -> float:
        key = (catalog_size, s)
        cached = _BOUND_MEAN_CACHE.get(key)
        if cached is None:
            s0, s1, _ = _log_rank_moments(s, catalog_size)
            cached = s1 / s0
            while len(_BOUND_MEAN_CACHE) >= _BOUND_MEAN_CACHE_MAX:
                _BOUND_MEAN_CACHE.pop(next(iter(_BOUND_MEAN_CACHE)))
            _BOUND_MEAN_CACHE[key] = cached
        return cached

    steps = 0
    estimate: float | None = None
    if mean_log_rank - bound_mean(lo) >= 0.0:
        estimate = lo  # minimum at (or left of) the lower bound
    elif mean_log_rank - bound_mean(hi) <= 0.0:
        estimate = hi  # minimum at (or right of) the upper bound
    else:
        x = lo + 0.5 * (hi - lo) if initial is None else min(max(initial, lo), hi)
        for steps in range(1, _NEWTON_MAX_ITERATIONS + 1):
            derivative, curvature = score(x)
            if derivative < 0.0:
                lo = x
            else:
                hi = x
            step = derivative / curvature if curvature > 0.0 else math.inf
            # Converged on step size *before* the bracket test: at the root
            # the proposal can collide with a bracket edge that collapsed
            # onto it, and the midpoint fallback would fling a converged
            # iterate back into slow per-bit bisection.
            if math.isfinite(step) and abs(step) <= _NEWTON_TOLERANCE:
                estimate = x - step
                break
            proposed = x - step
            if not lo < proposed < hi:
                proposed = 0.5 * (lo + hi)
            moved = abs(proposed - x)
            x = proposed
            if moved <= _NEWTON_TOLERANCE or hi - lo <= _NEWTON_TOLERANCE:
                estimate = x
                break
    obs = get_session()
    if obs.enabled:
        obs.counter("adaptive.estimator.newton_steps").add(steps)
        if estimate is None:
            obs.counter("adaptive.estimator.fallbacks").add()
    if estimate is None:
        estimate = _minimize_fallback(mean_log_rank, catalog_size, lo, hi)
    return estimate


def estimate_exponent(
    ranks: np.ndarray,
    catalog_size: int,
    *,
    bounds: tuple[float, float] = (0.05, 1.95),
) -> float:
    """Maximum-likelihood Zipf exponent from a sample of ranks.

    Parameters
    ----------
    ranks:
        Observed request ranks (1-based integers within the catalog).
    catalog_size:
        The catalog size ``N`` (assumed known — CCN routers know their
        namespace).
    bounds:
        Search interval for ``s``.
    """
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        raise ParameterError("need at least one observed rank")
    if np.any((ranks < 1) | (ranks > catalog_size)):
        raise ParameterError("observed ranks must lie within the catalog")
    lo, hi = bounds
    if not 0 < lo < hi:
        raise ParameterError(f"invalid bounds {bounds}")
    mean_log_rank = float(np.mean(np.log(ranks.astype(np.float64))))
    return _solve_mle(mean_log_rank, int(catalog_size), bounds)


class ExponentEstimator:
    """Windowed online MLE of the Zipf exponent.

    Observations are summarized by their count and mean log-rank, with
    exponential decay ``memory`` per epoch, so old traffic fades and the
    estimate follows popularity drift.  Each :meth:`estimate` is a warm
    safeguarded Newton solve seeded from the previous estimate (see
    :func:`_solve_mle`), so a small drift between ticks re-converges in
    a few score evaluations, each O(1) in the catalog size.

    Parameters
    ----------
    catalog_size:
        The catalog size ``N``.
    memory:
        Per-epoch retention in ``[0, 1)``; 0 forgets everything each
        epoch, values near 1 average over long horizons.
    """

    def __init__(self, catalog_size: int, *, memory: float = 0.5):
        if catalog_size < 2:
            raise ParameterError(f"catalog must have at least 2 items, got {catalog_size}")
        if not 0.0 <= memory < 1.0:
            raise ParameterError(f"memory must lie in [0, 1), got {memory}")
        self.catalog_size = int(catalog_size)
        self.memory = float(memory)
        self._weight = 0.0
        self._weighted_log_sum = 0.0
        self._last_estimate: float | None = None
        self._last_inputs: tuple[float, float, float] | None = None

    @property
    def has_observations(self) -> bool:
        """Whether any traffic has been observed yet."""
        return self._weight > 0.0

    def observe(self, ranks: np.ndarray) -> None:
        """Fold one epoch's observed ranks into the window."""
        ranks = np.asarray(ranks)
        if ranks.size == 0:
            return
        if np.any((ranks < 1) | (ranks > self.catalog_size)):
            raise ParameterError("observed ranks must lie within the catalog")
        self._weight = self.memory * self._weight + float(ranks.size)
        self._weighted_log_sum = self.memory * self._weighted_log_sum + float(
            np.sum(np.log(ranks.astype(np.float64)))
        )

    def estimate(self, *, bounds: tuple[float, float] = (0.05, 1.95)) -> float:
        """Current MLE of ``s`` over the decayed window."""
        if not self.has_observations:
            raise ParameterError("no observations to estimate from")
        lo, hi = bounds
        if not 0 < lo < hi:
            raise ParameterError(f"invalid bounds {bounds}")
        mean_log_rank = self._weighted_log_sum / self._weight
        inputs = (mean_log_rank, float(lo), float(hi))
        # Unchanged window (e.g. an empty measurement tick) -> the MLE
        # inputs are identical, so skip the solve and return the cached
        # estimate bit-exactly.
        if self._last_estimate is not None and inputs == self._last_inputs:
            return self._last_estimate
        estimate = _solve_mle(
            mean_log_rank, self.catalog_size, bounds, self._last_estimate
        )
        self._last_estimate = estimate
        self._last_inputs = inputs
        return estimate

    def reset(self) -> None:
        """Forget all observations."""
        self._weight = 0.0
        self._weighted_log_sum = 0.0
        self._last_estimate = None
        self._last_inputs = None
