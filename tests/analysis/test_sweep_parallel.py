"""The default sweep path against per-point serial solves."""

from __future__ import annotations

import pytest

from repro.analysis.defaults import BASE_SCENARIO
from repro.analysis.sweep import solve_quantity, sweep

ALPHAS = tuple(round(0.1 + 0.8 * i / 5, 4) for i in range(6))
GAMMAS = (2.0, 10.0)

#: Bound for G_O of the batched path vs the scalar oracle (a few ulps).
ULP_TOL = 1e-14


class TestAutoParallel:
    def test_auto_sweep_matches_serial(self):
        # The default sweep solves the whole two-curve grid in one batch;
        # it must agree with a serial loop of scalar solves per point.
        for quantity in ("level", "origin_gain"):
            series = sweep(
                BASE_SCENARIO,
                x_field="alpha",
                x_values=ALPHAS,
                quantity=quantity,
                curve_field="gamma",
                curve_values=GAMMAS,
            )
            assert len(series) == len(GAMMAS)
            for curve, gamma in zip(series, GAMMAS):
                assert curve.x == ALPHAS
                for alpha, y in zip(ALPHAS, curve.y):
                    point = BASE_SCENARIO.replace(gamma=gamma, alpha=alpha)
                    expected = solve_quantity(point, quantity)
                    if quantity == "level":
                        assert y == expected
                    else:
                        assert y == pytest.approx(expected, abs=ULP_TOL)
