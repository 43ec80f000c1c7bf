"""Unit tests for repro.core.scenario — the Table IV parameter bundle."""

from __future__ import annotations

import pytest

from repro.core.scenario import BALANCED_COST_SCALE, Scenario
from repro.errors import ParameterError


class TestDefaults:
    def test_table_iv_base_point(self):
        s = Scenario()
        assert s.exponent == 0.8
        assert s.n_routers == 20
        assert s.catalog_size == 10**6
        assert s.capacity == 10**3
        assert s.unit_cost == 26.7
        assert s.peer_delta == 2.2842

    def test_balanced_cost_scale_value(self):
        assert BALANCED_COST_SCALE == pytest.approx(1.0 / (26.7 * 20 * 1000.0))


class TestReplace:
    def test_replace_single_field(self):
        s = Scenario().replace(alpha=0.9)
        assert s.alpha == 0.9
        assert s.gamma == 5.0  # untouched

    def test_replace_returns_new_object(self):
        base = Scenario()
        changed = base.replace(gamma=7.0)
        assert base.gamma == 5.0
        assert changed.gamma == 7.0

    def test_replace_validates(self):
        with pytest.raises(ParameterError):
            Scenario().replace(alpha=2.0)

    def test_replace_rejects_unknown_field(self):
        with pytest.raises(ParameterError, match=r"\['bogus'\]"):
            Scenario().replace(alpha=0.5, bogus=1.0)


class TestModelWiring:
    def test_latency_realizes_gamma(self):
        s = Scenario(gamma=7.0)
        assert s.latency().gamma == pytest.approx(7.0)

    def test_latency_uses_access_and_delta(self):
        s = Scenario(access_latency=2.0, peer_delta=3.0)
        lat = s.latency()
        assert lat.d0 == 2.0
        assert lat.peer_delta == pytest.approx(3.0)

    def test_popularity_parameters(self):
        s = Scenario(exponent=1.3, catalog_size=5000)
        pop = s.popularity()
        assert pop.exponent == 1.3
        assert pop.catalog_size == 5000

    def test_cost_model_applies_scale(self):
        s = Scenario(unit_cost=26.7, cost_scale=0.5)
        assert s.cost_model().unit_cost == pytest.approx(13.35)

    def test_cost_scale_literal(self):
        s = Scenario(cost_scale=1.0)
        assert s.cost_model().unit_cost == pytest.approx(26.7)

    def test_cost_scale_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            Scenario(cost_scale=0.0).cost_model()

    def test_model_alpha_propagates(self):
        s = Scenario(alpha=0.37)
        assert s.model().alpha == 0.37

    def test_performance_model_shape(self):
        s = Scenario()
        perf = s.performance_model()
        assert perf.capacity == s.capacity
        assert perf.n_routers == s.n_routers


class TestSolve:
    def test_solve_returns_valid_strategy(self):
        strategy = Scenario(alpha=0.7).solve()
        assert 0.0 <= strategy.level <= 1.0
        assert strategy.alpha == 0.7

    def test_solve_with_gains_consistent(self):
        scenario = Scenario(alpha=0.7)
        strategy, gains = scenario.solve_with_gains()
        assert gains.origin_load_optimal <= gains.origin_load_baseline
        strategy2 = scenario.solve()
        assert strategy.level == pytest.approx(strategy2.level, rel=1e-12)

    def test_solve_method_passthrough(self):
        strategy = Scenario(alpha=0.7).solve(method="scalar-min")
        assert strategy.method == "scalar-min"

    def test_literal_cost_scale_pins_level_to_zero(self):
        """With the paper's literal (unnormalized) units, the cost term
        dominates and any alpha < 1 collapses to no coordination —
        the degeneracy documented in EXPERIMENTS.md."""
        strategy = Scenario(alpha=0.9, cost_scale=1.0).solve()
        assert strategy.level == pytest.approx(0.0, abs=1e-6)


class TestValidation:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ParameterError):
            Scenario(alpha=-0.1)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ParameterError):
            Scenario(gamma=0.0)

    def test_rejects_bad_access_latency(self):
        with pytest.raises(ParameterError):
            Scenario(access_latency=0.0)

    def test_rejects_bad_peer_delta(self):
        with pytest.raises(ParameterError):
            Scenario(peer_delta=-1.0)
