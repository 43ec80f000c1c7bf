"""Unit tests for repro.analysis.sweep — the sweep engine."""

from __future__ import annotations

import pytest

from repro.analysis import defaults, experiments
from repro.analysis.sweep import (
    FigureData,
    QUANTITIES,
    Series,
    solve_quantity,
    sweep,
)
from repro.core.scenario import Scenario
from repro.errors import ParameterError

#: Bound for G_O/G_R of the batched path vs the scalar oracle: the
#: optimum is bit-identical, the eq. 2/6 evaluation at it may differ by
#: a few float64 ulps (see tests/core/test_batch_solver.py).
ULP_TOL = 1e-14


class TestSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            Series(label="x", x=(1.0, 2.0), y=(1.0,))

    def test_y_at(self):
        s = Series(label="x", x=(1.0, 2.0), y=(10.0, 20.0))
        assert s.y_at(2.0) == 20.0

    def test_y_at_missing_raises(self):
        s = Series(label="x", x=(1.0,), y=(10.0,))
        with pytest.raises(ParameterError):
            s.y_at(3.0)

    def test_monotonicity_predicates(self):
        up = Series(label="u", x=(1, 2, 3), y=(1.0, 2.0, 2.0))
        down = Series(label="d", x=(1, 2, 3), y=(3.0, 2.0, 1.0))
        assert up.is_monotone_increasing()
        assert not up.is_monotone_decreasing()
        assert down.is_monotone_decreasing()
        assert not down.is_monotone_increasing()


class TestFigureData:
    def test_series_by_label(self):
        s = Series(label="a", x=(1.0,), y=(2.0,))
        fig = FigureData(
            figure_id="t", title="t", xlabel="x", ylabel="y", series=(s,)
        )
        assert fig.series_by_label("a") is s
        with pytest.raises(ParameterError):
            fig.series_by_label("missing")


class TestSolveQuantity:
    def test_all_registered_quantities(self):
        scenario = Scenario(alpha=0.8)
        for name in QUANTITIES:
            value = solve_quantity(scenario, name)
            assert 0.0 <= value <= 1.0

    def test_unknown_quantity_rejected(self):
        with pytest.raises(ParameterError):
            solve_quantity(Scenario(), "latency_gain")

    def test_level_matches_optimizer(self):
        scenario = Scenario(alpha=0.8)
        assert solve_quantity(scenario, "level") == pytest.approx(
            scenario.solve(check_conditions=False).level
        )


class TestSweep:
    def test_single_series(self):
        series = sweep(
            Scenario(),
            x_field="alpha",
            x_values=(0.2, 0.5, 0.8),
            quantity="level",
        )
        assert len(series) == 1
        assert series[0].x == (0.2, 0.5, 0.8)
        assert len(series[0].y) == 3

    def test_curves_fan_out(self):
        series = sweep(
            Scenario(),
            x_field="alpha",
            x_values=(0.3, 0.7),
            quantity="level",
            curve_field="gamma",
            curve_values=(2.0, 10.0),
        )
        assert [s.label for s in series] == ["gamma=2.0", "gamma=10.0"]

    def test_custom_labels(self):
        series = sweep(
            Scenario(),
            x_field="alpha",
            x_values=(0.5,),
            quantity="level",
            curve_field="gamma",
            curve_values=(5.0,),
            curve_label=lambda g: f"g{g:g}",
        )
        assert series[0].label == "g5"

    def test_sweep_values_match_pointwise_solve(self):
        series = sweep(
            Scenario(),
            x_field="alpha",
            x_values=(0.4, 0.9),
            quantity="level",
            curve_field="gamma",
            curve_values=(6.0,),
        )
        expected = Scenario(alpha=0.9, gamma=6.0).solve(check_conditions=False).level
        assert series[0].y_at(0.9) == expected

    def test_single_point_grid(self):
        series = sweep(Scenario(), x_field="alpha", x_values=(0.5,), quantity="level")
        assert len(series) == 1
        assert series[0].x == (0.5,)

    def test_unknown_quantity_rejected(self):
        with pytest.raises(ParameterError, match="unknown quantity"):
            sweep(Scenario(), x_field="alpha", x_values=(0.5,), quantity="nonsense")


class TestSweepValidation:
    @pytest.mark.parametrize("solver", ["exact", "approx"])
    def test_empty_x_values_rejected(self, solver):
        with pytest.raises(ParameterError, match="x_values"):
            sweep(
                Scenario(), x_field="alpha", x_values=(), quantity="level", solver=solver
            )

    def test_empty_curve_values_rejected(self):
        with pytest.raises(ParameterError, match="curve_values"):
            sweep(
                Scenario(),
                x_field="alpha",
                x_values=(0.5,),
                quantity="level",
                curve_field="gamma",
                curve_values=(),
            )

    @pytest.mark.parametrize(
        "fields",
        [
            {"x_field": "bogus"},
            {"x_field": "alpha", "curve_field": "bogus", "curve_values": (1.0,)},
        ],
    )
    def test_unknown_field_rejected(self, fields):
        kwargs = {"x_values": (0.5,), "quantity": "level", **fields}
        with pytest.raises(ParameterError, match=r"unknown scenario field\(s\) \['bogus'\]"):
            sweep(Scenario(), **kwargs)

    def test_out_of_domain_value_rejected(self):
        with pytest.raises(ParameterError):
            sweep(Scenario(), x_field="alpha", x_values=(1.5,), quantity="level")


class TestSolverSelection:
    BASE = Scenario(capacity=100.0, catalog_size=10_000)

    #: Default x grid per swept field and curve values per curve field.
    GRIDS = {
        "alpha": defaults.ALPHA_GRID,
        "exponent": defaults.EXPONENT_GRID,
        "n_routers": defaults.ROUTER_COUNT_GRID,
        "unit_cost": defaults.UNIT_COST_GRID,
    }
    CURVES = {"gamma": defaults.FIGURE_GAMMAS, "alpha": defaults.CURVE_ALPHAS}

    @pytest.mark.parametrize("figure_id", sorted(experiments._FIGURE_SPECS, key=int))
    def test_exact_matches_oracle_on_figure_grids(self, figure_id):
        # Every point of Figures 4-13 at their default grids: the level is
        # bit-identical to the scalar oracle, the gains agree to ulps.
        quantity, x_field = experiments._FIGURE_SPECS[figure_id]
        curve_field = experiments._X_AXES[x_field][2]
        figure = experiments.ALL_EXPERIMENTS[f"figure{figure_id}"](solver="exact")
        assert len(figure.series) == len(self.CURVES[curve_field])
        for series, curve_value in zip(figure.series, self.CURVES[curve_field]):
            for x, y in zip(self.GRIDS[x_field], series.y):
                point = defaults.BASE_SCENARIO.replace(
                    **{curve_field: curve_value, x_field: x}
                )
                expected = solve_quantity(point, quantity)
                if quantity == "level":
                    assert y == expected
                else:
                    assert y == pytest.approx(expected, abs=ULP_TOL)

    def test_explicit_solvers_match_auto(self):
        # Naming solver="exact" changes nothing against the default, and
        # both agree with the scalar oracle point by point.
        kwargs = dict(
            x_field="alpha", x_values=(0.2, 0.5, 0.8), quantity="level"
        )
        default = sweep(self.BASE, **kwargs)
        exact = sweep(self.BASE, solver="exact", **kwargs)
        assert default == exact
        for x, y in zip(kwargs["x_values"], default[0].y):
            assert y == solve_quantity(self.BASE.replace(alpha=x), "level")

    @pytest.mark.parametrize("quantity", sorted(QUANTITIES))
    def test_approx_solver_answers_every_quantity(self, quantity):
        series = sweep(
            self.BASE,
            x_field="alpha",
            x_values=(0.2, 0.8),
            quantity=quantity,
            solver="approx",
        )
        assert len(series[0].y) == 2
        assert all(0.0 <= y <= 1.0 for y in series[0].y)

    def test_approx_level_rises_with_alpha(self):
        # Heavier performance weighting must not decrease the chosen
        # coordination level under the approximation either.
        series = sweep(
            self.BASE,
            x_field="alpha",
            x_values=(0.05, 0.5, 0.95),
            quantity="level",
            solver="approx",
        )
        assert series[0].is_monotone_increasing(tolerance=1e-9)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ParameterError, match="unknown solver"):
            sweep(
                self.BASE,
                x_field="alpha",
                x_values=(0.5,),
                quantity="level",
                solver="simulated",
            )

    def test_approx_rejects_non_scenario_types(self):
        class HeteroScenario(Scenario):
            pass

        for solver in ("exact", "approx"):
            with pytest.raises(ParameterError, match="plain Scenario"):
                sweep(
                    HeteroScenario(),
                    x_field="alpha",
                    x_values=(0.5,),
                    quantity="level",
                    solver=solver,
                )
