"""Parameter-sweep engine for the evaluation figures.

Every figure of the paper is a family of 1-D sweeps: one scenario
field varies along the x-axis, one field distinguishes the curves, and
some scalar of the solved optimum (``ℓ*``, ``G_O`` or ``G_R``) is the
y-value.  :func:`sweep` columnizes the whole curves × x grid into one
:class:`~repro.core.batch_solver.ScenarioGrid` and solves it in a single
vectorized pass, returning structured :class:`Series`/:class:`FigureData`
objects the benchmarks and the CLI render.

The default ``solver="exact"`` hands the grid to
:func:`~repro.core.batch_solver.solve_batch`, whose optimum is
bit-identical to the scalar :func:`~repro.core.optimizer.optimal_strategy`
(the gains evaluated at it agree to a few float64 ulps); the scalar
:func:`solve_quantity` stays as the per-point test oracle.
``solver="approx"`` answers the same quantities from the Che/TTL
approximation of LRU dynamics (:mod:`repro.approx`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from ..approx.batch import approx_batch
from ..core.batch_solver import ScenarioGrid, evaluate_gains_batch, solve_batch
from ..core.gains import evaluate_gains
from ..core.optimizer import optimal_strategy
from ..core.scenario import Scenario
from ..errors import ParameterError
from ..obs import get_session

__all__ = [
    "Series",
    "FigureData",
    "QUANTITIES",
    "SOLVERS",
    "solve_quantity",
    "sweep",
]


@dataclass(frozen=True)
class Series:
    """One labelled curve: parallel x and y sequences."""

    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ParameterError(
                f"series {self.label!r} has mismatched lengths "
                f"({len(self.x)} x vs {len(self.y)} y)"
            )

    def y_at(self, x_value: float, *, tolerance: float = 1e-9) -> float:
        """The y value at an exact x grid point."""
        for xv, yv in zip(self.x, self.y):
            if abs(xv - x_value) <= tolerance:
                return yv
        raise ParameterError(f"x = {x_value} is not a grid point of {self.label!r}")

    def is_monotone_increasing(self, *, tolerance: float = 1e-9) -> bool:
        """Whether the curve never decreases (up to tolerance)."""
        return all(b >= a - tolerance for a, b in zip(self.y, self.y[1:]))

    def is_monotone_decreasing(self, *, tolerance: float = 1e-9) -> bool:
        """Whether the curve never increases (up to tolerance)."""
        return all(b <= a + tolerance for a, b in zip(self.y, self.y[1:]))


@dataclass(frozen=True)
class FigureData:
    """All series of one reproduced figure, plus axis metadata."""

    figure_id: str
    title: str
    xlabel: str
    ylabel: str
    series: tuple[Series, ...]
    parameters: Mapping[str, object] = field(default_factory=dict)

    def series_by_label(self, label: str) -> Series:
        """Find a series by its label."""
        for s in self.series:
            if s.label == label:
                return s
        raise ParameterError(
            f"figure {self.figure_id} has no series labelled {label!r}"
        )


def _solve_level(scenario: Scenario) -> float:
    return optimal_strategy(scenario.model(), check_conditions=False).level


def _solve_origin_gain(scenario: Scenario) -> float:
    model = scenario.model()
    strategy = optimal_strategy(model, check_conditions=False)
    return evaluate_gains(model, strategy).origin_load_reduction


def _solve_routing_gain(scenario: Scenario) -> float:
    model = scenario.model()
    strategy = optimal_strategy(model, check_conditions=False)
    return evaluate_gains(model, strategy).routing_improvement


#: Named y-axis quantities a sweep can compute from a scenario.
QUANTITIES: Mapping[str, Callable[[Scenario], float]] = {
    "level": _solve_level,
    "origin_gain": _solve_origin_gain,
    "routing_gain": _solve_routing_gain,
}

#: Back-end selectors for :func:`sweep`.  ``"exact"`` solves the paper's
#: closed analytical model (eq. 5) with one batched eq. 10 bisection;
#: ``"approx"`` swaps it for the Che/TTL approximation layer
#: (:func:`repro.approx.batch.approx_batch`), answering the same three
#: quantities under *dynamic* replacement (LRU by default) instead of
#: the paper's idealized placement.
SOLVERS = ("exact", "approx")


def solve_quantity(scenario: Scenario, quantity: str) -> float:
    """Solve one scenario for one named quantity (``level``, ``origin_gain``, ``routing_gain``).

    The scalar oracle the batched sweep path is tested against.
    """
    try:
        fn = QUANTITIES[quantity]
    except KeyError:
        raise ParameterError(
            f"unknown quantity {quantity!r}; expected one of {sorted(QUANTITIES)}"
        )
    return fn(scenario)


def _solve_grid(grid: ScenarioGrid, quantity: str, solver: str) -> np.ndarray:
    """Solve every grid point for ``quantity`` in one vectorized pass.

    ``"exact"`` runs one :func:`~repro.core.batch_solver.solve_batch`
    (which records its own ``solver.batch`` span and points/s gauge);
    ``"approx"`` runs :func:`repro.approx.batch.approx_batch`, which
    re-optimizes the coordination level per point under approximated
    LRU dynamics (memoized per-``(N, s, c, n)`` fixed points; records
    its own ``approx.batch`` span).  Results are in grid order.
    """
    if solver == "approx":
        result = approx_batch(grid)
        if quantity == "level":
            return result.level
        if quantity == "origin_gain":
            return result.origin_gain
        return result.routing_gain
    strategy = solve_batch(grid, check_conditions=False)
    if quantity == "level":
        return strategy.level
    gains = evaluate_gains_batch(grid, strategy)
    if quantity == "origin_gain":
        return gains.origin_load_reduction
    return gains.routing_improvement


def sweep(
    base: Scenario,
    *,
    x_field: str,
    x_values: Sequence[float],
    quantity: str,
    curve_field: Optional[str] = None,
    curve_values: Sequence[float] = (),
    curve_label: Optional[Callable[[float], str]] = None,
    solver: str = "exact",
) -> tuple[Series, ...]:
    """Run a 1-D sweep, optionally fanned out into multiple curves.

    Parameters
    ----------
    base:
        The scenario supplying every non-swept parameter.
    x_field / x_values:
        The scenario field for the x-axis and its (non-empty) grid.
    quantity:
        Which y-quantity to solve (a key of :data:`QUANTITIES`).
    curve_field / curve_values:
        Optional second field: one :class:`Series` per value.
    curve_label:
        Formats a curve value into a series label; defaults to
        ``"{field}={value}"``.
    solver:
        Which model backs the y-values (one of :data:`SOLVERS`).
        ``"exact"`` (the default) matches :func:`solve_quantity` per
        point: bit for bit in ``level``, to a few ulps in the gains.
        ``"approx"`` answers the same quantities from the Che/TTL
        approximation of LRU dynamics.

    Every invalid request (unknown quantity, solver or field name, an
    empty axis, an out-of-domain value) raises
    :class:`~repro.errors.ParameterError`.
    """
    if quantity not in QUANTITIES:
        raise ParameterError(
            f"unknown quantity {quantity!r}; expected one of {sorted(QUANTITIES)}"
        )
    if solver not in SOLVERS:
        raise ParameterError(
            f"unknown solver {solver!r}; expected one of {list(SOLVERS)}"
        )
    if type(base) is not Scenario:
        raise ParameterError(
            "sweep solves plain Scenario grids only; "
            f"got {type(base).__name__} — the batched solvers read only "
            "the Scenario columns, so subclass fields would be ignored"
        )
    if len(x_values) == 0:
        raise ParameterError("x_values must contain at least one value")
    if curve_field is None:
        curve_values = (None,)  # type: ignore[assignment]
    elif len(curve_values) == 0:
        raise ParameterError(
            f"curve_values must contain at least one value for {curve_field!r}"
        )

    def label_for(value: object) -> str:
        if curve_field is None:
            return quantity
        if curve_label is not None:
            return curve_label(value)  # type: ignore[arg-type]
        return f"{curve_field}={value}"

    scenarios: list[Scenario] = []
    for curve_value in curve_values:
        scenario = (
            base
            if curve_field is None
            else base.replace(**{curve_field: curve_value})
        )
        scenarios.extend(scenario.replace(**{x_field: xv}) for xv in x_values)
    obs = get_session()
    with obs.span("sweep.grid"):
        ys = _solve_grid(ScenarioGrid.from_scenarios(scenarios), quantity, solver)
    if obs.enabled:
        obs.counter("sweep.grid_points").add(len(scenarios))
        obs.counter("sweep.grids").add()

    xs = tuple(float(v) for v in x_values)
    n_x = len(xs)
    return tuple(
        Series(
            label=label_for(curve_value),
            x=xs,
            y=tuple(float(y) for y in ys[i * n_x : (i + 1) * n_x]),
        )
        for i, curve_value in enumerate(curve_values)
    )
