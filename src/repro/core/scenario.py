"""Scenario: one named bundle of all model parameters (paper Table IV).

The paper's evaluations sweep eight parameters — the trade-off weight
``α``, the tiered latency ratio ``γ``, the Zipf exponent ``s``, the
router count ``n``, the catalog size ``N``, the per-router capacity
``c``, the unit coordination cost ``w`` and the intra-domain latency
``d1 - d0`` — around a base point taken from the US-A topology.
:class:`Scenario` captures one such parameter point, builds the model
stack from it, and supports functional updates (``replace``) so sweep
code stays declarative.

Unit note (faithful to the paper): ``w`` is in milliseconds (Table III's
max pairwise latency) while ``d1 - d0`` defaults to the hop-count metric
(Table III's mean shortest-path hops); the paper mixes these units in
Lemma 2's ``b`` coefficient by design, since only their ratio enters.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..errors import ParameterError
from .cost import CoordinationCostModel
from .validation import require_positive, require_probability
from .gains import PerformanceGains, evaluate_gains
from .latency import LatencyModel
from .objective import PerformanceCostModel
from .optimizer import OptimalStrategy, optimal_strategy
from .performance import RoutingPerformanceModel
from .zipf import ZipfPopularity

__all__ = ["Scenario", "BALANCED_COST_SCALE"]

#: Normalization constant applied to the coordination cost term.
#:
#: The paper's eq. 4 combines a latency ``T`` (a few to ~30 hops or ms)
#: with a cost ``W = w·n·x`` whose literal magnitude at the Table IV
#: base point is ``26.7 · 20 · 1000 ≈ 5.3e5`` — six orders larger, which
#: would pin ``ℓ* = 0`` for every ``α`` below ~0.9999 and contradict the
#: paper's own Figure 4 (smooth trade-off across ``α ∈ (0, 1)``).  The
#: figures therefore imply an (unstated) normalization.  We normalize
#: ``W`` by its maximum at the Table IV base point, ``w₀·n₀·c₀`` with
#: ``(w₀, n₀, c₀) = (26.7, 20, 10³)``, which renders both objective
#: terms O(1)–O(10) and reproduces the paper's reported α-sensitivity
#: ranges.  Pass ``cost_scale=1.0`` for the literal (unnormalized)
#: model.  See EXPERIMENTS.md §"Cost normalization" for the analysis.
BALANCED_COST_SCALE = 1.0 / (26.7 * 20 * 1000.0)


@dataclass(frozen=True)
class Scenario:
    """A complete, immutable parameter point for the model stack.

    Default values are the paper's base setting (Table IV rows for
    Figures 4/8/12, derived from the US-A topology in Table III).

    Parameters
    ----------
    alpha:
        Trade-off weight ``α ∈ [0, 1]``.
    gamma:
        Tiered latency ratio ``γ = (d2-d1)/(d1-d0)``.
    exponent:
        Zipf exponent ``s ∈ (0, 2) \\ {1}``.
    n_routers:
        Number of routers ``n``.
    catalog_size:
        Number of contents ``N``.
    capacity:
        Per-router storage ``c``.
    unit_cost:
        Unit coordination cost ``w`` (ms, per Table III).
    peer_delta:
        Intra-domain latency ``d1 - d0`` (hops by default, per the
        paper's presented results; Table III also gives ms values).
    access_latency:
        ``d0`` — client-to-first-hop latency in the same unit as
        ``peer_delta``.  The optimum is invariant to it (scale-free
        property); it only affects reported absolute latencies and
        ``G_R``.
    fixed_cost:
        ``ŵ`` — constant coordination overhead.
    cost_scale:
        Normalization applied to the cost term before it enters the
        objective (see :data:`BALANCED_COST_SCALE`).  ``1.0`` gives the
        paper's literal, unnormalized eq. 3.
    """

    alpha: float = 0.5
    gamma: float = 5.0
    exponent: float = 0.8
    n_routers: int = 20
    catalog_size: int = 10**6
    capacity: float = 10**3
    unit_cost: float = 26.7
    peer_delta: float = 2.2842
    access_latency: float = 1.0
    fixed_cost: float = 0.0
    cost_scale: float = BALANCED_COST_SCALE

    def __post_init__(self) -> None:
        require_probability(self.alpha, "alpha")
        require_positive(self.gamma, "gamma")
        require_positive(self.access_latency, "access latency d0")
        require_positive(self.peer_delta, "peer delta d1-d0")

    def replace(self, **changes: object) -> "Scenario":
        """Return a copy with the given fields updated (sweep helper).

        Unknown field names raise :class:`~repro.errors.ParameterError`
        (naming them) instead of ``dataclasses.replace``'s ``TypeError``.
        """
        try:
            return dataclasses.replace(self, **changes)
        except TypeError as exc:
            known = {f.name for f in dataclasses.fields(self)}
            unknown = sorted(set(changes) - known)
            if unknown:
                raise ParameterError(
                    f"unknown scenario field(s) {unknown}; expected among {sorted(known)}"
                ) from exc
            raise

    @classmethod
    def from_topology(
        cls,
        topology,
        *,
        metric: str = "hops",
        **overrides: object,
    ) -> "Scenario":
        """Build a scenario from a topology's measured parameters.

        Runs the paper's §V-A extraction — ``n = |V|``,
        ``w = max_{i,j} d_ij``, ``d1-d0`` under the chosen metric — and
        fills the remaining fields from the Table IV defaults (override
        any of them by keyword).  This is the carrier workflow:
        measure the network, pick ``α``, solve.

        Parameters
        ----------
        topology:
            A :class:`~repro.topology.graph.Topology`.
        metric:
            ``"hops"`` (the paper's presented results) or ``"ms"`` for
            the latency-based peer distance.
        overrides:
            Any :class:`Scenario` field (e.g. ``alpha=0.8``).
        """
        from ..topology.parameters import topology_parameters

        params = topology_parameters(topology)
        fields = dict(
            n_routers=params.n_routers,
            unit_cost=params.unit_cost_ms,
            peer_delta=params.peer_delta(metric=metric),
        )
        for key in ("n_routers", "unit_cost", "peer_delta"):
            if key in overrides:
                fields[key] = overrides.pop(key)
        return cls(**fields, **overrides)

    def popularity(self) -> ZipfPopularity:
        """The Zipf popularity model ``(s, N)`` of this scenario."""
        return ZipfPopularity(self.exponent, self.catalog_size)

    def latency(self) -> LatencyModel:
        """The three-tier latency model built from ``d0``, ``d1-d0``, ``γ``."""
        return LatencyModel.from_gamma(
            self.gamma, d0=self.access_latency, peer_delta=self.peer_delta
        )

    def cost_model(self) -> CoordinationCostModel:
        """The linear coordination cost model ``(w·scale, ŵ·scale)``.

        ``unit_cost`` keeps the paper's raw value (ms) for reporting;
        the normalization enters only when the model is built.
        """
        if self.cost_scale <= 0:
            raise ParameterError(
                f"cost_scale must be positive, got {self.cost_scale}"
            )
        return CoordinationCostModel(
            unit_cost=self.unit_cost * self.cost_scale,
            fixed_cost=self.fixed_cost * self.cost_scale,
        )

    def performance_model(self) -> RoutingPerformanceModel:
        """The routing performance model ``T(x)`` for this scenario."""
        return RoutingPerformanceModel(
            popularity=self.popularity(),
            latency=self.latency(),
            capacity=self.capacity,
            n_routers=self.n_routers,
        )

    def model(self) -> PerformanceCostModel:
        """The full weighted objective ``T_w`` for this scenario."""
        return PerformanceCostModel(
            performance=self.performance_model(),
            cost=self.cost_model(),
            alpha=self.alpha,
        )

    def solve(
        self, *, method: str = "auto", check_conditions: bool = True
    ) -> OptimalStrategy:
        """Solve for the optimal strategy at this parameter point."""
        return optimal_strategy(
            self.model(), method=method, check_conditions=check_conditions
        )

    def solve_with_gains(
        self, *, method: str = "auto", check_conditions: bool = True
    ) -> tuple[OptimalStrategy, PerformanceGains]:
        """Solve and evaluate both §IV-E gains in one call."""
        model = self.model()
        strategy = optimal_strategy(
            model, method=method, check_conditions=check_conditions
        )
        return strategy, evaluate_gains(model, strategy)
