"""Session semantics: ambient install, providers, worker-snapshot merge."""

from __future__ import annotations

import os

import pytest

from repro.analysis.defaults import BASE_SCENARIO
from repro.analysis.sweep import sweep
from repro.core import clear_zipf_caches
from repro.errors import ObservabilityError
from repro.obs import (
    NULL_SESSION,
    ObsSession,
    available_cpus,
    get_session,
    machine_provenance,
    register_provider,
    registered_providers,
    session,
)


class TestAmbientSession:
    def test_default_is_the_null_session(self):
        assert get_session() is NULL_SESSION
        assert not NULL_SESSION.enabled

    def test_null_session_operations_are_shared_noops(self):
        null = get_session()
        assert null.counter("a") is null.counter("b")
        null.counter("a").add(5)
        assert null.counter("a").value == 0.0
        with null.span("x") as span:
            assert span.duration_s == 0.0
        assert null.snapshot()["counters"] == {}

    def test_session_installs_and_restores(self):
        with session() as active:
            assert get_session() is active
            assert active.enabled
            with session() as inner:  # sessions nest; inner shadows outer
                assert get_session() is inner
            assert get_session() is active
        assert get_session() is NULL_SESSION

    def test_session_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with session():
                raise RuntimeError("boom")
        assert get_session() is NULL_SESSION

    def test_finalize_is_idempotent_and_closes_sink(self):
        closed = []

        class Probe:
            def emit(self, event):
                pass

            def close(self):
                closed.append(True)

        active = ObsSession(Probe())
        active.finalize()
        active.finalize()
        assert closed == [True]


class TestProviders:
    def test_zipf_provider_registered_on_import(self):
        assert "zipf" in registered_providers()

    def test_provider_validation(self):
        with pytest.raises(ObservabilityError):
            register_provider("", lambda: {})
        with pytest.raises(ObservabilityError):
            register_provider("x", None)  # type: ignore[arg-type]

    def test_session_records_provider_delta_only(self):
        state = {"calls": 0}
        register_provider("test.delta", lambda: {"test.delta.n": state["calls"]})
        try:
            state["calls"] = 10  # activity before the session: not counted
            with session() as active:
                state["calls"] = 17
            assert active.registry.counter("test.delta.n").value == 7.0
        finally:
            import sys

            sys.modules["repro.obs.session"]._PROVIDERS.pop("test.delta", None)

    def test_zipf_cache_counters_flow_into_session(self):
        from repro.core import ZipfPopularity

        clear_zipf_caches()
        with session() as active:
            ZipfPopularity(0.8, 500).cdf(500)
            ZipfPopularity(0.8, 500).cdf(500)  # memo hit
        counters = active.snapshot()["counters"]
        assert counters.get("zipf.cache.misses", 0) >= 1
        assert counters.get("zipf.cache.hits", 0) >= 1


class TestSnapshotMerge:
    def test_merge_snapshot_folds_spans_and_metrics(self):
        worker = ObsSession()
        with worker.span("sim.region"):
            pass
        worker.counter("solved").add(1)
        parent = ObsSession()
        parent.merge_snapshot(worker.snapshot())
        parent.merge_snapshot(worker.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["solved"] == 2.0
        assert snap["spans"]["sim.region"]["count"] == 2

    def test_snapshot_has_manifest_with_phases(self):
        active = ObsSession(annotations={"run": "test"})
        with active.span("phase"):
            pass
        manifest = active.snapshot()["manifest"]
        assert manifest["annotations"] == {"run": "test"}
        assert "phase" in manifest["phases"]
        assert manifest["provenance"]["python"]


class TestSweepSpans:
    """A sweep records one grid span around one batched solve."""

    def _sweep(self):
        return sweep(
            BASE_SCENARIO,
            x_field="alpha",
            x_values=(0.2, 0.4, 0.6, 0.8),
            quantity="level",
        )

    def test_sweep_records_grid_and_solver_spans(self):
        with session() as active:
            self._sweep()
        snap = active.snapshot()
        assert snap["spans"]["sweep.grid"]["count"] == 1
        assert snap["spans"]["solver.batch"]["count"] == 1
        assert snap["counters"]["sweep.grid_points"] == 4.0
        assert snap["counters"]["solver.batch.points"] == 4.0

    def test_recording_leaves_values_unchanged(self):
        with session():
            observed = self._sweep()
        assert observed == self._sweep()


class TestAvailableCpus:
    def test_at_least_one_and_at_most_the_machine(self):
        cpus = available_cpus()
        assert cpus >= 1
        machine = os.cpu_count()
        if machine:
            assert cpus <= machine

    def test_reported_in_machine_provenance(self):
        provenance = machine_provenance()
        assert provenance["process_cpu_count"] == available_cpus()
