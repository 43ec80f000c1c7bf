"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_report --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload untraced and reports its end-to-end
metrics; ``--trace 1`` alternates traced and untraced rounds and
reports the per-layer metrics (see ``perfbench/README.md``).  The last
line of standard output is the result object; the line before it
records machine provenance and ``/proc/loadavg`` at the start and end.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread: the measured paths are single-threaded and
# the machine is shared.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch files the set-up writes (the serve stream), removed on exit.
WORK_DIR = ROOT / ".perfbench_work"
#: Set-ups measured per run, each in a fresh interpreter; setup_s is their median.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
#: One calibration kernel sample per this much run time (seconds), taken
#: between ops; slow ops are followed by several samples.
CALIBRATE_EVERY_S = 0.25
CALIBRATE_MAX_BURST = 8
#: Kernel samples a set-up child takes after its (timed) set-up.
SETUP_CALIBRATIONS = 3


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _setup_only(name: str, seed: int) -> int:
    """Child mode: import, set up, report the elapsed time since start."""
    from workloads import make_workload

    workload = make_workload(name, ROOT, seed, WORK_DIR)
    elapsed = time.perf_counter() - _T0
    workload.close()
    import calibration

    calib_ms = _median([calibration.sample_ms() for _ in range(SETUP_CALIBRATIONS)])
    print(json.dumps({"setup_s": elapsed, "calibration_ms": calib_ms}))
    return 0


def _measure_setup(name: str, seed: int) -> list[dict]:
    """Set-up samples from fresh interpreters: {setup_s, calibration_ms}."""
    samples = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                name,
                "--seed",
                str(seed),
                "--setup-only",
            ],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=False,
        )
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            raise RuntimeError(f"set-up of {name} failed (exit {child.returncode})")
        samples.append(json.loads(child.stdout.strip().splitlines()[-1]))
    return samples


class _Loop:
    """Closed loop: rounds of ops until the time budget is spent."""

    def __init__(self, workload, seconds: float, trace: bool):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        #: Calibration points: the median kernel time (ms) of each burst.
        self.calibrations: list[float] = []
        self._calibrated_at = 0.0
        #: Every timed round: (traced, its ops), each op recorded as
        #: (seconds, work, work seconds, calibration point before it).
        self.rounds: list[tuple[bool, list[tuple[float, float, float, int]]]] = []
        # Traced-run state.
        self.layer_ops: list[tuple[str, dict]] = []
        self.counters: dict[str, float] = {}
        self.zipf = {"builds": 0, "hits": 0}

    @property
    def ops(self) -> list[tuple[float, float, float, int]]:
        """The untraced timed ops."""
        return [op for traced, ops in self.rounds if not traced for op in ops]

    def _calibrate(self, samples: int = 1) -> None:
        import calibration

        burst = [calibration.sample_ms() for _ in range(samples)]
        self.calibrations.append(_median(burst))
        self._calibrated_at = time.perf_counter()

    @property
    def speed(self) -> float:
        """Reference kernel time over this run's median kernel time."""
        import calibration

        return calibration.REFERENCE_MS / _median(self.calibrations)

    def _factor(self, point: int) -> float:
        """Scale for an op run after calibration point ``point``.

        The mean of the points just before and just after the op, so a
        speed change during the run is followed.
        """
        import calibration

        after = self.calibrations[point + 1]
        return calibration.REFERENCE_MS / (0.5 * (self.calibrations[point] + after))

    def scaled_round_seconds(self, traced: bool) -> list[float]:
        """Scaled total op time of each traced (or untraced) round."""
        return [
            sum(op[0] * self._factor(op[3]) for op in ops)
            for was_traced, ops in self.rounds
            if was_traced == traced
        ]

    def scaled_ops(self) -> tuple[list[float], float, float]:
        """Untraced op seconds, work and work seconds, scaled to the reference."""
        seconds, work, work_seconds = [], 0.0, 0.0
        for elapsed, op_work, op_work_seconds, point in self.ops:
            factor = self._factor(point)
            seconds.append(elapsed * factor)
            work += op_work
            work_seconds += op_work_seconds * factor
        return seconds, work, work_seconds

    def _run_op(self, index: int, tracer=None) -> Optional[tuple[float, float, float]]:
        """Run, time and check one op: (seconds, work, work seconds).

        An op that raises counts as failed and returns ``None``.
        """
        workload = self.workload
        workload.before_op()
        gc.collect()
        due = int((time.perf_counter() - self._calibrated_at) / CALIBRATE_EVERY_S)
        if due:
            self._calibrate(min(due, CALIBRATE_MAX_BURST))
        self.attempted += 1
        try:
            if tracer is None:
                start = time.perf_counter()
                result = workload.op(index)
                elapsed = time.perf_counter() - start
            else:
                elapsed, result = self._traced_op(index, tracer)
            ok = workload.check(index, result)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if not ok:
            self.failed += 1
        return (elapsed,) + workload.rate_sample(result, elapsed)

    def _traced_op(self, index: int, tracer):
        from repro import obs
        from repro.core import zipf

        from tracing import op_layer_metrics

        tracer.reset()
        before = zipf.zipf_table_stats()
        with obs.session() as session:
            root = tracer.open("op")
            start = time.perf_counter()
            result = self.workload.op(index)
            elapsed = time.perf_counter() - start
            tracer.close(root)
            counters = session.registry.snapshot()["counters"]
        after = zipf.zipf_table_stats()
        self.zipf["builds"] += after["misses"] - before["misses"]
        self.zipf["hits"] += after["hits"] - before["hits"]
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0.0) + value
        tier = self.workload.tier(index)
        self.layer_ops.append((tier, op_layer_metrics(tracer, tier)))
        return elapsed, result

    def run(self) -> None:
        workload = self.workload
        # Warm-up op: fills lazy state and is checked, but not timed.
        self._run_op(0)
        patches = tracer = None
        if self.trace:
            from tracing import Tracer, build_patches

            tracer = Tracer()
            patches = build_patches(tracer)
        self.calibrations.clear()
        self._calibrate()
        deadline = time.perf_counter() + self.seconds
        round_index = 0
        while True:
            traced = self.trace and round_index % 2 == 1
            if traced:
                patches.apply()
            try:
                done = []
                for index in range(workload.round_size):
                    record = self._run_op(index, tracer if traced else None)
                    if record is not None:
                        done.append(record + (len(self.calibrations) - 1,))
            finally:
                if traced:
                    patches.revert()
            self.rounds.append((traced, done))
            round_index += 1
            if time.perf_counter() >= deadline and (
                not self.trace or round_index >= 2
            ):
                break
        self._calibrate()


def _setup_seconds(samples: list[dict]) -> float:
    """Median set-up time, each sample scaled by its own child's kernel time."""
    import calibration

    return _median(
        [s["setup_s"] * calibration.REFERENCE_MS / s["calibration_ms"] for s in samples]
    )


def _end_to_end(loop: _Loop, setup_samples: list[dict]) -> dict:
    """End-to-end metrics; times are scaled to the reference machine's speed."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    seconds, work, work_seconds = loop.scaled_ops()
    return {
        "setup_s": {"value": _setup_seconds(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "op_p50_ms": {"value": _median(seconds) * 1e3, "unit": "ms"},
        "throughput_per_s": {
            "value": work / work_seconds if work_seconds else 0.0,
            "unit": "1/s",
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2
    if args.setup_only:
        return _setup_only(args.workload, args.seed)

    from repro.obs import machine_provenance

    loadavg_start = _loadavg()
    setup_samples = _measure_setup(args.workload, args.seed)
    workload = make_workload(args.workload, ROOT, args.seed, WORK_DIR)
    try:
        gc.collect()
        gc.freeze()
        loop = _Loop(workload, args.seconds, bool(args.trace))
        loop.run()
        if args.trace:
            from tracing import layer_metrics

            metrics = layer_metrics(loop)
        else:
            metrics = _end_to_end(loop, setup_samples)
        extra_attempted, extra_failed = workload.finish()
    finally:
        workload.close()
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    attempted = loop.attempted + extra_attempted
    failed = loop.failed + extra_failed
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "provenance": machine_provenance(),
                "loadavg_start": loadavg_start,
                "loadavg_end": _loadavg(),
                "setup_samples": setup_samples,
                "calibration_points_ms": loop.calibrations,
                "raw_op_p50_ms": _median([op[0] for op in loop.ops]) * 1e3,
                "raw_throughput_per_s": (
                    sum(op[1] for op in loop.ops) / sum(op[2] for op in loop.ops)
                    if loop.ops
                    else 0.0
                ),
                "timed_ops": len(loop.ops),
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
