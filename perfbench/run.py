"""sumkit benchmark: one workload, one seed, one timed closed-loop run.

    python3 perfbench/run.py --workload scatter --seed 1 --seconds 25 --trace 0

Run from the root of a sumkit checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the last stdout line is a JSON object
with the end-to-end metrics; with ``--trace 1`` the workload runs again
under the outside-in tracer and the object holds the per-layer metrics.
The run record (machine, seed, sample counts, tail percentile, failures)
and a diff against the previous run of the same workload and mode go to
stderr; records are kept in ``.perfbench-results/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("scatter", "cli-cold", "cli-warm"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_paths() -> str | None:
    """Put the checkout's sources first; None if they are missing."""
    src = ROOT / "src"
    if not (src / "sumkit" / "__init__.py").is_file():
        return f"no sumkit sources under {src}"
    sys.path[:0] = [str(src), str(HERE)]
    import sumkit
    if Path(sumkit.__file__).resolve().parent != (src / "sumkit").resolve():
        return f"sumkit imported from {sumkit.__file__}, not from {src}"
    return None


def _probe(args: argparse.Namespace) -> int:
    """Set up once in this fresh process, say so, and exit."""
    from sumbench import workloads
    work = Path(args.setup_probe)
    workloads.make(args.workload, ROOT).setup(args.seed, work)
    print("ready", flush=True)
    return 0


def _setup_times(args: argparse.Namespace, work: Path
                 ) -> tuple[list[float], list[float]]:
    """Seconds from process start to ready, for fresh set-up processes,
    and the host-speed child's seconds before the first probe and after
    each (see sumbench/hostspeed.py).

    Each probe runs in its own empty directory except the last, which
    uses ``work`` so that the main process can reuse what it left there.
    """
    from sumbench import hostspeed

    times, kernel_s = [], [hostspeed.measure_child()]
    for i in range(SETUP_REPEATS):
        probe_dir = work if i == SETUP_REPEATS - 1 else work / f"probe{i}"
        probe_dir.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds", "0",
               "--setup-probe", str(probe_dir)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                              text=True) as proc:
            try:
                line = proc.stdout.readline()
            except BaseException:
                proc.kill()
                raise
            elapsed = time.perf_counter() - start
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe {i} failed")
        times.append(elapsed)
        kernel_s.append(hostspeed.measure_child())
        if probe_dir != work:
            shutil.rmtree(probe_dir, ignore_errors=True)
    return times, kernel_s


def _scaled_setup_s(times: list[float], kernel_s: list[float]) -> list[float]:
    """Each probe's time scaled to the reference host by the mean of the
    host-speed child runs just before and just after it."""
    from sumbench import hostspeed

    return [t * hostspeed.CHILD_REFERENCE_S
            / statistics.mean(kernel_s[i:i + 2])
            for i, t in enumerate(times)]


def _result(args, outcome, setup_times, setup_kernel_s
            ) -> tuple[dict, dict]:
    from sumbench import layers, record

    attempted = outcome.attempted
    failed = len(outcome.failures)
    ok = attempted - failed
    sample = {"ops": attempted}
    if args.trace:
        values = outcome.layers.metrics(dict(
            outcome.extra, **{"trace.ops_per_s": outcome.ops_per_s()}))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
        context = {}
    else:
        latency, context = record.latency_metrics(outcome.op_latencies())
        values = {
            "setup_s": statistics.median(
                _scaled_setup_s(setup_times, setup_kernel_s)),
            "ops_per_s": outcome.ops_per_s(),
            "op_p50_ms": latency["op_p50_ms"],
            "op_tail_ms": latency["op_tail_ms"],
            "success_rate": ok / attempted,
            "peak_rss_mb": outcome.peak_rss_mb,
        }
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                 "op_tail_ms": "ms", "success_rate": "ratio",
                 "peak_rss_mb": "MB"}
        metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
        sample = {"setup_s": len(setup_times),
                  "ops_per_s": len(outcome.unit_sizes or ()) or attempted,
                  "op_p50_ms": attempted, "op_tail_ms": attempted,
                  "success_rate": attempted,
                  "peak_rss_mb": 1 if args.workload == "scatter" else attempted}
        context["setup_samples_s"] = setup_times
        context["setup_kernel_s"] = setup_kernel_s
        context["ops_per_wall_s"] = ok / outcome.wall_s
        if outcome.kernel_s:
            raw, _ = record.latency_metrics(outcome.latencies)
            context["unscaled_ms"] = raw
            context["host_kernel_median_s"] = statistics.median(
                outcome.kernel_s)
    result = {"correct": attempted >= 1 and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    run_record = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, machine=record.machine(), wall_s=outcome.wall_s,
        attempted=attempted, failed=failed,
        error_rate=failed / attempted if attempted else 1.0,
        failures=outcome.failures[:20], sample_counts=sample,
        metrics=metrics, **context)
    return result, run_record


def main(argv: list[str]) -> int:
    args = _parse(argv)
    problem = _import_paths()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return _probe(args)

    from sumbench import record, workloads

    # a terminated run still cleans up its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, setup_kernel_s = ([], []) if args.trace \
            else _setup_times(args, work)
        workload = workloads.make(args.workload, ROOT)
        state = workload.setup(args.seed, work)
        outcome = workload.run(state, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    result, run_record = _result(args, outcome, setup_times, setup_kernel_s)
    results_dir = ROOT / ".perfbench-results"
    untraced = results_dir / f"{args.workload}-trace0.json"
    if args.trace and untraced.exists():
        base = json.loads(untraced.read_text())["metrics"]["ops_per_s"]["value"]
        traced = result["metrics"]["trace.ops_per_s"]["value"]
        run_record["tracing_overhead"] = {
            "untraced_ops_per_s": base, "traced_ops_per_s": traced,
            "traced_over_untraced": traced / base if base else None}
    lines = record.save_and_diff(results_dir, run_record)
    print(json.dumps(run_record, indent=1, sort_keys=True), file=sys.stderr)
    print("\n".join(lines), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
