"""Summary statistics, the run record, and the diff against the previous run."""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``: the 11th-largest sample sits at
    percentile ``100 * (n - 10) / n``.  With ten samples or fewer no such
    percentile exists and the maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return (ordered[-1] if ordered else 0.0), 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def latency_metrics(latencies: list[float]) -> tuple[dict, dict]:
    """``op_p50_ms`` and ``op_tail_ms`` plus their context entries."""
    value, pct = tail(latencies)
    metrics = {"op_p50_ms": 1000.0 * statistics.median(latencies),
               "op_tail_ms": 1000.0 * value}
    context = {"op_tail_percentile": round(pct, 2),
               "op_tail_ops_beyond": 10 if len(latencies) > 10 else 0,
               "op_count": len(latencies)}
    return metrics, context


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "implementation": sys.implementation.name}


def diff(previous: dict | None, current: dict) -> list[str]:
    """One line per metric: previous value, current value, relative change."""
    if not previous:
        return ["no previous result to compare against"]
    lines = [f"vs previous run (seed {previous.get('seed')} -> "
             f"{current.get('seed')}):"]
    old = previous.get("metrics", {})
    for name, entry in current.get("metrics", {}).items():
        now = entry["value"]
        before = old.get(name, {}).get("value")
        if before is None:
            lines.append(f"  {name:40s} {'(new)':>14s} -> {now:.6g}")
            continue
        change = f"{100.0 * (now - before) / before:+.1f}%" if before else "n/a"
        lines.append(f"  {name:40s} {before:14.6g} -> {now:<14.6g} {change}")
    return lines


def save_and_diff(results_dir: Path, record: dict) -> list[str]:
    """Store ``record`` as the latest of its workload/mode; diff the last one."""
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{record['workload']}-trace{record['trace']}.json"
    previous = None
    if path.exists():
        try:
            previous = json.loads(path.read_text())
        except ValueError:
            previous = None
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return diff(previous, record)
