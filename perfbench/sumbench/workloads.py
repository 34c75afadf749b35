"""The three workloads: set-up, the timed closed loop, and verification.

Each workload runs one closed-loop client: the next op starts only after
the previous one has finished.  Ops come in units that hold the whole mix
(a block of scatter ops, a pass of CLI requests), and ``run`` keeps
starting whole units until ``seconds`` have passed, ``min_ops`` ops have
run and, for ``cli-cold``, the three passes of one rotation of the heavy
strata are done.  So a run covers the mix exactly and lasts at least
``seconds``, overshooting by less than one unit once the minimum is met.  ``run`` returns
the latencies, the failures and, when traced, the layer totals.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from sumbench import cli_mix, hostspeed, scatter
from sumbench.layers import LayerTotals
from sumbench.tracer import Tracer, install_sumkit, memo_sizes

clock = time.perf_counter


def closed_loop(unit, run_one, seconds: float, min_ops: int,
                min_units: int = 1) -> tuple[float, list[int]]:
    """Run ``run_one`` on every item of ``unit(0)``, ``unit(1)``, ... until
    ``seconds`` have passed, ``min_ops`` items and ``min_units`` units have
    run; return the wall time and the number of items in each unit."""
    start = clock()
    done = index = 0
    sizes = []
    while clock() - start < seconds or done < min_ops or index < min_units:
        n = 0
        for item in unit(index):
            run_one(item)
            n += 1
        sizes.append(n)
        done += n
        index += 1
    return clock() - start, sizes


# span names that stand for a whole op rather than a layer
ROOTS = ("op", "cli.run")


@dataclass
class Outcome:
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    # ops in each unit; kept only where every unit runs the same mix of
    # ops, so that throughput can be read off the median unit
    unit_sizes: list[int] | None = None
    # per op, the host-speed kernel's seconds measured right after it,
    # and the kernel time the op times are scaled to (see hostspeed)
    kernel_s: list[float] = field(default_factory=list)
    reference_s: float = hostspeed.REFERENCE_S
    peak_rss_mb: float = 0.0
    layers: LayerTotals | None = None
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def op_latencies(self) -> list[float]:
        """Op latencies scaled to the reference host (see hostspeed)."""
        return hostspeed.scale(self.latencies, self.kernel_s,
                               self.reference_s)

    def ops_per_s(self) -> float:
        """Verified ops per second of scaled op time.

        With units of the same mix this is the ops of a unit over the
        median unit time, times the share of ops verified, so that a
        stall of the host during a few units does not move it; otherwise
        it is the verified ops over the summed op times."""
        ok = self.attempted - len(self.failures)
        times = self.op_latencies()
        if not self.unit_sizes:
            return ok / sum(times)
        unit_s, start = [], 0
        for n in self.unit_sizes:
            unit_s.append(sum(times[start:start + n]))
            start += n
        return (self.unit_sizes[0] / statistics.median(unit_s)
                * ok / self.attempted)


def _layer_self_share(layers: LayerTotals, wall: float) -> float:
    """Summed self time of the layers (op roots excluded) over wall time."""
    total = layers.layer_self_sum() \
        - sum(layers.self_s.get(name, 0.0) for name in ROOTS)
    return total / wall if wall else 0.0


# -- scatter ------------------------------------------------------------------

class Scatter:
    def setup(self, seed: int, work: Path) -> scatter.State:
        return scatter.setup(seed)

    def run(self, state: scatter.State, seconds: float, trace: bool,
            min_ops: int = 0) -> Outcome:
        out = Outcome()
        tracer = Tracer() if trace else None

        def run_one(op: scatter.Op) -> None:
            t0 = clock()
            if tracer:
                tracer.begin("op")
            try:
                ok = scatter.run_op(op, state)
                reason = None if ok else f"{op.kind} check failed"
            except Exception as exc:  # an op that raises counts as failed
                reason = f"{op.kind} raised {type(exc).__name__}: {exc}"
            finally:
                if tracer:
                    tracer.end()
                    tracer.fold()
            out.latencies.append(clock() - t0)
            out.kernel_s.append(hostspeed.measure())
            if reason:
                out.failures.append(f"op {out.attempted - 1}: {reason}")

        if tracer:
            install_sumkit(tracer)
        try:
            out.wall_s, out.unit_sizes = closed_loop(
                lambda i: state.blocks[i % len(state.blocks)], run_one,
                seconds, min_ops)
        finally:
            if tracer:
                tracer.restore()
        out.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            out.layers = LayerTotals()
            out.layers.add_tracer(tracer)
            out.extra.update(memo_sizes())
            out.extra["trace.self_share"] = _layer_self_share(out.layers,
                                                              out.wall_s)
        return out


# -- the CLI workloads ----------------------------------------------------------

@dataclass
class Launch:
    req: cli_mix.Request
    latency: float
    returncode: int
    stdout: str
    rss_mb: float
    trace: dict | None = None


class CliRunner:
    """Starts one CLI process per request and reaps it with its rusage."""

    def __init__(self, root: Path, work: Path, cache_dir: Path, trace: bool):
        self.work = work
        self.cache_dir = cache_dir
        self.trace = trace
        src = str(root / "src")
        self.env = dict(os.environ, SUMKIT_CACHE_DIR=str(cache_dir))
        if trace:
            self.env["PYTHONPATH"] = os.pathsep.join(
                [src, str(root / "perfbench")])
            self.trace_file = work / "spans.json"
            self.env["PERFBENCH_TRACE_OUT"] = str(self.trace_file)
            self.prefix = [sys.executable, "-m", "sumbench.child"]
        else:
            self.env["PYTHONPATH"] = src
            self.prefix = [sys.executable, "-m", "sumkit.cli"]
        self.cwd = str(root)

    def launch(self, req: cli_mix.Request) -> Launch:
        with tempfile.TemporaryFile(dir=self.work) as err:
            t0 = clock()
            proc = subprocess.Popen(self.prefix + list(req), env=self.env,
                                    cwd=self.cwd, stdout=subprocess.PIPE,
                                    stderr=err)
            try:
                with proc.stdout:
                    stdout = proc.stdout.read()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            _, status, usage = os.wait4(proc.pid, 0)
            latency = clock() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        spans = None
        if self.trace and self.trace_file.exists():
            spans = json.loads(self.trace_file.read_text())
            self.trace_file.unlink()
        return Launch(req, latency, proc.returncode,
                      stdout.decode("utf-8", "replace"),
                      usage.ru_maxrss / 1024.0, spans)
    def reset_cache(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)

    def cache_signature(self) -> tuple:
        return tuple(sorted((p.name, p.stat().st_size, p.stat().st_mtime_ns)
                            for p in self.cache_dir.iterdir()))

    def cache_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.cache_dir.iterdir())


def compile_sources(root: Path) -> None:
    """Import the CLI once in a child so later starts find compiled bytecode."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, "-c", "import sumkit.cli"], env=env,
                   cwd=str(root), check=True)


def _cli_outcome(launches: list[Launch], kernel_s: list[float], check,
                 wall: float, trace: bool, cache_bytes: int) -> Outcome:
    """Verify every launch with ``check(index, launch)`` (a reason or None)
    and sum the children's span totals when traced."""
    failures = []
    for i, launch in enumerate(launches):
        reason = check(i, launch)
        if reason:
            failures.append(f"op {i} ({cli_mix.key(launch.req)}): {reason}")
    out = Outcome(latencies=[l.latency for l in launches], failures=failures,
                  wall_s=wall, kernel_s=kernel_s,
                  reference_s=hostspeed.CHILD_REFERENCE_S,
                  peak_rss_mb=max((l.rss_mb for l in launches), default=0.0))
    if not trace:
        return out
    layers = LayerTotals()
    import_s = startup_s = 0.0
    cacheable = hits = 0
    for launch in launches:
        if launch.trace is None:
            continue
        layers.merge(launch.trace)
        import_s += launch.trace["import_s"]
        startup_s += launch.latency - launch.trace["run_s"]
        if cli_mix.cacheable(launch.req):
            cacheable += 1
            hits += launch.trace["calls"].get("cli.cache_store", 0) == 0
    out.layers = layers
    out.extra.update({
        "cli.import_s": import_s,
        "cli.startup_s": startup_s,
        "cli.cache_hit_ratio": hits / cacheable if cacheable else 0.0,
        "cli.cache_bytes": cache_bytes,
        "trace.self_share": _layer_self_share(layers, wall),
    })
    return out


@dataclass
class ColdState:
    seed: int
    verifier: cli_mix.Verifier
    root: Path
    work: Path


class CliCold:
    """One process per request; the cache is emptied before every pass.

    Pass ``i`` of a run is ``cli_mix.draw_pass(seed, i)``."""

    def __init__(self, root: Path):
        self.root = root

    def setup(self, seed: int, work: Path) -> ColdState:
        verifier = cli_mix.Verifier(cli_mix.load_golden())
        compile_sources(self.root)
        return ColdState(seed, verifier, self.root, work)

    def run(self, state: ColdState, seconds: float, trace: bool,
            min_ops: int = 0) -> Outcome:
        runner = CliRunner(state.root, state.work, state.work / "cache", trace)
        launches: list[Launch] = []
        kernel_s: list[float] = []
        cache_bytes = 0

        def next_pass(index: int) -> list[cli_mix.Request]:
            nonlocal cache_bytes
            if index:
                cache_bytes = max(cache_bytes, runner.cache_bytes())
            runner.reset_cache()
            return cli_mix.draw_pass(state.seed, index)

        # at least one rotation, so that the 11th-largest op of any run
        # is a hurwitz-mid request (see cli_mix.strata)
        def run_one(req: cli_mix.Request) -> None:
            launches.append(runner.launch(req))
            kernel_s.append(hostspeed.measure_child())

        wall, _ = closed_loop(next_pass, run_one, seconds, min_ops,
                              min_units=cli_mix.ROTATION)
        cache_bytes = max(cache_bytes, runner.cache_bytes())
        return _cli_outcome(
            launches, kernel_s,
            lambda i, l: state.verifier.check(l.req, l.returncode, l.stdout),
            wall, trace, cache_bytes)


@dataclass
class WarmState:
    requests: list[cli_mix.Request]
    cold_stdout: dict[str, str]
    verifier: cli_mix.Verifier
    root: Path
    cache_dir: Path
    work: Path


def fill_cache(requests: list[cli_mix.Request], cache_dir: Path
               ) -> dict[str, str]:
    """Run the requests in-process against an empty cache; return stdouts.

    Larger degrees go first, so the process builds its largest Hurwitz
    tables before the smaller requests that can reuse them."""
    from sumkit import cli   # only this workload runs the CLI in-process

    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    stdout = {}
    for req in sorted(requests, key=cli_mix.key, reverse=True):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.run(list(req) + ["--cache-dir", str(cache_dir)])
        if code != 0:
            raise RuntimeError(f"cache fill failed: {cli_mix.key(req)}")
        stdout[cli_mix.key(req)] = buffer.getvalue()
    return stdout


class CliWarm:
    """The cacheable requests of three passes, each a hit in a cache filled
    during set-up; a unit is one round of all of them."""

    def __init__(self, root: Path):
        self.root = root

    def setup(self, seed: int, work: Path) -> WarmState:
        requests = cli_mix.warm_requests(seed)
        compile_sources(self.root)
        cache_dir = work / "cache"
        saved = work / "cold-stdout.json"
        if saved.exists() and cache_dir.is_dir():
            cold = json.loads(saved.read_text())   # filled by a set-up probe
        else:
            cold = fill_cache(requests, cache_dir)
            saved.write_text(json.dumps(cold))
        return WarmState(requests, cold,
                         cli_mix.Verifier(cli_mix.load_golden()),
                         self.root, cache_dir, work)

    def run(self, state: WarmState, seconds: float, trace: bool,
            min_ops: int = 0) -> Outcome:
        runner = CliRunner(state.root, state.work, state.cache_dir, trace)
        signature = runner.cache_signature()
        launches: list[Launch] = []
        kernel_s: list[float] = []
        stored: set[int] = set()

        def run_one(req: cli_mix.Request) -> None:
            nonlocal signature
            launches.append(runner.launch(req))
            now = runner.cache_signature()
            if now != signature:
                stored.add(len(launches) - 1)
                signature = now
            kernel_s.append(hostspeed.measure_child())

        wall, units = closed_loop(lambda i: state.requests, run_one,
                                  seconds, min_ops)

        def check(i: int, launch: Launch) -> str | None:
            reason = state.verifier.check(launch.req, launch.returncode,
                                          launch.stdout)
            if reason is None and \
                    launch.stdout != state.cold_stdout[cli_mix.key(launch.req)]:
                reason = "warm stdout differs from the cold stdout"
            if reason is None and i in stored:
                reason = "request wrote the cache (not a hit)"
            return reason

        out = _cli_outcome(launches, kernel_s, check, wall, trace,
                           runner.cache_bytes())
        out.unit_sizes = units
        return out


def make(name: str, root: Path):
    if name == "scatter":
        return Scatter()
    if name == "cli-cold":
        return CliCold(root)
    if name == "cli-warm":
        return CliWarm(root)
    raise KeyError(name)

