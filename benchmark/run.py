"""Benchmark of abscompat: four workloads, checked outputs, end-to-end metrics,
a traced run for per-layer metrics, and a steadiness mode.

Run from the repository root:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --steady RUNS [--workload NAME ...] [--seed FIRST]
                             [--seconds S] [--trace 0|1]

A run prints one JSON object as its last line of standard output and writes
it, with per-round detail (and the spans of a traced run), under .bench_out/.
The library is imported from src/ of the same checkout and from nowhere else.
See benchmark/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# One BLAS thread in every run; fixed before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from numpy.linalg import eigh as _eigh
from numpy.linalg import svd as _svd

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402

LIBRARY_MODULES = ("algebra", "linalg", "relations", "sampling", "preservers",
                   "suites", "serialize", "cli", "errors", "reports")
SETUP_FIRST = 3
SETUP_EVERY_S = 1.0
SEGMENT_S = 0.25
"""Operations are timed in segments of at least this long, each bracketed
by samples of the host's speed."""
REFERENCE_S = 0.02
"""How long each sample of the host's speed runs the reference piece."""
SAMPLE_EVERY_S = 0.05
"""Inside a call, a timer signal samples the host's speed this often."""
REFERENCE_QUIET_S = 1.1e-4
"""The reference piece's time on a quiet host: about its fastest on the
2-vCPU Xeon host where the benchmark was tuned (0.108 to 0.124 ms
in most runs)."""
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def _library_modules() -> list[str]:
    return [n for n in sys.modules if n == "abscompat" or n.startswith("abscompat.")]


def import_library() -> SimpleNamespace:
    """Import abscompat afresh from this checkout's src/ and return its modules."""
    for name in _library_modules():
        del sys.modules[name]
    package = importlib.import_module("abscompat")
    if Path(package.__file__).resolve().parent != (SRC / "abscompat").resolve():
        raise ImportError(f"abscompat was imported from {package.__file__}, not from {SRC}")
    modules = {name: importlib.import_module(f"abscompat.{name}") for name in LIBRARY_MODULES}
    return SimpleNamespace(package=package, **modules)


class HostSpeed:
    """The host's speed at the moment, read from a fixed reference piece.

    The host's other tenants slow every computation here by up to about 1.9x,
    in phases that last from milliseconds to minutes, often a whole run (see
    the README). So every timed stretch of the program is scaled by
    REFERENCE_QUIET_S over the mean time of a fixed numpy piece near it: its
    cost in reference pieces, read as the seconds it takes on a quiet host.
    The piece runs for REFERENCE_S before and after each segment of calls
    and, inside a call, from a timer signal every SAMPLE_EVERY_S; the time of
    those samples is taken out of the call's. It calls numpy.linalg bound at
    import, so a traced run never counts it as the program's."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        self._x, self._h = x, x @ x.conj().T
        self.fastest = math.inf
        self.samples: list[float] = []
        self._inside: list[tuple[float, float, float]] = []  # (start, length, piece)
        signal.signal(signal.SIGALRM, self._sample_inside)

    def _piece(self) -> None:
        for _ in range(8):
            _svd(self._x, compute_uv=False)
            _eigh(self._h)

    def sample(self) -> float:
        """The mean time of pieces run for REFERENCE_S; the fastest is kept."""
        start = now = time.perf_counter()
        pieces = 0
        while now - start < REFERENCE_S:
            self._piece()
            pieces, last = pieces + 1, now
            now = time.perf_counter()
            self.fastest = min(self.fastest, now - last)
        self.samples.append((now - start) / pieces)
        return self.samples[-1]

    def _sample_inside(self, signum, frame) -> None:
        start = time.perf_counter()
        self._piece()  # untimed: brings the piece back into the caches
        middle = time.perf_counter()
        self._piece()
        end = time.perf_counter()
        self._inside.append((start, end - start, end - middle))

    def timed(self, call) -> tuple[object, float, list[float]]:
        """``call()``, its seconds without the samples taken inside it, and
        their piece times. A sample runs between two bytecodes of this
        thread, so it lies wholly inside or wholly outside the call."""
        self._inside.clear()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            t0 = time.perf_counter()
            out = call()
            t1 = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        inside = [(length, piece) for start, length, piece in self._inside
                  if start >= t0 and start + length <= t1]
        return out, t1 - t0 - sum(length for length, _ in inside), [p for _, p in inside]


def set_up(workload: workloads.Workload, raw) -> tuple[SimpleNamespace, object]:
    """A fresh import of abscompat plus the workload's build."""
    lib = import_library()
    return lib, workload.build(lib, raw)


def sampled_set_up(workload: workloads.Workload, raw, speed: HostSpeed, tally: "Tally"):
    """One timed set-up, recorded in ``tally`` with the host's speed near it."""
    before = speed.sample()
    (lib, built), seconds, inside = speed.timed(lambda: set_up(workload, raw))
    tally.setups.append((seconds, statistics.fmean([before, speed.sample(), *inside])))
    return lib, built


class Tally:
    """Operations attempted, failed (raised) and wrong (failed their check),
    the latency of every operation by round, and every set-up time, each
    with the reference piece's time around it (see ``HostSpeed``)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []
        # (the round's ops, the seconds of each call, the reference time
        # around each call): floats in arrays, so the record adds little to
        # the peak RSS that the run reports
        self.rounds: list[tuple[list[workloads.Op], array, array]] = []
        self.setups: list[tuple[float, float]] = []

    def calls(self, rounds=None) -> dict[str, list[float]]:
        """Every call's seconds on a quiet host, by op, over ``rounds``
        (default: all)."""
        calls: dict[str, list[float]] = {}
        for ops, seconds, refs in self.rounds if rounds is None else rounds:
            for op, s, ref in zip(ops, seconds, refs):
                calls.setdefault(op.label, []).append(s * REFERENCE_QUIET_S / ref)
        return calls

    def wall_s(self, rounds=None) -> float:
        """The time of one call of every op, each at its median."""
        return sum(statistics.median(c) for c in self.calls(rounds).values())

    def op_p50_s(self) -> float:
        """The median call over all calls."""
        return statistics.median(s for c in self.calls().values() for s in c)

    def setup_s(self) -> float:
        return statistics.median(s * REFERENCE_QUIET_S / ref for s, ref in self.setups)


def schedule(ops: list[workloads.Op]) -> list[workloads.Op]:
    """One round: every op once, then again each op that repeats, pass after
    pass, so an op's calls are spread over the round."""
    if len({op.label for op in ops}) != len(ops):
        raise ValueError("op labels must be unique: an op's calls are found by its label")
    passes = max(op.repeats for op in ops)
    return [op for k in range(passes) for op in ops if op.repeats > k]


def attempt(op: workloads.Op) -> tuple[bool, object]:
    try:
        return True, op.call()
    except Exception as exc:  # a failed op is counted and the run goes on
        return False, exc


def run_round(ops: list[workloads.Op], tally: Tally, speed: HostSpeed, between=None) -> None:
    """One round: time every op, then check the outputs outside the timing.
    Ops run in segments of at least SEGMENT_S, with the host's speed sampled
    before and after each; a call's reference time is the mean of those two
    samples and of the ones taken inside it. ``between()``, when given, runs
    between segments."""
    outputs, seconds, refs = [], array("d"), array("d")
    inside: list[list[float]] = []  # the samples inside each call of the segment
    before, segment_start = speed.sample(), time.perf_counter()
    for index, op in enumerate(ops):
        out, s, pieces = speed.timed(lambda: attempt(op))
        outputs.append(out)
        seconds.append(s)
        inside.append(pieces)
        if time.perf_counter() - segment_start >= SEGMENT_S or index == len(ops) - 1:
            after = speed.sample()
            refs.extend(statistics.fmean([before, after, *pieces]) for pieces in inside)
            inside.clear()
            if between is not None:
                between()  # a set-up there ends with a sample of its own
            before, segment_start = speed.samples[-1], time.perf_counter()
    tally.rounds.append((ops, seconds, refs))
    for op, (ok, out) in zip(ops, outputs):
        tally.attempted += 1
        if not ok:
            tally.failures.append(f"{op.label}: {out!r}")
            continue
        why = op.check(out)
        if why is not None:
            tally.wrong.append(f"{op.label}: {why}")


def run_rounds(ops: list[workloads.Op], seconds: float, tally: Tally, speed: HostSpeed,
               between=None) -> None:
    """Whole rounds while the next one, judged by the last, fits in ``seconds``
    (always at least one)."""
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        run_round(ops, tally, speed, between)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return


def tail_percentile(samples_ms: list[float]) -> dict[str, float]:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(samples_ms)
    for p in (99.9, 99.0, 90.0):
        if len(ordered) * (1.0 - p / 100.0) >= 10:
            return {f"p{p:g}": ordered[int(len(ordered) * p / 100.0)]}
    return {}


def measure(args: argparse.Namespace) -> int:
    workload = workloads.WORKLOADS[args.workload]
    try:
        import_library()
    except ImportError as exc:
        print(f"error: cannot import abscompat from {SRC}: {exc}", file=sys.stderr)
        return 2
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{stem}-{os.getpid()}"
    tally = Tally()
    speed = HostSpeed()
    last_setup = time.perf_counter()

    def repeat_set_up() -> None:
        # Set-up is sampled all through the run, so that its median does not
        # hang on the machine's state during one short stretch. The program
        # keeps running on the modules it started with.
        nonlocal last_setup
        if time.perf_counter() - last_setup < SETUP_EVERY_S:
            return
        running = {name: sys.modules[name] for name in _library_modules()}
        sampled_set_up(workload, raw, speed, tally)
        for name in _library_modules():
            del sys.modules[name]
        sys.modules.update(running)
        gc.collect()  # frees the unused copy, so peak RSS does not grow with the run
        last_setup = time.perf_counter()

    try:
        raw = workload.prepare(args.seed, workdir)
        for _ in range(SETUP_FIRST):
            lib, built = sampled_set_up(workload, raw, speed, tally)
        ops = schedule(workload.ops(lib, built))
        if args.trace:
            run_rounds(ops, args.seconds / 2.0, tally, speed)
            untraced = tally.rounds[:]
            tracer = tracing.Tracer()
            tracer.install(lib)
            try:
                # every op once, so per-layer figures describe one call of each
                run_round(workload.ops(lib, workload.build(lib, raw)), tally, speed)
            finally:
                tracer.uninstall()
            overhead = tally.wall_s(tally.rounds[-1:]) - tally.wall_s(untraced)
            metrics = {name: {"value": value, "unit": tracing.unit_of(name)}
                       for name, value in tracer.per_layer(overhead).items()}
        else:
            run_rounds(ops, args.seconds, tally, speed, repeat_set_up)
            values = {
                "setup_s": tally.setup_s(),
                "wall_s": tally.wall_s(),
                "op_p50_ms": tally.op_p50_s() * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": not tally.wrong, "attempted": tally.attempted,
              "failed": len(tally.failures), "metrics": metrics}
    for line in (tally.failures + tally.wrong)[:20]:
        print(f"{args.workload}: {line}", file=sys.stderr)
    op_ms = [s * 1e3 for _, seconds, _ in tally.rounds for s in seconds]
    detail = {
        "result": result, "seconds": args.seconds, "ops_per_round": len(ops),
        "rounds": len(tally.rounds),
        "round_op_seconds": [sum(seconds) for _, seconds, _ in tally.rounds],
        "setup_seconds": [s for s, _ in tally.setups],
        "reference_ms": {"fastest": speed.fastest * 1e3,
                         "median": statistics.median(speed.samples) * 1e3,
                         "slowest": max(speed.samples) * 1e3, "samples": len(speed.samples)},
        "op_latency_ms": {"n": len(op_ms), "p50": statistics.median(op_ms), **tail_percentile(op_ms)},
        "failures": tally.failures[:20], "wrong": tally.wrong[:20],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if args.trace:
        spans = {"fields": ["id", "parent", "name", "start_s", "end_s"], "spans": tracer.spans}
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# steadiness mode
# ---------------------------------------------------------------------------


def _one_run(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def steady(args: argparse.Namespace) -> int:
    """Run each workload ``args.steady`` times with consecutive seeds and
    print the median and quartiles of every metric. Untraced, the spread
    (q3 - q1) / median is compared with a third of the metric's bound in
    BENCHMARK.json. Traced, every seed runs twice and counts must repeat."""
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    summary = {}
    for name in args.workload or list(workloads.WORKLOADS):
        runs, repeats = [], []
        for i in range(args.steady):
            runs.append(_one_run(name, args.seed + i, args.seconds, args.trace))
            if args.trace:
                again = _one_run(name, args.seed + i, args.seconds, args.trace)
                repeats += [m for m, v in runs[-1]["metrics"].items()
                            if v["unit"] == "count" and v["value"] != again["metrics"][m]["value"]]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"== {name}: {len(runs)} runs, seeds {args.seed}..{args.seed + args.steady - 1}, "
              f"attempted {[r['attempted'] for r in runs]}, failed share {shares}, "
              f"correct {all(r['correct'] for r in runs)}")
        rows = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            verdict = ""
            if metric in bounds:
                verdict = f"bound {bounds[metric]:g} " + (
                    "ok" if spread < bounds[metric] / 3 else "SPREAD ABOVE A THIRD OF THE BOUND")
            if not args.trace or metric in bounds or metric.endswith("time_s"):
                print(f"  {metric:48s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                      f"spread {spread:.4f} {verdict}")
        if args.trace:
            print(f"  counts that differ between two runs of one seed: {sorted(set(repeats)) or 'none'}")
        summary[name] = {"runs": runs, "quartiles": rows, "failed_shares": shares}
    OUT.mkdir(exist_ok=True)
    (OUT / f"steady-{'+'.join(summary)}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS",
                        help="run each workload RUNS times and print quartiles")
    args = parser.parse_args(argv)
    if args.steady:
        return steady(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("a measured run takes exactly one --workload")
    args.workload = args.workload[0]
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
