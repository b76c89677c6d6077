"""Seeded benchmark of the centrostoch CLI, end to end and per layer.

    python3 perfbench/run.py --workload stoch-decompose --seed 20260819 --seconds 30 --trace 0

Runs one workload in this process: a closed loop with one client and no
extra threads, where each op is one in-process `centrostoch.cli.run_command`
call with its standard output captured. (Set-up also times a few child
interpreters that only import the CLI, one at a time.) The fixed op list is repeated in
passes until `--seconds` of measured time is used up. Every op's output is
checked exactly, outside the timed region. With `--trace 0` the last line
of standard output is a JSON object with the end-to-end metrics; with
`--trace 1` untraced and traced passes alternate and it holds the per-layer
metrics. `--workload all` runs every workload, each in its own process.
See perfbench/README.md for the metrics.
"""

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

# every run compiles the sources alike and leaves no bytecode in the checkout
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("stoch-decompose", "centro-decompose", "census")
DEFAULT_SEED = 20260819  # the acceptance sweep's seed; used while tuning
HELD_OUT_SEED = 4099  # kept back for confirming later claims
SETUP_REPEATS = 7
WARMUP_OPS = 3
MIN_PASSES = 3
# Time of the speed kernel below on the machine the benchmark was tuned on
# (a 2-vCPU Xeon VM, Python 3.11.7) in its fast phase. That machine's speed
# for the same code swings by up to 2x over tens of seconds; every timed
# interval is scaled by NOMINAL_KERNEL_S / (kernel time measured around it).
NOMINAL_KERNEL_S = 250e-6
# A child interpreter's start is scaled the same way, by a bare interpreter
# (`python3 -B -c pass`) started just before and just after it, whose time
# on that machine in its fast phase is NOMINAL_BARE_START_S.
NOMINAL_BARE_START_S = 50e-3


def _kernel():
    # fixed work, none of it centrostoch code: Fraction arithmetic (which
    # slows a little more than the ops in the machine's slow phase) and
    # integer arithmetic (which slows a little less), in about equal parts
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i % 7 + 1, i % 97 + 1)
    return total, sum((i * i) % 97 for i in range(1500))


def _kernel_s() -> float:
    """Best of three timings of the speed kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def _scaled_time(fn):
    """Run fn(); returns (its result, seconds scaled to the reference speed,
    unscaled seconds)."""
    before = _kernel_s()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed * NOMINAL_KERNEL_S / ((before + _kernel_s()) / 2), elapsed


def _interpreter_s(code: str) -> float:
    """Seconds for a fresh interpreter to run `code` and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-B", "-c", code], check=True)
    return time.perf_counter() - start


def _start_s(src: Path):
    """(scaled, unscaled) seconds for a fresh interpreter to start and
    import the CLI, one child process at a time."""
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import centrostoch.cli"
    bare = [_interpreter_s("pass")]
    starts = []
    for _ in range(SETUP_REPEATS):
        unscaled = _interpreter_s(code)
        bare.append(_interpreter_s("pass"))
        starts.append((unscaled * NOMINAL_BARE_START_S / ((bare[-2] + bare[-1]) / 2), unscaled))
    return starts


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _run_op(cli, op):
    """Run one op; returns (seconds, exit code or None, escaped error, stdout)."""
    argv = list(op.argv)
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.run_command(argv)
        except Exception as exc:  # an escaped exception is a failed op, not a benchmark crash
            rc, error = None, f"{type(exc).__name__}: {str(exc)[:160]}"
        elapsed = time.perf_counter() - start
    return elapsed, rc, error, out.getvalue()


class Bench:
    """The op list of one workload, run pass after pass and judged."""

    def __init__(self, cli, ops) -> None:
        self.cli = cli
        self.ops = ops
        self.verified = {}  # op index -> (stdout sha256, items) of the checked first output
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = {}  # op label -> reason

    def run_pass(self, recorder=None) -> dict:
        """Run every op once. Each op's time is scaled by the speed kernel
        timed just before and just after it."""
        gc.collect()
        outcomes = []
        if recorder is not None:
            recorder.install()
        try:
            start = time.perf_counter()
            before = _kernel_s()
            for op in self.ops:
                elapsed, rc, error, stdout = _run_op(self.cli, op)
                after = _kernel_s()
                scale = NOMINAL_KERNEL_S / ((before + after) / 2)
                if recorder is not None:
                    recorder.commit(scale)
                outcomes.append((elapsed * scale, rc, error, stdout))
                before = after
            unscaled = time.perf_counter() - start
        finally:
            if recorder is not None:
                recorder.uninstall()
        return self._judge(outcomes, unscaled)

    def _judge(self, outcomes, unscaled) -> dict:
        digest = hashlib.sha256()
        items = stdout_bytes = 0
        wall = 0.0
        for index, (op, (elapsed, rc, error, stdout)) in enumerate(zip(self.ops, outcomes)):
            self.attempted += 1
            self.latencies.append(elapsed)
            wall += elapsed
            data = stdout.encode()
            digest.update(data)
            stdout_bytes += len(data)
            problem = error
            if error is None and rc != op.expect_rc:
                problem = f"exit code {rc}, expected {op.expect_rc}"
            elif error is None:
                problem, op_items = self._verify(index, op, stdout, data)
                items += op_items
            if problem is not None:
                self.failed += 1
                self.failures.setdefault(op.label, problem)
                # a refusal that escapes as an exception still printed no
                # wrong answer; anything else is a wrong result
                if op.expect_rc == 0 or error is None:
                    self.wrong += 1
        return {"wall": wall, "unscaled_wall": unscaled, "items": items,
                "stdout_bytes": stdout_bytes, "stdout_sha256": digest.hexdigest()}

    def _verify(self, index, op, stdout, data):
        sha = hashlib.sha256(data).hexdigest()
        known = self.verified.get(index)
        if known is not None:
            if known[0] != sha:
                return "output differs from the checked output of the first pass", 0
            return None, known[1]
        try:
            op_items = op.check(stdout)
        except Exception as exc:  # unparsable output is a wrong output
            return f"wrong output: {type(exc).__name__}: {exc}", 0
        self.verified[index] = (sha, op_items)
        return None, op_items


def _end_to_end(bench, passes, setup_s):
    wall = statistics.median(p["wall"] for p in passes)
    p50, p90 = statistics.median(bench.latencies), statistics.quantiles(bench.latencies, n=10)[8]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(bench.ops) / wall, "1/s"),
        "items_per_s": (passes[0]["items"] / wall, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _per_layer(spans, recorders, untraced, traced):
    first = recorders[0]
    count = len(recorders)
    metrics = {}
    for name in spans.SPANS:
        metrics[f"{name}.self_s"] = (sum(r.self_s[name] for r in recorders) / count, "s")
        metrics[f"{name}.calls"] = (first.calls[name], "count")
    for name in spans.COUNTERS:
        metrics[name] = (first.counts[name], "count")
    candidates = first.counts["faces.candidates"]
    ratio = first.counts["faces.kept"] / candidates if candidates else 0.0
    metrics["faces.keep_ratio"] = (ratio, "ratio")
    uncovered = [p["wall"] - r.covered_s for p, r in zip(traced, recorders)]
    metrics["bench.untraced_s"] = (sum(uncovered) / count, "s")
    overhead = statistics.median(p["wall"] for p in traced) - statistics.median(
        p["wall"] for p in untraced)
    metrics["bench.trace_overhead_s"] = (overhead, "s")
    return metrics


def _exact_counts(spans, recorder):
    """Counts that must repeat bit for bit for a seed: the call counts and
    counters of one traced pass."""
    counts = {f"{name}.calls": recorder.calls[name] for name in spans.SPANS}
    counts.update((name, recorder.counts[name]) for name in spans.COUNTERS)
    return counts


def _measure(args, bench, spans):
    untraced, traced, recorders = [], [], []
    while True:
        untraced.append(bench.run_pass())
        if args.trace:
            recorder = spans.Recorder()
            traced.append(bench.run_pass(recorder))
            recorder.counts["cli.stdout_bytes"] = traced[-1]["stdout_bytes"]
            recorders.append(recorder)
        rounds = len(untraced)
        spent = sum(p["unscaled_wall"] for p in untraced + traced)
        if (args.trace or rounds >= MIN_PASSES) and spent + spent / rounds > args.seconds:
            return untraced, traced, recorders


def _print_report(args, bench, metrics, provenance, counts):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6f}"
        print(f"  {name:<44} {shown} {unit}")
    if "op_p90_ms" in metrics:
        beyond = sum(1 for x in bench.latencies if x * 1e3 > metrics["op_p90_ms"][0])
        print(f"  {'op latency samples':<44} {len(bench.latencies):>14} ({beyond} beyond p90)")
    ratio = bench.failed / bench.attempted
    print(f"  {'fail_ratio':<44} {ratio:>14.6f} ({bench.failed} failed / {bench.attempted} attempted ops)")
    for label, reason in bench.failures.items():
        print(f"  failed op: {label}: {reason}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("counts " + json.dumps(counts, sort_keys=True))


def _run_workload(args) -> int:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import centrostoch
    import centrostoch.cli as cli

    if Path(centrostoch.__file__).resolve().parent != (src / "centrostoch").resolve():
        print(f"error: centrostoch was imported from {centrostoch.__file__}", file=sys.stderr)
        return 2
    import spans
    import workloads

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"

    def set_up():
        ops, summary = workloads.build(args.workload, args.seed, workdir, small=args.small)
        for op in ops[:WARMUP_OPS]:
            _run_op(cli, op)
        return ops, summary

    try:
        # set-up = interpreter start and import, then inputs and warm-up;
        # each part is repeated and its median counts
        starts = _start_s(src)
        setups = [_scaled_time(set_up) for _ in range(SETUP_REPEATS)]
        ops, summary = setups[-1][0]
        setup_s = (statistics.median(t for t, _ in starts)
                   + statistics.median(t for _, t, _ in setups))
        unscaled_setup_s = (statistics.median(t for _, t in starts)
                            + statistics.median(t for _, _, t in setups))
        bench = Bench(cli, ops)
        untraced, traced, recorders = _measure(args, bench, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    passes = traced if args.trace else untraced
    counts = {
        "items_per_pass": passes[0]["items"],
        "stdout_bytes_per_pass": passes[0]["stdout_bytes"],
        "stdout_sha256": passes[0]["stdout_sha256"],
    }
    repeat = all(p["stdout_sha256"] == counts["stdout_sha256"] for p in untraced + traced)
    if args.trace:
        exact = [_exact_counts(spans, r) for r in recorders]
        repeat = repeat and all(e == exact[0] for e in exact)
        counts.update(exact[0])
        metrics = _per_layer(spans, recorders, untraced, traced)
    else:
        metrics = _end_to_end(bench, untraced, setup_s)
    provenance = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pass_walls_s": {"untraced": [p["wall"] for p in untraced],
                         "traced": [p["wall"] for p in traced]},
        "unscaled_pass_walls_s": {"untraced": [p["unscaled_wall"] for p in untraced],
                                  "traced": [p["unscaled_wall"] for p in traced]},
        "unscaled_setup_s": unscaled_setup_s,
        "samples": len(bench.latencies),
        "unscaled_start_s": [t for _, t in starts],
        "unscaled_set_up_s": [t for _, _, t in setups],
        "inputs": summary,
    }
    _print_report(args, bench, metrics, provenance, counts)
    result = {
        "correct": bench.wrong == 0 and repeat,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--small"] if args.small else [])
        status = max(status, subprocess.run(argv, cwd=ROOT, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held out: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time to fill with passes over the op list")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: alternate untraced and traced passes, report per-layer metrics")
    parser.add_argument("--small", action="store_true",
                        help="only the small shapes: a quick run for the determinism test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "centrostoch" / "__init__.py").is_file():
        print(f"error: no centrostoch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
