"""chshlab benchmark: end-to-end and per-layer timing of the ``chshlab`` CLI.

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and from nowhere else.  One closed-loop client in
this process calls ``chshlab.cli.main([...])``; each call starts only after
the previous one returns.  A warm-up pass runs first, then whole passes of
the workload (see ``workloads.py``) until ``--seconds`` is spent, with at
least MIN_PASSES passes so that the tail has ten samples beyond it.  Every
output is checked; a non-zero exit, an exception or a failed check counts as
a failed invocation.  Times are scaled by a reference kernel timed around
each pass (see ReferenceKernel); the report also prints them unscaled.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes with the same argv, reports the per-layer
metrics (see ``tracing.py``), checks that traced and untraced outputs are
byte-identical, and reports the tracing overhead.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

# Times are scaled to a machine on which reference_kernel() takes this long.
REFERENCE_S = 0.1
SETUP_REPEATS = 5
MIN_PASSES = 11
MIN_TRACED_PAIRS = 2
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.rows": "count",
    "cli.bytes": "bytes",
    "chsh.self_s": "s",
    "chsh.s_parameter.calls": "count",
    "chsh.s_parameter.self_s": "s",
    "chsh.quantum_bounds.calls": "count",
    "chsh.quantum_bounds.self_s": "s",
    "chsh.bell_operator.calls": "count",
    "chsh.bell_operator.self_s": "s",
    "chsh.haar_sample_s.self_s": "s",
    "linalg.self_s": "s",
    "linalg.herm_eigenvalues.calls": "count",
    "linalg.herm_eigenvalues.self_s": "s",
    "expsim.self_s": "s",
    "expsim.estimate_s.calls": "count",
    "expsim.estimate_s.self_s": "s",
    "expsim.noisy_state.calls": "count",
    "expsim.noisy_state.self_s": "s",
    "expsim.setting_probabilities.calls": "count",
    "expsim.setting_probabilities.self_s": "s",
    "expsim.setting_probabilities.distinct_ratio": "ratio",
    "rng.self_s": "s",
    "rng.binomial.calls": "count",
    "rng.binomial.self_s": "s",
    "rng.standard_normal.self_s": "s",
    "rng.derive_seed.calls": "count",
    "trace_overhead": "ratio",
}


@dataclass
class PassRecord:
    seconds: float
    # Mean reference-kernel time just before and just after the pass.
    reference: float = 0.0
    rows: int = 0
    bytes: int = 0
    # Per invocation: sha256 of the output, or None when the invocation failed.
    digests: list = field(default_factory=list)
    spans: dict = field(default_factory=dict)
    distinct: dict = field(default_factory=dict)


class Client:
    """Runs passes of one workload and counts attempted and failed invocations."""

    def __init__(self, workload, workdir: Path, main=None):
        self.workload = workload
        self.workdir = workdir
        self._main = main
        self.attempted = 0
        self.failures: list[str] = []

    def cli_main(self, argv) -> int:
        if self._main is not None:
            return self._main(argv)
        from chshlab import cli

        # Looked up on every call so that the tracer's wrapper is used.
        return cli.main(argv)

    def fail(self, argv, reason: str) -> None:
        self.failures.append(f"{' '.join(argv)}: {reason}")

    def run_pass(self, seed: int) -> PassRecord:
        # Start every pass from a collected heap, so one pass's garbage is not timed in the next.
        gc.collect()
        record = PassRecord(seconds=0.0)
        for index, invocation in enumerate(self.workload.invocations(seed)):
            out = self.workdir / f"{self.workload.name}-{index}.csv"
            with contextlib.suppress(FileNotFoundError):
                out.unlink()
            argv = [*invocation.argv, "--out", str(out)]
            record.digests.append(None)
            self.attempted += 1
            start = perf_counter()
            try:
                code = self.cli_main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a counted failure, not the end of the run
                record.seconds += perf_counter() - start
                self.fail(argv, traceback.format_exc(limit=-2).strip().replace("\n", " | "))
                continue
            record.seconds += perf_counter() - start
            if code != 0:
                self.fail(argv, f"exit code {code}")
                continue
            try:
                data = out.read_bytes()
            except OSError as exc:
                self.fail(argv, f"cannot read output: {exc}")
                continue
            digest = hashlib.sha256(data).hexdigest()
            record.bytes += len(data)
            try:
                record.rows += invocation.check(data, digest)
            except (workloads.CheckError, ValueError) as exc:  # ValueError: unparsable output
                self.fail(argv, f"check failed: {exc}")
                continue
            record.digests[-1] = digest
        return record


# A fixed mix of interpreter, float-formatting and fresh large-array work,
# timed once per line read from stdin.  It uses no chshlab code, so no change
# to the program moves it; changing it changes every scaled time.
_KERNEL_LOOP = """
import math, sys
from time import perf_counter
import numpy as np
for _ in sys.stdin:
    start = perf_counter()
    total = 0.0
    for i in range(100_000):
        total += math.cos(i * 1e-3)
    ",".join(f"{i * 0.1:.12g}" for i in range(50_000))
    ramp = np.arange(4_000_000, dtype=np.float64)
    np.cumsum(np.exp(-ramp * 1e-7))
    print(perf_counter() - start, flush=True)
"""


class ReferenceKernel:
    """Times the reference kernel in a child process, as a yardstick of machine speed.

    The shared machine this benchmark was built on runs at a speed that drifts
    by tens of percent over minutes.  Each timing is therefore taken between
    two runs of the kernel and scaled by REFERENCE_S over their mean, which
    cancels the drift and keeps seconds as the unit.  The kernel runs in its
    own process so that its memory does not count in ``peak_rss_mb``.
    """

    def __enter__(self) -> "ReferenceKernel":
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _KERNEL_LOOP], cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        return self

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference kernel process exited with {self._proc.wait()}")
        return float(line)

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def bracketed(step, kernel: ReferenceKernel):
    """Wrap ``step`` so that each call returns (result, mean kernel time just before and after it)."""
    before = kernel()

    def call():
        nonlocal before
        result = step()
        after = kernel()
        reference, before = 0.5 * (before + after), after
        return result, reference

    return call


def normalised(seconds: float, reference: float) -> float:
    return seconds * REFERENCE_S / reference


def timed_loop(seconds: float, minimum: int, step) -> list:
    """Call ``step`` until the next call would end after ``seconds``, at least ``minimum`` times."""
    results = []
    start = perf_counter()
    while True:
        results.append(step())
        elapsed = perf_counter() - start
        if len(results) >= minimum and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest sample with TAIL_BEYOND samples above it, its percentile, and the count above.

    With fewer than TAIL_BEYOND + 1 samples this is the maximum, with fewer above.
    """
    ordered = sorted(times)
    beyond = TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0
    rank = len(ordered) - 1 - beyond
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), beyond


def measure_setup(kernel: ReferenceKernel) -> list[tuple[float, float]]:
    """(wall time, reference) of cold interpreters that import chshlab from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = f"import chshlab, sys; sys.exit(not chshlab.__file__.startswith({str(SRC)!r}))"

    def cold_start() -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env, check=True)
        return perf_counter() - start

    step = bracketed(cold_start, kernel)
    return [step() for _ in range(SETUP_REPEATS)]


def _blas() -> tuple[str | None, int | None]:
    """OpenBLAS version and thread count of the BLAS numpy loaded, when it is OpenBLAS."""
    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError, ValueError):
        version = None
    threads = None
    with contextlib.suppress(OSError):
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = int(fn())
                    break
    return version, threads


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    blas_version, blas_threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "workload_seed": seed,
    }


def run_untraced(client: Client, seeds, seconds: float) -> tuple[dict, list, dict]:
    with ReferenceKernel() as kernel:
        setup = measure_setup(kernel)
        client.run_pass(next(seeds))  # warm-up
        step = bracketed(lambda: client.run_pass(next(seeds)), kernel)
        measured = timed_loop(seconds, MIN_PASSES, step)
    passes = []
    for record, reference in measured:
        record.reference = reference
        passes.append(record)
    raw = [p.seconds for p in passes]
    times = [normalised(p.seconds, p.reference) for p in passes]
    wall = statistics.median(times)
    tail_s, tail_pct, beyond = tail(times)
    rows = statistics.median(p.rows for p in passes)
    metrics = {
        "setup_s": statistics.median(normalised(t, r) for t, r in setup),
        "wall_s": wall,
        "rows_per_s": rows / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    reference = statistics.median(p.reference for p in passes)
    notes = {
        "setup_s": f"median of {len(setup)} cold starts; unscaled {statistics.median(t for t, _ in setup):.4g} s",
        "wall_s": f"median of {len(times)} passes; unscaled {statistics.median(raw):.4g} s, reference kernel {reference:.4g} s",
        "rows_per_s": f"{rows:g} rows per pass",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    # With the 11 to 15 passes a run affords, the tail is a low order statistic
    # that spreads too much between runs to carry a bound, so it is only printed.
    printed = {"wall_s.tail": (tail_s, "s", f"p{tail_pct:.1f} of {len(times)} passes, {beyond} beyond")}
    return {name: (metrics[name], END_TO_END_UNITS[name], notes[name]) for name in END_TO_END_UNITS}, passes, printed


def _layer_value(name: str, record: PassRecord) -> float:
    subject, kind = name.rsplit(".", 1)
    if subject in tracing.LAYERS and kind == "self_s":
        return sum(s for span, (_, s) in record.spans.items() if span.split(".", 1)[0] == subject)
    if name == "cli.rows":
        return record.rows
    if name == "cli.bytes":
        return record.bytes
    calls, self_s = record.spans.get(subject, (0, 0.0))
    if kind == "calls":
        return calls
    if kind == "self_s":
        return self_s
    if kind == "distinct_ratio":
        return record.distinct.get(subject, 0) / calls if calls else 0.0
    raise KeyError(name)


def run_traced(client: Client, seeds, seconds: float) -> tuple[dict, list, dict]:
    tracer = tracing.Tracer()

    def pair():
        seed = next(seeds)
        plain = client.run_pass(seed)
        tracer.reset()
        with tracer:
            traced = client.run_pass(seed)
        traced.spans = tracer.snapshot()
        traced.distinct = {span: tracer.distinct(span) for span in tracing.DISTINCT_ARGS}
        for index, (a, b) in enumerate(zip(plain.digests, traced.digests)):
            if a is not None and b is not None and a != b:
                client.fail([f"invocation {index} of seed {seed}"], "traced output differs from untraced")
        return plain, traced

    client.run_pass(next(seeds))  # warm-up
    pairs = timed_loop(seconds, MIN_TRACED_PAIRS, pair)
    traced = [t for _, t in pairs]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace_overhead":
            value = statistics.median(t.seconds for t in traced) / statistics.median(p.seconds for p, _ in pairs)
            identical = sum(p.digests == t.digests and None not in p.digests for p, t in pairs)
            note = f"traced over untraced median pass time; outputs byte-identical in {identical} of {len(pairs)} pairs"
        else:
            value = statistics.median(_layer_value(name, t) for t in traced)
            note = f"per pass, median of {len(traced)} traced passes"
        metrics[name] = (value, unit, note)
    return metrics, traced, {}


def _report(trace: bool, client: Client, env: dict, metrics: dict, passes: list, printed: dict) -> None:
    failed = len(client.failures)
    workload = client.workload
    print(f"workload {workload.name}  trace {int(trace)}  closed loop, 1 client, in-process")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, note) in {**metrics, **printed}.items():
        print(f"  {name:<46} {value:>14.10g} {unit:<7} {note}")
    rate = failed / client.attempted
    print(f"  {'error_rate':<46} {rate:>14.6g} {'ratio':<7} {failed} failed of {client.attempted} invocations")
    if passes:
        print("digests " + json.dumps(passes[0].digests) + (" (information only)" if workload.stochastic else " (pinned)"))
    for failure in client.failures[:20]:
        print("FAILED " + failure)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": client.attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
            }
        )
    )


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package() -> None:
    """Import chshlab from this checkout's ``src/``; exit without a result if it is not there."""
    if not (SRC / "chshlab" / "__init__.py").is_file():
        sys.exit(f"bench: no chshlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chshlab

    if not chshlab.__file__.startswith(str(SRC)):
        sys.exit(f"bench: imported chshlab from {chshlab.__file__}, not from {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    import_package()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        client = Client(workloads.WORKLOADS[args.workload], workdir)
        seeds = workloads.pass_seeds(args.seed)
        run = run_traced if args.trace else run_untraced
        metrics, passes, printed = run(client, seeds, args.seconds)
        _report(bool(args.trace), client, environment(args.seed), metrics, passes, printed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0

if __name__ == "__main__":
    sys.exit(main())
