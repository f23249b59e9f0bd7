#!/usr/bin/env python3
"""pinlab benchmark runner.

    python3 bench/run.py --workload quenched-phase --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1         # every workload, one summary table
    python3 bench/run.py --smoke                         # the harness's own test, tiny sizes
    python3 bench/run.py --workload solvers --record     # rewrite reference/solvers.json

A closed loop in one process: each operation (an in-process
``pinlab.cli.main([...])`` call, see ``workloads.py``) starts after the previous
one returns, with no worker threads; BLAS keeps its default of at most one
thread per core.  A run repeats the workload's operations ("passes") until
``--seconds`` are spent and reports medians, checking every operation's output.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median over passes of the time the operations take, set-up excluded;
* ``setup_s``: median over fresh processes of the time from process start until
  pinlab is imported and the workload's configs, kernels and disorder laws are
  built (``setup_probe.py``);
* ``peak_rss_mb``: peak resident set of the measuring process.

``--trace 1`` alternates untraced and traced passes (``tracing.py``) and reports
the per-layer metrics, plus the tracing overhead (traced minus untraced
``wall_s``).  Counts must repeat exactly between traced passes.

Human-readable lines come first; the last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment
and every sample go to ``.bench_out/<workload>/result.json``, the spans of the
last traced pass to ``.bench_out/<workload>/trace.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
WORKLOADS = ("quenched-phase", "relevance-scan", "solvers")

SETUP_PROBES = 5
MIN_PASSES = 3   # untraced passes per --trace 0 run, so the median drops a cold first pass
MIN_TRACED = 2   # traced passes per --trace 1 run, so counts can be compared


class HarnessError(Exception):
    """The benchmark could not run; no result is printed."""


def _import_pinlab():
    if not (SRC / "pinlab" / "cli.py").is_file():
        raise HarnessError(f"pinlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import pinlab
    except Exception as exc:
        raise HarnessError(f"cannot import pinlab: {exc!r}") from exc
    if Path(pinlab.__file__).resolve().parent != SRC / "pinlab":
        raise HarnessError(f"imported pinlab from {pinlab.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _blas_threads():
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure_setup(configs: list[str], count: int) -> list[float]:
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), *configs],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                cwd=ROOT)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise HarnessError(f"set-up probe failed: {err.strip()[-500:]}")
        times.append(t1 - t0)
    return times


def run_pass(ops, tracer=None):
    """Run every operation once, in order; returns (outcomes, seconds per op)."""
    for op in ops:
        op.reset()
    outcomes, seconds = [], []
    with tracer or contextlib.nullcontext():
        for op in ops:
            t0 = time.perf_counter()
            outcomes.append(op.execute())
            seconds.append(time.perf_counter() - t0)
    for op, outcome in zip(ops, outcomes):
        op.collect(outcome)
    return outcomes, seconds


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
        import workloads

        self.wl = workloads
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.smoke = trace, smoke
        self.ops = workloads.build(workload, seed, smoke=smoke)
        self.reference = None if smoke else workloads.load_reference(workload)
        self.dir = WORK / (f"smoke-{workload}" if smoke else workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        for op in self.ops:
            op.prepare(self.dir / op.name)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_digests: dict[str, dict] = {}
        self.op_seconds = {op.name: [] for op in self.ops}
        self.digest_match: dict[str, bool | None] = {}

    def _check(self, outcomes, pass_no: int) -> None:
        for op, outcome in zip(self.ops, outcomes):
            self.attempted += 1
            try:
                bad = self.wl.check(op, outcome, self.seed, self.reference)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                bad = [f"malformed output: {exc!r}"]
            first = self.first_digests.setdefault(op.name, outcome.digests)
            if outcome.digests != first:
                bad.append("payload bytes differ from the first pass at the same seed")
            self.digest_match[op.name] = self.wl.digest_matches(op, outcome, self.reference,
                                                                self.seed)
            if bad:
                self.failed += 1
                self.failures.append(f"pass {pass_no} {op.name}: " + "; ".join(bad))

    def _passes(self, kinds):
        """Run passes whose kinds ("plain"/"traced") follow ``kinds`` until time is up."""
        from tracing import Tracer

        start = time.perf_counter()
        results = []
        for pass_no, kind in enumerate(kinds):
            tracer = Tracer() if kind == "traced" else None
            outcomes, secs = run_pass(self.ops, tracer)
            self._check(outcomes, pass_no)
            for op, s in zip(self.ops, secs):
                self.op_seconds[op.name].append(s)
            results.append((kind, sum(secs), tracer, sum(o.output_bytes for o in outcomes)))
            elapsed = time.perf_counter() - start
            if self._enough(results) and elapsed + sum(secs) > self.seconds:
                break
        return results

    def _enough(self, results) -> bool:
        plain = sum(1 for r in results if r[0] == "plain")
        traced = len(results) - plain
        if self.trace:
            return traced >= MIN_TRACED and plain >= 1
        return plain >= (1 if self.smoke else MIN_PASSES)

    def measure(self) -> tuple[dict, dict]:
        """Returns (final JSON object, details for result.json)."""
        from tracing import layer_metrics, unit_of

        kinds = itertools.cycle(["plain", "traced"] if self.trace else ["plain"])
        results = self._passes(kinds)
        plain = [r[1] for r in results if r[0] == "plain"]
        details = {"workload": self.workload, "seed": self.seed, "trace": int(self.trace),
                   "pass_seconds": plain, "op_seconds": self.op_seconds,
                   "payload_matches_reference_bytes": self.digest_match}
        metrics = {}
        if not self.trace:
            setup = measure_setup([str(op.config_path) for op in self.ops],
                                  1 if self.smoke else SETUP_PROBES)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "wall_s": (statistics.median(plain), "s", len(plain)),
                "setup_s": (statistics.median(setup), "s", len(setup)),
                "peak_rss_mb": (rss_mb, "MB", 1),
            }
            details["setup_seconds"] = setup
        else:
            traced = [r for r in results if r[0] == "traced"]
            per_pass = [layer_metrics(t, wall, nbytes) for _, wall, t, nbytes in traced]
            for name in per_pass[0]:
                values = [p[name] for p in per_pass]
                unit = unit_of(name)
                if unit in ("s", "ns/cell"):
                    metrics[name] = (statistics.median(values), unit, len(values))
                elif len(set(values)) != 1:
                    self.failures.append(f"count {name} did not repeat: {values}")
                    metrics[name] = (values[0], unit, len(values))
                else:
                    metrics[name] = (values[0], unit, len(values))
            untraced = statistics.median(plain)
            metrics["trace.untraced_wall_s"] = (untraced, "s", len(plain))
            metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - untraced, "s",
                                           min(len(plain), len(traced)))
            traced[-1][2].dump(self.dir / "trace.json")
            details["traced_pass_seconds"] = [r[1] for r in traced]
        details["failures"] = self.failures
        details["metrics"] = {k: {"value": v, "unit": u, "samples": n}
                              for k, (v, u, n) in metrics.items()}
        result = {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        }
        return result, details

    def report(self, result: dict, details: dict) -> None:
        print(f"# workload {self.workload}  seed {self.seed}  trace {int(self.trace)}  "
              f"seconds {self.seconds}")
        for name, secs in self.op_seconds.items():
            print(f"#   op {name:<22} median {statistics.median(secs):10.4f} s "
                  f"over {len(secs)} passes")
        for name, m in details["metrics"].items():
            print(f"{name:<48} {m['value']:<22.10g} {m['unit']:<15} n={m['samples']}")
        if not self.trace:
            rate = result["failed"] / result["attempted"]
            print(f"{'error_rate':<48} {rate:<22.10g} {'fraction':<15} "
                  f"n={result['attempted']} ({result['failed']} failed)")
        for line in self.failures:
            print(f"FAILED {line}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    _import_pinlab()
    env = environment(args.seed)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    result, details = run.measure()
    details["environment"] = env
    (run.dir / "result.json").write_text(json.dumps(details, indent=1, sort_keys=True) + "\n")
    run.report(result, details)
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process), then a summary."""
    summary = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        summary.append((workload, json.loads(lines[-1])))
    print("# summary")
    for workload, res in summary:
        cells = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()]
        cells.append(f"error_rate {res['failed'] / res['attempted']:.6g} "
                     f"({res['failed']}/{res['attempted']})")
        print(f"{workload:<16} " + "  ".join(cells))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in summary),
        "attempted": sum(r["attempted"] for _, r in summary),
        "failed": sum(r["failed"] for _, r in summary),
        "metrics": {f"{w}.{k}": v for w, r in summary for k, v in r["metrics"].items()},
    }))
    return 0


def run_smoke() -> int:
    """Each workload at a tiny size, both trace modes: every metric that
    BENCHMARK.json names must come out, with its unit, and every check pass."""
    _import_pinlab()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            run = Run(workload, 1, 0.0, bool(trace), smoke=True)
            result, _ = run.measure()
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[str(trace)]:
                missing = sorted(set(want[str(trace)].items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(want[str(trace)].items()))
                problems.append(f"{workload} trace {trace}: missing {missing}, extra {extra}")
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: {run.failures}")
            print(f"smoke {workload} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed")
    for p in problems:
        print(f"SMOKE FAILED {p}", file=sys.stderr)
    return 1 if problems else 0


def record(args) -> int:
    """Rewrite reference/<workload>.json from one pass at the reference seed."""
    _import_pinlab()
    import workloads

    seed = workloads.SPEC["reference_seed"]
    ops = workloads.build(args.workload, seed)
    work = WORK / f"record-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    for op in ops:
        op.prepare(work / op.name)
    outcomes, _ = run_pass(ops)
    bad = [f"{op.name}: {b}" for op, o in zip(ops, outcomes)
           for b in workloads.check(op, o, seed, None)]
    if bad:
        # a reference never records a broken exit code or output as expected
        print("\n".join(bad), file=sys.stderr)
        return 1
    doc = workloads.reference_doc(args.workload, seed, ops, outcomes)
    path = workloads.REFERENCE / f"{args.workload}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="harness self-test at tiny sizes")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the workload's reference outputs")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    try:
        if args.smoke:
            return run_smoke()
        if args.record:
            return record(args)
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
