"""Command-line frontend: configuration, orchestration, CSV emission.

Subcommands::

    pinlab homopolymer   --config cfg.json   # (lambda, f, residual) sweep
    pinlab annealed-curve --config cfg.json  # (beta, h_c_ann), bisection gap of lam > 0
    pinlab phase-diagram --config cfg.json   # annealed column exact, quenched bracketed
    pinlab relevance     --config cfg.json   # temperature bounds + truncation scan with verdicts
    pinlab chi           --config cfg.json   # overlap sum with verdict
    pinlab validate      --config cfg.json   # pinlab.oracles checks, pass/fail matrix

A run's inputs are its config document and its output directory:
``--config`` and ``--out`` (default: the working directory) on every
command, and nothing read from the environment.  ``phase-diagram`` also
takes ``--threads``, which accepts only 1: it solves its beta grid on one
thread, in lockstep (one DP call per bisection round across the grid).

One JSON object configures a run; any other JSON value is a config
error.  The randomized commands read their seed from ``base_seed``.
``annealed-curve`` reads only ``disorder`` and ``beta_grid``: the
annealed critical curve ``log M(beta)`` holds for every recurrent kernel.
The manifest holds the document and its hash, so reruns with the same
config produce byte-identical numeric payloads.  Floats print with 17
significant digits for exact round trips.  ``main`` builds one
:class:`RunWriter` per run once the config is read.  The writer keeps the
run's identity (toolkit version, command, config hash and seed) in one
dict, which heads every CSV table and manifest it writes.  The run ends
with its ``<command>_manifest.json`` also when it fails with a pinlab
error: the manifest then names the error, the exit code and the outputs
written before it.

``relevance`` makes every verdict in :func:`cmd_relevance`, from each
``tr`` level's estimate and standard error (``entropy_estimator``) and its
bounds (``entropy_bounds``), both of :mod:`pinlab.relevance`.
A level is positive when ``estimate - 3 stderr > 0``; its row reads
``relevant`` when positive, else ``irrelevant-consistent``, and ``undecided``
with a warning when the estimate leaves ``[lower - 3 stderr, upper + 3
stderr]``.  The overall verdict is ``relevant`` when every level is
positive, ``irrelevant-consistent`` when the last is not, and else
``undecided`` with a warning.  The ``tr_schedule`` must strictly increase,
so its last level is its largest ``tr``.  The ``quenched`` section and a
``{start, stop, count, spacing}`` grid object take no other keys.

Exit codes: 0 success, 2 configuration error, 3 invariant failure,
4 completed with undecided verdicts or warnings.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .disorder import disorder_from_json, log_mgf, rademacher_disorder
from .errors import InternalConsistencyError, PinlabError, UndecidedError
from .homopolymer import annealed_critical_curve, homopolymer_free_energy
from .kernels import (
    chi as compute_chi,
    kernel_from_json,
    make_power_kernel,
    overlap_kernel,
    return_probabilities,
    truncate_kernel,
)
from .oracles import (
    annealed_partition_check,
    pinned_partition_log,
    replica_moment_exact_check,
)
from .quenched import partition_function_log, quenched_critical_point, replica_charges
from .relevance import critical_temperature_bounds, entropy_bounds, entropy_estimator
from .rng import derive_stream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_UNDECIDED = 4


class ConfigError(PinlabError):
    def __init__(self, path: str, message: str):
        super().__init__(f"config error at '{path}': {message}")
        self.path = path


# ---------------------------------------------------------------------------
# Config helpers
# ---------------------------------------------------------------------------


def _fetch(cfg: dict, path: str, default=None):
    """The value at ``path``; required when ``default`` is None."""
    node = cfg
    walked = []
    for part in path.split("."):
        walked.append(part)
        if not isinstance(node, dict) or part not in node:
            if default is None:
                raise ConfigError(".".join(walked), "missing required field")
            return default
        node = node[part]
    return node


def _check_keys(path: str, doc, keys: tuple[str, ...]) -> None:
    """A ``doc`` at ``path`` that is not an object, or a key of it outside
    ``keys``, is a config error naming its path (``quenched.replicsa``)."""
    if not isinstance(doc, dict):
        raise ConfigError(path, f"expected an object, got {doc!r}")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        expected = ", ".join(keys)
        raise ConfigError(f"{path}.{unknown[0]}", f"unknown key; expected one of {expected}")


def _as_number(path: str, cast, value, positive=False):
    """``cast(value)`` for ``cast`` ``int`` or ``float``; a value that does
    not parse, a boolean, NaN, an infinity, a fraction for ``int``, or (when
    ``positive``) a number at or below 0 is a config error at ``path``."""
    try:
        number = cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(path, f"expected a number, got {value!r}") from exc
    fraction = isinstance(value, float) and number != value
    kind = "integer" if cast is int else "number"
    if isinstance(value, bool) or not -math.inf < number < math.inf or fraction:
        raise ConfigError(path, f"expected a {kind}, got {value!r}")
    if positive and not number > 0:
        raise ConfigError(path, f"expected a positive {kind}, got {value!r}")
    return number


def _as_numbers(path: str, cast, doc, positive=False) -> list:
    """``cast`` of every entry of the list ``doc``, as in :func:`_as_number`."""
    if not isinstance(doc, list):
        raise ConfigError(path, f"expected a list of numbers, got {doc!r}")
    return [_as_number(f"{path}[{i}]", cast, x, positive) for i, x in enumerate(doc)]


def _fetch_number(cfg: dict, path: str, cast, default=None, positive=False):
    """The number at ``path``; required when ``default`` is None."""
    value = _fetch(cfg, path, default)
    return _as_number(path, cast, value, positive)


def _from_config(cfg: dict, path: str, parse):
    """Parse the kernel or disorder document at ``path`` with ``parse``."""
    doc = _fetch(cfg, path)
    if not isinstance(doc, dict):
        raise ConfigError(path, f"expected an object with a family, got {doc!r}")
    try:
        return parse(doc)
    except PinlabError as exc:
        raise ConfigError(path, str(exc)) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(path, f"malformed {path} config: {exc}") from exc


def _grid_from_config(cfg: dict, path: str) -> list[float]:
    doc = _fetch(cfg, path)
    if isinstance(doc, list):
        if not doc:
            raise ConfigError(path, "grid must be nonempty")
        return _as_numbers(path, float, doc)
    if isinstance(doc, dict):
        _check_keys(path, doc, ("start", "stop", "count", "spacing"))
        start = _fetch_number(cfg, path + ".start", float)
        stop = _fetch_number(cfg, path + ".stop", float)
        count = _fetch_number(cfg, path + ".count", int, positive=True)
        spacing = doc.get("spacing", "linear")
        if spacing not in ("linear", "log"):
            raise ConfigError(path + ".spacing", f"expected 'linear' or 'log', got {spacing!r}")
        if spacing == "log":
            if start <= 0 or stop <= 0:
                raise ConfigError(path, "log spacing needs positive endpoints")
            return list(np.geomspace(start, stop, count))
        return list(np.linspace(start, stop, count))
    raise ConfigError(path, "grid must be a list or {start, stop, count}")


def _config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"
    return str(x)


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


class RunWriter:
    """Collects rows, warnings, and timings; emits payload plus manifest.

    ``_identity`` holds the run's toolkit version, command, config hash
    and seed, in the order of the CSV header; a command sets its seed by
    reading it with :meth:`read_seed`.  Every payload file the writer
    writes is recorded in ``outputs``; the manifest also holds the config
    document itself.  ``validate`` records its per-check verdicts in
    ``checks``.
    """

    def __init__(self, command: str, cfg: dict, out_dir: str):
        self._identity = {
            "pinlab": __version__,
            "command": command,
            "config_hash": _config_hash(cfg),
            "seed": None,
        }
        self._config = cfg
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.warnings: list[str] = []
        self.timings: dict[str, float] = {}
        self.outputs: list[str] = []
        self.checks: list[dict] = []
        self._t0 = time.perf_counter()

    def time_block(self, name: str, started: float):
        self.timings[name] = round(time.perf_counter() - started, 6)

    def read_seed(self, default: int | None = None) -> int:
        """The config's ``base_seed``, else ``default``, as the run's seed;
        it is mandatory when there is no default, and must be nonnegative."""
        seed = self._config.get("base_seed", default)
        if seed is None:
            raise ConfigError("base_seed", "seed is mandatory (no wall-clock default)")
        seed = _as_number("base_seed", int, seed)
        if seed < 0:
            raise ConfigError("base_seed", f"seed must be nonnegative, got {seed}")
        self._identity["seed"] = seed
        return seed

    def write_json(self, name: str, doc) -> None:
        """Write the payload ``doc`` to ``name`` in the output directory."""
        path = os.path.join(self.out_dir, name)
        _write_json(path, doc)
        self.outputs.append(path)

    def write_table(self, stem: str, rows: list[dict]) -> None:
        """Write the nonempty ``rows`` to ``stem.csv``; the first row's keys,
        in order, are the columns."""
        columns = list(rows[0])
        path = os.path.join(self.out_dir, f"{stem}.csv")
        with open(path, "w") as fh:
            for key, value in self._identity.items():
                if value is not None:
                    fh.write(f"# {key} {value}\n")
            fh.write("# columns " + ",".join(columns) + "\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")
        self.outputs.append(path)

    def finish(self, code: int | None = None, error: str | None = None) -> int:
        """Write the manifest and return the exit code: ``code`` for a
        failed run, else 4 when any warning was raised, else 0."""
        if code is None:
            code = EXIT_UNDECIDED if self.warnings else EXIT_OK
        self.timings["total"] = round(time.perf_counter() - self._t0, 6)
        manifest = {
            **self._identity,
            "config": self._config,
            "timings": self.timings,
            "warnings": self.warnings,
            "outputs": [os.path.basename(p) for p in self.outputs],
            "exit_code": code,
            "error": error,
        }
        if self.checks:
            manifest["checks"] = self.checks
        stem = self._identity["command"].replace("-", "_")
        _write_json(os.path.join(self.out_dir, f"{stem}_manifest.json"), manifest)
        for out in self.outputs:
            print(out)
        return code


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_homopolymer(cfg: dict, writer: RunWriter) -> None:
    kernel = _from_config(cfg, "kernel", kernel_from_json)
    grid = _grid_from_config(cfg, "lambda_grid")
    t0 = time.perf_counter()
    rows = []
    for lam in grid:
        res = homopolymer_free_energy(kernel, lam)
        rows.append({"lambda": lam, "f": res.f, "residual": res.residual})
    writer.time_block("sweep", t0)
    writer.write_table("homopolymer", rows)


def cmd_annealed_curve(cfg: dict, writer: RunWriter) -> None:
    disorder = _from_config(cfg, "disorder", disorder_from_json)
    grid = _grid_from_config(cfg, "beta_grid")
    t0 = time.perf_counter()
    points = annealed_critical_curve(disorder, grid)
    writer.time_block("curve", t0)
    rows = [
        {"beta": p.beta, "h_c_ann": p.h_c, "bisection_gap": p.bisection_zero - p.h_c}
        for p in points
    ]
    writer.write_table("annealed_curve", rows)


def cmd_phase_diagram(cfg: dict, writer: RunWriter) -> None:
    kernel = _from_config(cfg, "kernel", kernel_from_json)
    disorder = _from_config(cfg, "disorder", disorder_from_json)
    grid = _grid_from_config(cfg, "beta_grid")
    seed = writer.read_seed()
    _check_keys("quenched", cfg.get("quenched", {}), ("n", "replicas", "target_width"))
    n = _fetch_number(cfg, "quenched.n", int, 4096, positive=True)
    replicas = _fetch_number(cfg, "quenched.replicas", int, 64, positive=True)
    target_width = _fetch_number(cfg, "quenched.target_width", float, 0.002, positive=True)

    t0 = time.perf_counter()
    # every beta sees the same disorder: one draw at 2n serves the whole grid
    charges = replica_charges(disorder, 2 * n, replicas, seed)
    brackets = quenched_critical_point(kernel, disorder, grid, charges, target_width)
    writer.time_block("quenched_brackets", t0)

    rows = []
    sidecar = []
    for beta, bracket in zip(grid, brackets):
        verdict = "undecided" if bracket.undecided else "bracketed"
        if bracket.undecided:
            writer.warnings.append(f"beta={beta}: quenched bracket undecided")
        rows.append(
            {
                "beta": beta,
                "h_c_ann": log_mgf(disorder, beta),
                "h_que_lo": bracket.h_lo,
                "h_que_hi": bracket.h_hi,
                "verdict": verdict,
            }
        )
        sidecar.append(dataclasses.asdict(bracket))
    writer.write_table("phase_diagram", rows)
    writer.write_json("phase_diagram_diagnostics.json", sidecar)


def cmd_relevance(cfg: dict, writer: RunWriter) -> None:
    kernel = _from_config(cfg, "kernel", kernel_from_json)
    disorder = _from_config(cfg, "disorder", disorder_from_json)
    beta = _fetch_number(cfg, "beta", float)
    seed = writer.read_seed()
    tr_schedule = _as_numbers(
        "tr_schedule",
        int,
        _fetch(cfg, "tr_schedule", [8, 16, 32, 64]),
        positive=True,
    )
    if not tr_schedule:
        raise ConfigError("tr_schedule", "schedule must be nonempty")
    n_multiplier = _fetch_number(cfg, "n_multiplier", int, 256, positive=True)
    if n_multiplier * min(tr_schedule) < 2:
        raise ConfigError("n_multiplier", "system size n_multiplier * tr must be >= 2")
    # the overall verdict reads the last level as the largest tr
    if any(b <= a for a, b in zip(tr_schedule, tr_schedule[1:])):
        raise ConfigError("tr_schedule", f"schedule must strictly increase, got {tr_schedule}")
    replicas = _fetch_number(cfg, "replicas", int, 64, positive=True)

    t0 = time.perf_counter()
    bounds = critical_temperature_bounds(kernel, disorder, compute_chi(kernel))
    writer.time_block("temperature_bounds", t0)

    t0 = time.perf_counter()
    levels = [
        (entropy_estimator(kernel, disorder, beta, tr, n_multiplier * tr, replicas, seed),
         *entropy_bounds(kernel, disorder, beta, tr))
        for tr in tr_schedule
    ]
    writer.time_block("tr_scan", t0)

    positive = [r.estimate - 3.0 * r.stderr > 0.0 for r, _, _ in levels]
    if all(positive):
        overall = "relevant"
    elif not positive[-1]:
        overall = "irrelevant-consistent"
    else:
        overall = "undecided"
        writer.warnings.append("relevance verdict undecided across the tr scan")

    rows = []
    for (r, lower, upper), is_positive in zip(levels, positive):
        verdict = "relevant" if is_positive else "irrelevant-consistent"
        slack = 3.0 * r.stderr
        if not lower - slack <= r.estimate <= upper + slack:
            verdict = "undecided"
            writer.warnings.append(f"tr={r.tr}: sandwich violated")
        rows.append(
            {
                "beta": r.beta,
                "tr": r.tr,
                "m_tr": r.m_tr,
                "estimate": r.estimate,
                "stderr": r.stderr,
                "lower": lower,
                "upper": upper,
                "verdict": verdict,
            }
        )
    writer.write_table("relevance_scan", rows)
    doc = dataclasses.asdict(bounds)
    doc["beta"] = beta
    doc["overall_verdict"] = overall
    writer.write_json("relevance_bounds.json", doc)


def cmd_chi(cfg: dict, writer: RunWriter) -> None:
    kernel = _from_config(cfg, "kernel", kernel_from_json)
    tolerance = _fetch_number(cfg, "tolerance", float, 2e-3, positive=True)
    t0 = time.perf_counter()
    result = compute_chi(kernel, tolerance=tolerance)
    writer.time_block("chi", t0)
    if result.status == "undecided":
        writer.warnings.append("chi convergence undecided")
    rows = [
        {
            "status": result.status,
            "chi": result.value,
            "partial_sum": result.partial_sum,
            "tail_estimate": result.tail_estimate,
            "fitted_decay": result.fitted_decay,
            "horizon": result.horizon,
        }
    ]
    writer.write_table("chi", rows)


# ---------------------------------------------------------------------------
# Validation suite
# ---------------------------------------------------------------------------


def _gap(got, want) -> float:
    """Largest ``|got - want|``.  Equal entries, equal infinities included,
    give 0; any NaN makes the gap NaN, so ``gap <= tol`` fails on it."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    with np.errstate(invalid="ignore"):
        return float(np.max(np.where(got == want, 0.0, np.abs(got - want))))


def _renewal_residual(masses: np.ndarray, seq: np.ndarray) -> float:
    """Largest ``|seq[m] - sum_{k=1}^m K(k) seq[m-k]|`` over ``m = 1..n``,
    ``n = len(seq) - 1``, ``masses[k-1] = K(k)``: the coefficients of
    ``(1 - K(z)) S(z)`` past the constant term."""
    n = len(seq) - 1
    residual = np.convolve(np.concatenate(([1.0], -masses[:n])), seq)[1 : n + 1]
    return float(np.max(np.abs(residual)))


def _gap_renewal_recursion(kernel, seed) -> float:
    n = 512
    return _renewal_residual(kernel.mass_array(n), return_probabilities(kernel, n))


def _gap_truncation_mass(kernel, seed) -> float:
    totals = [np.sum(truncate_kernel(kernel, tr).mass_array(tr)) for tr in (1, 2, 7, 31)]
    return _gap(totals, 1.0)


def _gap_overlap_reconstruction(kernel, seed) -> float:
    n = 256
    v = return_probabilities(kernel, n) ** 2
    v[0] = 1.0
    return _renewal_residual(overlap_kernel(kernel, n), v)


def _gap_dp_enumeration(kernel, seed) -> float:
    stream = derive_stream(seed, 9000)
    got, want = [], []
    for case in range(5):
        n = 4 + case
        omega = stream.normal(n)
        beta = 0.5 + 0.25 * case
        h = 0.1 * case - 0.2
        got.append(partition_function_log(kernel, beta * omega - h))
        want.append(pinned_partition_log(kernel.mass_array(n), beta * omega - h))
    return _gap(got, want)


def _gap_annealed_identity(kernel, seed) -> float:
    lhs, rhs = annealed_partition_check(kernel, rademacher_disorder(), beta=0.7, h=0.2, n=6)
    return _gap(lhs, rhs)


def _gap_replica_identity(kernel, seed) -> float:
    ktr = truncate_kernel(kernel, 3)
    lhs, rhs, dp = replica_moment_exact_check(ktr, rademacher_disorder(), 0.8, 4)
    return _gap([lhs, lhs], [rhs, dp])


# (name, tolerance, gap of the kernel at the seed); each passes when gap <= tolerance
_CHECKS = (
    ("renewal-recursion", 1e-12, _gap_renewal_recursion),
    ("truncation-mass", 1e-12, _gap_truncation_mass),
    ("overlap-reconstruction", 1e-10, _gap_overlap_reconstruction),
    ("dp-vs-enumeration", 1e-12, _gap_dp_enumeration),
    ("annealed-moment-identity", 1e-10, _gap_annealed_identity),
    ("replica-identity", 1e-12, _gap_replica_identity),
)
_CONSTRUCTION_CHECK = "kernel-mass-normalization"


def cmd_validate(cfg: dict, writer: RunWriter) -> None:
    seed = writer.read_seed(default=0)

    def report(name, verdict, detail, gap=None, tol=None):
        print(f"{verdict} {name} ({detail})")
        writer.checks.append({"name": name, "verdict": verdict, "gap": gap, "tol": tol})

    t0 = time.perf_counter()
    try:
        kernel = (_from_config(cfg, "kernel", kernel_from_json) if "kernel" in cfg
                  else make_power_kernel(0.5))
        report(_CONSTRUCTION_CHECK, "PASS", "ok")
    except ConfigError as exc:
        kernel = None
        report(_CONSTRUCTION_CHECK, "FAIL", str(exc))

    for name, tol, gap_of in _CHECKS:
        if kernel is None:
            report(name, "SKIP", "kernel construction failed")
            continue
        try:
            gap = gap_of(kernel, seed)
        except PinlabError as exc:
            report(name, "FAIL", str(exc))
            continue
        verdict = "PASS" if gap <= tol else "FAIL"
        report(name, verdict, f"gap {gap:.2e}, tol {tol:.0e}", gap, tol)
    writer.time_block("checks", t0)

    failed = [c["name"] for c in writer.checks if c["verdict"] == "FAIL"]
    if failed:
        raise InternalConsistencyError(f"validate failed: {', '.join(failed)}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


_COMMANDS = {
    "homopolymer": cmd_homopolymer,
    "annealed-curve": cmd_annealed_curve,
    "phase-diagram": cmd_phase_diagram,
    "relevance": cmd_relevance,
    "chi": cmd_chi,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinlab",
        description="Pinning phase diagrams and disorder-relevance diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", help="output directory (default: the working directory)")
    # the beta grid is solved on one thread; the flag stays for callers that pass 1
    sub.choices["phase-diagram"].add_argument(
        "--threads", type=int, choices=(1,), default=1,
        help="accepted for compatibility; only 1 (the beta grid is searched on "
             "one thread, in lockstep)",
    )
    return parser


def _failure(exc: PinlabError) -> tuple[int, str]:
    """The exit code and the message for an error that ended a run."""
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG, str(exc)
    if isinstance(exc, InternalConsistencyError):
        return EXIT_INVARIANT, f"invariant failure: {exc}"
    if isinstance(exc, UndecidedError):
        return EXIT_UNDECIDED, f"undecided: {exc}"
    return EXIT_INVARIANT, f"error: {exc}"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error at '{args.config}': {exc}", file=sys.stderr)
        return EXIT_CONFIG
    writer = RunWriter(args.command, cfg, args.out or ".")
    try:
        if not isinstance(cfg, dict):
            raise ConfigError(args.config, f"expected a JSON object, got {type(cfg).__name__}")
        _COMMANDS[args.command](cfg, writer)
    except PinlabError as exc:
        code, message = _failure(exc)
        print(message, file=sys.stderr)
        return writer.finish(code, message)
    return writer.finish()


if __name__ == "__main__":
    sys.exit(main())
