"""Command-line frontend: configuration, orchestration, CSV/JSON emission.

Subcommands::

    pinlab homopolymer   --config cfg.json   # (lambda, f, residual) sweep
    pinlab annealed-curve --config cfg.json  # (beta, h_c_ann) with bisection check
    pinlab phase-diagram --config cfg.json   # annealed column exact, quenched bracketed
    pinlab relevance     --config cfg.json   # temperature bounds + truncation scan
    pinlab chi           --config cfg.json   # overlap sum with verdict
    pinlab validate      --config cfg.json   # pinlab.oracles checks, pass/fail matrix

A flag is registered only on the commands that read it (``_COMMANDS``):
``--config`` and ``--out`` on all, ``--format`` on all but ``validate``,
``--seed`` on ``phase-diagram``, ``relevance`` and ``validate``, and
``--threads`` on ``phase-diagram``.

One JSON document configures a run (no environment overrides except the
output directory via ``PINLAB_OUT_DIR``); the manifest hash covers that
document, so reruns with the same config and seed produce byte-identical
numeric payloads.  Floats print with 17 significant digits for exact
round trips.  ``main`` builds one :class:`RunWriter` per run once the
config is read, and the run ends with its ``<command>_manifest.json``
also when it fails with a pinlab error: the manifest then names the
error, the exit code and the outputs written before it.

Exit codes: 0 success, 2 configuration error, 3 invariant failure,
4 completed with undecided verdicts or warnings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

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
from .quenched import (
    PolymerParams,
    QuenchedSearchConfig,
    partition_function_log,
    quenched_critical_point,
)
from .relevance import critical_temperature_bounds, entropy_estimator
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


def _fetch(cfg: dict, path: str, required: bool = True, default=None):
    node = cfg
    walked = []
    for part in path.split("."):
        walked.append(part)
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(".".join(walked), "missing required field")
            return default
        node = node[part]
    return node


def _as_number(path: str, cast, value):
    """``cast(value)`` for ``cast`` ``int`` or ``float``; a value that does
    not parse, a boolean, NaN, or a fraction for ``int`` is a config error
    at ``path``."""
    try:
        number = cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(path, f"expected a number, got {value!r}") from exc
    fraction = isinstance(value, float) and number != value
    if isinstance(value, bool) or number != number or fraction:
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(path, f"expected {kind}, got {value!r}")
    return number


def _as_numbers(path: str, cast, doc) -> list:
    """``cast`` of every entry of the list ``doc``, as in :func:`_as_number`."""
    if not isinstance(doc, list):
        raise ConfigError(path, f"expected a list of numbers, got {doc!r}")
    return [_as_number(f"{path}[{i}]", cast, x) for i, x in enumerate(doc)]


def _fetch_number(cfg: dict, path: str, cast, default=None):
    """The number at ``path``; required when ``default`` is None."""
    return _as_number(path, cast, _fetch(cfg, path, required=default is None, default=default))


def _from_config(cfg: dict, path: str, parse):
    """Parse the kernel or disorder document at ``path`` with ``parse``."""
    doc = _fetch(cfg, path)
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
        start = _fetch_number(cfg, path + ".start", float)
        stop = _fetch_number(cfg, path + ".stop", float)
        count = _fetch_number(cfg, path + ".count", int)
        if count < 1:
            raise ConfigError(path + ".count", "grid needs count >= 1")
        if doc.get("spacing", "linear") == "log":
            if start <= 0 or stop <= 0:
                raise ConfigError(path, "log spacing needs positive endpoints")
            return list(np.geomspace(start, stop, count))
        return list(np.linspace(start, stop, count))
    raise ConfigError(path, "grid must be a list or {start, stop, count}")


def _seed_from_config(cfg: dict, override: int | None) -> int:
    if override is not None:
        return int(override)
    seed = _fetch(cfg, "base_seed", required=False)
    if seed is None:
        raise ConfigError("base_seed", "seed is mandatory (no wall-clock default)")
    return _as_number("base_seed", int, seed)


def _out_dir(cfg: dict, cli_out: str | None) -> str:
    out = cli_out or os.environ.get("PINLAB_OUT_DIR") or _fetch(
        cfg, "output.dir", required=False, default="."
    )
    os.makedirs(out, exist_ok=True)
    return out


def _config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"
    return str(x)


class RunWriter:
    """Collects rows, warnings, and timings; emits payload plus manifest.

    A command sets ``seed`` when it reads one; ``validate`` records its
    per-check verdicts in ``checks``.
    """

    def __init__(self, command: str, cfg: dict, out_dir: str, fmt: str | None):
        self.command = command
        self.cfg = cfg
        self.out_dir = out_dir
        self.fmt = fmt
        self.seed: int | None = None
        self.warnings: list[str] = []
        self.timings: dict[str, float] = {}
        self.outputs: list[str] = []
        self.checks: list[dict] = []
        self._t0 = time.perf_counter()

    def time_block(self, name: str, started: float):
        self.timings[name] = round(time.perf_counter() - started, 6)

    def header_lines(self, columns: list[str]) -> list[str]:
        lines = [
            f"# pinlab {__version__}",
            f"# command {self.command}",
            f"# config_hash {_config_hash(self.cfg)}",
        ]
        if self.seed is not None:
            lines.append(f"# seed {self.seed}")
        lines.append("# columns " + ",".join(columns))
        return lines

    def write_json(self, name: str, doc) -> str:
        """Write ``doc`` to ``name`` in the output directory; return the path."""
        path = os.path.join(self.out_dir, name)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return path

    def write_table(self, stem: str, columns: list[str], rows: list[dict]) -> str:
        if self.fmt == "json":
            doc = {
                "pinlab": __version__,
                "command": self.command,
                "config_hash": _config_hash(self.cfg),
                "seed": self.seed,
                "columns": columns,
                "rows": rows,
            }
            path = self.write_json(f"{stem}.json", doc)
        else:
            path = os.path.join(self.out_dir, f"{stem}.csv")
            with open(path, "w") as fh:
                for line in self.header_lines(columns):
                    fh.write(line + "\n")
                fh.write(",".join(columns) + "\n")
                for row in rows:
                    fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")
        self.outputs.append(path)
        return path

    def finish(self, code: int | None = None, error: str | None = None) -> int:
        """Write the manifest and return the exit code: ``code`` for a
        failed run, else 4 when any warning was raised, else 0."""
        if code is None:
            code = EXIT_UNDECIDED if self.warnings else EXIT_OK
        self.timings["total"] = round(time.perf_counter() - self._t0, 6)
        manifest = {
            "pinlab": __version__,
            "command": self.command,
            "config_hash": _config_hash(self.cfg),
            "seed": self.seed,
            "timings": self.timings,
            "warnings": self.warnings,
            "outputs": [os.path.basename(p) for p in self.outputs],
            "exit_code": code,
            "error": error,
        }
        if self.checks:
            manifest["checks"] = self.checks
        self.write_json(f"{self.command.replace('-', '_')}_manifest.json", manifest)
        for out in self.outputs:
            print(out)
        return code


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_homopolymer(cfg: dict, args, writer: RunWriter) -> None:
    kernel = _from_config(cfg, "kernel", kernel_from_json)
    grid = _grid_from_config(cfg, "lambda_grid")
    tol = _fetch_number(cfg, "tol", float, 1e-10)
    t0 = time.perf_counter()
    rows = []
    for lam in grid:
        res = homopolymer_free_energy(kernel, lam, tol)
        rows.append({"lambda": lam, "f": res.f, "residual": res.residual})
    writer.time_block("sweep", t0)
    writer.write_table("homopolymer", ["lambda", "f", "residual"], rows)


def cmd_annealed_curve(cfg: dict, args, writer: RunWriter) -> None:
    kernel = _from_config(cfg, "kernel", kernel_from_json)
    disorder = _from_config(cfg, "disorder", disorder_from_json)
    grid = _grid_from_config(cfg, "beta_grid")
    t0 = time.perf_counter()
    points = annealed_critical_curve(kernel, disorder, grid)
    writer.time_block("curve", t0)
    rows = [
        {"beta": p.beta, "h_c_ann": p.h_c, "bisection_gap": p.bisection_zero - p.h_c}
        for p in points
    ]
    writer.write_table("annealed_curve", ["beta", "h_c_ann", "bisection_gap"], rows)


def cmd_phase_diagram(cfg: dict, args, writer: RunWriter) -> None:
    kernel = _from_config(cfg, "kernel", kernel_from_json)
    disorder = _from_config(cfg, "disorder", disorder_from_json)
    grid = _grid_from_config(cfg, "beta_grid")
    seed = writer.seed = _seed_from_config(cfg, args.seed)
    qcfg = QuenchedSearchConfig(
        n=_fetch_number(cfg, "quenched.n", int, 4096),
        replicas=_fetch_number(cfg, "quenched.replicas", int, 64),
        base_seed=seed,
        target_width=_fetch_number(cfg, "quenched.target_width", float, 0.002),
    )

    def solve(beta: float):
        return quenched_critical_point(kernel, disorder, beta, qcfg)

    t0 = time.perf_counter()
    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            brackets = list(pool.map(solve, grid))
    else:
        brackets = [solve(beta) for beta in grid]
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
        sidecar.append(bracket.to_json())
    writer.write_table(
        "phase_diagram", ["beta", "h_c_ann", "h_que_lo", "h_que_hi", "verdict"], rows
    )
    writer.outputs.append(writer.write_json("phase_diagram_diagnostics.json", sidecar))


def cmd_relevance(cfg: dict, args, writer: RunWriter) -> None:
    kernel = _from_config(cfg, "kernel", kernel_from_json)
    disorder = _from_config(cfg, "disorder", disorder_from_json)
    beta = _fetch_number(cfg, "beta", float)
    seed = writer.seed = _seed_from_config(cfg, args.seed)
    tr_schedule = _as_numbers(
        "tr_schedule", int, _fetch(cfg, "tr_schedule", required=False, default=[8, 16, 32, 64])
    )
    n_multiplier = _fetch_number(cfg, "n_multiplier", int, 256)
    replicas = _fetch_number(cfg, "replicas", int, 64)

    t0 = time.perf_counter()
    chi_result = compute_chi(kernel)
    bounds = critical_temperature_bounds(kernel, disorder, chi_result=chi_result)
    writer.time_block("temperature_bounds", t0)

    t0 = time.perf_counter()
    reports = [
        entropy_estimator(kernel, disorder, beta, tr, n_multiplier * tr, replicas, seed)
        for tr in tr_schedule
    ]
    writer.time_block("tr_scan", t0)

    all_positive = all(r.ci_excludes_zero for r in reports)
    last_contains_zero = not reports[-1].ci_excludes_zero
    if all_positive:
        overall = "relevant"
    elif last_contains_zero:
        overall = "irrelevant-consistent"
    else:
        overall = "undecided"
        writer.warnings.append("relevance verdict undecided across the tr scan")

    rows = []
    for r in reports:
        verdict = "relevant" if r.ci_excludes_zero else "irrelevant-consistent"
        if r.sandwich_ok is False:
            verdict = "undecided"
            writer.warnings.append(f"tr={r.tr}: sandwich violated")
        rows.append(
            {
                "beta": r.beta,
                "tr": r.tr,
                "m_tr": r.m_tr,
                "estimate": r.estimate,
                "stderr": r.stderr,
                "lower": r.lower_bound,
                "upper": r.upper_bound,
                "verdict": verdict,
            }
        )
    writer.write_table(
        "relevance_scan",
        ["beta", "tr", "m_tr", "estimate", "stderr", "lower", "upper", "verdict"],
        rows,
    )
    doc = bounds.to_json()
    doc["beta"] = beta
    doc["overall_verdict"] = overall
    writer.outputs.append(writer.write_json("relevance_bounds.json", doc))


def cmd_chi(cfg: dict, args, writer: RunWriter) -> None:
    kernel = _from_config(cfg, "kernel", kernel_from_json)
    tolerance = _fetch_number(cfg, "tolerance", float, 2e-3)
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
    writer.write_table(
        "chi",
        ["status", "chi", "partial_sum", "tail_estimate", "fitted_decay", "horizon"],
        rows,
    )


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
    return _renewal_residual(kernel.mass_array(n), return_probabilities(kernel, n).u)


def _gap_truncation_mass(kernel, seed) -> float:
    totals = [np.sum(truncate_kernel(kernel, tr).mass_array(tr)) for tr in (1, 2, 7, 31)]
    return _gap(totals, 1.0)


def _gap_overlap_reconstruction(kernel, seed) -> float:
    n = 256
    v = return_probabilities(kernel, n).u ** 2
    v[0] = 1.0
    return _renewal_residual(overlap_kernel(kernel, n).masses, v)


def _gap_dp_enumeration(kernel, seed) -> float:
    stream = derive_stream(seed, 9000)
    got, want = [], []
    for case in range(5):
        n = 4 + case
        omega = stream.normal(n)
        beta = 0.5 + 0.25 * case
        h = 0.1 * case - 0.2
        params = PolymerParams(
            kernel=kernel, disorder=rademacher_disorder(), beta=beta, h=h, n=n, replicas=1
        )
        got.append(partition_function_log(params, omega))
        want.append(pinned_partition_log(kernel.mass_array(n), beta * omega - h))
    return _gap(got, want)


def _gap_annealed_identity(kernel, seed) -> float:
    _, lhs, rhs = annealed_partition_check(kernel, rademacher_disorder(), beta=0.7, h=0.2, n=6)
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


def cmd_validate(cfg: dict, args, writer: RunWriter) -> None:
    seed = writer.seed = (
        _fetch_number(cfg, "base_seed", int, 0) if args.seed is None else args.seed
    )
    names = [_CONSTRUCTION_CHECK] + [name for name, _, _ in _CHECKS]
    selected = _fetch(cfg, "checks", required=False)
    if selected is not None:
        wanted = set(selected)
        names = [name for name in names if name in wanted]
        if not names:
            raise ConfigError("checks", "no known check selected")

    def report(name, verdict, detail, gap=None, tol=None):
        print(f"{verdict} {name} ({detail})")
        writer.checks.append({"name": name, "verdict": verdict, "gap": gap, "tol": tol})

    t0 = time.perf_counter()
    try:
        kernel = (_from_config(cfg, "kernel", kernel_from_json) if "kernel" in cfg
                  else make_power_kernel(0.5))
        construction = ("PASS", "ok")
    except ConfigError as exc:
        kernel, construction = None, ("FAIL", str(exc))
    # a kernel that cannot be built fails the run whichever checks are selected
    if _CONSTRUCTION_CHECK in names or kernel is None:
        report(_CONSTRUCTION_CHECK, *construction)

    for name, tol, gap_of in _CHECKS:
        if name not in names:
            continue
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


_FLAGS = {
    "--config": {"required": True, "help": "path to the JSON config"},
    "--out": {"default": None, "help": "output directory"},
    "--format": {"choices": ("csv", "json"), "default": "csv"},
    "--seed": {"type": int, "default": None, "help": "override config base_seed"},
    "--threads": {"type": int, "default": 1,
                  "help": "solve the beta grid on this many threads"},
}

# command -> (runner, the flags it reads)
_COMMANDS = {
    "homopolymer": (cmd_homopolymer, ("--config", "--out", "--format")),
    "annealed-curve": (cmd_annealed_curve, ("--config", "--out", "--format")),
    "phase-diagram": (
        cmd_phase_diagram, ("--config", "--out", "--format", "--seed", "--threads")
    ),
    "relevance": (cmd_relevance, ("--config", "--out", "--format", "--seed")),
    "chi": (cmd_chi, ("--config", "--out", "--format")),
    "validate": (cmd_validate, ("--config", "--out", "--seed")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinlab",
        description="Pinning phase diagrams and disorder-relevance diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
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
    writer = RunWriter(args.command, cfg, _out_dir(cfg, args.out), getattr(args, "format", None))
    try:
        _COMMANDS[args.command][0](cfg, args, writer)
    except PinlabError as exc:
        code, message = _failure(exc)
        print(message, file=sys.stderr)
        return writer.finish(code, message)
    return writer.finish()


if __name__ == "__main__":
    sys.exit(main())
