"""Command-line frontend: configuration, orchestration, CSV/JSON emission.

Subcommands::

    pinlab homopolymer   --config cfg.json   # (lambda, f, residual) sweep
    pinlab annealed-curve --config cfg.json  # (beta, h_c_ann) with bisection check
    pinlab phase-diagram --config cfg.json   # annealed column exact, quenched bracketed
    pinlab relevance     --config cfg.json   # temperature bounds + truncation scan
    pinlab chi           --config cfg.json   # overlap sum with verdict
    pinlab validate      --config cfg.json   # pinlab.oracles checks, pass/fail matrix

One JSON document configures a run (no environment overrides except the
output directory via ``PINLAB_OUT_DIR``); the manifest hash covers that
document, so reruns with the same config and seed produce byte-identical
numeric payloads.  Floats print with 17 significant digits for exact
round trips.

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


def _kernel_from_config(cfg: dict, path: str = "kernel"):
    doc = _fetch(cfg, path)
    try:
        return kernel_from_json(doc)
    except PinlabError as exc:
        raise ConfigError(path, str(exc)) from exc
    except (KeyError, TypeError) as exc:
        raise ConfigError(path, f"malformed kernel config: {exc}") from exc


def _disorder_from_config(cfg: dict, path: str = "disorder"):
    doc = _fetch(cfg, path)
    try:
        return disorder_from_json(doc)
    except PinlabError as exc:
        raise ConfigError(path, str(exc)) from exc
    except (KeyError, TypeError) as exc:
        raise ConfigError(path, f"malformed disorder config: {exc}") from exc


def _grid_from_config(cfg: dict, path: str) -> list[float]:
    doc = _fetch(cfg, path)
    if isinstance(doc, list):
        if not doc:
            raise ConfigError(path, "grid must be nonempty")
        return [float(x) for x in doc]
    if isinstance(doc, dict):
        try:
            start, stop = float(doc["start"]), float(doc["stop"])
            count = int(doc["count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(path, f"malformed grid config: {exc}") from exc
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
    return int(seed)


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
    """Collects rows, warnings, and timings; emits payload plus manifest."""

    def __init__(self, command: str, cfg: dict, out_dir: str, seed: int | None, fmt: str):
        self.command = command
        self.cfg = cfg
        self.out_dir = out_dir
        self.seed = seed
        self.fmt = fmt
        self.warnings: list[str] = []
        self.timings: dict[str, float] = {}
        self.outputs: list[str] = []
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

    def write_table(self, stem: str, columns: list[str], rows: list[dict]) -> str:
        if self.fmt == "json":
            path = os.path.join(self.out_dir, f"{stem}.json")
            doc = {
                "pinlab": __version__,
                "command": self.command,
                "config_hash": _config_hash(self.cfg),
                "seed": self.seed,
                "columns": columns,
                "rows": rows,
            }
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
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

    def finish(self) -> int:
        self.timings["total"] = round(time.perf_counter() - self._t0, 6)
        manifest = {
            "pinlab": __version__,
            "command": self.command,
            "config_hash": _config_hash(self.cfg),
            "seed": self.seed,
            "timings": self.timings,
            "warnings": self.warnings,
            "outputs": [os.path.basename(p) for p in self.outputs],
        }
        path = os.path.join(self.out_dir, f"{self.command.replace('-', '_')}_manifest.json")
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")
        for out in self.outputs:
            print(out)
        return EXIT_UNDECIDED if self.warnings else EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_homopolymer(cfg: dict, args) -> int:
    kernel = _kernel_from_config(cfg)
    grid = _grid_from_config(cfg, "lambda_grid")
    tol = float(_fetch(cfg, "tol", required=False, default=1e-10))
    writer = RunWriter("homopolymer", cfg, _out_dir(cfg, args.out), None, args.format)
    t0 = time.perf_counter()
    rows = []
    for lam in grid:
        res = homopolymer_free_energy(kernel, lam, tol)
        rows.append({"lambda": lam, "f": res.f, "residual": res.residual})
    writer.time_block("sweep", t0)
    writer.write_table("homopolymer", ["lambda", "f", "residual"], rows)
    return writer.finish()


def cmd_annealed_curve(cfg: dict, args) -> int:
    kernel = _kernel_from_config(cfg)
    disorder = _disorder_from_config(cfg)
    grid = _grid_from_config(cfg, "beta_grid")
    writer = RunWriter("annealed-curve", cfg, _out_dir(cfg, args.out), None, args.format)
    t0 = time.perf_counter()
    points = annealed_critical_curve(kernel, disorder, grid)
    writer.time_block("curve", t0)
    rows = [
        {"beta": p.beta, "h_c_ann": p.h_c, "bisection_gap": p.bisection_zero - p.h_c}
        for p in points
    ]
    writer.write_table("annealed_curve", ["beta", "h_c_ann", "bisection_gap"], rows)
    return writer.finish()


def cmd_phase_diagram(cfg: dict, args) -> int:
    kernel = _kernel_from_config(cfg)
    disorder = _disorder_from_config(cfg)
    grid = _grid_from_config(cfg, "beta_grid")
    seed = _seed_from_config(cfg, args.seed)
    qcfg = QuenchedSearchConfig(
        n=int(_fetch(cfg, "quenched.n", required=False, default=4096)),
        replicas=int(_fetch(cfg, "quenched.replicas", required=False, default=64)),
        base_seed=seed,
        target_width=float(_fetch(cfg, "quenched.target_width", required=False, default=0.002)),
    )
    writer = RunWriter("phase-diagram", cfg, _out_dir(cfg, args.out), seed, args.format)

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
    diag_path = os.path.join(writer.out_dir, "phase_diagram_diagnostics.json")
    with open(diag_path, "w") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)
        fh.write("\n")
    writer.outputs.append(diag_path)
    return writer.finish()


def cmd_relevance(cfg: dict, args) -> int:
    kernel = _kernel_from_config(cfg)
    disorder = _disorder_from_config(cfg)
    beta = float(_fetch(cfg, "beta"))
    seed = _seed_from_config(cfg, args.seed)
    tr_schedule = [int(t) for t in _fetch(cfg, "tr_schedule", required=False,
                                          default=[8, 16, 32, 64])]
    n_multiplier = int(_fetch(cfg, "n_multiplier", required=False, default=256))
    replicas = int(_fetch(cfg, "replicas", required=False, default=64))
    writer = RunWriter("relevance", cfg, _out_dir(cfg, args.out), seed, args.format)

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
    bounds_path = os.path.join(writer.out_dir, "relevance_bounds.json")
    with open(bounds_path, "w") as fh:
        doc = bounds.to_json()
        doc["beta"] = beta
        doc["overall_verdict"] = overall
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    writer.outputs.append(bounds_path)
    return writer.finish()


def cmd_chi(cfg: dict, args) -> int:
    kernel = _kernel_from_config(cfg)
    tolerance = float(_fetch(cfg, "tolerance", required=False, default=2e-3))
    writer = RunWriter("chi", cfg, _out_dir(cfg, args.out), None, args.format)
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
    return writer.finish()


# ---------------------------------------------------------------------------
# Validation suite
# ---------------------------------------------------------------------------


def _check_kernel_construction(cfg):
    kernel = _kernel_from_config(cfg) if "kernel" in cfg else make_power_kernel(0.5)
    return kernel, "constructed and normalized"


def _check_renewal_recursion(kernel):
    n = 512
    rp = return_probabilities(kernel, n)
    masses = kernel.mass_array(n)
    worst = 0.0
    for m in range(1, n + 1):
        resid = abs(rp.u[m] - float(np.dot(masses[:m][::-1], rp.u[:m])))
        worst = max(worst, resid)
    if worst > 1e-12:
        raise InternalConsistencyError(f"recursion residual {worst:.3e}")
    return f"max residual {worst:.2e}"


def _check_truncation_mass(kernel):
    worst = 0.0
    for tr in (1, 2, 7, 31):
        total = float(np.sum(truncate_kernel(kernel, tr).mass_array(tr)))
        worst = max(worst, abs(total - 1.0))
    if worst > 1e-12:
        raise InternalConsistencyError(f"truncated mass off by {worst:.3e}")
    return f"max mass defect {worst:.2e}"


def _check_overlap_reconstruction(kernel):
    n = 256
    rp = return_probabilities(kernel, n)
    v = rp.u * rp.u
    v[0] = 1.0
    ov = overlap_kernel(kernel, n)
    worst = 0.0
    for m in range(1, n + 1):
        recon = float(np.dot(ov.masses[:m], v[m - 1 :: -1][:m]))
        worst = max(worst, abs(recon - v[m]))
    if worst > 1e-10:
        raise InternalConsistencyError(f"overlap reconstruction off by {worst:.3e}")
    return f"max reconstruction error {worst:.2e}"


def _check_dp_enumeration(kernel, seed):
    stream = derive_stream(seed, 9000)
    worst = 0.0
    for case in range(5):
        n = 4 + case
        omega = stream.normal(n)
        beta = 0.5 + 0.25 * case
        h = 0.1 * case - 0.2
        params = PolymerParams(
            kernel=kernel, disorder=rademacher_disorder(), beta=beta, h=h, n=n, replicas=1
        )
        got = partition_function_log(params, omega)
        want = pinned_partition_log(kernel.mass_array(n), beta * omega - h)
        worst = max(worst, abs(got - want))
    if worst > 1e-12:
        raise InternalConsistencyError(f"DP vs enumeration gap {worst:.3e}")
    return f"max gap {worst:.2e}"


def _check_annealed_identity(kernel):
    ok, lhs, rhs = annealed_partition_check(
        kernel, rademacher_disorder(), beta=0.7, h=0.2, n=6
    )
    if not ok:
        raise InternalConsistencyError(f"annealed identity gap {abs(lhs - rhs):.3e}")
    return f"gap {abs(lhs - rhs):.2e}"


def _check_replica_identity(kernel):
    ktr = truncate_kernel(kernel, 3)
    lhs, rhs, dp = replica_moment_exact_check(ktr, rademacher_disorder(), 0.8, 4)
    gap = max(abs(lhs - rhs), abs(lhs - dp))
    if gap > 1e-12:
        raise InternalConsistencyError(f"replica identity gap {gap:.3e}")
    return f"gap {gap:.2e}"


def cmd_validate(cfg: dict, args) -> int:
    seed = int(_fetch(cfg, "base_seed", required=False, default=0))
    selected = _fetch(cfg, "checks", required=False)
    try:
        kernel, _ = _check_kernel_construction(cfg)
        construction_error = None
    except PinlabError as exc:
        kernel = None
        construction_error = str(exc)

    checks = [
        ("kernel-mass-normalization", lambda: _must_construct(construction_error)),
        ("renewal-recursion", lambda: _check_renewal_recursion(kernel)),
        ("truncation-mass", lambda: _check_truncation_mass(kernel)),
        ("overlap-reconstruction", lambda: _check_overlap_reconstruction(kernel)),
        ("dp-vs-enumeration", lambda: _check_dp_enumeration(kernel, seed)),
        ("annealed-moment-identity", lambda: _check_annealed_identity(kernel)),
        ("replica-identity", lambda: _check_replica_identity(kernel)),
    ]
    if selected is not None:
        names = set(selected)
        checks = [c for c in checks if c[0] in names]
        if not checks:
            raise ConfigError("checks", "no known check selected")

    failures = 0
    for name, runner in checks:
        if kernel is None and name != "kernel-mass-normalization":
            print(f"SKIP {name} (kernel construction failed)")
            continue
        try:
            detail = runner()
            print(f"PASS {name} ({detail})")
        except PinlabError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
    return EXIT_INVARIANT if failures else EXIT_OK


def _must_construct(error: str | None) -> str:
    if error is not None:
        raise InternalConsistencyError(error)
    return "ok"


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
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config base_seed")
        if name == "phase-diagram":
            p.add_argument("--threads", type=int, default=1,
                           help="solve the beta grid on this many threads")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error at '{args.config}': {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except InternalConsistencyError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except UndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except PinlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
