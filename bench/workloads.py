"""The benchmark's workloads: which operations each one runs, and how each
operation's outputs are checked.

Every operation but one is an in-process ``pinlab.cli.main([...])`` call on a
config from ``configs/``.  The exception is the pair-chain DP
(``relevance.replica_moment_log``), which no CLI command reaches at a useful
size, so it is a library call.

An operation fails when its exit code is not the one the README promises for
what it printed (0 on success, 4 when a verdict is undecided), when an
invariant of its output does not hold, or when a field differs from the
committed reference beyond the tolerance in ``spec.json``.  Fields that do
not depend on the seed are compared at every seed; the others only at the
reference seed.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from pinlab import cli, relevance
from pinlab.disorder import disorder_from_json, log_xi
from pinlab.kernels import kernel_from_json, truncate_kernel

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
REFERENCE = HERE / "reference"
SPEC = json.loads((HERE / "spec.json").read_text())

EXIT_OK = 0
EXIT_UNDECIDED = 4


@dataclass
class Outcome:
    """What one operation produced."""

    exit: object                     # int exit code, or "exception: ..." text
    stdout: str
    stderr: str
    payload: dict = field(default_factory=dict)    # file name -> parsed content
    digests: dict = field(default_factory=dict)    # file name -> sha256 of bytes
    output_bytes: int = 0                          # payload files written
    library_value: float | None = None             # return value of the library call


@dataclass
class Op:
    name: str
    command: str | None      # CLI subcommand; None for the library call
    config: dict
    seeded_fields: frozenset = frozenset()   # fields (or payload files) that depend on the seed
    extra_args: tuple = ()
    workdir: Path | None = None
    config_path: Path | None = None
    library_args: tuple | None = None

    def prepare(self, workdir: Path) -> None:
        """Write the effective config; called once, outside timing."""
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / f"{self.name}.json"
        self.config_path.write_text(json.dumps(self.config, sort_keys=True, indent=1) + "\n")
        if self.command is None:
            cfg = self.config
            kernel_tr = truncate_kernel(kernel_from_json(cfg["kernel"]), int(cfg["tr"]))
            self.library_args = (kernel_tr, log_xi(disorder_from_json(cfg["disorder"]), cfg["beta"]),
                                 int(cfg["n"]))

    def out_dir(self) -> Path:
        return self.workdir / "out"

    def reset(self) -> None:
        shutil.rmtree(self.out_dir(), ignore_errors=True)
        self.out_dir().mkdir()

    def execute(self) -> Outcome:
        """Run the operation once; this is the timed part."""
        out, err = io.StringIO(), io.StringIO()
        value = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.command is None:
                    # looked up at call time so that a traced pass sees the wrapper
                    value = relevance.replica_moment_log(*self.library_args)
                    code = EXIT_OK
                else:
                    code = cli.main([self.command, "--config", str(self.config_path),
                                     "--out", str(self.out_dir()), *self.extra_args])
        except Exception as exc:  # a crash is a failed operation, not a harness error
            code = f"exception: {type(exc).__name__}: {exc}"
        return Outcome(exit=code, stdout=out.getvalue(), stderr=err.getvalue(),
                       library_value=value)

    def collect(self, outcome: Outcome) -> None:
        """Read and parse what the operation wrote; untimed."""
        if self.command is None:
            if outcome.library_value is not None:
                outcome.payload["replica_moment_log"] = {"log_moment": outcome.library_value}
        elif self.command == "validate":
            # validate writes no files; its payload is the pass/fail matrix
            outcome.payload["stdout"] = {
                "checks": [" ".join(line.split()[:2]) for line in outcome.stdout.splitlines()]
            }
        for path in sorted(self.out_dir().iterdir()):
            if path.name.endswith("_manifest.json"):
                continue   # carries wall-clock timings, so it is not part of the payload
            raw = path.read_bytes()
            outcome.output_bytes += len(raw)
            outcome.digests[path.name] = hashlib.sha256(raw).hexdigest()
            outcome.payload[path.name] = _parse(path.name, raw.decode())
        for name, doc in outcome.payload.items():
            if name not in outcome.digests:
                blob = json.dumps(doc, sort_keys=True).encode()
                outcome.digests[name] = hashlib.sha256(blob).hexdigest()


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _parse(name: str, text: str):
    if name.endswith(".json"):
        return json.loads(text)
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return {"rows": [{k: _number(v) for k, v in row.items()} for row in csv.DictReader(lines)]}


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

# Tiny sizes for ``--smoke``: same operations, same code paths, seconds in total.
_SMOKE = {
    "phase-diagram": {"quenched": {"n": 64, "replicas": 4}},
    "relevance": {"tr_schedule": [4, 8], "n_multiplier": 16, "replicas": 8},
    "chi-alpha0.3": {"tolerance": 0.05},
    "homopolymer-alpha0.3": {"lambda_grid": {"count": 4}},
    "homopolymer-alpha0.7": {"lambda_grid": {"count": 4}},
    "annealed-curve": {"beta_grid": {"count": 3}},
    "replica-moment-log": {"n": 256},
}


def _config(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text())


def _merge(base: dict, patch: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def build(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The workload's operations, in the order they run, with inputs made from ``seed``."""
    if workload == "quenched-phase":
        ops = [Op("phase-diagram", "phase-diagram", _config("phase_diagram.json"),
                  seeded_fields=frozenset({"h_que_lo", "h_que_hi", "verdict",
                                           "phase_diagram_diagnostics.json"}),
                  extra_args=("--threads", "1"))]
    elif workload == "relevance-scan":
        ops = [Op("relevance", "relevance", _config("relevance.json"),
                  seeded_fields=frozenset({"estimate", "stderr", "verdict", "overall_verdict"}))]
    elif workload == "solvers":
        ops = [
            Op("chi-alpha0.3", "chi", _config("chi_alpha03.json")),
            Op("chi-alpha0.5", "chi", _config("chi_alpha05.json")),
            Op("homopolymer-alpha0.3", "homopolymer", _config("homopolymer_alpha03.json")),
            Op("homopolymer-alpha0.7", "homopolymer", _config("homopolymer_alpha07.json")),
            Op("annealed-curve", "annealed-curve", _config("annealed_curve.json")),
            # the enumeration checks draw their charges from base_seed; the
            # pass/fail matrix does not depend on it
            Op("validate", "validate", _config("validate.json")),
            Op("replica-moment-log", None, _config("replica_moment.json")),
        ]
    else:
        raise KeyError(workload)
    for op in ops:
        if "base_seed" in op.config:
            op.config["base_seed"] = seed
        if smoke:
            op.config = _merge(op.config, _SMOKE.get(op.name, {}))
    return ops


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _rows(outcome: Outcome, name: str) -> list[dict]:
    return outcome.payload.get(name, {}).get("rows", [])


def promised_exit(op: Op, outcome: Outcome):
    """The exit code the README promises for what the operation printed."""
    if op.command is None:
        return EXIT_OK
    if op.command == "phase-diagram":
        undecided = any(r["verdict"] == "undecided" for r in _rows(outcome, "phase_diagram.csv"))
        return EXIT_UNDECIDED if undecided else EXIT_OK
    if op.command == "relevance":
        bounds = outcome.payload.get("relevance_bounds.json", {})
        undecided = bounds.get("overall_verdict") == "undecided" or any(
            r["verdict"] == "undecided" for r in _rows(outcome, "relevance_scan.csv"))
        return EXIT_UNDECIDED if undecided else EXIT_OK
    if op.command == "chi":
        rows = _rows(outcome, "chi.csv")
        return EXIT_UNDECIDED if rows and rows[0]["status"] == "undecided" else EXIT_OK
    return EXIT_OK


def invariants(op: Op, outcome: Outcome) -> list[str]:
    """Properties of the output that hold at every seed."""
    bad = []
    if op.command == "phase-diagram":
        rows = _rows(outcome, "phase_diagram.csv")
        if len(rows) != len(op.config["beta_grid"]):
            bad.append(f"{len(rows)} rows for {len(op.config['beta_grid'])} betas")
        for r in rows:
            if not r["h_que_lo"] < r["h_que_hi"]:
                bad.append(f"beta={r['beta']}: empty bracket")
            if not r["h_que_lo"] <= r["h_c_ann"]:
                bad.append(f"beta={r['beta']}: localized above the annealed critical point")
        diag = outcome.payload.get("phase_diagram_diagnostics.json")
        if not isinstance(diag, list) or len(diag) != len(rows):
            bad.append("diagnostics sidecar missing or wrong length")
    elif op.command == "relevance":
        rows = _rows(outcome, "relevance_scan.csv")
        if len(rows) != len(op.config["tr_schedule"]):
            bad.append(f"{len(rows)} rows for {len(op.config['tr_schedule'])} truncation levels")
        for r in rows:
            if not r["lower"] <= r["upper"]:
                bad.append(f"tr={r['tr']}: lower bound above upper bound")
            slack = 3.0 * r["stderr"]
            inside = r["lower"] - slack <= r["estimate"] <= r["upper"] + slack
            want = ("relevant" if r["estimate"] - slack > 0.0 else "irrelevant-consistent"
                    ) if inside else "undecided"
            if r["verdict"] != want:
                bad.append(f"tr={r['tr']}: verdict {r['verdict']!r}, expected {want!r}")
        bounds = outcome.payload.get("relevance_bounds.json")
        if bounds is None:
            bad.append("bounds sidecar missing")
        elif rows:
            positive = [r["estimate"] - 3.0 * r["stderr"] > 0.0 for r in rows]
            want = ("relevant" if all(positive)
                    else "irrelevant-consistent" if not positive[-1] else "undecided")
            if bounds.get("overall_verdict") != want:
                bad.append(f"overall verdict {bounds.get('overall_verdict')!r}, expected {want!r}")
    elif op.command == "homopolymer":
        rows = _rows(outcome, "homopolymer.csv")
        fs = [r["f"] for r in rows]
        if any(not f > 0.0 for f in fs):
            bad.append("free energy not positive at a positive pinning strength")
        if fs != sorted(fs):
            bad.append("free energy not increasing in lambda")
        if any(r["residual"] > 1e-10 for r in rows):
            bad.append("fixed-point residual above tol")
    elif op.command == "annealed-curve":
        if any(abs(r["bisection_gap"]) > 1e-8 for r in _rows(outcome, "annealed_curve.csv")):
            bad.append("bisection gap above verify_tol")
    elif op.command == "validate":
        checks = outcome.payload.get("stdout", {}).get("checks", [])
        if len(checks) != 7 or any(not c.startswith("PASS ") for c in checks):
            bad.append(f"validate matrix {checks}")
    elif op.command is None:
        value = outcome.library_value
        if value is None or not math.isfinite(value):
            bad.append(f"log moment {value!r} not finite")
    if op.command is not None and op.command != "validate":
        manifest = op.out_dir() / f"{op.command.replace('-', '_')}_manifest.json"
        if not manifest.is_file():
            bad.append("no manifest written")
    return bad


def _close(got, want, key: str) -> bool:
    if isinstance(want, bool) or isinstance(want, str) or want is None:
        return got == want
    if isinstance(want, (int, float)) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isnan(want) or math.isnan(got):
            return math.isnan(want) and math.isnan(got)
        if math.isinf(want) or math.isinf(got):
            return got == want
        tol = {**SPEC["tolerance"]["default"], **SPEC["tolerance"]["fields"].get(key, {})}
        return abs(got - want) <= tol["rtol"] * max(abs(got), abs(want)) + tol["atol"]
    return False


def _compare(got, want, path: tuple, seeded: frozenset, all_fields: bool, out: list) -> None:
    if not all_fields and seeded.intersection(path):
        return
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            out.append(f"{'/'.join(path)}: keys differ")
            return
        for key in want:
            _compare(got[key], want[key], path + (key,), seeded, all_fields, out)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{'/'.join(path)}: length differs")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, path + (str(i),), seeded, all_fields, out)
    elif not _close(got, want, path[-1]):
        out.append(f"{'/'.join(path)}: got {got!r}, reference {want!r}")


def load_reference(workload: str) -> dict | None:
    path = REFERENCE / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def check(op: Op, outcome: Outcome, seed: int, reference: dict | None) -> list[str]:
    """Every reason the operation failed; empty when it passed."""
    if isinstance(outcome.exit, str):
        return [outcome.exit]
    bad = []
    want_exit = promised_exit(op, outcome)
    if outcome.exit != want_exit:
        bad.append(f"exit {outcome.exit}, promised {want_exit}: {outcome.stderr.strip()[:200]}")
    bad += invariants(op, outcome)
    if reference is not None:
        ref = reference["ops"][op.name]
        _compare(outcome.payload, ref["payload"], (), op.seeded_fields,
                 seed == reference["seed"], bad)
    return bad


def reference_doc(workload: str, seed: int, ops: list[Op], outcomes: list[Outcome]) -> dict:
    """The reference file for ``workload`` at ``seed``, from one checked pass."""
    return {
        "workload": workload,
        "seed": seed,
        "ops": {
            op.name: {"exit": o.exit, "payload": o.payload, "sha256": o.digests}
            for op, o in zip(ops, outcomes)
        },
    }


def digest_matches(op: Op, outcome: Outcome, reference: dict | None, seed: int) -> bool | None:
    """Byte identity with the reference payload; information, not a gate."""
    if reference is None or seed != reference["seed"]:
        return None
    return outcome.digests == reference["ops"][op.name]["sha256"]

