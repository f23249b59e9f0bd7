"""Per-layer tracing from outside the package.

While installed, a :class:`Tracer` replaces each function in ``TRACED`` with a
wrapper that records a span ``[name, start, end, parent, info]`` in memory.
Names reach their callers through ``from ... import`` in ``cli``,
``relevance``, ``homopolymer`` and ``quenched``, so every ``pinlab`` module
namespace that binds the function is patched, not only the defining one.
Removing the tracer restores the originals, so untraced passes run the
unmodified program.

A span's self time is its duration minus the durations of its direct
children; calls run one at a time on one thread (the phase-diagram thread
pool is not used), so children never overlap.  No layer waits on another,
so wait time is not applicable and is not reported.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import types
from collections import defaultdict

# layer (pinlab module) -> traced public functions; "Class.method" for methods
TRACED = {
    "cli": ["main", "RunWriter.write_table", "RunWriter.finish"],
    "quenched": ["dp_log_partition", "quenched_free_energy", "quenched_critical_point"],
    "disorder": ["sample", "sample_base", "log_mgf"],
    "rng": ["derive_stream"],
    "series": ["power_series_inverse", "renewal_function_dp",
               "kernel_from_renewal_function_dp", "polylog_exp"],
    "kernels": ["chi", "overlap_kernel", "return_probabilities"],
    "homopolymer": ["homopolymer_free_energy", "annealed_free_energy", "joint_free_energy"],
    "relevance": ["entropy_estimator", "critical_temperature_bounds", "replica_moment_log"],
}
LAYERS = list(TRACED)

# result-file writing in cli: the payload table, the manifest, and the json.dump
# of the phase-diagram and relevance sidecars
OUTPUT_SPANS = ("cli.RunWriter.write_table", "cli.RunWriter.finish", "cli.json.dump")


def _cells(a: dict) -> int:
    # cells the DP fills: replicas * sum_{m=1..n} min(m, band)
    reps, n = a["site_weights"].shape
    w = n if a.get("band") is None else min(a["band"], n)
    return reps * (w * (w + 1) // 2 + (n - w) * w)


def _sample_key(a: dict) -> dict:
    s = a["stream"]
    return {"count": int(a["count"]),
            "key": (s.base_seed, s.stream_index, s.position, int(a["count"]))}


# span info taken from the arguments before the call
_PRE = {
    "quenched.dp_log_partition": lambda a: {"cells": _cells(a)},
    "disorder.sample": _sample_key,
    "series.power_series_inverse": lambda a: {"coeffs": int(a["n"])},
    "kernels.return_probabilities": lambda a: {"horizon": int(a["n"])},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        pre = _PRE.get(name)
        bind = inspect.signature(fn).bind if pre else None
        keep_result = name == "kernels.chi"

        def traced(*args, **kwargs):
            info = None
            if pre is not None:
                bound = bind(*args, **kwargs)
                bound.apply_defaults()
                info = pre(bound.arguments)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, info]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep_result:
                span[4] = {"horizon": result.horizon}
            return result

        return traced

    def install(self) -> None:
        pinlab_modules = [m for k, m in sys.modules.items()
                          if m is not None and (k == "pinlab" or k.startswith("pinlab."))]
        for layer, names in TRACED.items():
            module = sys.modules[f"pinlab.{layer}"]
            for qual in names:
                span_name = f"{layer}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, meth, self._wrap(span_name, cls.__dict__[meth]))
                    continue
                original = getattr(module, qual)
                wrapper = self._wrap(span_name, original)
                for mod in pinlab_modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        cli = sys.modules["pinlab.cli"]
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.dump = self._wrap("cli.json.dump", json.dump)
        self._patch(cli, "json", proxy)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": [s[:4] for s in self.spans]}, fh)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = metric.rsplit(".", 1)[1]
    if last == "s" or last.endswith("_s"):
        return "s"
    return {"ns_per_cell": "ns/cell", "probes_per_bracket": "probes/bracket",
            "repeat_frac": "fraction", "horizon_efficiency": "fraction",
            "output_bytes": "bytes"}.get(last, "count")


def layer_metrics(tracer: Tracer, wall_s: float, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose ops took ``wall_s`` in total."""
    spans = tracer.spans
    self_s = tracer.self_times()
    calls = defaultdict(int)
    self_by = defaultdict(float)
    incl_by = defaultdict(float)
    for span, own in zip(spans, self_s):
        name = span[0]
        calls[name] += 1
        self_by[name] += own
        incl_by[name] += span[2] - span[1]

    def ancestors(i: int):
        p = spans[i][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    m: dict[str, float] = {}

    def put(name: str, *fields: str) -> None:
        for f in fields:
            m[f"{name}.{f}"] = {"self_s": self_by[name], "s": incl_by[name],
                                "calls": calls[name]}[f]

    dp = "quenched.dp_log_partition"
    put(dp, "self_s", "calls")
    cells = sum(s[4]["cells"] for s in spans if s[0] == dp)
    m[f"{dp}.cells"] = cells
    m[f"{dp}.ns_per_cell"] = self_by[dp] * 1e9 / cells if cells else 0.0
    put("quenched.quenched_free_energy", "calls")
    qcp = "quenched.quenched_critical_point"
    put(qcp, "s")
    probes = sum(1 for i, s in enumerate(spans)
                 if s[0] == "quenched.quenched_free_energy" and qcp in ancestors(i))
    m[f"{qcp}.probes_per_bracket"] = probes / calls[qcp] if calls[qcp] else 0.0

    put("disorder.sample", "self_s")
    draws = [s[4] for s in spans if s[0] == "disorder.sample"]
    m["disorder.sample.variates"] = sum(d["count"] for d in draws)
    seen = set()
    repeats = 0
    for d in draws:
        repeats += d["key"] in seen
        seen.add(d["key"])
    m["disorder.sample.repeat_frac"] = repeats / len(draws) if draws else 0.0
    put("disorder.sample_base", "self_s")
    put("disorder.log_mgf", "calls", "self_s")
    put("rng.derive_stream", "calls")

    psi = "series.power_series_inverse"
    put(psi, "self_s", "calls")
    m[f"{psi}.coeffs"] = sum(s[4]["coeffs"] for s in spans if s[0] == psi)
    put("series.renewal_function_dp", "self_s", "calls")
    put("series.kernel_from_renewal_function_dp", "self_s", "calls")
    put("series.polylog_exp", "calls")

    put("kernels.chi", "s", "calls")
    finals = [s[4]["horizon"] for s in spans if s[0] == "kernels.chi" and s[4]]
    tried = sum(s[4]["horizon"] for s in spans if s[0] == "kernels.return_probabilities"
                and s[3] >= 0 and spans[s[3]][0] == "kernels.chi")
    m["kernels.chi.final_horizon"] = max(finals, default=0)
    m["kernels.chi.horizon_efficiency"] = sum(finals) / tried if tried else 0.0
    put("kernels.overlap_kernel", "self_s", "calls")

    put("homopolymer.homopolymer_free_energy", "calls", "self_s")
    put("homopolymer.annealed_free_energy", "calls")
    put("homopolymer.joint_free_energy", "s", "calls")

    put("relevance.entropy_estimator", "s", "self_s")
    put("relevance.critical_temperature_bounds", "s")
    put("relevance.replica_moment_log", "self_s")

    # outermost output spans only: write_table with --format json nests a json.dump
    m["cli.output_s"] = sum(s[2] - s[1] for s in spans
                            if s[0] in OUTPUT_SPANS
                            and (s[3] < 0 or spans[s[3]][0] not in OUTPUT_SPANS))
    m["cli.output_bytes"] = output_bytes

    layer_self = defaultdict(float)
    for span, own in zip(spans, self_s):
        layer_self[span[0].split(".")[0]] += own
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.glue_s"] = wall_s - sum(self_s)
    m["trace.wall_s"] = wall_s
    return m
