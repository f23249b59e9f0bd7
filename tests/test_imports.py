"""Every imported name is used: a removed caller must not leave its import
behind.  Names re-exported through ``__all__`` count as used.  The runtime
imports numpy and nothing outside the standard library besides.  Only the
modules that define the kernel and disorder families branch on them, and
only the quenched layer picks a kernel's DP path.  Every exported name has
a reader outside its own definition: other package code, a bench script or
the README."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "pinlab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(imported) - used - _exported(tree)
    return sorted(f"{name} (line {imported[name]})" for name in unused)


def test_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport math as m\nfrom a import b\n"
    source += "__all__ = ['b']\nprint(m.pi)\n"
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# the modules allowed to read a ``.family`` attribute: the two that define the
# families, and the enumeration oracle's finite-support check
FAMILY_READERS = {"kernels.py", "disorder.py", "oracles.py"}


def family_reads(source: str) -> list[int]:
    """Line numbers in ``source`` that read a ``.family`` attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "family"
        and isinstance(node.ctx, ast.Load)
    )


def test_finds_a_family_read():
    assert family_reads("x = 1\nif kernel.family == 'power':\n    pass\n") == [2]
    assert family_reads("family = 'power'\nobj.family = family\n") == []


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p.parent.name == "pinlab" and p.name not in FAMILY_READERS],
    ids=lambda p: p.name,
)
def test_family_decisions_live_in_their_module(path):
    assert family_reads(path.read_text()) == []


# the modules allowed to name the DP or a kernel's band and far terms: the
# quenched layer, whose ``_log_partitions`` maps a kernel to a DP call, and
# the module that defines them
DP_PATH_MODULES = {"quenched.py", "kernels.py"}
DP_PATH_NAMES = {"dp_log_partition", "far_terms", "support_upper"}


def dp_path_reads(source: str) -> list[int]:
    """Line numbers in ``source`` that read ``dp_log_partition``,
    ``far_terms`` or ``support_upper``, as a name or an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Name) and node.id in DP_PATH_NAMES)
        or (isinstance(node, ast.Attribute) and node.attr in DP_PATH_NAMES)
    )


def test_finds_a_dp_path_read():
    source = "x = 1\nz = dp_log_partition(k, w, ktr.support_upper)\ny = kernels.far_terms(k, n)\n"
    assert dp_path_reads(source) == [2, 2, 3]
    assert dp_path_reads("z = _log_partitions(ktr, w)\n") == []


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p.parent.name == "pinlab" and p.name not in DP_PATH_MODULES],
    ids=lambda p: p.name,
)
def test_one_module_picks_the_dp_path(path):
    assert dp_path_reads(path.read_text()) == []


_RUN_WITHOUT_SCIPY = """
import sys
import pinlab
from pinlab import cli
validate, relevance, phase_diagram, out = sys.argv[1:]
codes = [cli.main(["validate", "--config", validate, "--out", out + "/validate"]),
         cli.main(["relevance", "--config", relevance, "--out", out + "/relevance"]),
         cli.main(["phase-diagram", "--config", phase_diagram, "--out", out + "/phase-diagram"])]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(codes, loaded)
"""


def test_runtime_never_imports_scipy(tmp_path):
    # scipy is a test oracle only; a stray import would bring back about
    # half a second of start-up.  relevance and phase-diagram run at the
    # bench's smoke sizes
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    configs = ROOT / "bench" / "configs"
    relevance = json.loads((configs / "relevance.json").read_text())
    relevance.update(tr_schedule=[4, 8], n_multiplier=16, replicas=8)
    phase_diagram = json.loads((configs / "phase_diagram.json").read_text())
    phase_diagram["quenched"].update(n=64, replicas=4)
    for name, doc in (("relevance", relevance), ("phase_diagram", phase_diagram)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_SCIPY, str(configs / "validate.json"),
         str(tmp_path / "relevance.json"), str(tmp_path / "phase_diagram.json"), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"
    assert (tmp_path / "relevance" / "relevance_bounds.json").is_file()
    assert (tmp_path / "phase-diagram" / "phase_diagram.csv").is_file()


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((ROOT / "src" / "pinlab" / module).read_text())
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


def test_each_computation_written_once():
    # -zeta' comes from the one Euler-Maclaurin loop of _power_sum
    loops = (ast.For, ast.While, ast.comprehension)
    assert not any(isinstance(n, loops) for n in ast.walk(_function("series.py", "zeta_log_sum")))
    # the serializers read their module's _FAMILIES table, not a family chain
    for module, name in (("kernels.py", "kernel_to_json"), ("disorder.py", "disorder_to_json")):
        assert not any(isinstance(n, ast.Compare) for n in ast.walk(_function(module, name)))
    # an anchored tilt of atoms or of a density is the one _anchored_tilt
    for name in ("relative_entropy_tilt", "log_xi", "_anchored_log_mgf"):
        nodes = ast.walk(_function("disorder.py", name))
        assert not any(isinstance(n, ast.Attribute) and n.attr == "family" for n in nodes), name


# exports that no command reads yet, each named with the ROADMAP item that
# will read it
UNREAD_EXPORTS = {
    "joint_truncation_bound": "item 2",
    "kernel_to_json": "item 12",
    "disorder_to_json": "item 12",
}


def _reads(tree: ast.Module, skip: ast.AST | None = None, strings: bool = False) -> set[str]:
    """Names and attributes that ``tree`` loads, outside the node ``skip``.
    With ``strings``, a string constant such as
    ``"quenched.dp_log_partition"`` reads its last dotted part too, as the
    bench's tracer names what it wraps."""
    skipped = set(map(id, ast.walk(skip))) if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value.rsplit(".", 1)[-1])
    return names


def unread_exports(package: dict[str, str], bench: list[str], readme: str) -> list[str]:
    """``module.name`` for each name in a package module's ``__all__`` that
    no other package code, no bench script and not the README reads.  A
    read inside the name's own ``def`` or ``class`` does not count, nor does
    ``__init__``'s re-export."""
    trees = {module: ast.parse(source) for module, source in package.items()
             if module != "__init__"}
    reads = {module: _reads(tree) for module, tree in trees.items()}
    bench_reads = set().union(*(_reads(ast.parse(source), strings=True) for source in bench))
    unread = []
    for module, tree in trees.items():
        elsewhere = bench_reads.union(*(r for m, r in reads.items() if m != module))
        for name in sorted(_exported(tree)):
            own = next((node for node in tree.body if getattr(node, "name", None) == name), None)
            if (name not in elsewhere and name not in _reads(tree, skip=own)
                    and not re.search(rf"\b{re.escape(name)}\b", readme)):
                unread.append(f"{module}.{name}")
    return unread


def test_finds_an_unused_export():
    package = {
        "__init__": "from .a import f, g, h, k\n__all__ = ['f', 'g', 'h', 'k']\n",
        "a": "__all__ = ['f', 'g', 'h', 'k']\ndef f():\n    return f()\n"
             "def g():\n    return 1\ndef h():\n    return g()\nclass k:\n    pass\n",
    }
    assert unread_exports(package, [], "") == ["a.f", "a.h", "a.k"]
    assert unread_exports(package, ["TRACED = ['a.h']\n"], "call `k`") == ["a.f"]


def test_every_export_has_a_reader():
    package = {p.stem: p.read_text() for p in (ROOT / "src" / "pinlab").glob("*.py")}
    bench = [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    # the keep-list is exactly what is unread: an entry that gains its reader
    # leaves the list
    unread = {name.rsplit(".", 1)[1] for name in unread_exports(package, bench, readme)}
    assert sorted(unread) == sorted(UNREAD_EXPORTS)
