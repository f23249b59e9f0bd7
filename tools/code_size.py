"""Code lines and settable values per module of a Python source tree.

    python3 tools/code_size.py [SOURCE_DIR]    # default: src/pinlab

Code lines are the lines that hold a Python token other than a comment,
less the lines of docstrings (the leading string of a module, class or
function).  A token that spans lines, such as a triple-quoted string,
holds each of them.

Settable values are the parameters with a default, of every function,
method and lambda (nested ones included), plus the fields of each
``@dataclass`` that its constructor takes (a field declared with
``init=False`` is not one), plus each environment variable the module
reads (``os.environ[...]``, ``os.environ.get(...)``, ``os.getenv(...)``),
once per distinct name.

The counts are printed per module, then for the whole tree.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _in_constructor(field: ast.AnnAssign) -> bool:
    """Whether a dataclass field is a constructor argument (no ``init=False``)."""
    if isinstance(field.value, ast.Call):
        for kw in field.value.keywords:
            if kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False:
                return False
    return True


def _is_named(node: ast.expr, name: str) -> bool:
    """Whether ``node`` is ``name`` or an attribute ``<anything>.name``."""
    return getattr(node, "attr", getattr(node, "id", None)) == name


def _env_read(node: ast.AST) -> ast.expr | None:
    """The name read from the environment by ``node``, if it reads one."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
        return node.slice if _is_named(node.value, "environ") else None
    if isinstance(node, ast.Call) and node.args:
        func = node.func
        is_get = _is_named(func, "get") and _is_named(getattr(func, "value", None), "environ")
        return node.args[0] if is_get or _is_named(func, "getenv") else None
    return None


def settable_values(source: str) -> int:
    count = 0
    env_names = set()
    for node in ast.walk(ast.parse(source)):
        name = _env_read(node)
        if name is not None:
            env_names.add(ast.dump(name))
        if isinstance(node, _FUNCTIONS):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(
                isinstance(s, ast.AnnAssign) and _in_constructor(s) for s in node.body
            )
    return count + len(env_names)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default = Path(__file__).resolve().parent.parent / "src" / "pinlab"
    parser.add_argument("source_dir", nargs="?", default=str(default))
    root = Path(parser.parse_args(argv).source_dir)
    total_lines = total_values = 0
    print(f"{'module':<16}{'code lines':>12}{'settable':>10}")
    for path in sorted(root.glob("*.py")):
        source = path.read_text()
        lines, values = code_lines(source), settable_values(source)
        total_lines += lines
        total_values += values
        print(f"{path.stem:<16}{lines:>12}{values:>10}")
    print(f"{'total':<16}{total_lines:>12}{total_values:>10}")


if __name__ == "__main__":
    main()
