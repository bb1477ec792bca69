"""Count the size of the ``sthdg`` package: lines, code lines and settings.

Prints four numbers for ``src/sthdg``:

- physical lines of every module;
- code lines: physical lines less blank, comment-only and docstring lines;
- the settings surface: the parameters of every public module-level
  function and of every method of a public class (``__init__`` included,
  other dunder and private methods not), without ``self``/``cls`` but
  with ``*args``/``**kwargs``, plus the fields of every public dataclass;
- options: the entries of the settings surface that have a default.

A name is public when it does not start with an underscore.  Run it from
anywhere as ``python tools/surface.py`` (or pass another package
directory).
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sthdg"


def _docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _parameters(fn, method):
    """``(count, with_default)`` of a function's parameters."""
    a = fn.args
    positional = a.posonlyargs + a.args
    if method and positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    count = len(positional) + len(a.kwonlyargs) + (a.vararg is not None) \
        + (a.kwarg is not None)
    defaults = len(a.defaults) + sum(d is not None for d in a.kw_defaults)
    return count, defaults


def _is_dataclass(cls):
    for d in cls.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _settings(tree):
    """``(surface, options)`` of one module."""
    surface = options = 0
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and not node.name.startswith("_"):
            n, d = _parameters(node, method=False)
            surface, options = surface + n, options + d
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            dataclass = _is_dataclass(node)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and (item.name == "__init__" or not item.name.startswith("_")):
                    n, d = _parameters(item, method=True)
                    surface, options = surface + n, options + d
                elif dataclass and isinstance(item, ast.AnnAssign) \
                        and isinstance(item.target, ast.Name) \
                        and not item.target.id.startswith("_"):
                    surface += 1
                    options += item.value is not None
    return surface, options


def count(package):
    """``(lines, code_lines, surface, options)`` over ``package/*.py``."""
    lines = code = surface = options = 0
    for path in sorted(Path(package).glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        docs = _docstring_lines(tree)
        text = source.splitlines()
        lines += len(text)
        code += sum(1 for i, line in enumerate(text, 1)
                    if line.strip() and not line.strip().startswith("#")
                    and i not in docs)
        s, o = _settings(tree)
        surface, options = surface + s, options + o
    return lines, code, surface, options


def main(argv):
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    lines, code, surface, options = count(package)
    print(f"lines {lines}")
    print(f"code_lines {code}")
    print(f"settings_surface {surface}")
    print(f"options {options}")


if __name__ == "__main__":
    main(sys.argv)
