"""README runs and names what the package holds.

The library quick start runs as written, and every name README's module
map gives resolves, so a renamed or removed name fails here rather than
leaving the map stale.
"""

import builtins
import importlib
import re
from pathlib import Path

import pytest

import lcowind

README = Path(__file__).resolve().parents[1] / "README.md"
MODULE_ROW = re.compile(r"^\| `lcowind\.(\w+)` \| (.*) \|$", re.MULTILINE)
NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`")


def test_library_quick_start_gradients_agree():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(code, namespace)
    assert namespace["dj_rev"] == pytest.approx(namespace["dj_fwd"], rel=1e-8)


def resolve(name, module):
    """The object a dotted name stands for, looked up attribute by attribute
    from the package, or from the row's module, the package or its errors,
    or else among the builtin exceptions, the errors README lists."""
    first, *rest = name.split(".")
    scopes = [scope for scope in (module, lcowind, lcowind.errors) if hasattr(scope, first)]
    if first == "lcowind":
        obj = lcowind
    elif scopes:
        obj = getattr(scopes[0], first)
    else:
        obj = getattr(builtins, first)
        assert isinstance(obj, type) and issubclass(obj, Exception), name
    for part in rest:
        obj = getattr(obj, part)
    return obj


def test_every_module_and_name_the_map_gives_resolves():
    text = README.read_text(encoding="utf-8")
    rows = MODULE_ROW.findall(text)
    modules = {name: importlib.import_module(f"lcowind.{name}") for name, _ in rows}
    assert set(modules) >= {"windows", "models", "primal", "tangent", "adjoint",
                            "analysis", "optim", "cli", "errors"}
    # every backticked lcowind.<module> anywhere in README, and every
    # <module>.<name> that names a docstring; `tangent.csv` names a file
    pointers = re.findall(rf"`((?:lcowind|{'|'.join(modules)})\.[\w.]+)`", text)
    assert pointers
    for dotted in pointers:
        if not dotted.endswith(".csv"):
            resolve(dotted, lcowind)
    # every name a module row gives, from that module
    for module_name, cell in rows:
        names = NAME.findall(cell)
        assert names, module_name
        for name in names:
            resolve(name, modules[module_name])
