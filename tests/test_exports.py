"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import lcowind


def test_every_exported_name_resolves():
    names = ["lcowind"] + [f"lcowind.{info.name}"
                           for info in pkgutil.iter_modules(lcowind.__path__)]
    missing = [f"{name}.{export}" for name in names
               for module in [importlib.import_module(name)]
               for export in getattr(module, "__all__", ())
               if not hasattr(module, export)]
    assert len(names) > 10 and missing == []
