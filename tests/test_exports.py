"""Every name a `bmstab` module exports resolves.

`import bmstab` never reads a module's `__all__`, so a name left there after
its definition is gone fails only a star import.  This checks each module's
`__all__`, then that each public name of the package is one of them.
"""

import importlib
import pkgutil
import types

import bmstab


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"bmstab.{m.name}")
               for m in pkgutil.iter_modules(bmstab.__path__)]
    assert len(modules) >= 10
    for mod in modules:
        for name in mod.__all__:
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
    for name, value in vars(bmstab).items():
        if name.startswith("_") or isinstance(value, types.ModuleType):
            continue
        assert any(name in mod.__all__ and getattr(mod, name) is value
                   for mod in modules), f"bmstab.{name}"
