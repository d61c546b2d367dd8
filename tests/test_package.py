"""The package's public surface: each module's ``__all__``, exported as their union."""

import importlib
import pkgutil
import re
from pathlib import Path

import discrete_epi

README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_exports_the_union_of_module_lists():
    # Every module but the command-line front end is part of the library.
    modules = [
        importlib.import_module(f"discrete_epi.{info.name}")
        for info in pkgutil.iter_modules(discrete_epi.__path__)
        if info.name != "cli"
    ]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert discrete_epi.__all__ == sorted(names)
    for name in names:
        getattr(discrete_epi, name)

    namespace = {}
    exec("from discrete_epi import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == discrete_epi.__all__

    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    exec(re.search(r"```python\n(.*?)```", library, re.S).group(1), {})
