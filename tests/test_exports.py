"""The public names of the package resolve, every error class is in use, and no signature takes a map base."""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

import dmspec
from dmspec import errors

SRC = Path(dmspec.__file__).resolve().parent


def test_all_names_resolve():
    assert [name for name in dmspec.__all__ if not hasattr(dmspec, name)] == []


def test_every_error_class_is_raised():
    source = "\n".join(path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py")))
    classes = [cls.__name__ for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.DmspecError)]
    assert "DmspecError" in classes
    assert [name for name in classes if not re.search(rf"\braise {name}\(", source)] == []


def test_no_map_base_parameter():
    # the map is the doubling map: no signature takes its base
    found = []
    for path in sorted(SRC.glob("[!_]*.py")):
        module = importlib.import_module(f"dmspec.{path.stem}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__ or not callable(obj):
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{k}", v) for k, v in vars(obj).items() if inspect.isfunction(v)]
            for qualname, fn in members:
                try:
                    params = inspect.signature(fn).parameters
                except (TypeError, ValueError):
                    continue
                found += [f"{path.stem}.{qualname}({p})" for p in params if p in ("m", "map_base")]
    assert found == []
