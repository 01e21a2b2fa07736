"""The public names of the package resolve, and every error class is in use."""

from __future__ import annotations

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
