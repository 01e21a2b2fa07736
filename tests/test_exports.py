"""The public names of the package resolve, every error class is in use, no
signature takes a map base, every function has a caller and every CLI option
is read."""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import re
import textwrap
from pathlib import Path

import dmspec
from dmspec import cli, errors

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


#: module-level functions whose only callers are tests, which compare the
#: engine against them
TEST_REFERENCES = {"sampling.random_orbit", "spectrum.orbit_bands"}


def test_every_function_has_a_caller():
    # a module-level function is named in the code of src/dmspec (docstrings
    # do not count) or exported in dmspec.__all__
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{stem}.{node.name}" for stem, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name not in used
              and node.name not in dmspec.__all__ and f"{stem}.{node.name}" not in TEST_REFERENCES]
    assert unused == []


def _args_read(fn) -> set[str]:
    """The names fn reads off its args: args.name and getattr(args, "name", ...)."""
    read = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "args":
            read.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and isinstance(node.args[0], ast.Name) \
                and node.args[0].id == "args" and isinstance(node.args[1], ast.Constant):
            read.add(node.args[1].value)
    return read


def test_every_cli_option_is_read():
    # an option a subcommand accepts is read on that subcommand's path: its
    # cmd_* function, _load_config or _emit
    shared = _args_read(cli._load_config) | _args_read(cli._emit)
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, parser in sub.choices.items():
        read = shared | _args_read(parser.get_default("fn"))
        unread += [f"{name} {action.option_strings[0]}" for action in parser._actions
                   if action.option_strings and action.dest != "help" and action.dest not in read]
    assert unread == []


def test_one_angle_measure_for_lines():
    # lines are compared by cocycle._line_angle on their vectors; only the
    # winding kernels of schwartzman need true angles
    users = [path.name for path in sorted(SRC.glob("*.py"))
             if "np.arctan2" in path.read_text(encoding="utf-8")]
    assert users == ["schwartzman.py"]


def test_orbit_points_are_folded_without_mod():
    # sampling folds points into [0, 1) by w - floor(w) (sampling._fraction), which
    # is np.mod(w, 1.0) bit for bit and takes no division
    source = (SRC / "sampling.py").read_text(encoding="utf-8")
    found = [f"sampling.py:{i}" for i, line in enumerate(source.splitlines(), 1)
             if "np.mod" in line or "% 1.0" in line]
    assert found == []


def test_every_constant_is_read():
    # a module-level UPPERCASE name is loaded, by name or as an attribute,
    # somewhere in src/dmspec; a constant nothing reads has outlived its use
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = [(stem, target.id) for stem, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
               if isinstance(target, ast.Name) and target.id.isupper()
               and not target.id.startswith("__")]
    assert len(defined) >= 30
    assert [f"{stem}.{name}" for stem, name in defined if name not in read] == []
