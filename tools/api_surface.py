"""Public callables and parameters of the library's modules.

    python3 tools/api_surface.py

Prints one line per public callable of ``causalrd.model``, ``measures``,
``solver``, ``baseline`` and ``oracle`` (its qualified name and parameter
count), then the totals.  A public callable is a function or a class other
than an exception, defined in the module itself (not imported into it), whose
name does not start with an underscore.  A class counts the parameters of its
constructor, without ``self``; ``*args`` and ``**kwargs`` count one each.
The package is imported from the repository's ``src`` directory.
"""
from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

MODULES = ("model", "measures", "solver", "baseline", "oracle")


def surface(module) -> list:
    """(name, parameter count) of each public callable defined in ``module``,
    in definition order."""
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj) and issubclass(obj, BaseException):
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            out.append((name, len(inspect.signature(obj).parameters)))
    return out


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    callables = params = 0
    for m in MODULES:
        for name, count in surface(importlib.import_module(f"causalrd.{m}")):
            print(f"{m}.{name} {count}")
            callables, params = callables + 1, params + count
    print(f"{callables} callables, {params} parameters")


if __name__ == "__main__":
    main()
