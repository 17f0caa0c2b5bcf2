"""tools/api_surface.py's count, on a hand-made module and on the package."""
import importlib
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import api_surface  # noqa: E402

HANDMADE = '''
from dataclasses import dataclass
from textwrap import dedent          # defined elsewhere: not counted

LIMIT = 3                            # a constant: not counted


def public(a, b=1, *args, c, **kwargs):
    return a


def _private(a):
    return a


class Plain:
    def __init__(self, x, y=None):
        self.x = x

    def method(self, z):             # methods are not counted
        return z


@dataclass
class Record:
    first: int
    second: float = 0.0


class Refused(ValueError):           # an exception: not counted
    def __init__(self, detail):
        super().__init__(detail)


class Bare:                          # no constructor of its own
    pass
'''


def test_surface_of_a_hand_made_module():
    module = types.ModuleType("handmade")
    exec(HANDMADE, module.__dict__)
    assert api_surface.surface(module) == [
        ("public", 5), ("Plain", 2), ("Record", 2), ("Bare", 0)]


def test_the_package_adds_no_public_callable_or_parameter():
    # ROADMAP aim 2 counts the public surface of the five library modules;
    # 39 callables with 136 parameters is its count once one distortion_range
    # answered both ends of the range and the test-only channel table and
    # output marginal went, so a new setting must replace an old one
    counts = [count for m in api_surface.MODULES
              for _, count in api_surface.surface(importlib.import_module(f"causalrd.{m}"))]
    assert len(counts) <= 39 and sum(counts) <= 136, (len(counts), sum(counts))
