"""argparse value types the CLIs share: cast the text, then check its range.

A value out of range is an argparse error (one usage line, exit 2), never a
traceback from deeper in the program. Imports nothing heavy, so
``m3d-route`` and ``m3d-obs`` can use it.
"""

from __future__ import annotations

import argparse
import math
from typing import Any, Callable


def checked(
    cast: Callable[[str], Any], ok: Callable[[Any], bool], rule: str
) -> Callable[[str], Any]:
    """An argparse type: ``cast`` the text, then require ``ok`` of the value."""

    def parse(text: str) -> Any:
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse's "invalid int value: ..." names it
    return parse


positive_int = checked(int, lambda n: n >= 1, ">= 1")
seed = checked(int, lambda n: 0 <= n < 2**32, "in [0, 2**32)")
positive_finite = checked(float, lambda f: math.isfinite(f) and f > 0.0, "finite and > 0")
fraction = checked(float, lambda f: 0.0 < f < 1.0, "in (0, 1)")
port_number = checked(int, lambda n: 0 <= n <= 65535, "in [0, 65535]")
