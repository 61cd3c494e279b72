"""Settings: keywords annotated ``Annotated[type, range]``, the type a
scalar (bool, int or float) and the range a JSON-schema fragment of the
bounds below (empty for a flag).  The CLI builds its config sections from
them, with the keywords' defaults, and each call checks its values."""

from __future__ import annotations

import functools
import math
import operator
from typing import Annotated, get_args, get_origin, get_type_hints

__all__ = ["settings", "check_ranges"]

# bound -> (the test a value must pass, its sign in the error message)
_BOUNDS = {"minimum": (operator.ge, ">="), "maximum": (operator.le, "<="),
           "exclusiveMinimum": (operator.gt, ">"), "exclusiveMaximum": (operator.lt, "<")}


@functools.cache
def settings(call) -> dict[str, tuple[object, dict]]:
    """Each setting of ``call``, in keyword order, to its type and range."""
    hints = get_type_hints(call, include_extras=True)
    return {name: get_args(hint) for name, hint in hints.items() if get_origin(hint) is Annotated}


def check_ranges(call, values: dict) -> None:
    """Raise ValueError unless each setting of ``call`` in ``values`` is
    finite, if a float, and lies in its range. A bound alone would let an
    infinity through (``inf >= 0`` holds)."""
    for name, (_, bounds) in settings(call).items():
        value = values[name]
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
        for key, bound in bounds.items():
            passes, sign = _BOUNDS[key]
            if not passes(value, bound):
                raise ValueError(f"{name} must be {sign} {bound}, got {value!r}")
