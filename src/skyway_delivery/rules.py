"""Field rules: the type and value checks the dataclass constructors apply.

A rule takes a field name and value and returns a "name: problem" violation,
or None when the value is fine. Each dataclass lists its rules in ``RULES``,
in the order it reports them, and calls ``check_fields`` after construction;
the scenario parser reuses the same rules through ``field_violations``.
A number is an int or a float, never a bool, and a field that passes its
rules stores every number as a float.
"""
from __future__ import annotations

import math

from .errors import ValidationError


def as_number(value) -> float | None:
    """``value`` as a float, or None when it is not a number.

    An int too large for a float reads as ±inf, as the JSON literal 1e999
    does, so a rule reports it as not finite.
    """
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def non_empty(name, value):
    return None if isinstance(value, str) and value else f"{name}: expected a non-empty string"


def integer(name, value):
    """The count rule: an int, never a bool. The caller judges its range."""
    if isinstance(value, int) and not isinstance(value, bool):
        return None
    return f"{name}: expected an int, got {type(value).__name__}"


def finite(name, value):
    number = value if type(value) is float else as_number(value)
    if number is None:
        return f"{name}: expected a number, got {type(value).__name__}"
    return None if math.isfinite(number) else f"{name}: must be finite"


def positive(name, value):
    number = value if type(value) is float else as_number(value)
    if number is not None and 0 < number < math.inf:
        return None
    return finite(name, value) or f"{name}: must be > 0 (got {number})"


def non_negative(name, value):
    number = value if type(value) is float else as_number(value)
    if number is not None and 0 <= number < math.inf:
        return None
    return finite(name, value) or f"{name}: must be >= 0 (got {number})"


def field_violations(rules, values, faults=None) -> dict[str, str]:
    """Apply ``rules``, (field, rule) pairs, to the ``values`` dict in order.

    Returns field -> violation in report order. A field reports at most one
    violation: the first of its rules that fails. A field named in
    ``faults`` (field -> violation) is not checked; it reports that violation
    at the place of its first rule.
    """
    faults = faults or {}
    found: dict[str, str] = {}
    for name, rule in rules:
        if name not in found:
            violation = faults[name] if name in faults else rule(name, values[name])
            if violation is not None:
                found[name] = violation
    return found


def check_fields(obj, rules):
    """Raise one ValidationError naming every field of ``obj`` that breaks
    ``rules``. A field that passes its rule stores a number as a float and
    a list of numbers as a tuple of floats."""
    # getattr, not vars(obj): reading __dict__ gives every instance a real
    # dict, and attribute reads in the planner's hot loops get slower.
    for name, rule in rules:
        value = getattr(obj, name)
        if rule(name, value) is not None:
            values = {field: getattr(obj, field) for field, _ in rules}
            raise ValidationError(field_violations(rules, values).values())
        if type(value) is float or isinstance(value, str):
            continue
        object.__setattr__(obj, name, tuple(map(as_number, value))
                           if isinstance(value, (list, tuple)) else as_number(value))
