"""Field rules: the value checks the dataclass constructors apply.

A rule takes a field name and value and returns a "name: problem" violation,
or None when the value is fine. Each dataclass lists its rules in ``RULES``,
in the order it reports them, and calls ``check_fields`` after construction;
the scenario parser reuses the same rules through ``field_violations``.
"""
from __future__ import annotations

import math

from .errors import ValidationError


def non_empty(name, value):
    return None if value else f"{name}: expected a non-empty string"


def finite(name, value):
    return None if math.isfinite(value) else f"{name}: must be finite"


def positive(name, value):
    if math.isfinite(value) and value > 0:
        return None
    return finite(name, value) or f"{name}: must be > 0 (got {value})"


def non_negative(name, value):
    if math.isfinite(value) and value >= 0:
        return None
    return finite(name, value) or f"{name}: must be >= 0 (got {value})"


def field_violations(rules, values, faults=None):
    """Apply ``rules``, (field, rule) pairs, to the ``values`` dict in order.

    A field reports at most one violation: the first of its rules that fails.
    A field named in ``faults`` (field -> violation) is not checked; it reports
    that violation at the place of its first rule.
    """
    faults = faults or {}
    found: dict[str, str] = {}
    for name, rule in rules:
        if name not in found:
            violation = faults[name] if name in faults else rule(name, values[name])
            if violation is not None:
                found[name] = violation
    return list(found.values())


def check_fields(obj, rules):
    """Raise one ValidationError naming every field of ``obj`` that breaks ``rules``."""
    # getattr, not vars(obj): reading __dict__ gives every instance a real
    # dict, and attribute reads in the planner's hot loops get slower.
    for name, rule in rules:
        if rule(name, getattr(obj, name)) is not None:
            values = {field: getattr(obj, field) for field, _ in rules}
            raise ValidationError(field_violations(rules, values))
