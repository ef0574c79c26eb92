"""Resource guards: the error a computation raises when it would pass its
budget, and the one parser of the budgets' environment overrides."""

from __future__ import annotations

import os


class ResourceGuardError(RuntimeError):
    """Raised when a computation would pass its resource budget."""


def env_bound(name: str, default: int) -> int:
    """The budget that the environment variable ``name`` sets, a
    non-negative integer, or ``default`` when it is unset or empty."""
    value = os.environ.get(name)
    if not value:
        return default
    if not value.strip().isdecimal():
        raise ValueError("%s must be a non-negative integer, got %r" % (name, value))
    return int(value)
