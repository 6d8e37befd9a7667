"""Helpers for machine-readable report documents.

Reports are plain dicts of JSON-safe values.  Exact rationals are rendered
as ``"p/q"`` strings (integers stay integers), so ``Fraction`` parses every
numeric field back losslessly, and ``_rational`` is the one reader of a
rational argument.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .graphs import _count

__all__ = ["rat", "render_human"]


def _rational(value) -> Fraction:
    """The exact rational ``value`` names: a number or a string such as
    ``'7/2'``.  Anything else raises PreconditionError."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise PreconditionError(f"{value!r} is not an exact rational "
                                f"(use p or p/q)") from None


def rat(x) -> int | str:
    """Render an exact number: int stays int, a non-integral Fraction
    becomes the reduced string 'p/q'."""
    f = _rational(x)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def render_human(doc, indent: int = 0) -> str:
    """Readable rendering of a report document; purely a view of the same
    data the JSON output carries."""
    pad = "  " * _count(indent, "indent")
    lines: list[str] = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, dict):
                lines.append(f"{pad}{key}:")
                lines.append(render_human(value, indent + 1))
            elif isinstance(value, (list, tuple)) and any(
                    isinstance(v, (dict, list, tuple)) for v in value):
                lines.append(f"{pad}{key}:")
                for v in value:
                    if isinstance(v, dict):
                        lines.append(f"{pad}  -")
                        lines.append(render_human(v, indent + 2))
                    else:
                        lines.append(f"{pad}  - {list(v) if isinstance(v, tuple) else v}")
            else:
                if isinstance(value, tuple):
                    value = list(value)
                lines.append(f"{pad}{key}: {value}")
    else:
        lines.append(f"{pad}{doc}")
    return "\n".join(line for line in lines if line.strip())
