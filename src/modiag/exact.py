"""Exact sparse linear combinations over the rationals.

Coefficients are exact rationals, by one rule that ``_coefficient``
applies for ``combo``, ``combo_scale`` and ``cycles.cycle``: an ``int`` (a
``bool`` included) is stored as a plain ``int``, a ``float`` is refused
with TypeError, and any other value is stored as ``Fraction(value)``.  So
a combination built from integers stays in ``int`` arithmetic, and one
built from ``Fraction``s stays in ``Fraction``.
Everything in this package is therefore exact: a zero result is a proof of
cancellation, never a numerical statement.  The two types mix freely
(``Fraction * int`` is a Fraction) and compare and hash alike for integral
values, so combos holding either are equal when their values are.

A combination ("combo") is a plain dict mapping keys to nonzero exact
coefficients.  The empty dict is the zero combination.  Keys must be
totally ordered (tuples of ints, or ints, throughout this package) so
terms can be listed in a canonical order.  Constructors and operations
return combos in canonical form and never mutate their arguments; treat
combos as immutable values once built.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from .diagonals import _int_repr

Rational = Fraction

# A combo is dict[K, int | Fraction] with no zero values, for totally ordered K.
Combo = dict


def _coefficient(value) -> int | Fraction:
    """The package's one coefficient rule: an ``int`` (a ``bool`` included)
    becomes a plain ``int``, a ``float`` is a TypeError, since its binary
    value is rarely the number meant, and any other value becomes
    ``Fraction(value)``."""
    if isinstance(value, float):
        raise TypeError(f"a coefficient must be exact, not the float {value!r}")
    return int(value) if isinstance(value, int) else Fraction(value)


def _add_term(out: dict, key, value) -> None:
    """Fold value into out[key] in place, dropping the key if it cancels.

    The one per-term fold of the package; cycles and classes call it from
    their hot loops.  It is private because it runs once per term, and the
    per-function trace in perfbench wraps public names only.
    """
    total = out.get(key, 0) + value
    if total:
        out[key] = total
    elif key in out:
        del out[key]


def _map_terms(terms: Mapping, image) -> Combo:
    """The one map-and-fold behind every pushforward and pullback: ``image(key)``
    returns ``(k, key')``, and the term enters as coefficient * k at key',
    or is dropped when k == 0 or key' is None."""
    out: Combo = {}
    for key, value in terms.items():
        k, new = image(key)
        if k and new is not None:
            _add_term(out, new, value * k)
    return out


def combo(terms: Mapping | Iterable[tuple] = ()) -> Combo:
    """Build a combo in canonical form.

    Accepts a mapping or an iterable of (key, coefficient) pairs.
    Duplicate keys are folded together, each coefficient follows
    ``_coefficient`` (an ``int`` stays an ``int``, a ``float`` is a
    TypeError, anything else becomes a Fraction), and keys whose total
    coefficient is zero are dropped.
    """
    items = terms.items() if isinstance(terms, Mapping) else terms
    out: Combo = {}
    for key, value in items:
        c = _coefficient(value)
        if c:
            _add_term(out, key, c)
    return out


def combo_add(a: Combo, b: Combo) -> Combo:
    """Termwise sum; terms that cancel disappear."""
    out = dict(a)
    for key, c in b.items():
        _add_term(out, key, c)
    return out


def combo_scale(a: Combo, c) -> Combo:
    """Multiply every coefficient by c; the zero scalar empties the combo.

    The scalar follows ``_coefficient``: an ``int`` stays an ``int``, so
    integral coefficients stay integral, a ``float`` is a TypeError, and
    any other becomes a Fraction.
    """
    c = _coefficient(c)
    return {key: coeff * c for key, coeff in a.items()} if c else {}


def combo_sorted_items(a: Combo) -> list[tuple]:
    """Terms sorted by key, the canonical order for rendering."""
    return sorted(a.items(), key=lambda kv: kv[0])


def render_terms(terms: Iterable[tuple]) -> str:
    """Signed-sum text of (coefficient, label) pairs, in the order given.

    Each term reads 'abs(coefficient) * label', or the bare magnitude when
    the label is empty; the first term carries a leading '-' if negative,
    later ones are joined by '+ ' or '- '.  No terms render as '0'.
    """
    parts = []
    for coeff, label in terms:
        n, d = abs(coeff).as_integer_ratio()
        magnitude = _int_repr(n) if d == 1 else f"{_int_repr(n)}/{_int_repr(d)}"
        body = f"{magnitude} * {label}" if label else magnitude
        if parts:
            body = f"+ {body}" if coeff > 0 else f"- {body}"
        elif coeff < 0:
            body = f"-{body}"
        parts.append(body)
    return " ".join(parts) if parts else "0"
