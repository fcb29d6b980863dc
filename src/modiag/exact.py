"""Exact sparse linear combinations over the rationals.

Coefficients are ``fractions.Fraction`` values, so everything in this
package is exact: a zero result is a proof of cancellation, never a
numerical statement.

A combination ("combo") is a plain dict mapping keys to nonzero Fraction
coefficients.  The empty dict is the zero combination.  Keys must be
totally ordered (tuples of ints, or ints, throughout this package) so
terms can be listed in a canonical order.  Constructors and operations
return combos in canonical form and never mutate their arguments; treat
combos as immutable values once built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

Rational = Fraction

# A combo is dict[K, Fraction] with no zero values, for totally ordered K.
Combo = dict


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


def combo(terms: Mapping | Iterable[tuple] = ()) -> Combo:
    """Build a combo in canonical form.

    Accepts a mapping or an iterable of (key, coefficient) pairs.
    Duplicate keys are folded together, coefficients are coerced to
    Fraction, and keys whose total coefficient is zero are dropped.
    """
    items = terms.items() if isinstance(terms, Mapping) else terms
    out: Combo = {}
    for key, value in items:
        c = Fraction(value)
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
    """Multiply every coefficient by c; the zero scalar empties the combo."""
    c = Fraction(c)
    if not c:
        return {}
    return {key: coeff * c for key, coeff in a.items()}


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
        body = f"{abs(coeff)} * {label}" if label else f"{abs(coeff)}"
        if parts:
            body = f"+ {body}" if coeff > 0 else f"- {body}"
        elif coeff < 0:
            body = f"-{body}"
        parts.append(body)
    return " ".join(parts) if parts else "0"
