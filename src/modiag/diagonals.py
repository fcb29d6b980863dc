"""Formal rewrite calculus for twisted diagonal classes on a power of an
abelian variety.

X is an abelian variety (or the fiber of an abelian scheme) of dimension
g >= 1 and X^m is the m-fold product.  For a nonzero integer vector v of
length m, D(v) denotes the rational Chow class pushed forward from X along
x -> (v_1*x, ..., v_m*x).  Only the zero section appears as a base point:
translation by any other section is an automorphism of X^m carrying one
modified diagonal to the other, so nothing is lost.

Cycles here are finite Fraction-linear combinations of the D(v), with v
kept in a canonical form by two rewrite rules.  Both rules are identities
on rational Chow classes:

  gcd rule    D(d*v) = d^(2g) * D(v) for d >= 1, because multiplication
              by d is finite flat of degree d^(2g);
  sign rule   D(-v) = D(v), because multiplication by -1 is an
              automorphism, of degree (-1)^(2g) = 1.

A canonical TwistVector is therefore nonzero, has coprime entries, and its
first nonzero entry is positive.  A vector that rescales to zero inside a
pushforward collapses onto the zero section, a point; its class is zero
because g >= 1 kills positive-dimensional classes pushed to a point.

Soundness is asymmetric.  Every rewrite above is an identity in the
rational Chow group, so a formal result of zero proves vanishing there.  A
formal nonzero result proves nothing: this calculus does not claim the
classes D(v) are linearly independent.  Nonvanishing questions are
delegated to the cohomology module, which realizes the same classes in an
exact exterior-algebra model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .exact import _add_term, combo_add, combo_scale, combo_sorted_items, render_terms

TwistVector = tuple[int, ...]


@dataclass(frozen=True)
class Ambient:
    """Shape of the ambient product: g = dim X >= 1, m = number of factors >= 1."""

    g: int
    m: int

    def __post_init__(self) -> None:
        for name, value in (("g", self.g), ("m", self.m)):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _common_ambient(a, b) -> Ambient:
    """The ambient shared by two cycles or two classes; a mismatch is an error."""
    if a.ambient != b.ambient:
        raise ValueError(f"ambient mismatch: {a.ambient} vs {b.ambient}")
    return a.ambient


@dataclass(frozen=True)
class FormalCycle:
    """A Fraction-linear combination of twisted diagonals on X^m.

    ``terms`` maps canonical TwistVectors to nonzero Fractions.  Build
    cycles with :func:`cycle` or :func:`twist_cycle`; those normalize raw
    vectors and fold coefficients, keeping the representation canonical.
    """

    ambient: Ambient
    terms: dict

    @property
    def is_zero(self) -> bool:
        return not self.terms


def normalize_twist(raw, ambient: Ambient) -> tuple[Fraction, TwistVector | None]:
    """Rewrite a raw integer vector into (coefficient, canonical vector).

    Returns (d^(2g), v) where d is the gcd of the entries and v is raw/d
    with the sign flipped if needed so its first nonzero entry is positive.
    The zero vector returns (1, None): its class collapses onto a point and
    contributes nothing.
    """
    entries = tuple(int(x) for x in raw)
    if len(entries) != ambient.m:
        raise ValueError(
            f"expected a vector of length {ambient.m}, got {len(entries)}"
        )
    if not any(entries):
        return Fraction(1), None
    d = math.gcd(*entries)
    first = next(x for x in entries if x)
    sign = 1 if first > 0 else -1
    v = tuple((sign * x) // d for x in entries)
    return Fraction(d) ** (2 * ambient.g), v


def cycle(ambient: Ambient, terms: Mapping | Iterable[tuple]) -> FormalCycle:
    """Build a cycle from raw (vector, coefficient) terms.

    Raw vectors may be unnormalized; the gcd and sign rules are applied and
    coefficients folded, so cycle(amb, {(2, 2): 1}) equals
    2^(2g) * D((1, 1)).  The zero vector is rejected: it does not name a
    twisted diagonal.
    """
    items = terms.items() if isinstance(terms, Mapping) else terms
    out: dict = {}
    for raw, coeff in items:
        c = Fraction(coeff)
        if not c:
            continue
        extra, v = normalize_twist(raw, ambient)
        if v is None:
            raise ValueError("the zero vector does not name a twisted diagonal")
        _add_term(out, v, c * extra)
    return FormalCycle(ambient, out)


def twist_cycle(ambient: Ambient, raw, coeff=1) -> FormalCycle:
    """The single twisted diagonal coeff * D(raw), normalized."""
    return cycle(ambient, [(tuple(raw), coeff)])


def zero_cycle(ambient: Ambient) -> FormalCycle:
    return FormalCycle(ambient, {})


def modified_diagonal(ambient: Ambient) -> FormalCycle:
    """The modified diagonal on X^m through the zero section.

    Inclusion-exclusion over the 2^m - 1 nonempty subsets I of the factors:
    the indicator vector of I enters with sign (-1)^(m - |I|).
    """
    m = ambient.m
    terms: dict = {}
    for bits in range(1, 1 << m):
        v = tuple((bits >> i) & 1 for i in range(m))
        terms[v] = Fraction(-1) ** (m - bits.bit_count())
    return FormalCycle(ambient, terms)


def _require_factor(ambient: Ambient, j: int) -> None:
    if not isinstance(j, int) or not 1 <= j <= ambient.m:
        raise IndexError(f"factor index must lie in 1..{ambient.m}, got {j!r}")


def mult_pushforward_factor(c: FormalCycle, j: int, n: int) -> FormalCycle:
    """Pushforward along multiplication by n on factor j (n = 0 allowed).

    Entry j of each vector is scaled by n and the result renormalized.  A
    term whose vector becomes zero (only possible when n = 0 and the vector
    was supported on factor j alone) collapses onto a point and is dropped.
    """
    _require_factor(c.ambient, j)
    out: dict = {}
    for v, coeff in c.terms.items():
        raw = list(v)
        raw[j - 1] *= n
        extra, w = normalize_twist(raw, c.ambient)
        if w is None:
            continue
        _add_term(out, w, coeff * extra)
    return FormalCycle(c.ambient, out)


def mult_pushforward_all(c: FormalCycle, n: int) -> FormalCycle:
    """Pushforward along multiplication by n on every factor at once.

    Requires n != 0; n = 0 collapses all of X^m onto the zero section and
    is out of scope.  Each term rescales by exactly n^(2g), which the gcd
    and sign rules recover term by term.
    """
    if n == 0:
        raise ValueError("n = 0 collapses the whole product; rejected")
    out: dict = {}
    for v, coeff in c.terms.items():
        extra, w = normalize_twist([n * x for x in v], c.ambient)
        _add_term(out, w, coeff * extra)
    return FormalCycle(c.ambient, out)


def proj_pushforward(c: FormalCycle, j: int) -> FormalCycle:
    """Pushforward along the projection X^m -> X^(m-1) forgetting factor j.

    Entry j is deleted from each vector and the rest renormalized in the
    smaller ambient.  A term whose remaining entries are all zero collapses
    onto a point and is dropped.  Requires m >= 2: contracting the last
    factor would land in the base, which is out of scope.
    """
    amb = c.ambient
    if amb.m < 2:
        raise ValueError("cannot contract the only factor")
    _require_factor(amb, j)
    target = Ambient(amb.g, amb.m - 1)
    out: dict = {}
    for v, coeff in c.terms.items():
        extra, w = normalize_twist(v[: j - 1] + v[j:], target)
        if w is None:
            continue
        _add_term(out, w, coeff * extra)
    return FormalCycle(target, out)


def cycle_add(a: FormalCycle, b: FormalCycle) -> FormalCycle:
    return FormalCycle(_common_ambient(a, b), combo_add(a.terms, b.terms))


def cycle_scale(c: FormalCycle, coeff) -> FormalCycle:
    return FormalCycle(c.ambient, combo_scale(c.terms, coeff))


def cycle_equal(a: FormalCycle, b: FormalCycle) -> bool:
    """Exact equality of canonical forms.  Mismatched ambients are an error,
    not inequality."""
    _common_ambient(a, b)
    return a.terms == b.terms


def render_cycle(c: FormalCycle) -> str:
    """Canonical text form: terms sorted by vector, 'coeff * D(v_1,...,v_m)'."""
    return render_terms(
        (coeff, f"D({','.join(map(str, v))})") for v, coeff in combo_sorted_items(c.terms)
    )
