"""Formal cycles: exact combinations of twisted diagonals on X^m, and the
tuple calculus on them that the orbit rules of ``diagonals`` are tested
against.

Cycles here are finite linear combinations of the D(v) with exact rational
coefficients, by the one rule of ``modiag.exact``: ``int`` where the
coefficients given are integers, ``Fraction`` where a caller passes one.
Each vector v is kept canonical by ``normalize_twist``, which applies the
gcd and sign rules of the ``diagonals`` docstring.

The certificate imports nothing from this module: ``import modiag`` loads
it the first time one of its names is read.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .diagonals import Ambient, _as_int, _Record, _require_in, normalize_twist
from .exact import _add_term, _coefficient, _map_terms, combo_add, combo_scale
from .exact import combo_sorted_items, render_terms


def _common_ambient(kind: type, a, b=None) -> Ambient:
    """The ambient of a record a of type kind, the one an operation needs,
    and shared with b when b is given.  A cycle and a class together are a
    TypeError, since their keys mean different things, and so is one
    record of the other kind; two ambients that differ are a ValueError."""
    if b is not None and type(a) is not type(b):
        raise TypeError(f"cannot combine {type(a).__name__} with {type(b).__name__}")
    if type(a) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {type(a).__name__}")
    if b is not None and a.ambient != b.ambient:
        raise ValueError(f"ambient mismatch: {a.ambient} vs {b.ambient}")
    return a.ambient


class _Combination(_Record):
    """Base of the two combination records, ``FormalCycle`` and
    ``ExtClass``: an ambient, and ``terms`` mapping basis keys (twist
    vectors, or monomial bitmasks) to nonzero exact coefficients.  Both
    records share one sum, ``cycle_add``, and one scale, ``cycle_scale``."""

    __match_args__ = ("ambient", "terms")

    @property
    def is_zero(self) -> bool:
        return not self.terms


class FormalCycle(_Combination):
    """An exact rational combination of twisted diagonals on X^m.

    ``terms`` maps canonical TwistVectors to nonzero coefficients, by the
    one rule of ``modiag.exact``: ``int`` in :func:`modified_diagonal`, its
    pushforwards and cycles built from integers, ``Fraction`` where a caller
    passes one.  :func:`cycle` and :func:`twist_cycle` normalize raw vectors
    and fold coefficients, keeping the representation canonical.  Equality
    holds across the two types, since an integral Fraction equals its int.
    """


def cycle(ambient: Ambient, terms: Mapping | Iterable[tuple]) -> FormalCycle:
    """Build a cycle from raw (vector, coefficient) terms.

    Raw vectors may be unnormalized; the gcd and sign rules are applied and
    coefficients folded, so cycle(amb, {(2, 2): 1}) equals
    2^(2g) * D((1, 1)).  Each coefficient follows ``modiag.exact``'s rule:
    an ``int`` stays an ``int``, a ``float`` is a TypeError, anything else
    becomes a Fraction.  The zero vector is rejected: it does not name a
    twisted diagonal.
    """
    items = terms.items() if isinstance(terms, Mapping) else terms
    out: dict = {}
    for raw, coeff in items:
        c = _coefficient(coeff)
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
        terms[v] = -1 if (m - bits.bit_count()) & 1 else 1
    return FormalCycle(ambient, terms)


def mult_pushforward_factor(c: FormalCycle, j: int, n: int) -> FormalCycle:
    """Pushforward along multiplication by n on factor j (n = 0 allowed).

    Entry j of each vector is scaled by n and the result renormalized.  A
    term whose vector becomes zero (only possible when n = 0 and the vector
    was supported on factor j alone) collapses onto a point and is dropped.
    n must be an integer; a bool, float, string or Fraction raises TypeError.
    """
    amb = _common_ambient(FormalCycle, c)
    j = _require_in("factor index", j, 1, amb.m, IndexError)
    n = _as_int(n)
    return FormalCycle(
        amb, _map_terms(c.terms, lambda v: normalize_twist(v[: j - 1] + (n * v[j - 1],) + v[j:], amb))
    )


def mult_pushforward_all(c: FormalCycle, n: int) -> FormalCycle:
    """Pushforward along multiplication by n on every factor at once.

    Requires n != 0; n = 0 collapses all of X^m onto the zero section and
    is out of scope.  Each term rescales by exactly n^(2g), which the gcd
    and sign rules recover term by term.  n must be an integer; a bool,
    float, string or Fraction raises TypeError.
    """
    n = _as_int(n)
    if n == 0:
        raise ValueError("n = 0 collapses the whole product; rejected")
    amb = _common_ambient(FormalCycle, c)
    return FormalCycle(amb, _map_terms(c.terms, lambda v: normalize_twist([n * x for x in v], amb)))


def proj_pushforward(c: FormalCycle, j: int) -> FormalCycle:
    """Pushforward along the projection X^m -> X^(m-1) forgetting factor j.

    Entry j is deleted from each vector and the rest renormalized in the
    smaller ambient.  A term whose remaining entries are all zero collapses
    onto a point and is dropped.  Requires m >= 2: contracting the last
    factor would land in the base, which is out of scope.
    """
    amb = _common_ambient(FormalCycle, c)
    if amb.m < 2:
        raise ValueError("cannot contract the only factor")
    j = _require_in("factor index", j, 1, amb.m, IndexError)
    target = Ambient(amb.g, amb.m - 1)
    return FormalCycle(
        target, _map_terms(c.terms, lambda v: normalize_twist(v[: j - 1] + v[j:], target))
    )


def cycle_add(a: _Combination, b: _Combination) -> _Combination:
    """The sum of two cycles, or of two classes, of one ambient; it is
    ``cohomology.ext_add`` too."""
    return type(a)(_common_ambient(type(a), a, b), combo_add(a.terms, b.terms))


def cycle_scale(c: _Combination, coeff) -> _Combination:
    """A cycle or a class times an exact scalar, by ``combo_scale``'s rule;
    it is ``cohomology.ext_scale`` too."""
    return type(c)(c.ambient, combo_scale(c.terms, coeff))


def cycle_equal(a: FormalCycle, b: FormalCycle) -> bool:
    """Exact equality of canonical forms of two cycles.  Mismatched
    ambients, or a class on either side, are an error, not inequality."""
    _common_ambient(FormalCycle, a, b)
    return a.terms == b.terms


def render_cycle(c: FormalCycle) -> str:
    """Canonical text form: terms sorted by vector, 'coeff * D(v_1,...,v_m)'."""
    _common_ambient(FormalCycle, c)
    return render_terms(
        (coeff, f"D({','.join(map(str, v))})") for v, coeff in combo_sorted_items(c.terms)
    )
