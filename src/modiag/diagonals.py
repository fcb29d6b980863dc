"""Formal rewrite calculus for twisted diagonal classes on a power of an
abelian variety.

X is an abelian variety (or the fiber of an abelian scheme) of dimension
g >= 1 and X^m is the m-fold product.  For a nonzero integer vector v of
length m, D(v) denotes the rational Chow class pushed forward from X along
x -> (v_1*x, ..., v_m*x).  Only the zero section appears as a base point:
translation by any other section is an automorphism of X^m carrying one
modified diagonal to the other, so nothing is lost.

The vectors v are kept in a canonical form by two rewrite rules, both
identities on rational Chow classes:

  gcd rule    D(d*v) = d^(2g) * D(v) for d >= 1, because multiplication
              by d is finite flat of degree d^(2g);
  sign rule   D(-v) = D(v), because multiplication by -1 is an
              automorphism, of degree (-1)^(2g) = 1.

A canonical TwistVector is therefore nonzero, has coprime entries, and its
first nonzero entry is positive.  A vector that rescales to zero inside a
pushforward collapses onto the zero section, a point; its class is zero
because g >= 1 kills positive-dimensional classes pushed to a point.

Orbit sums.  Permuting the factors of X^m permutes the indicator
diagonals D(1_I), I a nonempty subset of {1..m}, and keeps |I|.  Write O_k
for the sum of D(1_I) over the C(m, k) sets with |I| = k; the modified
diagonal is Gamma(m) = sum over k = 1..m of a_k O_k, with the alternating
signs a_k = (-1)^(m-k) of ``_orbit_signs``.  Both identities the
certificate checks are read from the orbits, not from the 2^m - 1 terms:

  mult rule         multiplication by n on every factor sends D(1_I) to
                    D(n 1_I).  Up to the order of the factors, n 1_I has
                    two runs, |I| entries n and m-|I| entries 0 (one run at
                    I = {1..m}), and its gcd and the sign of its first
                    nonzero entry are those of the run values (n, 0) or
                    (n,).  So the gcd and sign rules act on those two run
                    shapes alone.  When they give back (1, 0) and (1,)
                    with the factor n^(2g), every D(1_I) goes to
                    n^(2g) D(1_I), and so does Gamma(m): two normalizations
                    per n, whatever m is, and one at m = 1, where only
                    (n,) occurs.
  contraction rule  forgetting factor j sends D(1_I) to the indicator
                    diagonal of I minus j on X^(m-1).  A set J of size k
                    among the other m-1 factors is hit exactly twice: by
                    I = J, which misses j, and by I = J plus j.  So O_k on
                    m factors goes to O_k + O_(k-1) on m-1 factors, and
                    sum_k a_k O_k goes to sum_k (a_k + a_(k+1)) O_k,
                    k = 1..m-1, the same for every j.  Two ends fall away.
                    The target O_0 is D(0): the singleton {j} contracts
                    onto the zero section, a point, and dies because
                    g >= 1.  The source O_m has no image among the sets
                    without j, as its one set contains j; on m-1 factors
                    there is no set of size m.  The signs of Gamma(m)
                    alternate, a_k + a_(k+1) = 0 for every k, so every
                    contraction vanishes.

The exterior-algebra realization (``cohomology`` docstring) reads the same
signs summed over supersets.  There the term of a map kappa: {1..2g} ->
{1..m} with image S appears in the class of D(1_I) exactly when I ⊇ S, so
in [Gamma(m)] it picks up

  c(S) = sum over I ⊇ S in {1..m} of (-1)^(m-|I|).

Grouped by factor, c(S) is the product over the m - |S| factors outside S
of (+1 when the factor is in I) + (-1 when it is not): one power,
((+1) + (-1))^(m-|S|), the same for every S of one size.  It is 1 for
S = {1..m} and 0 otherwise.  ``_live_images`` computes that power once for
each image size up to min(2g, m), exactly and with no binomial, rather
than assuming it, and yields the images with c != 0.

The tuple calculus on 2^m vectors, in ``cycles``, stays the oracle these
rules are tested against.  This module holds what the certificate runs:
the records, the integer rules, ``normalize_twist`` and the orbit sums.

Soundness is asymmetric.  Every rewrite above is an identity in the
rational Chow group, so a formal result of zero proves vanishing there.  A
formal nonzero result proves nothing: this calculus does not claim the
classes D(v) are linearly independent.  Nonvanishing questions are
delegated to the cohomology module, which realizes the same classes in an
exact exterior-algebra model.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator

TwistVector = tuple[int, ...]


def _int_repr(value) -> str:
    """``repr(value)``, with an int past Python's int-to-text digit limit,
    which ``repr`` refuses, written through ``Decimal``, which converts any
    int exactly: the library's one rule for writing a long integer, in
    certificates, statements, messages, rendered sums and record ``repr``.

    Only when ``repr`` hits the limit does it look inside a Fraction, dict,
    list or tuple, writing each as ``repr`` would with the limit lifted;
    anything else raises again.  ``decimal`` and ``fractions`` load only
    then."""
    try:
        return repr(value)
    except ValueError:  # past the int-to-text digit limit
        from decimal import Decimal
        from fractions import Fraction

        if isinstance(value, int):
            return str(Decimal(value))
        if isinstance(value, Fraction):
            return f"{type(value).__name__}({_int_repr(value.numerator)}, {_int_repr(value.denominator)})"
        if isinstance(value, dict):
            return "{" + ", ".join(f"{_int_repr(k)}: {_int_repr(v)}" for k, v in value.items()) + "}"
        if isinstance(value, (list, tuple)):
            items = ", ".join(map(_int_repr, value)) + ("," if len(value) == 1 and isinstance(value, tuple) else "")
            return f"[{items}]" if isinstance(value, list) else f"({items})"
        raise


class _Record:
    """Base of the package's immutable records.  They behave as frozen
    dataclasses do, without importing ``dataclasses`` (and with it
    ``inspect``) when the package loads.

    Each subclass names its fields once, in ``__match_args__``, the tuple a
    frozen dataclass binds for positional ``match`` patterns.  The
    constructor takes the fields positionally, then by keyword, and writes
    them into the instance ``__dict__`` in ``__match_args__`` order, which
    ``vars``, ``repr`` and the certificate writer read.  A missing, unknown
    or doubled field, or one positional argument too many, is a TypeError.
    ``Ambient`` alone has its own constructor, which validates.  Records
    compare equal when their classes are the same and their fields are
    equal, hash by their field values (a record holding a dict is
    unhashable), and refuse assignment.
    """

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs:  # a field missing here leaves args short
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{self.__class__.__qualname__}() takes the fields {', '.join(names)}, each once")
        self.__dict__.update(zip(names, args))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={_int_repr(value)}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"


class Ambient(_Record):
    """Shape of the ambient product: g = dim X >= 1, m = number of factors >= 1."""

    __match_args__ = ("g", "m")

    # Stores directly, not through _Record.__init__: a certificate builds five
    # Ambients, and the base's binding measured about +0.8 us each (Python
    # 3.11, 2-core Xeon).
    def __init__(self, g: int, m: int) -> None:
        for name, value in (("g", g), ("m", m)):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {_int_repr(value)}")
        self.__dict__.update(g=g, m=m)


def _as_ints(values) -> tuple[int, ...]:
    """The package's one integer rule: ``operator.index``, and no ``bool``.

    Floats, strings and Fractions raise TypeError from ``operator.index``;
    a bool raises TypeError here, as ``Ambient`` and ``replay_proof`` refuse
    it too.
    """
    values = tuple(values)
    if bool in map(type, values):
        raise TypeError(f"expected integers, got a bool in {values!r}")
    return tuple(map(operator.index, values))


def _as_int(value) -> int:
    return _as_ints((value,))[0]


def _require_in(what: str, value, lo: int, hi: int, error=ValueError) -> int:
    """value as an int (``_as_int``, else TypeError) in lo..hi, else
    ``error``: the package's one range refusal of a caller's input."""
    value = _as_int(value)
    if not lo <= value <= hi:
        raise error(f"{what} must lie in {_int_repr(lo)}..{_int_repr(hi)}, got {_int_repr(value)}")
    return value


def normalize_twist(raw, ambient: Ambient) -> tuple[int, TwistVector | None]:
    """Rewrite a raw integer vector into (coefficient, canonical vector).

    Returns the integer d^(2g) and v, where d is the gcd of the entries and
    v is raw/d with the sign flipped if needed so its first nonzero entry is
    positive.  The zero vector returns (1, None): its class collapses onto a
    point and contributes nothing.  Entries must be integers (``_as_ints``):
    bools, floats, strings and Fractions raise TypeError.
    """
    entries = _as_ints(raw)
    if len(entries) != ambient.m:
        raise ValueError(
            f"expected a vector of length {ambient.m}, got {len(entries)}"
        )
    d = math.gcd(*entries)
    if not d:
        return 1, None
    if entries < (0,) * len(entries):  # the first nonzero entry is negative
        d = -d
    return d ** (2 * ambient.g), tuple([x // d for x in entries])


def _orbit_signs(m: int) -> tuple[int, ...]:
    """The coefficients a_1..a_m of Gamma(m) = sum over k of a_k O_k on m
    factors: a_k = (-1)^(m-k) (module docstring), the last m entries of
    (-1, 1) repeated, since a_m = 1."""
    return ((-1, 1) * m)[m:]


def _live_images(g: int, m: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The images S of maps {1..2g} -> {1..m} with c(S) != 0, each as
    (c(S), S) with S a tuple of 0-based factors; c(S) is one power per image
    size (module docstring).  Images come in increasing size, each size in
    lexicographic order."""
    for size in range(1, min(2 * g, m) + 1):
        c = ((+1) + (-1)) ** (m - size)
        if c:
            for image in itertools.combinations(range(m), size):
                yield c, image
