"""Exact arithmetic over Q-linear combinations of square roots.

A SqrtSum is sum_i q_i * sqrt(r_i) with q_i nonzero rationals and r_i
distinct square-free positive integers. That form is canonical: distinct
square-free radicals are linearly independent over Q, so two SqrtSums are
equal iff their canonical term lists are identical, and equality, hashing,
and zero tests are all structural.

Rationals embed as the single term with r = 1, and that embedding is the
only way they enter: every ring operation coerces an int or Fraction operand
to its one-term list (or to the empty list for 0) and runs the same
term-list kernel (_kernel) as for two SqrtSums, so there is one arithmetic
path per operation.
"""

from __future__ import annotations

from fractions import Fraction
from math import sqrt as _fsqrt
from typing import Iterable, Union

from . import _kernel
from .errors import MalformedKey, NegativeRadicand

_Scalar = Union[int, Fraction]


def _coerce_terms(value) -> tuple[tuple[int, int, int], ...]:
    if isinstance(value, SqrtSum):
        return value._terms
    if isinstance(value, int):
        return ((1, value, 1),) if value else ()
    if isinstance(value, Fraction):
        return ((1, value.numerator, value.denominator),) if value else ()
    return NotImplemented


def _term_float(rad: int, num: int, den: int) -> float:
    """num/den * sqrt(rad) as a float; a radicand past the float range is
    folded into one Fraction first, whose value may still be small."""
    try:
        return num / den * _fsqrt(rad)
    except OverflowError:
        value = _fsqrt(Fraction(num * num * rad, den * den))
        return value if num > 0 else -value


class SqrtSum:
    """Immutable exact number: a rational combination of square roots."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[int, int, int]] = ()):
        # Terms are trusted canonical when built internally; the public
        # constructors below canonicalize.
        self._terms = tuple(terms)

    # -- constructors ------------------------------------------------

    @classmethod
    def from_rational(cls, q: _Scalar) -> "SqrtSum":
        return cls(_coerce_terms(Fraction(q)))

    @property
    def terms(self) -> tuple[tuple[int, int, int], ...]:
        """Canonical (rad, num, den) triples, rad strictly increasing."""
        return self._terms

    # -- predicates and conversions ----------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_rational(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and self._terms[0][0] == 1)

    def as_fraction(self) -> Fraction:
        """The value as a Fraction; raises if an irrational term remains."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and self._terms[0][0] == 1:
            return Fraction(self._terms[0][1], self._terms[0][2])
        raise ValueError(f"not a rational value: {self}")

    def __float__(self) -> float:
        return float(sum(_term_float(*term) for term in self._terms))

    # -- ring operations ---------------------------------------------

    def __add__(self, other):
        terms = _coerce_terms(other)
        if terms is NotImplemented:
            return NotImplemented
        return SqrtSum(_kernel.add_terms(self._terms, terms))

    __radd__ = __add__

    def __neg__(self):
        return SqrtSum(_kernel.neg_terms(self._terms))

    def __sub__(self, other):
        terms = _coerce_terms(other)
        if terms is NotImplemented:
            return NotImplemented
        return SqrtSum(_kernel.add_terms(self._terms, _kernel.neg_terms(terms)))

    def __rsub__(self, other):
        terms = _coerce_terms(other)
        if terms is NotImplemented:
            return NotImplemented
        return SqrtSum(_kernel.add_terms(terms, _kernel.neg_terms(self._terms)))

    def __mul__(self, other):
        terms = _coerce_terms(other)
        if terms is NotImplemented:
            return NotImplemented
        return SqrtSum(_kernel.mul_terms(self._terms, terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational or a nonzero single-term value."""
        terms = _coerce_terms(other)
        if terms is NotImplemented:
            return NotImplemented
        if not terms:
            raise ZeroDivisionError("division by zero")
        if len(terms) != 1:
            raise ValueError("division is only supported by single-term values")
        (rad, num, den), = terms
        # 1/(q*sqrt(r)) = (1/(q*r))*sqrt(r)
        q = Fraction(den, num * rad)
        return SqrtSum(_kernel.mul_terms(
            self._terms, ((rad, q.numerator, q.denominator),)))

    # -- comparison and hashing ----------------------------------------

    def __eq__(self, other):
        terms = _coerce_terms(other)
        if terms is NotImplemented:
            return NotImplemented
        return self._terms == terms

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_fraction())
        return hash(self._terms)

    # -- formatting and serialization --------------------------------

    def __repr__(self):
        return f"SqrtSum({self})"

    def __str__(self):
        """Canonical text form, unit parts elided.

        For example "3/4" or "-1/2*sqrt(2)+1/3*sqrt(5)".
        """
        if not self._terms:
            return "0"
        parts = []
        for rad, num, den in self._terms:
            text = str(num)
            if den != 1:
                text += f"/{den}"
            if rad != 1:
                text += f"*sqrt({rad})"
            if parts and num > 0:
                parts.append("+")
            parts.append(text)
        return "".join(parts)

    def to_json_dict(self) -> dict:
        """JSON payload: decimal-string fields, terms sorted by radicand."""
        return {
            "terms": [
                {"num": str(num), "den": str(den), "rad": str(rad)}
                for rad, num, den in self._terms
            ]
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "SqrtSum":
        """Inverse of to_json_dict; validates canonical form."""
        try:
            raw = [
                (int(t["rad"]), int(t["num"]), int(t["den"]))
                for t in payload["terms"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedKey(f"bad SqrtSum payload: {payload!r}") from exc
        value = _ZERO
        for rad, num, den in raw:
            if rad <= 0 or den <= 0:
                raise MalformedKey(f"bad SqrtSum term ({rad}, {num}, {den})")
            value = value + SqrtSum.from_rational(Fraction(num, den)) * sqrt_rational(rad)
        if value.to_json_dict() != {"terms": [dict(t) for t in payload["terms"]]}:
            raise MalformedKey("SqrtSum payload is not in canonical form")
        return value


_ZERO = SqrtSum()
ZERO = _ZERO
ONE = SqrtSum(((1, 1, 1),))


def sqrt_rational(q: Union[int, Fraction]) -> SqrtSum:
    """Exact square root of a nonnegative rational as a one-term SqrtSum.

    sqrt(a/b) = sqrt(a*b)/b; raises NegativeRadicand for q < 0.
    """
    q = Fraction(q)
    if q < 0:
        raise NegativeRadicand(f"sqrt of negative rational {q}")
    if q == 0:
        return _ZERO
    outer, rad = _kernel.squarefree_split(q.numerator * q.denominator)
    coeff = Fraction(outer, q.denominator)
    return SqrtSum(((rad, coeff.numerator, coeff.denominator),))


def sqrt_product(factors: Iterable[Union[int, Fraction]]) -> SqrtSum:
    """Exact sqrt of a product of nonnegative rationals; only the single
    factors are ever factored (_kernel.sqrt_of_product)."""
    ints, den = [], 1
    for f in factors:
        f = Fraction(f)
        if f < 0:
            raise NegativeRadicand(f"sqrt of negative factor {f}")
        if f == 0:
            return _ZERO
        # sqrt(p/q) = sqrt(p*q)/q
        ints.append(f.numerator * f.denominator)
        den *= f.denominator
    outer, rad = _kernel.sqrt_of_product(ints)
    q = Fraction(outer, den)
    return SqrtSum(((rad, q.numerator, q.denominator),))
