"""Integer Laurent polynomials in one variable ``b``, as values.

These are the elements of the group ring of the infinite cyclic group on
``b``.  The module provides the value type, its parser, the augmentation map
(sum of coefficients) and the predicate for the multiplicative set S of
augmentation-1 elements; the walk over a bounded window of S is
``quadratic``'s, beside the parity check that runs it.  Besides its
canonical ``terms``, the type keeps the constructor ``from_dict`` and the
view ``min_exp``.  No claim adds or multiplies polynomials, so the ring
operators are test references (``tests/references.py``), beside the
S-fractions they build on.

Literal grammar (EBNF), shared with the command line interface::

    poly   = [ sign ] term { sign term } ;
    term   = integer [ "*" ] [ bpart ] | bpart ;
    bpart  = "b" [ "^" [ "-" ] integer ] ;
    sign   = "+" | "-" ;

Whitespace is allowed between tokens.  Examples: ``1-b+b^2``, ``2b^-1 - b^3``.
``parse_laurent`` reads the grammar one term at a time, with one pattern.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, TypeVar

from .errors import LaurentParseError, NotInSError

_T = TypeVar("_T")


@dataclass(frozen=True)
class LaurentPoly:
    """A sparse integer Laurent polynomial.

    ``terms`` is the canonical form: pairs ``(exponent, coefficient)`` with
    strictly increasing exponents and no zero coefficients.  Two values are
    equal exactly when their canonical forms are identical.
    """

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        last = float("-inf")
        for e, c in self.terms:
            if c == 0 or e <= last:
                raise ValueError("canonical form: nonzero coefficients, strictly increasing exponents")
            last = e

    @staticmethod
    def from_dict(coeffs: dict[int, int]) -> "LaurentPoly":
        return LaurentPoly(tuple(sorted((e, c) for e, c in coeffs.items() if c != 0)))

    @property
    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no support")
        return self.terms[0][0]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for i, (e, c) in enumerate(self.terms):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "b" if e == 1 else f"b^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{sign}{body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"


def power(mul: Callable[[_T, _T], _T], x: _T, e: int) -> _T:
    """x^e for e >= 1 under an associative product ``mul``, by
    square-and-multiply: at most 2 log2 e products, none for e = 1."""
    while not e & 1:
        x, e = mul(x, x), e >> 1
    out = x
    while e := e >> 1:
        x = mul(x, x)
        if e & 1:
            out = mul(out, x)
    return out


def augmentation(s: LaurentPoly) -> int:
    """Sum of coefficients: image under the ring map sending b to 1."""
    return sum(c for _, c in s.terms)


def in_S(s: LaurentPoly) -> bool:
    """Membership in the multiplicative set S of augmentation-1 elements."""
    return augmentation(s) == 1


def require_in_S(s: LaurentPoly) -> LaurentPoly:
    if not in_S(s):
        raise NotInSError(f"{s} has augmentation {augmentation(s)}, expected 1")
    return s


_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<mag>\d+)\s*\*?\s*)?(?P<b>b(?:\s*\^\s*(?P<neg>-)?\s*(?P<exp>\d+))?)?\s*"
)


def parse_laurent(text: str) -> LaurentPoly:
    """Parse a Laurent polynomial literal; the module docstring has the grammar."""
    coeffs: dict[int, int] = {}
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        if not (m["mag"] or m["b"]):
            raise LaurentParseError("expected a coefficient or 'b'", m.end())
        if pos and not m["sign"]:
            raise LaurentParseError("expected '+' or '-' between terms", pos)
        try:
            mag = int(m["mag"] or 1)
            exp = int(m["exp"] or 1) if m["b"] else 0
        except ValueError:
            raise LaurentParseError("integer too long", pos) from None
        exp = -exp if m["neg"] else exp
        coeffs[exp] = coeffs.get(exp, 0) + (-mag if m["sign"] == "-" else mag)
        pos = m.end()
        if pos == len(text):
            return LaurentPoly.from_dict(coeffs)

