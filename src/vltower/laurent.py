"""Exact arithmetic for integer Laurent polynomials in one variable ``b``.

This is the group ring of the infinite cyclic group on ``b``.  The module
also provides the augmentation map (sum of coefficients), the predicate for
the multiplicative set S of augmentation-1 elements, and a deterministic
walk over S within finite support/coefficient bounds, one block of prefixes
at a time.  Besides its canonical ``terms``, the type keeps the constructor
``from_dict``, the view ``min_exp`` and the ring operators ``+``, ``-``,
``*`` and ``**``; no claim uses the operators, which are the arithmetic the
tests and the S-fraction reference build on.

Literal grammar (EBNF), shared with the command line interface::

    poly   = [ sign ] term { sign term } ;
    term   = integer [ "*" ] [ bpart ] | bpart ;
    bpart  = "b" [ "^" [ "-" ] integer ] ;
    sign   = "+" | "-" ;

Whitespace is allowed between tokens.  Examples: ``1-b+b^2``, ``2b^-1 - b^3``.
``parse_laurent`` reads the grammar one term at a time, with one pattern.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import LaurentParseError, NotInSError, PreconditionError

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

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return LaurentPoly.from_dict(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(out)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of a general polynomial are not defined")
        return power(LaurentPoly.__mul__, self, n) if n else ONE

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


ZERO = LaurentPoly()
ONE = LaurentPoly(((0, 1),))
B = LaurentPoly(((1, 1),))
WINDOW_COEFF_BOUND = 8  # a block's tails: at most (2c + 1)^2 2c = 4,624, under 1 MiB with the kernel's table


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


_Block = tuple[int, int, Iterable[tuple[int, ...]], dict[int, list[tuple[int, int, int]]]]


def _head_groups(max_degree_span: int, max_abs_coeff: int) -> Iterator[_Block]:
    """The S-elements with support in [0, max_degree_span] and coefficients
    in [-max_abs_coeff, max_abs_coeff], one block of prefixes at a time.

    A block is ``(f, d, prefixes, tails)``: offset f, span d, the prefixes
    p = (n_f, ..., n_{f+d-3}) in lexicographic order, and for each value of
    R = 1 - sum(p) the tails (h, m, n) with h + m + n = R, ascending in h
    and then m, which every prefix of that sum shares.  The elements of a
    prefix are b^f (p(b) + h b^(d-2) + m b^(d-1) + n b^d) for its tails,
    every one of them in the window: a tail is kept exactly when n is
    nonzero and h, m and n are within the bound, and R has no entry when no
    tail is kept.  The prefix is empty for d <= 2.  Span 0 is the tail
    (0, 0, 1), the element b^f; for span 1, h = 0 and m is the leading
    coefficient, and for span 2, h is.  Otherwise the prefix leads.

    Expanded in this order, the elements come by ascending support span,
    then lexicographically on the coefficient tuple (n_0, ..., n_D) over the
    whole window, each exactly once and with nothing sorted: for a fixed
    span d that order is every core (n_f, ..., n_{f+d}) with negative
    leading coefficient by ascending offset f, then every core with positive
    leading coefficient by descending f.  The tails depend only on d, the
    sign of the lead and R, so they are built once per span and sign; they
    are all the walk stores, and WINDOW_COEFF_BOUND keeps them small.  The
    bounds are checked when the walk is made, before its first block.
    """
    if max_degree_span < 0 or max_abs_coeff < 0:
        raise PreconditionError("bounds must be nonnegative")
    if max_abs_coeff > WINDOW_COEFF_BOUND:
        raise PreconditionError(f"coefficient bound {max_abs_coeff} is past the window bound {WINDOW_COEFF_BOUND}")
    return _blocks(max_degree_span + 1, max_abs_coeff)


def _blocks(width: int, c: int) -> Iterator[_Block]:
    """The blocks of ``_head_groups`` for spans below width, coefficients in [-c, c]."""
    rng = range(-c, c + 1)
    if c:
        for f in reversed(range(width)):
            yield f, 0, ((),), {1: [(0, 0, 1)]}
    for d in range(1, width):
        offsets = range(width - d)
        for leads, fs in ((range(-c, 0), offsets), (range(1, c + 1), reversed(offsets))):
            if d > 2:
                # R = 1 - (sum of the prefix), over every prefix sum
                spread = (d - 3) * c
                hs, ms, rs = rng, rng, range(2 - leads.stop - spread, 2 - leads.start + spread)
                factors = (leads, *[rng] * (d - 3))
            else:  # one empty prefix: the lead is m for span 1 and h for span 2
                hs, ms = (range(1), leads) if d == 1 else (leads, rng)
                rs, factors = (1,), ()
            tails = {}
            for r in rs:
                # n = r - h - m is within the bound for these m, and nonzero but for m = r - h
                ts = [
                    (h, m, r - h - m)
                    for h in hs
                    for m in range(max(ms.start, r - h - c), min(ms.stop, r - h + c + 1))
                    if m != r - h
                ]
                if ts:
                    tails[r] = ts
            for f in fs if tails else ():
                yield f, d, itertools.product(*factors), tails


def _head_terms(f: int, prefix: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    return tuple([(f + i, n) for i, n in enumerate(prefix) if n])


def _group_element(f: int, d: int, terms: tuple[tuple[int, int], ...], tail: tuple[int, int, int]) -> LaurentPoly:
    """The element of a prefix with tail (h, m, n); ``terms`` are the
    prefix's canonical terms, from ``_head_terms``."""
    return LaurentPoly(terms + tuple([(f + d - 2 + i, x) for i, x in enumerate(tail) if x]))
