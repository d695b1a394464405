"""The group references the tests check the kernel against; no claim runs them.

- ``GammaKElem`` is an element t^c A^m B^n b^j of the full group at a center
  level k; ``gamma_make`` and ``gamma_gen`` validate one.  ``gamma_mul`` and
  ``phi_apply`` raise ``LevelMismatchError`` on elements of different levels.
- ``gamma_mul``, ``gamma_inv`` and ``gamma_pow`` are the full-group law on
  t^c A^m B^n b^j, built on the package's b-free triple law and records;
  ``conj_by_b_pow`` conjugates a triple by b^j with the record of b^j.
- ``level_map_record`` rebuilds a level map's record from its pair, which is
  all the package keeps; ``phi_apply`` applies that record to a full-group
  element, and ``phi_images`` gives the images of a, a^b and t as elements.
- ``eval_word``, ``gamma_conj`` and ``gamma_comm`` fold words, conjugates and
  commutators through that law.
- ``base_form`` is the quotient map to the base group in matrix form.
- ``word_oracle`` evaluates words letter by letter over single rewrite rules
  and shares no formula with the closed-form laws; its rules read the
  relator's coefficient Q from this module, which the q-family tests rebind
  together with the package's.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from references import u_pow, vec_mat
from vltower.errors import PreconditionError, VltowerError
from vltower.groups import (
    Aut,
    Model,
    PhiData,
    _aut_apply,
    _conj_record,
    a_power_s,
    conj_b,
    free_inv,
    free_mul,
    free_pow,
)
from vltower.laurent import power
from vltower.quadratic import Q, Vec, _pair_mul

# --- elements of the full group ------------------------------------------------


def _center(k: int | None, c: int) -> int:
    return c if k is None else c % (1 << k)


class LevelMismatchError(VltowerError, ValueError):
    """Two truncation-level elements or maps were combined at different levels."""


class GammaKElem(NamedTuple):
    """t^c a^(n1) (a^b)^(n2) b^j; c read in Z (k None) or mod 2**k."""

    k: int | None
    c: int
    n: Vec
    j: int


def gamma_make(k: int | None, c: int, n: Vec, j: int) -> GammaKElem:
    if k is not None and k < 0:
        raise PreconditionError(f"negative truncation level {k}")
    return GammaKElem(k, _center(k, c), n, j)


def gamma_identity(k: int | None) -> GammaKElem:
    return gamma_make(k, 0, (0, 0), 0)


def gamma_gen(k: int | None, name: str) -> GammaKElem:
    vec = {"a": (1, 0), "ab": (0, 1)}.get(name)
    if vec is not None:
        return gamma_make(k, 0, vec, 0)
    if name == "b":
        return gamma_make(k, 0, (0, 0), 1)
    if name == "t":
        return gamma_make(k, 1, (0, 0), 0)
    raise ValueError(f"unknown generator {name!r}")


# --- the full-group law ------------------------------------------------------


def conj_by_b_pow(h: tuple[int, int, int], j: int) -> tuple[int, int, int]:
    """b^j (t^c A^m B^n) b^-j: one application of the record of b^j."""
    return _aut_apply(_conj_record(j), h) if j else h


def gamma_mul(x: GammaKElem, y: GammaKElem) -> GammaKElem:
    if x.k != y.k:
        raise LevelMismatchError(f"levels {x.k} and {y.k}")
    c, m, n = free_mul((x.c, *x.n), conj_by_b_pow((y.c, *y.n), x.j))
    return GammaKElem(x.k, _center(x.k, c), (m, n), x.j + y.j)


def gamma_inv(x: GammaKElem) -> GammaKElem:
    c, m, n = conj_by_b_pow(free_inv((x.c, *x.n)), -x.j)
    return GammaKElem(x.k, _center(x.k, c), (m, n), -x.j)


def gamma_pow(x: GammaKElem, e: int) -> GammaKElem:
    """x^e for every integer e; square-and-multiply only for elements with a b part."""
    if not x.j:
        c, m, n = free_pow((x.c, *x.n), e)
        return GammaKElem(x.k, _center(x.k, c), (m, n), 0)
    if e < 0:
        x, e = gamma_inv(x), -e
    return power(gamma_mul, x, e) if e else gamma_identity(x.k)


def base_form(x: GammaKElem) -> tuple[Vec, int]:
    """Quotient by the center: t^c a^n b^j |-> b^j a^(n U^j), as (n U^j, j)."""
    return vec_mat(x.n, u_pow(x.j)), x.j


# --- level maps on the full group ------------------------------------------------


def level_map_record(data: PhiData) -> Aut:
    """The record (|s|, c(a), c(a^b), alpha, beta) of a level map, centers mod
    2**target_k: the image of a is t^r times a^s with the map's pair as its
    module part, and the image of a^b is its conjugate by b."""
    a = (a_power_s(data.s)[0][0] + data.r, *data.pair)
    mod = 1 << data.target_k
    return data.norm, a[0] % mod, conj_b(a)[0] % mod, *data.pair


def phi_apply(data: PhiData, g: GammaKElem) -> GammaKElem:
    """t^c A^m B^n b^j |-> the record applied to t^c A^m B^n, times b^j."""
    if g.k != data.source_k:
        raise LevelMismatchError(f"element at level {g.k}, map expects {data.source_k}")
    k = data.target_k
    c, m, n = _aut_apply(level_map_record(data), (g.c, *g.n))
    return GammaKElem(k, _center(k, c), (m, n), g.j)


def phi_images(data: PhiData) -> tuple[GammaKElem, GammaKElem, GammaKElem]:
    """The images of a, a^b and t: rows (1, 0) M and (0, 1) M of the record's
    pair, and the commutator of the first two."""
    _, c_a, c_b, alpha, beta = level_map_record(data)
    k = data.target_k
    img_a = gamma_make(k, c_a, (alpha, beta), 0)
    img_ab = gamma_make(k, c_b, _pair_mul((0, 1), (alpha, beta)), 0)
    return img_a, img_ab, gamma_comm(img_a, img_ab)


# --- word evaluation, conjugation and commutators with that law ----------------

Word = Sequence[tuple[str, int]]
"""A word: pairs (generator, exponent) with generator in {"a", "b"}."""


def eval_word(word: Word, model: Model) -> GammaKElem:
    """Evaluate a word with the closed-form law."""
    out = gamma_identity(model.k)
    for gen, e in word:
        out = gamma_mul(out, gamma_pow(gamma_gen(model.k, gen), e))
    return out


def gamma_conj(x: GammaKElem, y: GammaKElem) -> GammaKElem:
    return gamma_mul(gamma_inv(y), gamma_mul(x, y))


def gamma_comm(x: GammaKElem, y: GammaKElem) -> GammaKElem:
    """[x, y] = x^-1 y^-1 x y, evaluated as (y x)^-1 (x y)."""
    return gamma_mul(gamma_inv(gamma_mul(y, x)), gamma_mul(x, y))


# --- word oracle: slow, letter-level evaluator over the rewriting rules --------


class _OracleState:
    """Normal form t^c A^m B^n b^j built by prepending letters.

    Only single-letter rewrite rules are used: t is central among A and B;
    one B past A^m costs t^-m (m swaps of BA -> AB t^-1); crossing one b
    rebuilds the prefix from the letter images b X b^-1 (t -> t^-1,
    A -> t^Q A^-Q B, B -> A) or b^-1 X b (t -> t^-1, A -> B, B -> A B^Q),
    appended one letter or run at a time.
    """

    __slots__ = ("c", "m", "n", "j", "mod")

    def __init__(self, modulus: int | None):
        self.c = 0
        self.m = 0
        self.n = 0
        self.j = 0
        self.mod = modulus

    def _reduce(self):
        if self.mod is not None:
            self.c %= self.mod

    # appends act on the A/B prefix only (used while rebuilding after a b-crossing)
    def _append_t(self, e: int):
        self.c += e

    def _append_a(self, e: int):
        self.c -= e * self.n  # A^e crossing B^n
        self.m += e

    def _append_b_gen(self, e: int):
        self.n += e

    def prepend_t(self, e: int):
        self.c += e
        self._reduce()

    def prepend_a(self, e: int):
        self.m += e

    def prepend_ab(self, e: int):
        self.c -= e * self.m  # B^e crossing A^m
        self.n += e
        self._reduce()

    def prepend_b(self, e: int):
        if e not in (1, -1):
            raise ValueError("prepend one b at a time")
        src_c, src_m, src_n = self.c, self.m, self.n
        self.c, self.m, self.n = -src_c, 0, 0
        if e == 1:
            # b A b^-1 = t^Q A^-Q B; inverse letters in reversed order.
            if src_m >= 0:
                for _ in range(src_m):
                    self._append_t(Q)
                    self._append_a(-Q)
                    self._append_b_gen(1)
            else:
                for _ in range(-src_m):
                    self._append_b_gen(-1)
                    self._append_a(Q)
                    self._append_t(-Q)
            self._append_a(src_n)  # b B b^-1 = A
        else:
            self._append_b_gen(src_m)  # b^-1 A b = B
            # b^-1 B b = A B^Q; inverse letters in reversed order.
            if src_n >= 0:
                for _ in range(src_n):
                    self._append_a(1)
                    self._append_b_gen(Q)
            else:
                for _ in range(-src_n):
                    self._append_b_gen(-Q)
                    self._append_a(-1)
        self.j += e
        self._reduce()


def _oracle_collect(word: Word, modulus: int | None) -> tuple[int, int, int, int]:
    st = _OracleState(modulus)
    for gen, e in reversed(list(word)):
        if e == 0:
            continue
        if gen == "a":
            st.prepend_a(e)
        elif gen == "b":
            sgn = 1 if e > 0 else -1
            for _ in range(abs(e)):
                st.prepend_b(sgn)
        elif gen == "t":
            st.prepend_t(e)
        elif gen == "ab":
            sgn = 1 if e > 0 else -1
            for _ in range(abs(e)):
                st.prepend_ab(sgn)
        else:
            raise ValueError(f"unknown generator {gen!r}")
    st._reduce()
    return st.c, st.m, st.n, st.j


def word_oracle(word: Word, model: Model) -> GammaKElem:
    """Evaluate a word over {a, b} (plus derived letters t, ab) in a model.

    This path shares no formulas with the closed-form laws beyond the single
    rewrite rules listed on _OracleState.
    """
    if not isinstance(model, Model):
        raise PreconditionError(f"not a model: {model!r}")
    c, m, n, j = _oracle_collect(word, None if model.k is None else 1 << model.k)
    return GammaKElem(model.k, c, (m, n), j)
