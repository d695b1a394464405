"""Word evaluation, conjugation and commutators with the closed-form law: the
references the tests fold words and relators through to compare the kernel
against the letter-level word_oracle and the b-free triple checks."""

from vltower.groups import GammaKElem, Model, Word, gamma_gen, gamma_identity, gamma_inv, gamma_mul, gamma_pow


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
