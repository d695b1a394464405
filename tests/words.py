"""Word evaluation with the closed-form law, the reference the tests fold
words through to compare the kernel against the letter-level word_oracle."""

from vltower.groups import GammaKElem, Model, Word, gamma_gen, gamma_identity, gamma_mul, gamma_pow


def eval_word(word: Word, model: Model) -> GammaKElem:
    """Evaluate a word with the closed-form law."""
    out = gamma_identity(model.k)
    for gen, e in word:
        out = gamma_mul(out, gamma_pow(gamma_gen(model.k, gen), e))
    return out
