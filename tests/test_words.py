import pytest
from hypothesis import given, strategies as st

from gpdkit.errors import EndpointMismatch, MalformedWord
from gpdkit.words import (
    ArrowGen,
    Word,
    free_reduce,
    generator_word,
    identity_word,
    word_compose,
    word_inverse,
)

from reference import is_reduced

A = ArrowGen("a", "0", "1")
B = ArrowGen("b", "0", "1")
C = ArrowGen("c", "1", "2")
LOOP = ArrowGen("t", "0", "0")
GENS = [A, B, C, LOOP]


def reduce_fixpoint(w: Word) -> Word:
    """Oracle: cancel one adjacent pair per pass until nothing changes."""
    letters = list(w.letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            (g1, e1), (g2, e2) = letters[i], letters[i + 1]
            if g1 == g2 and e1 == -e2:
                del letters[i : i + 2]
                changed = True
                break
    return Word(w.base, tuple(letters))


def random_words(max_len=20):
    """Random composable walks over the little test graph."""

    @st.composite
    def walk(draw):
        base = draw(st.sampled_from(["0", "1", "2"]))
        letters = []
        at = base
        for _ in range(draw(st.integers(0, max_len))):
            options = [
                (g, e)
                for g in GENS
                for e in (1, -1)
                if (g.src if e == 1 else g.dst) == at
            ]
            if not options:
                break
            letter = draw(st.sampled_from(options))
            letters.append(letter)
            at = letter[0].dst if letter[1] == 1 else letter[0].src
        return Word(base, tuple(letters))

    return walk()


def test_cancellation_to_identity():
    w = Word("0", ((A, 1), (A, -1)))
    assert free_reduce(w) == identity_word("0")


def test_nested_cancellation():
    w = Word("0", ((A, 1), (B, -1), (B, 1), (A, -1)))
    assert free_reduce(w) == identity_word("0")


def test_reduced_word_unchanged():
    w = Word("0", ((B, 1), (A, -1)))
    assert free_reduce(w) == reduce_fixpoint(w) == w


def test_malformed_word_rejected():
    with pytest.raises(MalformedWord):
        Word("0", ((C, 1),))
    with pytest.raises(MalformedWord):
        Word("0", ((A, 1), (A, 1)))
    with pytest.raises(MalformedWord):
        Word("0", ((A, 2),))


def test_compose_identity():
    w = Word("0", ((A, 1), (C, 1)))
    assert word_compose(identity_word("0"), w) == w
    assert word_compose(w, identity_word("2")) == w


def test_compose_cancels():
    assert word_compose(generator_word(A), word_inverse(generator_word(A))) == identity_word("0")
    w = Word("1", ((B, -1),)) * Word("0", ((B, 1),))
    assert w == identity_word("1")


def test_compose_endpoint_mismatch():
    with pytest.raises(EndpointMismatch):
        word_compose(generator_word(A), generator_word(A))


def test_inverse_examples():
    assert word_inverse(identity_word("0")) == identity_word("0")
    inv = word_inverse(generator_word(A))
    assert (inv.base, inv.end) == ("1", "0")
    w = Word("0", ((A, 1), (B, -1), (A, 1)))
    assert word_compose(w, word_inverse(w)) == identity_word("0")


@given(random_words())
def test_reduce_matches_fixpoint_oracle(w):
    assert free_reduce(w) == reduce_fixpoint(w)


@given(random_words())
def test_reduce_idempotent_and_endpoint_preserving(w):
    r = free_reduce(w)
    assert free_reduce(r) == r
    assert is_reduced(r)
    assert (r.base, r.end) == (w.base, w.end)


@given(random_words(8), random_words(8), random_words(8))
def test_compose_associative(w1, w2, w3):
    if w1.end != w2.base or w2.end != w3.base:
        return
    assert (w1 * w2) * w3 == w1 * (w2 * w3)


@given(random_words())
def test_two_sided_inverse(w):
    assert w * ~w == identity_word(w.base)
    assert ~w * w == identity_word(w.end)


@given(random_words())
def test_units(w):
    assert identity_word(w.base) * w == free_reduce(w)
    assert w * identity_word(w.end) == free_reduce(w)


def test_str_forms():
    assert str(identity_word("0")) == "id(0)"
    assert str(Word("0", ((A, 1), (B, -1)))) == "a.b^-1"
