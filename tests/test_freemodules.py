import itertools

import pytest

from gpdkit.errors import BaseMismatch, SiteUndefined
from gpdkit.freemodules import (
    FreeModule,
    ModuleElement,
    induce_free_module,
)
from gpdkit.morphisms import GroupoidMorphism
from gpdkit.presentations import GroupoidPresentation, interval_groupoid
from gpdkit.words import ArrowGen, Word, generator_word

from reference import induce_element

T = ArrowGen("t", "p", "p")
CINF = GroupoidPresentation("cinf", ("p",), (T,))


def interval_module():
    return FreeModule("disk", interval_groupoid(), (("x", "0"),))


def wrap_morphism(base):
    return GroupoidMorphism(
        "wrap", base, CINF, {o: "p" for o in base.objects}, {"i": generator_word(T)}
    )


def laurent_words(max_len):
    words = [Word("p", ())]
    for n in range(1, max_len + 1):
        words.append(Word("p", ((T, 1),) * n))
        words.append(Word("p", ((T, -1),) * n))
    return words


def test_zero_and_negation():
    mod = interval_module()
    x = mod.basis_element("x")
    assert (x + (-x)).is_zero()
    assert x - x == mod.zero("0")


def test_action_undone_by_inverse():
    mod = interval_module()
    i = mod.base.generator("i")
    x = mod.basis_element("x")
    w = generator_word(i)
    assert x.acted(w).acted(~w) == x
    assert x.acted(w).at == "1"


def test_action_requires_matching_base():
    mod = interval_module()
    x = mod.basis_element("x")
    with pytest.raises(BaseMismatch):
        x.acted(Word("1", ()))
    moved = x.acted(generator_word(mod.base.generator("i")))
    with pytest.raises(BaseMismatch):
        x + moved


def test_site_validation():
    with pytest.raises(SiteUndefined):
        FreeModule("bad", interval_groupoid(), (("x", "9"),))


def test_relation_bases_rejected():
    a = ArrowGen("a", "0", "0")
    rel = (Word("0", ((a, 1),)), Word("0", ()))
    p = GroupoidPresentation("relly", ("0",), (a,), (rel,))
    with pytest.raises(BaseMismatch):
        FreeModule("bad", p, (("x", "0"),))


def test_induction_preserves_rank():
    mod = interval_module()
    ind = induce_free_module(mod, wrap_morphism(mod.base))
    assert ind.rank() == 1
    assert ind.base is CINF
    assert ind.generators == (("x", "p"),)


def test_induction_along_identity():
    from reference import identity_morphism

    mod = interval_module()
    ind = induce_free_module(mod, identity_morphism(mod.base))
    assert ind.generators == mod.generators
    assert ind.base == mod.base


def test_coefficient_arithmetic_example():
    mod = interval_module()
    ind = induce_free_module(mod, wrap_morphism(mod.base))
    x = ind.basis_element("x")
    tw = generator_word(T)
    tx = x.acted(tw)
    assert (2 * tx - x) + (x - tx) == tx


def test_action_laws_on_short_words():
    mod = interval_module()
    ind = induce_free_module(mod, wrap_morphism(mod.base))
    x = ind.basis_element("x")
    words = laurent_words(3)
    elements = [x.acted(w) for w in words] + [x.acted(words[1]) + 2 * x]
    for e in elements:
        for w1, w2 in itertools.product(words, repeat=2):
            assert e.acted(w1 * w2) == e.acted(w1).acted(w2)


def test_rank_two_stays_independent():
    base = interval_groupoid()
    mod = FreeModule("pair", base, (("x", "0"), ("y", "1")))
    ind = induce_free_module(mod, wrap_morphism(base))
    assert ind.rank() == 2
    x, y = ind.basis_element("x"), ind.basis_element("y")
    words = laurent_words(3)
    # no nonzero integer combination of moved basis vectors vanishes
    for w1, w2 in itertools.product(words, repeat=2):
        for c1, c2 in itertools.product((-2, -1, 0, 1, 2), repeat=2):
            combo = c1 * x.acted(w1) + c2 * y.acted(w2)
            assert combo.is_zero() == (c1 == 0 and c2 == 0)


def test_induce_element_matches_action():
    mod = interval_module()
    f = wrap_morphism(mod.base)
    ind = induce_free_module(mod, f)
    x = mod.basis_element("x")
    i = mod.base.generator("i")
    pushed = induce_element(x.acted(generator_word(i)), ind, f)
    assert pushed == ind.basis_element("x").acted(generator_word(T))


def test_str_rendering():
    mod = interval_module()
    ind = induce_free_module(mod, wrap_morphism(mod.base))
    x = ind.basis_element("x")
    assert str(x) == "x"
    assert str(ind.zero("p")) == "0"
    assert "t" in str(x.acted(generator_word(T)))
