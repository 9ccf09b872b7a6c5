"""Every word-building path builds one ``Word`` per result.

``w1 * w2``, ``evaluate`` into a presentation and each ``_walk`` path build
their result as one ``Word``, whose constructor checks it once,
``ModuleElement.acted`` builds none, and ``tree_paths`` walks only its tree
unless the tree fails to span.  On words drawn over the bundled
presentations they agree with the letter-by-letter folds they replaced
(``tests/reference.py``).
"""

import importlib.resources as resources

import pytest
from hypothesis import given, settings, strategies as st

from gpdkit.errors import GpdError
from gpdkit.freemodules import FreeModule, ModuleElement
from gpdkit.morphisms import GroupoidMorphism, evaluate
from gpdkit.presentations import GroupoidPresentation, _walk, spanning_tree, tree_paths
from gpdkit.textfmt import parse_workspace
from gpdkit.vkt import pushout, vertex_group
from gpdkit.words import ArrowGen, Word, free_reduce, letter_dst, letter_src

from reference import reference_acted, reference_evaluate, reference_tree_paths


def _bundled():
    """The presentations of circle.vk, wedge.vk and disk_module.vk, their
    spans' pushouts, and every morphism among them into a presentation."""
    files = [(name, resources.files("gpdkit").joinpath("data", name).read_text(encoding="utf-8"))
             for name in ("circle.vk", "wedge.vk", "disk_module.vk")]
    ws = parse_workspace(files)
    presentations = dict(ws.presentations)
    morphisms = list(ws.morphisms.values())
    for name, span in sorted(ws.spans.items()):
        po = pushout(span, name=name)
        presentations[name] = po.presentation
        morphisms += [span.left, span.right, po.left_inclusion, po.right_inclusion]
    return [presentations[k] for k in sorted(presentations)], morphisms


PRESENTATIONS, MORPHISMS = _bundled()


def test_the_draws_cover_the_bundled_presentations():
    assert [p.name for p in PRESENTATIONS] == [
        "arc1", "arc2", "cinf", "circle", "interval", "loop_x", "loop_y", "wedge"]
    assert not any(p.relations for p in PRESENTATIONS)


def walk(draw, p, start, max_len) -> tuple:
    """Letters of a random walk in ``p`` from ``start``; often cancelling."""
    letters, at = [], start
    for _ in range(draw(st.integers(0, max_len))):
        options = [(g, e) for g in p.sorted_generators() for e in (1, -1)
                   if letter_src((g, e)) == at]
        if not options:
            break
        letters.append(draw(st.sampled_from(options)))
        at = letter_dst(letters[-1])
    return tuple(letters)


def path(draw, p, src, dst, max_len=4) -> Word:
    """An unreduced word of the connected ``p`` from ``src`` to ``dst``: a
    random walk, then back to the tree root and out along the tree."""
    paths = tree_paths(p, p.sorted_objects()[0], spanning_tree(p))
    letters = walk(draw, p, src, max_len)
    at = Word(src, letters).end
    return Word(src, letters + (~paths[at]).letters + paths[dst].letters)


@st.composite
def morphisms(draw):
    """A bundled morphism, or one drawn between two bundled presentations
    whose images are unreduced words of length up to about ten."""
    if draw(st.booleans()):
        return draw(st.sampled_from(MORPHISMS))
    dom, cod = draw(st.sampled_from(PRESENTATIONS)), draw(st.sampled_from(PRESENTATIONS))
    obj = {o: draw(st.sampled_from(cod.sorted_objects())) for o in dom.sorted_objects()}
    gens = {g.name: path(draw, cod, obj[g.src], obj[g.dst]) for g in dom.sorted_generators()}
    return GroupoidMorphism("drawn", dom, cod, obj, gens)


@st.composite
def elements(draw):
    """A module element of rank one or two over a bundled presentation, as
    a sum of up to four terms with reduced paths, and its site."""
    p = draw(st.sampled_from(PRESENTATIONS))
    sites = [draw(st.sampled_from(p.sorted_objects())) for _ in range(draw(st.integers(1, 2)))]
    mod = FreeModule("m", p, tuple((f"x{k}", s) for k, s in enumerate(sites)))
    at = draw(st.sampled_from(p.sorted_objects()))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        gen, site = draw(st.sampled_from(mod.generators))
        key = (gen, free_reduce(path(draw, p, site, at)).letters)
        terms[key] = terms.get(key, 0) + draw(st.integers(-2, 2))
    return ModuleElement(mod, at, terms)


def outcome(fn, *args):
    try:
        return fn(*args)
    except GpdError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_evaluate_matches_the_letter_by_letter_fold(data):
    m = data.draw(morphisms())
    start = data.draw(st.sampled_from(m.domain.sorted_objects()))
    w = Word(start, walk(data.draw, m.domain, start, 12))
    assert evaluate(m, w) == reference_evaluate(m, w)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_acted_matches_the_per_term_composite(data):
    e = data.draw(elements())
    w = Word(e.at, walk(data.draw, e.module.base, e.at, 8))
    assert e.acted(w) == reference_acted(e, w)
    assert e.acted(w).acted(~w) == e


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_tree_paths_match_the_composing_search(data):
    # the bundled trees are one edge deep; tests/test_presentations.py draws deeper ones
    p = data.draw(st.sampled_from(PRESENTATIONS))
    base = data.draw(st.sampled_from(p.sorted_objects()))
    tree = data.draw(st.sets(st.sampled_from(p.sorted_generators())))
    assert outcome(tree_paths, p, base, tree) == outcome(reference_tree_paths, p, base, tree)


# -- one Word per result ---------------------------------------------------------

@pytest.fixture
def builds(monkeypatch):
    """``builds(fn, *args)``: the result of ``fn(*args)`` and how many times
    ``Word.__post_init__`` ran while it was computed."""
    calls = []
    check = Word.__post_init__

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(Word, "__post_init__", counted)

    def run(fn, *args):
        calls.clear()
        result = fn(*args)
        return result, len(calls)

    return run


WEDGE = next(p for p in PRESENTATIONS if p.name == "wedge")
CIRCLE = next(p for p in PRESENTATIONS if p.name == "circle")


def letters(p, text):
    """``"a.b^-1"`` as letters of ``p``; ``""`` as none."""
    out = []
    for part in filter(None, text.split(".")):
        name, _, inv = part.partition("^")
        out.append((p.generator(name), -1 if inv else 1))
    return tuple(out)


def test_a_composite_is_one_word(builds):
    for t1, t2 in [("x", "y"), ("x.y", "y^-1.x^-1"), ("x.y", "y^-1.x"), ("", "x"), ("y^-1", "")]:
        w1, w2 = Word("p", letters(WEDGE, t1)), Word("p", letters(WEDGE, t2))
        product, n = builds(w1.__mul__, w2)
        assert (product, n) == (free_reduce(Word("p", w1.letters + w2.letters)), 1)


def test_evaluate_into_a_presentation_is_one_word_at_any_length(builds):
    # circle -> wedge: a -> x.y^-1, b -> y.x.x; each image and its inverse
    m = GroupoidMorphism("fold", CIRCLE, WEDGE, {"0": "p", "1": "p"},
                         {"a": Word("p", letters(WEDGE, "x.y^-1")),
                          "b": Word("p", letters(WEDGE, "y.x.x"))})
    word = letters(CIRCLE, "a.b^-1.b.a^-1.a.b^-1.a.b^-1")
    for n in range(len(word) + 1):
        w = Word("0", word[:n])
        image, count = builds(evaluate, m, w)
        assert (image, count) == (reference_evaluate(m, w), 1)


def test_each_walk_path_is_one_word(builds):
    for p in PRESENTATIONS:
        for start in p.sorted_objects():
            paths, n = builds(_walk, p, start, p.generators)
            assert n == len(paths)


def test_acted_builds_no_word(builds):
    mod = FreeModule("m", CIRCLE, (("x", "0"), ("y", "1")))
    e = 2 * mod.basis_element("x") + mod.basis_element("y").acted(~Word("0", letters(CIRCLE, "b")))
    word = letters(CIRCLE, "a.b^-1.b.a^-1.a.b^-1")
    for n in range(len(word) + 1):
        w = Word("0", word[:n])
        moved, count = builds(e.acted, w)
        assert (moved, count) == (reference_acted(e, w), 0)


# a six-object chain 0 - 1 - ... - 5 with one extra edge, f: 1 -> 4
CHAIN = GroupoidPresentation("chain", tuple("012345"), tuple(
    ArrowGen(f"e{k}", str(k), str(k + 1)) for k in range(5)) + (ArrowGen("f", "1", "4"),))


def test_tree_paths_walk_only_the_tree(builds):
    # the component is walked only to name what a tree that fails to span misses
    tree = set(CHAIN.generators[:5])
    paths, n = builds(tree_paths, CHAIN, "0", tree)
    assert (paths, n) == (reference_tree_paths(CHAIN, "0", tree), 6)
    for bad in (tree - {CHAIN.generators[2]}, tree | {CHAIN.generators[5]}, set()):
        assert outcome(tree_paths, CHAIN, "0", bad) == outcome(reference_tree_paths, CHAIN, "0", bad)


def test_vertex_group_walks_its_spanning_tree_and_the_paths_once_each(builds):
    group, n = builds(vertex_group, CHAIN, "0")
    assert (group.pretty(), n) == ("⟨x_e3 | ⟩", 12)
