import pytest
from hypothesis import given, settings, strategies as st

from gpdkit.errors import (
    BaseNotInComponent,
    Disconnected,
    GpdError,
    InvalidPresentation,
    TreeInvalid,
)
from gpdkit.presentations import (
    GroupoidPresentation,
    _components,
    discrete_presentation,
    interval_groupoid,
    spanning_tree,
    tree_paths,
)
from gpdkit.words import ArrowGen, Word, free_reduce

from reference import reference_components, reference_spanning_tree, reference_tree_paths


def circle():
    return GroupoidPresentation(
        "circle", ("0", "1"), (ArrowGen("a", "0", "1"), ArrowGen("b", "0", "1"))
    )


def test_interval_shape():
    iv = interval_groupoid()
    assert len(iv.objects) == 2
    assert len(iv.generators) == 1
    assert len(iv.relations) == 0


def test_interval_free_groupoid_has_four_arrows():
    # oracle: enumerate freely reduced words by breadth-first extension
    iv = interval_groupoid()
    gen = iv.generators[0]
    seen = set()
    frontier = [Word(o, ()) for o in iv.objects]
    while frontier:
        nxt = []
        for w in frontier:
            key = (w.base, w.letters)
            if key in seen:
                continue
            seen.add(key)
            for exp in (1, -1):
                if (gen.src if exp == 1 else gen.dst) == w.end:
                    r = free_reduce(Word(w.base, w.letters + ((gen, exp),)))
                    if (r.base, r.letters) not in seen:
                        nxt.append(r)
        frontier = nxt
    assert len(seen) == 4


def test_presentation_validation():
    with pytest.raises(InvalidPresentation):
        GroupoidPresentation("empty", ())
    with pytest.raises(InvalidPresentation):
        GroupoidPresentation("dup", ("0",), (ArrowGen("a", "0", "0"), ArrowGen("a", "0", "0")))
    with pytest.raises(InvalidPresentation):
        GroupoidPresentation("stray", ("0",), (ArrowGen("a", "0", "9"),))
    a = ArrowGen("a", "0", "1")
    with pytest.raises(InvalidPresentation):
        GroupoidPresentation(
            "bad-rel",
            ("0", "1"),
            (a,),
            ((Word("0", ((a, 1),)), Word("0", ())),),  # not coterminal
        )


def test_discrete_presentations_are_legal():
    p = discrete_presentation("pts", ("0", "1"))
    assert p.generators == ()
    assert spanning_tree(GroupoidPresentation("one", ("z",))) == set()


def test_spanning_tree_interval():
    iv = interval_groupoid()
    assert spanning_tree(iv) == {iv.generators[0]}


def test_spanning_tree_circle_prefers_lexicographic():
    c = circle()
    assert {g.name for g in spanning_tree(c)} == {"a"}


def test_spanning_tree_disconnected():
    p = GroupoidPresentation("two", ("0", "1"))
    with pytest.raises(Disconnected) as err:
        spanning_tree(p)
    assert err.value.components == [["0"], ["1"]]


def test_tree_paths_and_validation():
    c = circle()
    a = c.generator("a")
    b = c.generator("b")
    paths = tree_paths(c, "1", {a})
    assert paths["1"] == Word("1", ())
    assert paths["0"] == Word("1", ((a, -1),))
    with pytest.raises(TreeInvalid):
        tree_paths(c, "0", {a, b})  # a cycle, not a tree
    with pytest.raises(TreeInvalid):
        tree_paths(c, "0", set())  # does not span
    with pytest.raises(BaseNotInComponent):
        tree_paths(c, "7", {a})
    with pytest.raises(TreeInvalid):
        tree_paths(c, "0", {ArrowGen("zz", "0", "1")})


def outcome(fn, *args):
    try:
        return fn(*args)
    except GpdError as exc:
        return type(exc), str(exc)


@st.composite
def small_presentations(draw):
    # generators are named in descending order of their targets' names, so a
    # breadth-first level taken in generator order runs against name order;
    # endpoints drawn freely give loops and parallel edges
    objects = draw(st.permutations("qbxam"))[: draw(st.integers(1, 5))]
    ends = draw(st.lists(st.tuples(st.sampled_from(objects), st.sampled_from(objects)),
                         max_size=7))
    ends.sort(key=lambda e: e[1], reverse=True)
    gens = tuple(ArrowGen(n, src, dst) for n, (src, dst) in zip("cfkmtwz", ends))
    return GroupoidPresentation("p", tuple(objects), gens)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(small_presentations())
def test_one_walk_matches_the_three_searches_it_replaced(p):
    assert _components(p) == reference_components(p)
    assert outcome(spanning_tree, p) == outcome(reference_spanning_tree, p)
    for base in p.objects:
        comp = next(c for c in reference_components(p) if base in c)
        own = GroupoidPresentation(
            "own", tuple(sorted(comp)), tuple(g for g in p.generators if g.src in comp))
        tree = reference_spanning_tree(own)
        # the tree, each tree less one edge and each tree plus one generator
        for t in [tree, *(tree - {g} for g in tree),
                  *(tree | {g} for g in p.generators if g not in tree)]:
            assert outcome(tree_paths, p, base, t) == outcome(reference_tree_paths, p, base, t)
