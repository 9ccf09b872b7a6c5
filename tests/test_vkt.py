import pytest

from gpdkit.errors import InvalidSpan
from gpdkit.finite import standard_battery
from gpdkit.morphisms import GroupoidMorphism
from gpdkit.presentations import (
    GroupoidPresentation,
    discrete_presentation,
    spanning_tree,
)
from gpdkit.vkt import (
    GroupPresentation,
    Pushout,
    Span,
    check_pushout_universal,
    morphism_count,
    pushout,
    tietze_simplify,
    vertex_group,
)
from gpdkit.words import ArrowGen, Word, generator_word

from reference import morphism_signature

BATTERY = standard_battery()
S3 = BATTERY[3]
C3 = BATTERY[2]


def circle_span():
    apex = discrete_presentation("apex01", ("0", "1"))
    arc1 = GroupoidPresentation("arc1", ("0", "1"), (ArrowGen("a", "0", "1"),))
    arc2 = GroupoidPresentation("arc2", ("0", "1"), (ArrowGen("b", "0", "1"),))
    ident = {"0": "0", "1": "1"}
    return Span(
        apex,
        GroupoidMorphism("l", apex, arc1, dict(ident), {}),
        GroupoidMorphism("r", apex, arc2, dict(ident), {}),
    )


def wedge_span():
    pt = discrete_presentation("pt", ("p",))
    px = GroupoidPresentation("px", ("p",), (ArrowGen("x", "p", "p"),))
    py = GroupoidPresentation("py", ("p",), (ArrowGen("y", "p", "p"),))
    return Span(
        pt,
        GroupoidMorphism("wl", pt, px, {"p": "p"}, {}),
        GroupoidMorphism("wr", pt, py, {"p": "p"}, {}),
    )


def test_span_validation():
    apex = discrete_presentation("apex", ("0",))
    other = discrete_presentation("other", ("0",))
    target = GroupoidPresentation("t", ("0",))
    leg = GroupoidMorphism("leg", other, target, {"0": "0"}, {})
    with pytest.raises(InvalidSpan):
        Span(apex, leg, leg)


def test_circle_pushout_shape():
    po = pushout(circle_span(), name="circle")
    assert sorted(po.presentation.objects) == ["0", "1"]
    assert sorted(g.name for g in po.presentation.generators) == ["a", "b"]
    assert po.presentation.relations == ()


def test_circle_universal_property_counts():
    span = circle_span()
    po = pushout(span)
    expected = {"triv": 1, "c2": 4, "c3": 9, "s3": 36}
    for f in BATTERY:
        verdict = check_pushout_universal(span, po, f)
        assert verdict.ok
        assert verdict.candidate_count == verdict.pair_count == expected[f.name]


def test_wrong_candidate_detected():
    span = circle_span()
    po = pushout(span)
    p = po.presentation
    a, b = p.generator("a"), p.generator("b")
    bad_pres = GroupoidPresentation(
        "bad", p.objects, p.generators,
        p.relations + ((generator_word(a), generator_word(b)),),
    )
    bad = Pushout(
        bad_pres,
        GroupoidMorphism(
            "bl", span.left.codomain, bad_pres, {"0": "0", "1": "1"},
            {"a": generator_word(bad_pres.generator("a"))},
        ),
        GroupoidMorphism(
            "br", span.right.codomain, bad_pres, {"0": "0", "1": "1"},
            {"b": generator_word(bad_pres.generator("b"))},
        ),
    )
    verdict = check_pushout_universal(span, bad, S3)
    assert not verdict.ok
    assert (verdict.candidate_count, verdict.pair_count) == (6, 36)


def test_trivial_target_counts_one():
    span = circle_span()
    verdict = check_pushout_universal(span, pushout(span), BATTERY[0])
    assert verdict.ok and verdict.candidate_count == 1


def test_pushout_symmetry_up_to_renaming():
    span = circle_span()
    swapped = Span(span.apex, span.right, span.left)
    assert morphism_signature(pushout(span).presentation, BATTERY) == \
        morphism_signature(pushout(swapped).presentation, BATTERY)


def test_pushout_along_identity_is_isomorphic_copy():
    arc = GroupoidPresentation("arc", ("0", "1"), (ArrowGen("a", "0", "1"),))
    ident = GroupoidMorphism(
        "id", arc, arc, {"0": "0", "1": "1"}, {"a": generator_word(arc.generator("a"))}
    )
    po = pushout(Span(arc, ident, ident))
    assert morphism_signature(po.presentation, BATTERY) == morphism_signature(arc, BATTERY)


def test_wedge_pushout_free_of_rank_two():
    po = pushout(wedge_span(), name="wedge")
    assert sorted(g.name for g in po.presentation.generators) == ["x", "y"]
    assert po.presentation.relations == ()
    assert morphism_count(po.presentation, S3) == 36
    vg = tietze_simplify(vertex_group(po.presentation, "p"))
    assert len(vg.generators) == 2 and not vg.relators
    assert morphism_count(vg, S3) == 36


def test_circle_vertex_group():
    po = pushout(circle_span(), name="circle")
    vg = vertex_group(po.presentation, "0")
    assert vg.generators == ("x_b",)
    assert vg.relators == ()
    assert morphism_count(vg, C3) == 3
    assert morphism_count(vg, S3) == 6


def test_interval_vertex_group_trivial():
    from gpdkit.presentations import interval_groupoid

    iv = interval_groupoid()
    vg = tietze_simplify(vertex_group(iv, "0"))
    assert vg.generators == () and vg.relators == ()


def test_vertex_group_tree_independence():
    po = pushout(circle_span(), name="circle")
    p = po.presentation
    trees = [{p.generator("a")}, {p.generator("b")}]
    signatures = {
        morphism_signature(tietze_simplify(vertex_group(p, "0", t)), BATTERY)
        for t in trees
    }
    assert len(signatures) == 1


def test_tietze_moves():
    gp = GroupPresentation("ex", ("x", "t"), ((("t", 1),),))
    out = tietze_simplify(gp)
    assert out.generators == ("x",) and out.relators == ()
    gp2 = GroupPresentation("ex2", ("x",), ((("x", 1), ("x", -1)),))
    out2 = tietze_simplify(gp2)
    assert out2.generators == ("x",) and out2.relators == ()


def test_tietze_preserves_morphism_counts():
    gp = GroupPresentation(
        "d3",
        ("r", "s", "t"),
        (
            (("r", 1),) * 3,
            (("s", 1),) * 2,
            (("s", 1), ("r", 1), ("s", 1), ("r", 1)),
            (("t", 1),),
        ),
    )
    out = tietze_simplify(gp)
    assert "t" not in out.generators
    assert morphism_signature(gp, BATTERY) == morphism_signature(out, BATTERY)


def test_vertex_group_relations_rewrite():
    # one loop forced to have order 2 by a relation
    a = ArrowGen("a", "0", "1")
    b = ArrowGen("b", "0", "1")
    rel = (
        Word("0", ((a, 1), (b, -1), (a, 1), (b, -1))),
        Word("0", ()),
    )
    p = GroupoidPresentation("lens2", ("0", "1"), (a, b), (rel,))
    vg = tietze_simplify(vertex_group(p, "0"))
    # x_b^-2 = 1 after retraction: morphisms into c3 see only the identity
    assert morphism_count(vg, C3) == 1
    assert morphism_count(vg, BATTERY[1]) == 2


def test_pushout_warns_on_unreached_component():
    import warnings as _w

    apex = discrete_presentation("apex", ("0",))
    big = GroupoidPresentation("big", ("0", "9"))  # 9 is its own component
    leg = GroupoidMorphism("leg", apex, big, {"0": "0"}, {})
    with pytest.warns(UserWarning, match="not meeting the apex"):
        pushout(Span(apex, leg, leg))
    with _w.catch_warnings():
        _w.simplefilter("error")
        pushout(circle_span())  # connected legs stay silent


def test_wedge_universal_property():
    span = wedge_span()
    po = pushout(span)
    for f in BATTERY:
        verdict = check_pushout_universal(span, po, f)
        assert verdict.ok
    v = check_pushout_universal(span, po, S3)
    assert v.candidate_count == 36


def test_tietze_idempotent_on_reduced_presentations():
    po = pushout(circle_span(), name="circle")
    vg = vertex_group(po.presentation, "0")
    assert tietze_simplify(vg) == vg
    assert morphism_count(tietze_simplify(vg), S3) == 6


def test_vertex_group_ignores_other_components():
    a = ArrowGen("a", "0", "1")
    c = ArrowGen("c", "8", "8")
    rel = (Word("8", ((c, 1), (c, 1))), Word("8", ()))
    p = GroupoidPresentation("split", ("0", "1", "8"), (a, c), (rel,))
    vg = vertex_group(p, "0", {a})
    assert vg.generators == ()
    assert vg.relators == ()
