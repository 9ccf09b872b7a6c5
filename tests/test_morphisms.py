import importlib.resources as resources
import itertools

import pytest

from gpdkit.errors import EndpointMismatch, InvalidMorphism
from gpdkit.finite import (
    group_as_groupoid,
    interval_finite_groupoid,
    standard_battery,
    symmetric_group,
)
from gpdkit.morphisms import (
    GroupoidMorphism,
    compose_morphisms,
    enumerate_morphisms,
    evaluate,
)
from gpdkit.presentations import GroupoidPresentation, interval_groupoid
from gpdkit.textfmt import parse_workspace
from gpdkit.vkt import pushout
from gpdkit.words import ArrowGen, Word, free_reduce, generator_word

from reference import identity_morphism


def one_object_free(name, gen_names):
    gens = tuple(ArrowGen(g, "*", "*") for g in gen_names)
    return GroupoidPresentation(name, ("*",), gens)


def x_squared():
    x = ArrowGen("x", "*", "*")
    rel = (Word("*", ((x, 1), (x, 1))), Word("*", ()))
    return GroupoidPresentation("xx", ("*",), (x,), (rel,))


def brute_force_assignments(p, f):
    """Oracle: re-derive every morphism by raw product enumeration."""
    objects = sorted(p.objects)
    gens = sorted(p.generators, key=lambda g: g.name)
    found = []
    for obj_images in itertools.product(sorted(f.objects), repeat=len(objects)):
        omap = dict(zip(objects, obj_images))
        pools = [
            [a for a in sorted(f.arrows)
             if f.src[a] == omap[g.src] and f.dst[a] == omap[g.dst]]
            for g in gens
        ]
        for images in itertools.product(*pools):
            gmap = dict(zip((g.name for g in gens), images))
            ok = True
            for lhs, rhs in p.relations:
                vals = []
                for w in (lhs, rhs):
                    acc = f.id_at(omap[w.base])
                    for gen, exp in w.letters:
                        arrow = gmap[gen.name] if exp == 1 else f.inv(gmap[gen.name])
                        acc = f.compose(acc, arrow)
                    vals.append(acc)
                if vals[0] != vals[1]:
                    ok = False
                    break
            if ok:
                found.append((tuple(sorted(omap.items())), tuple(sorted(gmap.items()))))
    return found


def test_identity_morphism_evaluates_to_reduction():
    iv = interval_groupoid()
    m = identity_morphism(iv)
    gen = iv.generators[0]
    w = Word("0", ((gen, 1), (gen, -1)))
    assert evaluate(m, w) == free_reduce(w)


def test_evaluate_into_presentation():
    iv = interval_groupoid()
    t = ArrowGen("t", "*", "*")
    cinf = GroupoidPresentation("cinf", ("*",), (t,))
    u = GroupoidMorphism("u", iv, cinf, {"0": "*", "1": "*"}, {"i": generator_word(t)})
    assert evaluate(u, generator_word(iv.generators[0])) == generator_word(t)


def test_evaluate_into_finite_groupoid():
    iv = interval_groupoid()
    s3 = group_as_groupoid(symmetric_group(3), name="s3")
    m = GroupoidMorphism("m", iv, s3, {"0": "*", "1": "*"}, {"i": "(12)"})
    gen = iv.generators[0]
    w = Word("0", ((gen, 1), (gen, -1)))
    assert evaluate(m, w) == "e"


def test_morphism_validation():
    iv = interval_groupoid()
    s3 = group_as_groupoid(symmetric_group(3), name="s3")
    with pytest.raises(InvalidMorphism):
        GroupoidMorphism("bad", iv, s3, {"0": "*"}, {"i": "(12)"})
    with pytest.raises(InvalidMorphism):
        GroupoidMorphism("bad", iv, s3, {"0": "*", "1": "*"}, {"i": "nope"})
    ivf = interval_finite_groupoid()
    with pytest.raises(EndpointMismatch):
        GroupoidMorphism("bad", iv, ivf, {"0": "0", "1": "1"}, {"i": "id0"})
    # relation violation against a finite codomain is rejected at build time
    with pytest.raises(InvalidMorphism):
        GroupoidMorphism(
            "bad", x_squared(), s3, {"*": "*"}, {"x": "(123)"}
        )


def test_enumeration_counts():
    s3 = group_as_groupoid(symmetric_group(3), name="s3")
    assert len(enumerate_morphisms(one_object_free("free1", ["x"]), s3)) == 6
    assert len(enumerate_morphisms(interval_groupoid(), s3)) == 6
    assert len(enumerate_morphisms(x_squared(), s3)) == 4


def test_enumeration_matches_brute_force_oracle():
    s3 = group_as_groupoid(symmetric_group(3), name="s3")
    ivf = interval_finite_groupoid()
    for p in (one_object_free("free2", ["x", "y"]), x_squared(), interval_groupoid()):
        for f in (s3, ivf):
            ours = [
                (tuple(sorted(m.object_map.items())), tuple(sorted(m.gen_map.items())))
                for m in enumerate_morphisms(p, f)
            ]
            assert ours == sorted(brute_force_assignments(p, f)) or ours == brute_force_assignments(p, f)
            assert sorted(ours) == sorted(brute_force_assignments(p, f))


def assignment(m):
    return tuple(sorted(m.object_map.items())), tuple(sorted(m.gen_map.items()))


@pytest.mark.parametrize("workspace", ["circle.vk", "wedge.vk"])
def test_enumerated_morphisms_pass_the_public_constructor(workspace):
    """Enumeration skips the constructor's checks; each result must still pass them."""
    path = resources.files("gpdkit").joinpath("data", workspace)
    (span,) = parse_workspace([str(path)]).spans.values()
    p = pushout(span).presentation
    for f in standard_battery():
        found = enumerate_morphisms(p, f)
        rebuilt = [GroupoidMorphism(m.name, m.domain, m.codomain, m.object_map, m.gen_map)
                   for m in found]
        assert [(m.name, m.canonical()) for m in rebuilt] == [(m.name, m.canonical()) for m in found]
        assert sorted(map(assignment, found)) == sorted(brute_force_assignments(p, f))
        # two generators, no relations, one-object targets: |G|^2 morphisms
        assert len(found) == {"triv": 1, "c2": 4, "c3": 9, "s3": 36}[f.name]


def test_enumeration_is_deterministic():
    s3 = group_as_groupoid(symmetric_group(3), name="s3")
    p = one_object_free("free3", ["x", "y"])
    first = [m.canonical() for m in enumerate_morphisms(p, s3)]
    second = [m.canonical() for m in enumerate_morphisms(p, s3)]
    assert first == second


def test_evaluate_respects_composition_for_all_enumerated():
    s3 = group_as_groupoid(symmetric_group(3), name="s3")
    p = x_squared()
    x = p.generators[0]
    w1 = Word("*", ((x, 1),))
    w2 = Word("*", ((x, -1), (x, 1)))
    for m in enumerate_morphisms(p, s3):
        assert evaluate(m, w1 * w2) == s3.compose(evaluate(m, w1), evaluate(m, w2))
        assert evaluate(m, ~w1) == s3.inv(evaluate(m, w1))


def test_compose_morphisms():
    iv = interval_groupoid()
    t = ArrowGen("t", "*", "*")
    cinf = GroupoidPresentation("cinf", ("*",), (t,))
    u = GroupoidMorphism("u", iv, cinf, {"0": "*", "1": "*"}, {"i": generator_word(t)})
    s3 = group_as_groupoid(symmetric_group(3), name="s3")
    v = GroupoidMorphism("v", cinf, s3, {"*": "*"}, {"t": "(123)"})
    uv = compose_morphisms(u, v)
    assert evaluate(uv, generator_word(iv.generators[0])) == "(123)"


def test_evaluate_functorial_across_battery():
    import random as _random

    from gpdkit.finite import standard_battery
    from gpdkit.words import letter_dst, letter_src

    presentations = [one_object_free("fx", ["x", "y"]), x_squared(), interval_groupoid()]
    rng = _random.Random(9)
    for p in presentations:
        gens = list(p.generators)
        for f in standard_battery():
            for m in enumerate_morphisms(p, f):
                for _ in range(5):
                    base = sorted(p.objects)[rng.randrange(len(p.objects))]
                    letters, at = [], base
                    for _ in range(rng.randrange(0, 6)):
                        options = [
                            (g, e) for g in gens for e in (1, -1)
                            if letter_src((g, e)) == at
                        ]
                        if not options:
                            break
                        letters.append(options[rng.randrange(len(options))])
                        at = letter_dst(letters[-1])
                    w = Word(base, tuple(letters))
                    cut = rng.randrange(0, len(letters) + 1)
                    w1 = Word(base, tuple(letters[:cut]))
                    w2 = Word(w1.end, tuple(letters[cut:]))
                    assert evaluate(m, w) == f.compose(evaluate(m, w1), evaluate(m, w2))
                    assert evaluate(m, ~w) == f.inv(evaluate(m, w))


def test_evaluate_unknown_generator():
    from gpdkit.errors import UndefinedGenerator

    iv = interval_groupoid()
    s3 = group_as_groupoid(symmetric_group(3), name="s3")
    m = GroupoidMorphism("m", iv, s3, {"0": "*", "1": "*"}, {"i": "(12)"})
    t = ArrowGen("t", "p", "p")
    wrap = GroupoidMorphism("wrap", iv, GroupoidPresentation("cinf", ("p",), (t,)),
                            {"0": "p", "1": "p"}, {"i": Word("p", ((t, 1),))})
    # an unknown name, and i's name on other endpoints: i.i^-1 would cancel
    for foreign in (ArrowGen("zz", "0", "0"), ArrowGen("i", "1", "1")):
        for f in (m, wrap):
            with pytest.raises(UndefinedGenerator, match=f"{foreign} is not a generator of interval"):
                evaluate(f, Word(foreign.src, ((foreign, 1), (foreign, -1))))
