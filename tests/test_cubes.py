import itertools
import random

import pytest

from gpdkit.crossed import CrossedModuleData, automorphism_xmod
from gpdkit.cubes import (
    EDGE_SEAMS,
    FACE_SLOTS,
    Cube,
    commutativity_oracle,
    compose_cubes,
    enumerate_cubes,
    fold_five_faces,
    fold_layout,
    is_commutative_cube,
    make_cube,
    random_commutative_cube,
    random_cube,
)
from gpdkit.errors import EdgeMismatch, PreconditionFailed
from gpdkit.finite import cyclic_group, group_as_groupoid, trivial_group
from gpdkit.grids import grid_compose
from gpdkit.squares import Square, comp_h, comp_v, identity_square


def shadow_module():
    """Nontrivial kernel: a cyclic fiber over the one-point base."""
    c3 = cyclic_group(3)
    return CrossedModuleData(
        "c3shadow",
        group_as_groupoid(trivial_group(), name="pt"),
        {"*": c3},
        {"*": {x: "e" for x in c3.elements}},
        {(x, "e"): x for x in c3.elements},
    )


def identity_cube(xm, obj="*"):
    e = identity_square(xm, obj)
    return make_cube(e, e, e, e, e, e)


def test_seam_table_covers_each_edge_twice():
    # every (slot, edge) pair occurs exactly once across the twelve seams
    slots = [(s, e) for seam in EDGE_SEAMS for (s, e) in seam]
    assert len(slots) == 24
    assert len(set(slots)) == 24
    assert {s for s, _ in slots} == set(FACE_SLOTS)


def test_identity_cube_is_commutative(a3s3):
    c = identity_cube(a3s3)
    assert fold_five_faces(c) == identity_square(a3s3, "*")
    assert is_commutative_cube(c)
    assert commutativity_oracle(c)


def test_cube_requires_matching_seams(a3s3, a3s3_model):
    c = random_commutative_cube(a3s3_model, random.Random(3))
    faces = dict(c.faces)
    other = next(
        s for s in a3s3_model.squares if s.left != faces["d3+"].left
    )
    faces["d3+"] = other
    with pytest.raises(EdgeMismatch):
        Cube(faces)


def test_enumerate_c2_cubes(sq_c2):
    cubes = list(enumerate_cubes(sq_c2))
    assert len(cubes) == 128
    # oracle: edge assignments satisfying all six face words in the
    # two-element group; the face-word equations have rank 5 over GF(2)
    edges = list(itertools.product((0, 1), repeat=12))
    (E100, E101, E110, E111, E200, E201, E210, E211, E300, E301, E310, E311) = range(12)
    face_edges = [
        (E300, E201, E301, E200),  # lid: top,right,bottom,left
        (E310, E211, E311, E210),  # base
        (E300, E101, E310, E100),  # west
        (E301, E111, E311, E110),  # east
        (E200, E110, E210, E100),  # front
        (E201, E111, E211, E101),  # back
    ]
    count = sum(
        1
        for assign in edges
        if all(
            (assign[t] + assign[r] + assign[b] + assign[l]) % 2 == 0
            for t, r, b, l in face_edges
        )
    )
    assert count == 128


def test_all_c2_cubes_commutative(sq_c2):
    for c in enumerate_cubes(sq_c2):
        assert is_commutative_cube(c)
        assert commutativity_oracle(c)


def test_compose_cubes_all_directions(sq_c2):
    cubes = list(enumerate_cubes(sq_c2))
    slot = {1: ("d1+", "d1-"), 2: ("d2+", "d2-"), 3: ("d3+", "d3-")}
    composed = 0
    for d in (1, 2, 3):
        plus, minus = slot[d]
        for c1, c2 in itertools.product(cubes, repeat=2):
            if c1.face(plus) != c2.face(minus):
                continue
            comp = compose_cubes(c1, c2, d)
            composed += 1
            assert is_commutative_cube(comp)
    assert composed > 0


def test_compose_rejects_mismatched(sq_c2):
    cubes = list(enumerate_cubes(sq_c2))
    c1 = cubes[0]
    c2 = next(c for c in cubes if c.face("d3-") != c1.face("d3+"))
    with pytest.raises(EdgeMismatch):
        compose_cubes(c1, c2, 3)
    with pytest.raises(PreconditionFailed):
        compose_cubes(c1, c1, 4)


def test_sampled_lambda_composites_commutative(a3s3_model):
    rng = random.Random(21)
    for d in (1, 2, 3):
        for _ in range(30):
            if d == 1:
                lower = random_commutative_cube(a3s3_model, rng)
                upper = random_commutative_cube(
                    a3s3_model, rng, fixed=("d1+", lower.face("d1-"))
                )
                comp = compose_cubes(upper, lower, 1)
            elif d == 2:
                c1 = random_commutative_cube(a3s3_model, rng)
                c2 = random_commutative_cube(
                    a3s3_model, rng, fixed=("d2-", c1.face("d2+"))
                )
                comp = compose_cubes(c1, c2, 2)
            else:
                c1 = random_commutative_cube(a3s3_model, rng)
                c2 = random_commutative_cube(
                    a3s3_model, rng, fixed=("d3-", c1.face("d3+"))
                )
                comp = compose_cubes(c1, c2, 3)
            assert is_commutative_cube(comp)
            assert commutativity_oracle(comp)


def test_oracle_agrees_on_lambda_models(a3s3_model, aut_s3_model):
    rng = random.Random(22)
    for model in (a3s3_model, aut_s3_model):
        for _ in range(50):
            c = random_cube(model, rng)
            assert commutativity_oracle(c) == is_commutative_cube(c)


def test_five_identity_faces_nonthin_lid():
    xm = shadow_module()
    e = identity_square(xm, "*")
    lid = Square(xm, "t", "e", "e", "e", "e")
    cube = make_cube(lid, e, e, e, e, e)
    assert not is_commutative_cube(cube)
    assert fold_five_faces(cube) == e


def test_perturbed_face_detected(a3s3, a3s3_model):
    c = random_commutative_cube(a3s3_model, random.Random(23))
    front = c.face("d3-")
    other_elt = next(
        m for m in a3s3.fibers["*"].elements if m != front.elt
    )
    fake = Square(a3s3, other_elt, front.top, front.right, front.bottom, front.left)
    perturbed = make_cube(
        c.face("d1-"), c.face("d1+"), c.face("d2-"), c.face("d2+"), fake, c.face("d3+")
    )
    assert not is_commutative_cube(perturbed)


def test_oracle_needs_one_object(a3s3):
    from gpdkit.crossed import trivial_crossed_module
    from gpdkit.finite import interval_finite_groupoid

    xm = trivial_crossed_module(interval_finite_groupoid())
    c = identity_cube(xm, "0")
    assert is_commutative_cube(c)
    with pytest.raises(PreconditionFailed):
        commutativity_oracle(c)


def test_oracle_needs_an_injective_boundary():
    xm = automorphism_xmod(cyclic_group(3))  # trivial boundary on a 3-element fiber
    c = identity_cube(xm)
    assert is_commutative_cube(c)
    with pytest.raises(PreconditionFailed):
        commutativity_oracle(c)


# -- the hand-written geometry that EDGE_SEAMS and the orientation rule replace --

def _reference_pick(rng, options):
    if not options:
        raise PreconditionFailed("no square matches the edge constraints")
    return options[rng.randrange(len(options))]


def reference_compose_cubes(c1, c2, direction):
    if direction == 1:
        if c1.face("d1+") != c2.face("d1-"):
            raise EdgeMismatch("direction-1 pasting needs base(c1) = lid(c2)")
        return make_cube(
            c1.face("d1-"),
            c2.face("d1+"),
            comp_v(c1.face("d2-"), c2.face("d2-")),
            comp_v(c1.face("d2+"), c2.face("d2+")),
            comp_v(c1.face("d3-"), c2.face("d3-")),
            comp_v(c1.face("d3+"), c2.face("d3+")),
        )
    if direction == 2:
        if c1.face("d2+") != c2.face("d2-"):
            raise EdgeMismatch("direction-2 pasting needs right(c1) = left(c2)")
        return make_cube(
            comp_v(c1.face("d1-"), c2.face("d1-")),
            comp_v(c1.face("d1+"), c2.face("d1+")),
            c1.face("d2-"),
            c2.face("d2+"),
            comp_h(c1.face("d3-"), c2.face("d3-")),
            comp_h(c1.face("d3+"), c2.face("d3+")),
        )
    if direction == 3:
        if c1.face("d3+") != c2.face("d3-"):
            raise EdgeMismatch("direction-3 pasting needs back(c1) = front(c2)")
        return make_cube(
            comp_h(c1.face("d1-"), c2.face("d1-")),
            comp_h(c1.face("d1+"), c2.face("d1+")),
            comp_h(c1.face("d2-"), c2.face("d2-")),
            comp_h(c1.face("d2+"), c2.face("d2+")),
            c1.face("d3-"),
            c2.face("d3+"),
        )
    raise PreconditionFailed(f"direction must be 1, 2 or 3, got {direction}")


def reference_enumerate_cubes(model):
    for front in model.squares:
        for left in model.squares_with(left=front.left):
            for base in model.squares_with(top=left.bottom, left=front.bottom):
                for right in model.squares_with(left=front.right, bottom=base.bottom):
                    for back in model.squares_with(
                        left=left.right, bottom=base.right, right=right.right
                    ):
                        for lid in model.squares_with(
                            top=left.top, left=front.top,
                            bottom=right.top, right=back.top,
                        ):
                            yield make_cube(lid, base, left, right, front, back)


def reference_random_commutative_cube(model, rng, fixed=None):
    slot = fixed[0] if fixed else None
    if fixed and slot not in ("d3-", "d2-", "d1+"):
        raise PreconditionFailed(f"cannot pin face {slot!r} while sampling")
    if slot == "d1+":
        base = fixed[1]
        front = _reference_pick(rng, model.squares_with(bottom=base.left))
        left = _reference_pick(rng, model.squares_with(left=front.left, bottom=base.top))
        right = _reference_pick(rng, model.squares_with(left=front.right, bottom=base.bottom))
        back = _reference_pick(
            rng,
            model.squares_with(left=left.right, right=right.right, bottom=base.right),
        )
    else:
        if slot == "d3-":
            front = fixed[1]
            left = _reference_pick(rng, model.squares_with(left=front.left))
        elif slot == "d2-":
            left = fixed[1]
            front = _reference_pick(rng, model.squares_with(left=left.left))
        else:
            front = model.random_square(rng)
            left = _reference_pick(rng, model.squares_with(left=front.left))
        base = _reference_pick(rng, model.squares_with(top=left.bottom, left=front.bottom))
        right = _reference_pick(rng, model.squares_with(left=front.right, bottom=base.bottom))
        back = _reference_pick(
            rng,
            model.squares_with(left=left.right, bottom=base.right, right=right.right),
        )
    faces = {"d1+": base, "d2-": left, "d2+": right, "d3-": front, "d3+": back}
    lid = grid_compose(fold_layout(faces))
    if lid not in model:
        raise PreconditionFailed("fold escaped the model; sampling bug")
    return make_cube(lid, base, left, right, front, back)


def reference_random_cube(model, rng):
    cube = reference_random_commutative_cube(model, rng)
    lid = cube.face("d1-")
    options = model.squares_with(
        top=lid.top, right=lid.right, bottom=lid.bottom, left=lid.left
    )
    return make_cube(
        _reference_pick(rng, options),
        cube.face("d1+"),
        cube.face("d2-"),
        cube.face("d2+"),
        cube.face("d3-"),
        cube.face("d3+"),
    )


def face_keys(c):
    return tuple(c.face(slot).key() for slot in FACE_SLOTS)


@pytest.mark.parametrize("model_name", ["sq_c2", "c2_in_c2_model"])
def test_enumeration_matches_the_reference(model_name, request):
    model = request.getfixturevalue(model_name)
    got = [face_keys(c) for c in enumerate_cubes(model)]
    assert got == [face_keys(c) for c in reference_enumerate_cubes(model)]
    assert len(got) > 0


def _draws(model, seed, random_commutative_cube, random_cube):
    """Seeded face keys of unpinned draws, a draw for each pin, and random_cube."""
    rng = random.Random(seed)
    keys = []
    for _ in range(40):
        c = random_commutative_cube(model, rng)
        keys.append(face_keys(c))
        for slot in ("d3-", "d2-", "d1+"):
            keys.append(face_keys(random_commutative_cube(model, rng, fixed=(slot, c.face(slot)))))
        keys.append(face_keys(random_cube(model, rng)))
    return keys


@pytest.mark.parametrize("model_name", ["sq_s3", "aut_c3_model", "a3s3_model", "aut_s3_model"])
def test_seeded_draws_match_the_reference(model_name, request):
    model = request.getfixturevalue(model_name)
    assert _draws(model, 8, random_commutative_cube, random_cube) == _draws(
        model, 8, reference_random_commutative_cube, reference_random_cube
    )


def _outcome(compose, c1, c2, d):
    try:
        return face_keys(compose(c1, c2, d))
    except (EdgeMismatch, PreconditionFailed) as exc:
        return type(exc)


def test_every_composite_matches_the_reference(sq_c2):
    cubes = list(enumerate_cubes(sq_c2))
    pasted = 0
    for d in (1, 2, 3, 4):
        for c1, c2 in itertools.product(cubes, repeat=2):
            got = _outcome(compose_cubes, c1, c2, d)
            assert got == _outcome(reference_compose_cubes, c1, c2, d)
            pasted += not isinstance(got, type)
    assert pasted == 3 * 2048
