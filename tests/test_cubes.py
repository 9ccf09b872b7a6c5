import itertools
import random
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from gpdkit.crossed import CrossedModuleData, automorphism_xmod
from gpdkit.cubes import (
    EDGE_SEAMS,
    FACE_SLOTS,
    Cube,
    commutativity_oracle,
    compose_cubes,
    CubeKernel,
    enumerate_cubes,
    fold_five_faces,
    fold_layout,
    is_commutative_cube,
    make_cube,
    random_commutative_cube,
    random_cube,
)
from gpdkit.dgt import SquareTables
from gpdkit.errors import EdgeMismatch, GpdError, PreconditionFailed, SizeLimit
from gpdkit.finite import cyclic_group, group_as_groupoid, trivial_group
from gpdkit.grids import grid_compose
from gpdkit.squares import Square, comp_h, comp_v, conn_plus, identity_square, transpose
from gpdkit.suite import _s3_draws
from reference import reference_below


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
    k = CubeKernel(sq_c2)
    cubes = k.enumerate()
    composed = 0
    for d in (1, 2, 3):
        i, j = k.pairs(cubes, d)
        comp = k.compose(cubes[i], cubes[j], d)
        composed += len(comp)
        assert (k.fold(comp) == comp[:, 0]).all()
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


def test_oracle_needs_a_valid_module(a3s3):
    from gpdkit.crossed import perturb_action_entry

    c = identity_cube(perturb_action_entry(a3s3, random.Random(0)))
    with pytest.raises(PreconditionFailed, match="needs a valid crossed module"):
        commutativity_oracle(c)


# -- the hand-written geometry that EDGE_SEAMS and the orientation rule replace --

def _reference_picks(rng, options):
    """One member of each list of ``options``, by one ``reference_below``
    over their lengths; PreconditionFailed, before any draw, on an empty one."""
    if not all(options):
        raise PreconditionFailed("no square matches the edge constraints")
    return [o[k] for o, k in zip(options, reference_below(rng, [len(o) for o in options]))]


def _reference_pick(rng, options):
    return _reference_picks(rng, [options])[0]


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
            front = _reference_pick(rng, model.squares)
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


@pytest.mark.parametrize("slot", ["d2+", "d3+", "d1-"])
def test_a_face_that_cannot_be_pinned_is_refused_before_any_draw(slot, sq_s3):
    rng = random.Random(3)
    state = rng.getstate()
    face = random_commutative_cube(sq_s3, random.Random(3)).face(slot)
    with pytest.raises(PreconditionFailed, match=rf"^cannot pin face '{re.escape(slot)}' while sampling$"):
        random_commutative_cube(sq_s3, rng, fixed=(slot, face))
    assert rng.getstate() == state


@pytest.mark.parametrize("model_name", ["sq_s3", "aut_c3_model", "a3s3_model", "aut_s3_model"])
def test_seeded_draws_match_the_reference(model_name, request):
    model = request.getfixturevalue(model_name)
    assert _draws(model, 8, random_commutative_cube, random_cube) == _draws(
        model, 8, reference_random_commutative_cube, reference_random_cube
    )


# per non-lid face, its edges shared with the other non-lid faces:
# (edge, other face, the other face's edge)
_FACE_SEAMS = {
    "d3-": (("left", "d2-", "left"), ("right", "d2+", "left"), ("bottom", "d1+", "left")),
    "d2-": (("left", "d3-", "left"), ("right", "d3+", "left"), ("bottom", "d1+", "top")),
    "d1+": (("top", "d2-", "bottom"), ("left", "d3-", "bottom"), ("right", "d3+", "bottom"),
            ("bottom", "d2+", "bottom")),
    "d2+": (("left", "d3-", "right"), ("right", "d3+", "right"), ("bottom", "d1+", "bottom")),
    "d3+": (("left", "d2-", "right"), ("right", "d2+", "right"), ("bottom", "d1+", "right")),
}
_DRAW_ORDER = ("d3-", "d2-", "d1+", "d2+", "d3+")


def _drawn(k, rng, *pins):
    """One commutative cube, ``k.fill`` on one row with ``pins``, (slot,
    square index) pairs, given."""
    row = np.full((1, 6), -1, np.intp)
    for slot, i in pins:
        row[0, FACE_SLOTS.index(slot)] = i
    return k.fill(rng, row, tuple(slot for slot, _ in pins))[0]


def reference_fill(model, rng, cubes):
    """Complete each cube, a dict of its given faces, slot-major: per face
    in draw order, one pick for every cube without it among the squares
    whose seams fit the faces placed so far, all by one ``reference_below``;
    then every lid folded."""
    for slot in _DRAW_ORDER:
        todo = [faces for faces in cubes if slot not in faces]
        options = [model.squares_with(**{e: getattr(faces[o], oe) for e, o, oe in _FACE_SEAMS[slot]
                                         if o in faces}) for faces in todo]
        for faces, square in zip(todo, _reference_picks(rng, options)):
            faces[slot] = square
    for faces in cubes:
        faces["d1-"] = grid_compose(fold_layout(faces))
    return [make_cube(*(faces[slot] for slot in FACE_SLOTS)) for faces in cubes]


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_criterion_8_draws_match_the_reference(seed, sq_s3):
    """Criterion 8's rounds, drawn by the kernel, against the same steps
    drawn object-level: every direction, then the first cubes face by face,
    then per direction the second cubes face by face, pinned on the face
    they share with the first (in direction 1, the first cube's lid)."""
    d, pairs = _s3_draws(CubeKernel(sq_s3), seed)
    rng = random.Random(seed)
    want_d = [k + 1 for k in reference_below(rng, [3] * 1000)]
    first = reference_fill(sq_s3, rng, [{} for _ in want_d])
    want = [None] * len(want_d)
    for e in (1, 2, 3):
        rounds = [k for k, x in enumerate(want_d) if x == e]
        if e == 1:
            second = reference_fill(sq_s3, rng, [{"d1+": first[k].face("d1-")} for k in rounds])
        else:
            second = reference_fill(sq_s3, rng, [{f"d{e}-": first[k].face(f"d{e}+")}
                                                 for k in rounds])
        for k, c in zip(rounds, second):
            want[k] = (c, first[k]) if e == 1 else (first[k], c)
    assert d.tolist() == want_d
    assert pairs.tolist() == [rows_of(sq_s3, cubes).tolist() for cubes in want]


def test_a_batch_row_with_no_fitting_square_raises_as_the_object_draw_does(sq_s3):
    # without the squares whose bottom is x, a base with left edge x leaves
    # the front nothing to fit; the identity square leaves every face a fit
    P = sq_s3.edges
    x = next(a for a in sorted(P.arrows) if not P.is_identity(a))
    hollow = replace(sq_s3, squares=tuple(s for s in sq_s3.squares if s.bottom != x))
    stuck = next(s for s in hollow.squares if s.left == x)
    free = identity_square(sq_s3.xm, "*")
    k = CubeKernel(hollow)
    for pins in ([free, stuck, free], [stuck]):
        got, want = random.Random(2), random.Random(2)
        rows = np.full((len(pins), 6), -1, np.intp)
        rows[:, FACE_SLOTS.index("d1+")] = [hollow.index[s.key()] for s in pins]
        with pytest.raises(PreconditionFailed, match="^no square matches the edge constraints$"):
            k.fill(got, rows, ("d1+",))
        with pytest.raises(PreconditionFailed, match="^no square matches the edge constraints$"):
            reference_fill(hollow, want, [{"d1+": s} for s in pins])
        # neither side drew anything at the slot whose group is empty
        assert got.getstate() == want.getstate()
    with pytest.raises(PreconditionFailed, match="^no square matches the edge constraints$"):
        random_commutative_cube(hollow, random.Random(2), fixed=("d1+", stuck))


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


# -- the index kernel against the object-level cubes ------------------------------

def rows_of(model, cubes):
    return np.array([[model.index[c.face(slot).key()] for slot in FACE_SLOTS] for c in cubes],
                    np.intp).reshape(-1, 6)


def cubes_of(model, rows):
    return [Cube(dict(zip(FACE_SLOTS, map(model.squares.__getitem__, row)))) for row in rows.tolist()]


def _raised(fn, *args):
    """``fn(*args)``, or the type and text of the GpdError it raised."""
    try:
        return fn(*args)
    except GpdError as exc:
        return type(exc), str(exc)


def assert_kernel_matches(model, cubes):
    """Kernel fold, oracle and seam check against fold_five_faces,
    commutativity_oracle and Cube, on these cubes and on each with one face
    swapped for another square.  Both oracles evaluate one product, so the
    fold is the kernel oracle's independent reference."""
    k, rows = CubeKernel(model), rows_of(model, cubes)
    assert k.fold(rows).tolist() == [model.index[fold_five_faces(c).key()] for c in cubes]
    oracle = [_raised(commutativity_oracle, c) for c in cubes]
    if isinstance(oracle[0], tuple):  # a precondition fails on the whole model
        assert oracle == [oracle[0]] * len(cubes)
        assert _raised(k.oracle, rows) == oracle[0]
    else:
        assert k.oracle(rows).tolist() == oracle
        # the preconditions make fillers unique: the oracle holds iff the fold is the lid
        assert k.oracle(rows).tolist() == (k.fold(rows) == rows[:, 0]).tolist()
    rng = random.Random(len(cubes))
    for c, row in zip(cubes, rows):
        slot = rng.randrange(6)
        other = row.copy()
        other[slot] = rng.randrange(model.size())
        faces = {**c.faces, FACE_SLOTS[slot]: model.squares[other[slot]]}
        want, got = _raised(Cube, faces), _raised(k.seams, other)
        if isinstance(want, tuple):
            assert got == want, faces
        else:
            assert not isinstance(got, tuple) and (got == other).all(), faces


def test_kernel_matches_the_object_level_reference_on_c2(sq_c2):
    cubes = list(enumerate_cubes(sq_c2))
    k, rows = CubeKernel(sq_c2), rows_of(sq_c2, cubes)
    assert_kernel_matches(sq_c2, cubes)
    pasted = 0
    for d in (1, 2, 3):
        i, j = k.pairs(rows, d)
        assert list(zip(i.tolist(), j.tolist())) == [
            (a, b) for a, b in itertools.product(range(len(cubes)), repeat=2)
            if cubes[a].face(f"d{d}+") == cubes[b].face(f"d{d}-")]
        comp = [compose_cubes(cubes[a], cubes[b], d) for a, b in zip(i, j)]
        assert (k.compose(rows[i], rows[j], d) == rows_of(sq_c2, comp)).all()
        assert_kernel_matches(sq_c2, comp)
        pasted += len(comp)
        # a batch holding one pair that does not paste fails as that pair does
        a, b = next((a, b) for a, b in itertools.product(range(len(cubes)), repeat=2)
                    if cubes[a].face(f"d{d}+") != cubes[b].face(f"d{d}-"))
        want = _raised(compose_cubes, cubes[a], cubes[b], d)
        assert _raised(k.compose, rows[[*i[:3], a]], rows[[*j[:3], b]], d) == want
    assert pasted == 6144
    assert _raised(k.compose, rows, rows, 4) == _raised(compose_cubes, cubes[0], cubes[0], 4)


# Aut(S3) is the one model here whose oracle conjugates by an arrow and its
# inverse to different effect (S3 acting on itself), so it tells them apart.
@pytest.mark.parametrize("model_name", ["sq_s3", "c2_in_c2_model", "a3s3_model",
                                        "aut_c3_model", "sq_interval_s3", "aut_s3_model"])
def test_kernel_matches_the_object_level_reference(model_name, request):
    model = request.getfixturevalue(model_name)
    k = CubeKernel(model)
    rng = random.Random(31)
    # 500 commutative cubes with their lids drawn anew, by two fills
    rows = k.fill(rng, k.fill(rng, np.full((500, 6), -1, np.intp)), _DRAW_ORDER)
    cubes = cubes_of(model, rows)
    assert_kernel_matches(model, cubes)
    # each cube pasted to a commutative partner that shares its face, drawn
    # by one pinned fill per direction
    d = np.array([rng.randrange(1, 4) for _ in cubes])
    partners = np.full_like(rows, -1)
    for e in (1, 2, 3):
        pin, shared = ("d1+", "d1-") if e == 1 else (f"d{e}-", f"d{e}+")
        partners[d == e, FACE_SLOTS.index(pin)] = rows[d == e, FACE_SLOTS.index(shared)]
        partners[d == e] = k.fill(rng, partners[d == e], (pin,))
    for c, p, e in zip(cubes, cubes_of(model, partners), d.tolist()):
        c1, c2 = (p, c) if e == 1 else (c, p)
        for a, b in ((c1, c2), (c2, c1)):  # the second pastes only by chance
            want = _raised(compose_cubes, a, b, e)
            got = _raised(k.compose, *rows_of(model, (a, b)), e)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert not isinstance(got, tuple) and got.tolist() == rows_of(model, [want])[0].tolist()


@pytest.mark.parametrize("model_name", ["sq_s3", "aut_c3_model", "sq_interval_s3"])
def test_the_index_map_corners_are_the_fold_layout_corners(model_name, request):
    model = request.getfixturevalue(model_name)
    corners, arrows = model.maps().corners, model.code().names
    rng = random.Random(8)
    for _ in range(200):
        (c00, u, c02), (l, _, _), (c20, d, c22) = fold_layout(random_cube(model, rng).faces).cells
        for k, (corner, p) in enumerate(((c00, u.left), (c02, u.right), (c20, l.bottom),
                                         (c22, d.right))):
            assert corners[k][arrows.index(p)] == model.index[corner.key()]


def test_seam_broken_or_out_of_range_rows_never_fold(sq_s3):
    k = CubeKernel(sq_s3)
    row = _drawn(k, random.Random(4))
    broken = row.copy()
    broken[FACE_SLOTS.index("d3+")] = next(
        i for i, s in enumerate(sq_s3.squares) if s.left != sq_s3.squares[row[5]].left)
    for fn in (k.seams, k.fold, k.oracle):
        with pytest.raises(EdgeMismatch, match=r"^seam d2-\.right = .* does not match d3\+\.left"):
            fn(broken)
    with pytest.raises(EdgeMismatch):
        k.compose(row, broken, 1)
    for bad in ([*row[:5], -1], [*row[:5], sq_s3.size()], row[:5], row.astype(float)):
        with pytest.raises(PreconditionFailed):
            k.fold(np.array(bad))


def test_a_missing_thin_corner_raises_rather_than_folding(sq_s3):
    P = sq_s3.edges
    x = next(a for a in sorted(P.arrows) if not P.is_identity(a))
    corner = sq_s3.index[conn_plus(sq_s3.xm, x).key()]
    hollow = replace(sq_s3, squares=sq_s3.squares[:corner] + sq_s3.squares[corner + 1:])
    # every fold whose left face has left edge x needs conn+(x) in its corner
    left = next(s for s in hollow.squares if s.left == x)
    with pytest.raises(PreconditionFailed):
        random_commutative_cube(hollow, random.Random(5), fixed=("d2-", left))
    rows = CubeKernel(hollow).enumerate()
    assert len(rows)
    with pytest.raises(PreconditionFailed):
        CubeKernel(hollow).fold(rows)


def test_a_minus_one_in_h_raises_rather_than_wrapping(sq_s3):
    k = CubeKernel(sq_s3)
    rng = random.Random(6)
    c1 = _drawn(k, rng)
    c2 = _drawn(k, rng, ("d3-", c1[FACE_SLOTS.index("d3+")]))
    t = sq_s3.tables()
    # the middle row of c1's fold pastes transpose(front) to the base
    front, base = (sq_s3.squares[c1[FACE_SLOTS.index(s)]] for s in ("d3-", "d1+"))
    H = t.H.copy()
    H[sq_s3.index[transpose(front).key()], sq_s3.index[base.key()]] = -1
    # direction 3 pastes the bases horizontally
    H[c1[FACE_SLOTS.index("d1+")], c2[FACE_SLOTS.index("d1+")]] = -1
    planted = replace(sq_s3)
    planted._tables = SquareTables(H, t.V)
    pk = CubeKernel(planted)
    assert k.fold(np.array(c1)) == c1[0]
    with pytest.raises(EdgeMismatch):
        pk.fold(np.array(c1))
    assert k.compose(np.array(c1), np.array(c2), 3).shape == (6,)
    with pytest.raises(EdgeMismatch):
        pk.compose(np.array(c1), np.array(c2), 3)


# -- the cube checks can fail -----------------------------------------------------

def test_c3_in_aut_c3_cubes_exhaustively(aut_c3_model):
    # mu is trivial: every boundary has 3 fillers, so one lid in 3 commutes
    k = CubeKernel(aut_c3_model)
    rows = k.enumerate()
    assert len(rows) == 2**7 * 3**6 == 93312
    assert int((k.fold(rows) == rows[:, 0]).sum()) == 2**7 * 3**5 == 31104


def test_pairs_of_too_many_cubes_fail_before_allocating():
    # each C3 -> Aut(C3) square is the shared face of 1,296 commutative cubes
    # on each side: 40,310,784 pairs per direction, 645 MB of output alone
    script = (
        "import resource\n"
        "from gpdkit.crossed import automorphism_xmod\n"
        "from gpdkit.cubes import CubeKernel\n"
        "from gpdkit.dgt import lambda_functor\n"
        "from gpdkit.errors import SizeLimit\n"
        "from gpdkit.finite import cyclic_group\n"
        "k = CubeKernel(lambda_functor(automorphism_xmod(cyclic_group(3))))\n"
        "rows = k.enumerate()\n"
        "rows = rows[k.fold(rows) == rows[:, 0]]\n"
        "print('COMMUTATIVE', len(rows))\n"
        "for d in (1, 2, 3):\n"
        "    try:\n"
        "        k.pairs(rows, d)\n"
        "    except SizeLimit as exc:\n"
        "        print('REFUSED', exc)\n"
        "print('PEAK_KB', resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stderr
    assert lines[:4] == ["COMMUTATIVE 31104"] + 3 * [
        "REFUSED 40310784 tuples of 2 indices need 1289945088 bytes, over the limit of 268435456"]
    assert int(lines[4].split()[1]) < 256 * 1024


def test_enumerating_the_cubes_of_aut_s3_fails_before_allocating(aut_s3_model):
    # 2,176,782,336 cubes; the third face already gives 10,077,696 tuples
    with pytest.raises(SizeLimit, match=r"^10077696 tuples of 3 indices need 403107840 bytes"):
        CubeKernel(aut_s3_model).enumerate()


def test_a_swapped_h_entry_fails_the_sq_s3_cube_check(sq_s3):
    k = CubeKernel(sq_s3)
    rows = k.enumerate()
    assert len(rows) == 6**7
    assert (k.fold(rows) == rows[:, 0]).all()
    # one filler per boundary: another square in H[i, j] has other edges,
    # so some fold pastes it where its edges do not fit
    t = sq_s3.tables()
    i, j = 7, int(np.flatnonzero(t.H[7] >= 0)[3])
    H = t.H.copy()
    H[i, j] = next(q for q in range(sq_s3.size()) if q != t.H[i, j])
    swapped = replace(sq_s3)
    swapped._tables = SquareTables(H, t.V)
    with pytest.raises(EdgeMismatch):
        CubeKernel(swapped).fold(rows)


def test_a_commutative_cube_pasted_to_a_non_commutative_one_does_not_commute(aut_c3_model):
    k = CubeKernel(aut_c3_model)
    rng = random.Random(9)
    seen = 0
    for _ in range(200):
        d = rng.randrange(1, 4)
        odd = k.fill(rng, _drawn(k, rng)[None], FACE_SLOTS[1:])[0]
        if k.fold(np.array(odd)) == odd[0]:
            continue
        # a lid cannot be pinned: in direction 1 odd is the lower cube
        if d == 1:
            c1, c2 = _drawn(k, rng, ("d1+", odd[0])), odd
        else:
            c1, c2 = odd, _drawn(k, rng, (f"d{d}-", odd[FACE_SLOTS.index(f"d{d}+")]))
        comp = k.compose(np.array(c1), np.array(c2), d)
        assert k.fold(comp) != comp[0]
        seen += 1
    assert seen > 100
