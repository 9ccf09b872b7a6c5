import random
from dataclasses import replace

import pytest

from gpdkit.errors import BoundaryMismatch, EdgeMismatch, EndpointMismatch, MissingEntry
from gpdkit.squares import (
    Square,
    boundary_word,
    comp_h,
    comp_v,
    conn_minus,
    conn_plus,
    eps_h,
    eps_v,
    identity_square,
    inv_h,
    inv_v,
    is_thin,
    make_square,
    recheck_boundary,
    thin_square,
    transpose,
)

from reference import interchange_check


def test_identity_square(a3s3):
    sq = make_square(a3s3, "e", "e", "e", "e", "e")
    assert is_thin(sq)
    assert sq == identity_square(a3s3, "*")


def test_make_square_boundary(a3s3):
    sq = make_square(a3s3, "(123)", "(123)", "e", "e", "e")
    assert sq.elt == "(123)"
    with pytest.raises(BoundaryMismatch) as err:
        make_square(a3s3, "e", "(12)", "e", "e", "e")
    assert "(12)" in str(err.value)  # message reports both sides
    with pytest.raises(BoundaryMismatch):
        make_square(a3s3, "(12)", "(12)", "e", "e", "e")  # element outside fiber


def test_make_square_endpoints():
    from gpdkit.crossed import trivial_crossed_module
    from gpdkit.finite import interval_finite_groupoid

    xm = trivial_crossed_module(interval_finite_groupoid())
    with pytest.raises(EndpointMismatch):
        make_square(xm, "e", "i", "id0", "id0", "id0")


def test_comp_h_spec_example(a3s3, a3s3_model):
    # left element (123), right element (132), right square's bottom (12):
    # alpha = (123)^(12) * (132) = (132)(132) = (123)
    rng = random.Random(5)
    for _ in range(200):
        left = a3s3_model.random_square(rng)
        if left.elt != "(123)":
            continue
        for right in a3s3_model.squares_with(left=left.right, bottom="(12)"):
            if right.elt == "(132)":
                assert comp_h(left, right).elt == "(123)"
                return
    raise AssertionError("no witness pair found")


def test_comp_v_spec_example(a3s3, a3s3_model):
    # upper element (123), lower element (123), lower right edge (13):
    # beta = (123) * (123)^(13) = (123)(132) = e
    for upper in a3s3_model.squares:
        if upper.elt != "(123)":
            continue
        for lower in a3s3_model.squares_with(top=upper.bottom, right="(13)"):
            if lower.elt == "(123)":
                assert comp_v(upper, lower).elt == "e"
                return
    raise AssertionError("no witness pair found")


def test_unit_laws(a3s3, a3s3_model):
    rng = random.Random(1)
    for _ in range(50):
        s = a3s3_model.random_square(rng)
        assert comp_h(s, eps_h(a3s3, s.right)) == s
        assert comp_h(eps_h(a3s3, s.left), s) == s
        assert comp_v(eps_v(a3s3, s.top), s) == s
        assert comp_v(s, eps_v(a3s3, s.bottom)) == s


def test_inverses(a3s3, a3s3_model):
    for s in a3s3_model.squares:
        assert comp_h(s, inv_h(s)) == eps_h(a3s3, s.left)
        assert comp_h(inv_h(s), s) == eps_h(a3s3, s.right)
        assert comp_v(s, inv_v(s)) == eps_v(a3s3, s.top)
        assert comp_v(inv_v(s), s) == eps_v(a3s3, s.bottom)
        assert inv_v(inv_v(s)) == s
        assert inv_h(inv_h(s)) == s
        assert transpose(transpose(s)) == s
        assert recheck_boundary(inv_h(s))
        assert recheck_boundary(inv_v(s))
        assert recheck_boundary(transpose(s))


def test_inv_v_formula(a3s3, a3s3_model):
    rng = random.Random(2)
    for _ in range(50):
        s = a3s3_model.random_square(rng)
        flipped = inv_v(s)
        P = a3s3.base
        assert (flipped.top, flipped.right, flipped.bottom, flipped.left) == (
            s.bottom, P.inv(s.right), s.top, P.inv(s.left)
        )
        assert flipped.elt == a3s3.act(a3s3.fibers["*"].inv(s.elt), P.inv(s.right))


def test_degeneracies_and_connections_thin(a3s3):
    P = a3s3.base
    for g in P.arrows:
        for sq in (eps_v(a3s3, g), eps_h(a3s3, g), conn_minus(a3s3, g), conn_plus(a3s3, g)):
            assert is_thin(sq)
            assert recheck_boundary(sq)
        gm = conn_minus(a3s3, g)
        assert (gm.top, gm.left) == (g, g)
        assert P.is_identity(gm.bottom) and P.is_identity(gm.right)
        gp = conn_plus(a3s3, g)
        assert (gp.bottom, gp.right) == (g, g)
        assert P.is_identity(gp.top) and P.is_identity(gp.left)
    e = P.id_at("*")
    assert conn_minus(a3s3, e) == identity_square(a3s3, "*")
    assert eps_v(a3s3, e) == eps_h(a3s3, e) == identity_square(a3s3, "*")


def test_eps_v_multiplicative(a3s3):
    P = a3s3.base
    for g in P.arrows:
        for g2 in P.arrows:
            assert comp_h(eps_v(a3s3, g), eps_v(a3s3, g2)) == eps_v(a3s3, P.compose(g, g2))


def test_composition_boundary_recheck(a3s3_model):
    # independent recomputation of the boundary law on random composites
    rng = random.Random(3)
    for _ in range(200):
        x = a3s3_model.random_square(rng)
        ys = a3s3_model.squares_with(left=x.right)
        y = ys[rng.randrange(len(ys))]
        h = comp_h(x, y)
        assert recheck_boundary(h)
        assert h.xm.boundary("*", h.elt) == boundary_word(
            h.xm, h.top, h.right, h.bottom, h.left
        )
        zs = a3s3_model.squares_with(top=x.bottom)
        z = zs[rng.randrange(len(zs))]
        assert recheck_boundary(comp_v(x, z))


def test_edge_mismatch_raised(a3s3, a3s3_model):
    rng = random.Random(4)
    s = a3s3_model.random_square(rng)
    others = [t for t in a3s3_model.squares if t.left != s.right]
    with pytest.raises(EdgeMismatch):
        comp_h(s, others[0])
    others = [t for t in a3s3_model.squares if t.top != s.bottom]
    with pytest.raises(EdgeMismatch):
        comp_v(s, others[0])


def test_interchange_check_on_degeneracies(a3s3):
    e = identity_square(a3s3, "*")
    assert interchange_check(e, e, e, e)


def test_thin_square_unique_filler(a3s3):
    sq = thin_square(a3s3, "(12)", "e", "(12)", "e")
    assert is_thin(sq)
    with pytest.raises(BoundaryMismatch):
        thin_square(a3s3, "(12)", "e", "e", "e")  # boundary does not commute


def test_a_square_is_a_value_that_reads_module_identity(a3s3, a3s3_model):
    s = make_square(a3s3, "(123)", "(123)", "e", "e", "e")
    assert str(s) == "((123); (123),e,e,e)"
    assert s.key() == ("(123)", "(123)", "e", "e", "e") == tuple(s)[1:]
    same = Square(a3s3, *s.key())
    assert same == s and not same != s and hash(same) == hash(s)
    assert len({s, same}) == 1 and s in a3s3_model.squares
    other = next(t for t in a3s3_model.squares if t.key() != s.key())
    assert s != other and not s == other
    twin = replace(a3s3)  # equal to a3s3, but another object
    assert twin == a3s3 and twin is not a3s3
    for plain in (s.key(), tuple(s), Square(twin, *s.key())):
        assert s != plain and plain != s
        assert not s == plain and not plain == s
    for field in Square._fields:
        with pytest.raises(AttributeError):
            setattr(s, field, getattr(other, field))
    assert s == same  # unchanged by the refused writes


def folded(P, chain):
    """``chain`` folded left to right over ``P.table``."""
    out = chain[0]
    for x in chain[1:]:
        out = P.table[(out, x)]
    return out


@pytest.mark.parametrize("fixture", ["a3s3_model", "aut_s3_model", "sq_s3"])
def test_the_boundary_word_is_a_fold_over_the_table(request, fixture):
    model = request.getfixturevalue(fixture)
    xm, P = model.xm, model.edges
    for s in model.squares:
        _, elt, top, right, bottom, left = s
        word = folded(P, [P.inverse[bottom], P.inverse[left], top, right])
        assert boundary_word(xm, top, right, bottom, left) == word
        z = P.dst[right]
        for m in xm.fibers[z].elements:
            assert recheck_boundary(s._replace(elt=m)) == (xm.mu[z][m] == word)


def test_a_missing_entry_raises_as_the_fold_does(a3s3):
    # bottom^-1 is read first, then left^-1, then the three composites in turn
    P = a3s3.base
    no_inverse = replace(a3s3, base=replace(
        P, inverse={x: y for x, y in P.inverse.items() if x not in ("(12)", "(13)")}))
    no_composite = replace(a3s3, base=replace(
        P, table={xy: z for xy, z in P.table.items() if xy != ("(12)", "(13)")}))
    cases = [
        (no_inverse, ("e", "e", "(12)", "(13)"), "s3 has no inverse of (12)"),
        (no_inverse, ("e", "e", "e", "(13)"), "s3 has no inverse of (13)"),
        (no_composite, ("e", "e", "(12)", "(13)"), "s3 has no composite (12) . (13)"),
        (no_composite, ("(13)", "e", "(12)", "e"), "s3 has no composite (12) . (13)"),
    ]
    for xm, (top, right, bottom, left), message in cases:
        with pytest.raises(MissingEntry) as err:
            boundary_word(xm, top, right, bottom, left)
        assert str(err.value) == message
        with pytest.raises(MissingEntry) as err:
            recheck_boundary(Square(xm, "e", top, right, bottom, left))
        assert str(err.value) == message
