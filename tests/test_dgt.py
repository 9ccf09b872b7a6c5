import itertools
import random
import re
import signal
from dataclasses import replace

import numpy as np
import pytest

from gpdkit import dgt
from gpdkit.crossed import (CrossedModuleData, automorphism_xmod, from_normal_subgroup,
                            validate_crossed_module)
from gpdkit.dgt import (
    SquareTables,
    _assoc_sweep,
    comp_h_unconjugated,
    connection_transport_report,
    count_compatible_quadruples,
    draw_below,
    find_interchange_counterexample,
    find_xmod_isomorphism,
    gamma,
    interchange_exhaustive,
    interchange_sweep,
    lambda_functor,
    lambda_square_count,
    square_model,
    thin_candidate_family,
    transport_fill_search,
    validate_dgt,
)
from gpdkit.errors import InvalidCrossedModule, InvalidDgt, SizeLimit
from gpdkit.finite import (FiniteGroup, cyclic_group, group_as_groupoid,
                           interval_finite_groupoid, trivial_group)
from gpdkit.grids import Grid, grid_compose
from gpdkit.report import Report
from gpdkit.squares import (comp_h, comp_v, eps_h, eps_v, inv_h, inv_v, is_thin, recheck_boundary,
                             thin_square, transpose)

from reference import disjoint_union, reference_below, reference_draw_grids


def brute_square_count(xm):
    """Oracle: count boundary quadruples whose word lies in the image of mu."""
    P = xm.base
    image = {}
    for s in P.objects:
        image[s] = {}
        for m in xm.fibers[s].elements:
            w = xm.mu[s][m]
            image[s][w] = image[s].get(w, 0) + 1
    total = 0
    for top in P.arrows:
        for left in P.arrows:
            if P.src[left] != P.src[top]:
                continue
            for right in P.arrows:
                if P.src[right] != P.dst[top]:
                    continue
                for bottom in P.arrows:
                    if P.src[bottom] != P.dst[left] or P.dst[bottom] != P.dst[right]:
                        continue
                    word = P.compose_all([P.inv(bottom), P.inv(left), top, right])
                    total += image[P.dst[right]].get(word, 0)
    return total


def test_lambda_square_counts(a3s3, a3s3_model, aut_s3, aut_s3_model, aut_c3_model,
                              sq_interval_s3, c2_in_c2_model):
    assert a3s3_model.size() == 648 == brute_square_count(a3s3) == lambda_square_count(a3s3)
    assert aut_s3_model.size() == 1296 == brute_square_count(aut_s3) == lambda_square_count(aut_s3)
    for model in (aut_c3_model, sq_interval_s3, c2_in_c2_model):
        assert model.size() == brute_square_count(model.xm) == lambda_square_count(model.xm)


def test_square_model_counts(sq_s3, sq_c2):
    assert sq_s3.size() == 216
    assert sq_c2.size() == 8
    assert all(is_thin(s) for s in sq_s3.squares)


def test_commuting_squares_compose_commutatively(sq_s3):
    # ab = cd and dg = ef implies abg = cef, via the model's own pasting
    P = sq_s3.edges
    rng = random.Random(0)
    for _ in range(100):
        s = sq_s3.random_square(rng)
        ts = sq_s3.squares_with(left=s.right)
        t = ts[rng.randrange(len(ts))]
        st = comp_h(s, t)
        assert is_thin(st)
        assert P.compose(st.top, st.right) == P.compose(st.left, st.bottom)


def test_lambda_rejects_invalid_module(s3):
    # trivial boundary plus trivial action over a nonabelian fiber breaks
    # the conjugation rule: n^-1 m n must equal m^(mu n) = m
    broken = CrossedModuleData(
        "broken",
        group_as_groupoid(trivial_group(), name="pt"),
        {"*": s3},
        {"*": {m: "e" for m in s3.elements}},
        {(m, "e"): m for m in s3.elements},
    )
    report = validate_crossed_module(broken)
    assert not report.ok
    assert any(v.law == "CM2" for v in report.violations)
    with pytest.raises(InvalidCrossedModule):
        lambda_functor(broken)


def test_validate_dgt_full_small(sq_c2):
    report = validate_dgt(sq_c2, interchange="exhaustive")
    assert report.ok


def test_validate_dgt_a3s3_sampled(a3s3_model):
    report = validate_dgt(a3s3_model, interchange="sampled", samples=2000)
    assert report.ok


def test_quadruple_count_formula(a3s3_model):
    # 648 squares; 108 right-edge partners, 108 bottom partners, 18 closers
    assert count_compatible_quadruples(a3s3_model) == 648 * 108 * 108 * 18


def test_interchange_sweep_small_model(sq_c2, sq_interval_s3):
    for model in (sq_c2, sq_interval_s3):
        checked, bad, first = interchange_exhaustive(model)
        assert bad == 0
        assert checked == count_compatible_quadruples(model)
        assert first is None


def test_interchange_counterexample_scan(sq_c2):
    assert find_interchange_counterexample(sq_c2) is None


def test_the_counterexample_scan_stops_at_its_cap(monkeypatch, sq_c2):
    # C3 in C3: an abelian fiber acted on trivially, so the unconjugated
    # pasting is the real one and the scan can find nothing
    c3 = cyclic_group(3)
    model = lambda_functor(from_normal_subgroup(c3, c3.elements, name="c3c3"))
    monkeypatch.setattr(dgt, "MAX_COUNTEREXAMPLE_SCAN", 2000)
    with pytest.raises(SizeLimit, match=r"^squares\(c3c3\): no counterexample in the first 2000 "
                                        r"of 531441 arrangements"):
        find_interchange_counterexample(model, comp2=comp_h_unconjugated)
    # the cap bounds what is scanned, not the model
    total = count_compatible_quadruples(sq_c2)
    monkeypatch.setattr(dgt, "MAX_COUNTEREXAMPLE_SCAN", total)
    assert find_interchange_counterexample(sq_c2) is None
    monkeypatch.setattr(dgt, "MAX_COUNTEREXAMPLE_SCAN", total - 1)
    with pytest.raises(SizeLimit, match=f"first {total - 1} of {total} arrangements"):
        find_interchange_counterexample(sq_c2)


def test_corrupted_composition_fails_interchange(a3s3_model):
    witness = find_interchange_counterexample(a3s3_model, comp2=comp_h_unconjugated)
    assert witness is not None
    x, y, z, w = witness
    from gpdkit.squares import comp_v

    lhs = comp_v(comp_h_unconjugated(x, y), comp_h_unconjugated(z, w))
    rhs = comp_h_unconjugated(comp_v(x, z), comp_v(y, w))
    assert lhs != rhs


def test_connection_transport(a3s3_model, sq_s3):
    for model in (a3s3_model, sq_s3):
        report = connection_transport_report(model)
        assert report.ok
        assert report.checks == 36


def test_transport_layout_is_the_expected_one(a3s3_model):
    model = a3s3_model
    xm = model.xm
    fills = transport_fill_search(model, "(12)", "(123)")
    assert len(fills) == 1
    x, y = fills[0]
    from gpdkit.squares import eps_h, eps_v

    assert x == eps_v(xm, "(123)")
    assert y == eps_h(xm, "(123)")
    grid = Grid(
        (
            (model.connections_minus["(12)"], x),
            (y, model.connections_minus["(123)"]),
        )
    )
    composite = grid_compose(grid)
    ab = model.edges.compose("(12)", "(123)")
    assert composite == model.connections_minus[ab]


def test_thin_family_is_thin(a3s3_model):
    for sq in thin_candidate_family(a3s3_model):
        assert is_thin(sq)


def test_gamma_roundtrip(a3s3, a3s3_model, aut_s3, aut_s3_model):
    for xm, model in ((a3s3, a3s3_model), (aut_s3, aut_s3_model)):
        back = gamma(model)
        assert validate_crossed_module(back).ok
        assert find_xmod_isomorphism(xm, back) is not None


def test_gamma_of_commuting_squares_has_trivial_fibers(sq_s3):
    back = gamma(sq_s3)
    assert validate_crossed_module(back).ok
    assert all(g.order() == 1 for g in back.fibers.values())


def test_gamma_trivial_roundtrip():
    from gpdkit.crossed import from_normal_subgroup

    xm = from_normal_subgroup(trivial_group(), {"e"}, name="trivial_module")
    back = gamma(lambda_functor(xm))
    assert find_xmod_isomorphism(xm, back) is not None


def test_gamma_fiber_matches_inverse_matching(a3s3, a3s3_model):
    # the canonical matching sends n to the fiber square with element n^-1
    back = gamma(a3s3_model)
    iso = find_xmod_isomorphism(a3s3, back)
    P = a3s3.base
    M = a3s3.fibers["*"]
    fiber_squares = a3s3_model.squares_with(top="e", left="e", right="e")
    by_elt = {q.elt: q for q in fiber_squares}
    members = sorted(fiber_squares, key=lambda q: q.key())
    name_of = {q.key(): f"q{i}" for i, q in enumerate(members)}
    for n in M.elements:
        assert iso["*"][n] == name_of[by_elt[M.inv(n)].key()]


def test_gamma_refuses_a_model_whose_fibers_are_cut(s3):
    from gpdkit.crossed import from_normal_subgroup
    from gpdkit.squares import identity_square

    model = lambda_functor(from_normal_subgroup(s3, s3.elements, name="s3s3"))

    def cut(keep):  # the fiber squares at * kept only for the elements in keep
        fiber = ("e", "e", "e")
        return replace(model, squares=tuple(q for q in model.squares
                                            if (q.top, q.left, q.right) != fiber or q.elt in keep))

    no_unit = replace(model, squares=tuple(q for q in model.squares
                                           if q != identity_square(model.xm, "*")))
    for hollow, text in (
        (no_unit, "no identity square at '*'"),
        (cut({"e", "(12)", "(13)"}), "fiber at '*' is not closed under pasting"),
        # {e, (12)} is a subgroup, but not a normal one: (123) moves (12) out
        (cut({"e", "(12)"}), "sandwich of ((12); e,e,(12),e) along (123) escapes the fibers"),
    ):
        with pytest.raises(InvalidDgt) as exc:
            gamma(hollow)
        assert str(exc.value) == f"squares(s3s3): {text}"


def test_isomorphism_rejects_mismatched_modules(a3s3, s3):
    from gpdkit.crossed import automorphism_xmod

    other = automorphism_xmod(s3)
    assert find_xmod_isomorphism(a3s3, other) is None


def over_trivial_boundary(base_group, fiber, act, name):
    """``fiber`` -> ``base_group`` with trivial boundary, m^p = act(m, p)."""
    base = group_as_groupoid(base_group)
    xm = CrossedModuleData(name, base, {"*": fiber},
                           {"*": dict.fromkeys(fiber.elements, base.id_at("*"))},
                           {(m, p): act(m, p) for m in fiber.elements for p in base.arrows})
    assert validate_crossed_module(xm).ok
    return xm


def klein_four_group():
    names = ("e", "a", "b", "c")
    return FiniteGroup("v4", names, {(x, y): names[i ^ j] for i, x in enumerate(names)
                                     for j, y in enumerate(names)}, "e", {x: x for x in names})


def test_isomorphism_needs_isomorphic_fibers():
    # C4 -> 1 and C2 x C2 -> 1: one base, trivial boundaries, fibers of one
    # order, and no group isomorphism between the fibers
    c4, v4 = (over_trivial_boundary(trivial_group(), g, lambda m, p: m, f"{g.name}_1")
              for g in (cyclic_group(4), klein_four_group()))
    assert find_xmod_isomorphism(c4, v4) is None
    assert find_xmod_isomorphism(v4, c4) is None
    assert find_xmod_isomorphism(c4, c4) == {"*": {m: m for m in c4.fibers["*"].elements}}


def test_isomorphism_needs_the_fiber_map_to_respect_the_action():
    # C3 -> C2 with trivial boundary, C2 acting trivially or by inversion:
    # both automorphisms of C3 match the fibers and boundaries, and neither
    # carries one action to the other
    c2, c3 = cyclic_group(2), cyclic_group(3)
    fixed = over_trivial_boundary(c2, c3, lambda m, p: m, "c3_fixed")
    inverted = over_trivial_boundary(c2, c3, lambda m, p: c3.inv(m) if p == "t" else m, "c3_inverted")
    assert lambda_square_count(fixed) == lambda_square_count(inverted) == 24
    fiber_maps = list(dgt._fiber_isos(c3, c3, fixed.mu["*"], inverted.mu["*"]))
    assert len(fiber_maps) == 2
    assert find_xmod_isomorphism(fixed, inverted) is None
    assert find_xmod_isomorphism(inverted, fixed) is None
    for x in (fixed, inverted):
        assert find_xmod_isomorphism(x, x) == {"*": {m: m for m in c3.elements}}


def test_validate_dgt_sq_s3_exhaustive(sq_s3):
    report = validate_dgt(sq_s3, interchange="exhaustive")
    assert report.ok


def test_validate_dgt_aut_s3_sampled(aut_s3_model):
    report = validate_dgt(aut_s3_model, interchange="sampled", samples=500)
    assert report.ok


def test_gamma_rejects_hollow_model(a3s3_model):
    from dataclasses import replace
    from gpdkit.errors import InvalidDgt

    # drop the fiber squares: gamma can no longer find the identity square
    kept = tuple(
        s for s in a3s3_model.squares
        if not (s.top == "e" and s.left == "e" and s.right == "e")
    )
    hollow = replace(a3s3_model, squares=kept)
    with pytest.raises(InvalidDgt):
        gamma(hollow)


def test_trivial_group_square_model_has_one_square():
    from gpdkit.finite import trivial_group

    model = square_model(group_as_groupoid(trivial_group(), name="pt"))
    assert model.size() == 1


def test_validate_dgt_runs_exhaustive_by_default_on_a3s3(a3s3_model):
    # the full axiom sweep's default interchange is the exhaustive one
    report = validate_dgt(a3s3_model)
    assert report.ok
    assert report.checks > 136_048_896


def assert_tables_match_calculus(model, pairs):
    """Each H/V entry is the object-level composite, or -1 off matching edges."""
    t = model.tables()
    sq = model.squares
    for i, j in pairs:
        x, y = sq[i], sq[j]
        h = model.index[comp_h(x, y).key()] if x.right == y.left else -1
        v = model.index[comp_v(x, y).key()] if x.bottom == y.top else -1
        assert (t.H[i, j], t.V[i, j]) == (h, v), (x, y)


def test_tables_match_calculus_exhaustively(sq_c2, sq_s3, aut_c3_model, sq_interval_s3):
    assert aut_c3_model.size() == 24
    assert sq_interval_s3.size() == 16 + 216
    for model in (sq_c2, sq_s3, aut_c3_model, sq_interval_s3):
        n = model.size()
        assert model.tables().H.dtype == np.int16
        assert_tables_match_calculus(model, itertools.product(range(n), repeat=2))


def test_find_locates_each_square_and_nothing_else(aut_c3_model, sq_interval_s3):
    for model in (aut_c3_model, sq_interval_s3):
        c, n = model.code(), model.size()
        assert (model.find(c.E, c.T, c.R, c.B, c.L) == np.arange(n)).all()
        # another bottom, or any -1, finds nothing: the element, top, right
        # and left pick a slot (a top of -1 the sentinel, any other -1 reads
        # a pad), and the square there counts only if all five of its
        # coordinates match, which a -1 never does
        assert (model.find(c.E, c.T, c.R, (c.B + 1) % c.arrows, c.L) == -1).all()
        for k in range(5):
            cols = [c.E, c.T, c.R, c.B, c.L]
            cols[k] = np.full(n, -1)
            assert (model.find(*cols) == -1).all()
        assert (model.find(c.E + 1, -1, c.R, c.B, c.L) == -1).all()


def test_a_model_and_its_code_sweep_the_base_and_each_fiber_once(monkeypatch):
    from gpdkit import crossed, finite

    xm = crossed.trivial_crossed_module(interval_finite_groupoid())
    swept = []
    for module in (crossed, dgt):
        for name in ("sweep_group", "sweep_groupoid"):
            def counted(obj, sweep=getattr(finite, name)):
                swept.append(obj.name)
                return sweep(obj)

            monkeypatch.setattr(module, name, counted, raising=False)
    c = lambda_functor(xm).code()
    assert swept == ["interval4", "triv@0", "triv@1"]
    # the sweep's numbering: arrows in declared order, not sorted
    assert c.names == ["id0", "id1", "i", "i_inv"]


def test_find_on_a_model_without_squares(sq_c2):
    empty = replace(sq_c2, squares=())
    assert empty.find(np.array([0]), 0, 0, 0, 0).tolist() == [-1]


def find_oracle(model):
    """Reference: each square's element and four edges in ``code()``
    numbering, read off ``model.index``, mapped to its position there."""
    xm, names = model.xm, model.code().names
    arrow = {a: i for i, a in enumerate(names)}
    elt = {}
    for s in sorted(xm.base.objects):
        for m in xm.fibers[s].elements:
            elt[(s, m)] = len(elt)
    return {(elt[(xm.base.dst[r], m)], arrow[t], arrow[r], arrow[b], arrow[lf]): i
            for (m, t, r, b, lf), i in model.index.items()}, len(elt)


@pytest.mark.parametrize("fixture, hollow", [("aut_c3_model", False), ("sq_interval_s3", False),
                                             ("a3s3_model", True)])
def test_find_matches_a_dict_oracle_on_every_coordinate_tuple(request, fixture, hollow):
    # every tuple in [-1, elements) x [-1, arrows)^4, so -1 arguments, edges
    # that do not compose and elements of another fiber all come up
    model = request.getfixturevalue(fixture)
    if hollow:  # a third of the squares gone, the rest out of order
        model = replace(model, squares=model.squares[::3] + model.squares[1::3])
    oracle, elts = find_oracle(model)
    a = model.code().arrows
    args = (np.indices((elts + 1, a + 1, a + 1, a + 1, a + 1)) - 1).reshape(5, -1)
    got = model.find(*args)
    assert got.tolist() == [oracle.get(k, -1) for k in zip(*args.tolist())]
    assert (got >= 0).sum() == model.size()


@pytest.mark.parametrize("fixture", ["sq_c2", "sq_s3", "c2_in_c2_model", "aut_c3_model",
                                     "sq_interval_s3", "a3s3_model", "aut_s3_model"])
def test_the_slot_index_has_one_slot_per_counted_square(request, fixture):
    model = request.getfixturevalue(fixture)
    for m in (model, replace(model, squares=model.squares[::2])):
        s = m.slots()
        # one slot per square lambda_square_count counts, then the sentinel
        assert len(s.at) == s.count + 1 == lambda_square_count(m.xm) + 1
        assert s.at[-1] == -1
        assert sorted(s.at[s.at >= 0].tolist()) == list(range(m.size()))


def thin_corners(xm, p):
    """cubes.fold_layout's four thin corners once the seams agree, with the
    arrow p at u.left, u.right, l.bottom and d.right in turn."""
    P = xm.base
    s, t, q = P.id_at(P.src[p]), P.id_at(P.dst[p]), P.inv(p)
    return (thin_square(xm, s, p, p, s), thin_square(xm, s, s, q, p),
            thin_square(xm, p, q, s, s), thin_square(xm, p, t, t, p))


def assert_maps_match_calculus(model):
    """Each entry of ``model.maps()`` is the position in ``model.index`` of
    the square that the object-level calculus gives, or -1 if it is absent."""
    m, xm, sq = model.maps(), model.xm, model.squares
    assert model.maps() is m

    def at(s):
        return model.index.get(s.key(), -1)

    assert m.transpose.tolist() == [at(transpose(s)) for s in sq]
    assert m.inv_h.tolist() == [at(inv_h(s)) for s in sq]
    assert m.inv_v.tolist() == [at(inv_v(s)) for s in sq]
    assert m.flip.tolist() == [at(inv_h(transpose(s))) if transpose(s) in model else -1
                               for s in sq]
    arrows = model.code().names
    assert m.eps_h.tolist() == [at(eps_h(xm, a)) for a in arrows]
    assert m.eps_v.tolist() == [at(eps_v(xm, a)) for a in arrows]
    assert [c.tolist() for c in m.corners] == [
        list(c) for c in zip(*([at(q) for q in thin_corners(xm, a)] for a in arrows))]


@pytest.mark.parametrize("fixture", ["sq_c2", "sq_s3", "c2_in_c2_model", "aut_c3_model",
                                     "sq_interval_s3", "a3s3_model", "aut_s3_model"])
def test_index_maps_match_the_calculus(request, fixture):
    model = request.getfixturevalue(fixture)
    assert_maps_match_calculus(model)
    m = model.maps()  # a whole model has every square the maps name
    assert all((x >= 0).all() for x in (m.transpose, m.inv_h, m.inv_v, m.flip, m.eps_h, m.eps_v,
                                        *m.corners))


def test_index_maps_of_a_hollow_model_say_minus_one(aut_c3_model):
    model, xm = aut_c3_model, aut_c3_model.xm
    a = next(a for a in sorted(model.edges.arrows) if not model.edges.is_identity(a))
    s = next(s for s in model.squares if inv_h(s) != s and not is_thin(s))
    gone = {eps_h(xm, a), inv_h(s)}
    hollow = replace(model, squares=tuple(q for q in model.squares if q not in gone))
    assert_maps_match_calculus(hollow)
    m = hollow.maps()
    assert m.eps_h[model.code().names.index(a)] == -1
    assert m.inv_h[hollow.index[s.key()]] == -1


def test_a_hollow_model_fails_the_laws_as_the_reference_does():
    # the horizontal degeneracies of the interval are closed under both
    # pastings; without eps_h(i_inv) = inv_v(eps_h(i)) and the unit
    # eps_h(id1) = eps_v(id1) they still are, and those two are absent
    model = square_model(interval_finite_groupoid())
    xm = model.xm
    keep = {eps_h(xm, "id0"), eps_h(xm, "i")}
    hollow = replace(model, squares=tuple(q for q in model.squares if q in keep))
    assert_maps_match_calculus(hollow)
    m, i = hollow.maps(), hollow.index[eps_h(xm, "i").key()]
    assert m.inv_v[i] == -1 and m.inv_h[i] == i
    assert m.eps_v[model.code().names.index("id1")] == -1
    report = validate_dgt(hollow, interchange="exhaustive")
    reference = reference_validate_dgt(hollow, "exhaustive", seed=0, samples=0)
    assert report.checks == reference.checks
    assert report.violations == reference.violations
    assert {v.law for v in report.violations} == {"degeneracy-closure", "v-inverse"}


@pytest.mark.parametrize("label, paste, edges, other", [
    ("horizontal", comp_h, ("right", "left"), ("bottom", "top")),
    ("vertical", comp_v, ("bottom", "top"), ("right", "left")),
])
def test_tables_refuse_a_model_missing_a_composite(aut_c3_model, label, paste, edges, other):
    # two squares that paste as x then y in this direction and not at all in
    # the other, kept without their composite
    model, (out, into), (out2, into2) = aut_c3_model, edges, other
    x, y = next((x, y) for x in model.squares for y in model.squares
                if getattr(x, out) == getattr(y, into) and paste(x, y) not in (x, y)
                and not any(getattr(a, out2) == getattr(b, into2) for a in (x, y) for b in (x, y)))
    with pytest.raises(InvalidDgt) as exc:
        replace(model, squares=(x, y)).tables()
    assert str(exc.value) == f"squares(aut_xmod_c3): a {label} composite escapes the model"


def test_tables_match_calculus_on_a_sample(a3s3_model, aut_s3_model):
    rng = random.Random(11)
    for model in (a3s3_model, aut_s3_model):
        pairs = []
        for k in range(5000):
            i = rng.randrange(model.size())
            x = model.squares[i]
            # a third each: pasted right, pasted below, any square
            partners = (model.squares_with(left=x.right), model.squares_with(top=x.bottom),
                        model.squares)[k % 3]
            pairs.append((i, model.index[rng.choice(partners).key()]))
        assert_tables_match_calculus(model, pairs)


def unconjugated_h(model):
    """H built from comp_h_unconjugated, -1 where its composite is no
    square of the model: interchange fails on it."""
    n = model.size()
    H = np.full((n, n), -1, np.int16)
    for i, x in enumerate(model.squares):
        for y in model.squares_with(left=x.right):
            H[i, model.index[y.key()]] = model.index.get(comp_h_unconjugated(x, y).key(), -1)
    return H


def test_sweep_counts_every_violation_of_a_corrupted_pasting(aut_c3_model):
    model = aut_c3_model
    sq = model.squares
    checked, bad, first = interchange_sweep(model, unconjugated_h(model), model.tables().V)
    # object-level brute force, in the sweep's scan order x, z, y, w
    violations = []
    for x in sq:
        for z in model.squares_with(top=x.bottom):
            for y in model.squares_with(left=x.right):
                for w in model.squares_with(left=z.right, top=y.bottom):
                    rows_first = comp_v(comp_h_unconjugated(x, y), comp_h_unconjugated(z, w))
                    cols_first = comp_h_unconjugated(comp_v(x, z), comp_v(y, w))
                    if rows_first != cols_first:
                        violations.append((x, y, z, w))
    assert checked == count_compatible_quadruples(model) == 24 * 12 * 12 * 6
    assert 0 < bad == len(violations) < checked
    x, y, z, w = (sq[i] for i in first)
    assert (x, y, z, w) == violations[0]
    assert comp_v(comp_h_unconjugated(x, y), comp_h_unconjugated(z, w)) != comp_h_unconjugated(
        comp_v(x, z), comp_v(y, w))
    # the real tables pass on the same model
    assert interchange_exhaustive(model) == (checked, 0, None)


def loop_quadruple_count(model):
    """Reference: the nested-loop count over edge bookkeeping."""
    pair_count = {}
    by_left, by_top = {}, {}
    for s in model.squares:
        pair_count[(s.left, s.top)] = pair_count.get((s.left, s.top), 0) + 1
        by_left.setdefault(s.left, []).append(s)
        by_top.setdefault(s.top, []).append(s)
    total = 0
    for x in model.squares:
        for y in by_left.get(x.right, ()):
            for z in by_top.get(x.bottom, ()):
                total += pair_count.get((z.right, y.bottom), 0)
    return total


def test_quadruple_contraction_matches_the_loop(sq_c2, sq_s3, aut_c3_model, sq_interval_s3):
    for model in (sq_c2, sq_s3, aut_c3_model, sq_interval_s3):
        assert count_compatible_quadruples(model) == loop_quadruple_count(model)


def test_quadruple_count_closed_forms(a3s3_model, aut_s3_model):
    # one object, n arrows, fiber of order k: k*n^3 choices of x, k*n^2 of
    # y and of z, k*n of w, so n^8 k^4 arrangements
    assert count_compatible_quadruples(a3s3_model) == 6**8 * 3**4 == 136_048_896
    assert count_compatible_quadruples(aut_s3_model) == 6**8 * 6**4 == 2_176_782_336


def test_squares_with_is_an_exact_filter_in_model_order(a3s3_model):
    rng = random.Random(5)
    edges = ("top", "right", "bottom", "left")
    for _ in range(60):
        s = a3s3_model.random_square(rng)
        want = {e: getattr(s, e) for e in rng.sample(edges, rng.randint(1, 4))}
        assert a3s3_model.squares_with(**want) == [
            q for q in a3s3_model.squares if all(getattr(q, e) == v for e, v in want.items())
        ]
    assert a3s3_model.squares_with(left="nope") == []
    assert a3s3_model.squares_with() == list(a3s3_model.squares)
    with pytest.raises(ValueError):
        a3s3_model.squares_with(diagonal="e")


# every edge tuple a kernel groups the squares by: the sweeps' edge pairs and
# the sorted subsets of a cube face's seams; no kernel groups by the element
# and edges now (find reads the slot index, DgtModel.slots()), and that entry
# stays so a grouping with the element column is still checked
_GROUPINGS = sorted({("right", "bottom"), ("left", "bottom"), ("top", "right"), ("top", "bottom"),
                     ("elt", "top", "right", "left"),
                     *(e for k in range(5) for e in itertools.combinations(sorted(dgt._EDGES), k))})


@pytest.mark.parametrize("fixture", ["sq_interval_s3", "aut_c3_model", "aut_s3_model"])
def test_each_grouping_is_a_plain_filter_in_model_order(request, fixture):
    model = request.getfixturevalue(fixture)
    c, n = model.code(), model.size()
    absent_seen = False
    for edges in _GROUPINGS:
        g = model.groups(*edges)
        assert model.groups(*edges) is g
        cols = [c.edge[e].tolist() for e in edges]
        want = {}
        for i in range(n):
            want.setdefault(tuple(col[i] for col in cols), []).append(i)
        keys = list(want)
        absent = next((k for k in itertools.product(range(c.arrows), repeat=len(edges))
                       if k not in want), None)
        if absent is not None:
            keys.append(absent)
            absent_seen = True
        for key in keys:
            assert g.members(*key).tolist() == want.get(key, [])
        assert g.rank().tolist() == [
            want[tuple(col[i] for col in cols)].index(i) for i in range(n)]
        # each key twice, so that over no edges the prefix outnumbers the groups
        keys *= 2
        vector = [np.array(col) for col in zip(*keys)]
        prefix = np.arange(len(keys))
        assert [r.tolist() for r in g.extend((prefix,), vector)] == [
            list(r) for r in zip(*[(p, i) for p, k in enumerate(keys)
                                   for i in want.get(k, ())])]
        if edges:  # size() over no edges has no array to take a length from
            assert g.size(*vector).tolist() == [len(want.get(k, ())) for k in keys]
    # every square boundary over Aut(S3) has a filler, so no key is absent there
    assert absent_seen == (fixture != "aut_s3_model")


class Words:
    """An rng whose ``randbytes`` hands out chosen 32-bit words, in order,
    and records each call's byte count."""

    def __init__(self, words):
        self.words, self.calls = list(words), []

    def randbytes(self, n):
        assert n % 4 == 0 and n // 4 <= len(self.words)
        self.calls.append(n)
        take, self.words = self.words[:n // 4], self.words[n // 4:]
        return b"".join(w.to_bytes(4, "little") for w in take)


def test_draw_below_rejects_and_redraws_in_order_as_the_reference_does():
    # 2**32 mod (2**31 + 1) = 2**31 - 1: u = 0 and u = 2 leave low words 0
    # and 2 and draw again; u = 2**32 - 1 leaves exactly 2**31 - 1 and takes
    # the top value 2**31.  Sizes 1 and 2**32 accept every word.
    sizes = [2**31 + 1, 6, 2**31 + 1, 1, 2**32]
    words = [0, 2**32 - 1, 2, 7, 123, 1, 2**32 - 1]
    for draw in (draw_below, reference_below):
        rng = Words(words)
        assert list(draw(rng, sizes)) == [0, 5, 2**31, 0, 123]
        assert rng.calls == [20, 8] and rng.words == []


def test_draw_below_follows_the_reference_on_a_seeded_stream():
    # sizes of 2**31 + 1 reject about half their words: several rounds
    sizes = [2**31 + 1] * 300 + [1, 2, 3, 6, 648, 2**32] * 50
    random.Random(4).shuffle(sizes)
    got, want = random.Random(9), random.Random(9)
    drawn = draw_below(got, np.array(sizes))
    assert drawn.tolist() == reference_below(want, sizes)
    assert got.getstate() == want.getstate()
    assert all(0 <= k < n for k, n in zip(drawn.tolist(), sizes))
    assert draw_below(got, []).tolist() == [] and got.getstate() == want.getstate()


@pytest.mark.parametrize("sizes", [[3, 0, 2], [2**32 + 1], [-1]])
def test_draw_below_refuses_a_size_out_of_range_before_drawing(sizes):
    for draw in (draw_below, reference_below):
        rng = Words([5, 5, 5])
        with pytest.raises(ValueError, match=r"^cannot draw below -?\d+: sizes run 1\.\.2\*\*32$"):
            draw(rng, sizes)
        assert rng.calls == []


def test_the_kernels_build_each_grouping_once(monkeypatch, aut_c3_model):
    from gpdkit.cubes import FACE_SLOTS, CubeKernel

    model = replace(aut_c3_model)  # fresh caches
    built = []
    init = dgt._Groups.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(dgt._Groups, "__init__", counted)

    def run():
        interchange_exhaustive(model)
        validate_dgt(model, interchange="exhaustive")
        validate_dgt(model, interchange="sampled", samples=200)
        k = CubeKernel(model)
        k.enumerate()
        rng = random.Random(1)
        cube = k.draw(rng)
        k.reroll_lid(rng, cube)
        for slot in ("d3-", "d2-", "d1+"):
            k.draw(rng, fixed=(slot, cube[FACE_SLOTS.index(slot)]))

    run()
    assert len(built) == len(model._groups) > 0
    assert set(model._groups) <= set(_GROUPINGS)
    run()
    assert len(built) == len(model._groups)


def reference_validate_dgt(model, interchange, seed, samples):
    """Reference: validate_dgt with units, inverses, thin closure and sampled
    interchange evaluated by the object-level calculus, not the tables."""
    report = Report(f"dgt {model.name}")
    t = model.tables()
    xm, P = model.xm, model.edges
    for s in model.squares:
        report.count()
        if not recheck_boundary(s):
            report.fail("boundary", f"square {s} violates the boundary law")
    for a in sorted(P.arrows):
        for sq, label in ((eps_v(xm, a), "eps_v"), (eps_h(xm, a), "eps_h"),
                          (model.connections_minus[a], "conn-"), (model.connections_plus[a], "conn+")):
            report.count()
            if sq not in model:
                report.fail("degeneracy-closure", f"{label}({a}) not in model")
            elif not is_thin(sq):
                report.fail("degeneracy-thin", f"{label}({a}) is not thin")
    for a in sorted(P.arrows):
        gm, gp = model.connections_minus[a], model.connections_plus[a]
        e_dst, e_src = P.id_at(P.dst[a]), P.id_at(P.src[a])
        report.count(2)
        if (gm.top, gm.left, gm.right, gm.bottom) != (a, a, e_dst, e_dst):
            report.fail("connection-boundary", f"conn-({a}) has wrong edges")
        if (gp.bottom, gp.right, gp.top, gp.left) != (a, a, e_src, e_src):
            report.fail("connection-boundary", f"conn+({a}) has wrong edges")
    for s in model.squares:
        report.count(4)
        if comp_h(s, eps_h(xm, s.right)) != s or comp_h(eps_h(xm, s.left), s) != s:
            report.fail("h-unit", f"eps_h unit law fails at {s}")
        if comp_v(eps_v(xm, s.top), s) != s or comp_v(s, eps_v(xm, s.bottom)) != s:
            report.fail("v-unit", f"eps_v unit law fails at {s}")
        report.count(2)
        hi = inv_h(s)
        if hi not in model or comp_h(s, hi) != eps_h(xm, s.left):
            report.fail("h-inverse", f"inv_h fails at {s}")
        vi = inv_v(s)
        if vi not in model or comp_v(s, vi) != eps_v(xm, s.top):
            report.fail("v-inverse", f"inv_v fails at {s}")
    report.count(int((t.H >= 0).sum() + (t.V >= 0).sum()))
    for table in ("H", "V"):
        checked, bad, _ = assoc_sweep(model, table)
        report.count(checked)
        if bad:
            report.fail(f"{table.lower()}-associativity", f"{bad} violating triples")
    thin = model.thin_squares
    thin_keys = {s.key() for s in thin}
    for s in thin:
        for u in model.squares_with(left=s.right):
            if u.key() in thin_keys:
                report.count()
                if not is_thin(comp_h(s, u)):
                    report.fail("thin-closure", f"{s} o2 {u} is not thin")
        for u in model.squares_with(top=s.bottom):
            if u.key() in thin_keys:
                report.count()
                if not is_thin(comp_v(s, u)):
                    report.fail("thin-closure", f"{s} o1 {u} is not thin")
    if interchange == "exhaustive":
        checked, bad, first = interchange_exhaustive(model)
        report.count(checked)
        if bad:
            report.fail("interchange", f"{bad} violations, first at indices {first}")
        return report
    checked, witnesses = reference_sampled_interchange(model, seed, samples)
    report.count(checked)
    for witness in witnesses:
        report.fail("interchange", witness)
    return report


def reference_sampled_interchange(model, seed, samples, h=comp_h, v=comp_v):
    """The sampled interchange's count and witnesses: ``samples`` 2x2 grids
    [[x, y], [z, w]] drawn as ``draw_grids`` draws them, none on a model with
    no arrangement, and a witness for each whose folds by ``h``/``v`` differ."""
    sq = model.squares_with
    arranged = any(sq(left=z.right, top=y.bottom) for x in model.squares
                   for y in sq(left=x.right) for z in sq(top=x.bottom))
    grids = reference_draw_grids(model, random.Random(seed), samples if arranged else 0, 2, 2)
    return len(grids), [f"sampled violation at {x}, {y}, {z}, {w}" for (x, y), (z, w) in grids
                        if v(h(x, y), h(z, w)) != h(v(x, z), v(y, w))]


# checks of validate_dgt(model, mode) with seed 3 and 2,000 samples
TABLE_LAW_CHECKS = [
    ("sq_c2", "sampled", 2_452),
    ("sq_c2", "exhaustive", 708),
    ("sq_s3", "sampled", 594_524),
    ("sq_s3", "exhaustive", 2_272_140),
    ("aut_c3_model", "sampled", 9_732),
    ("aut_c3_model", "exhaustive", 28_468),
    ("sq_interval_s3", "sampled", 595_428),
    ("sq_interval_s3", "exhaustive", 2_273_556),
    ("a3s3_model", "sampled", 15_278_636),
    ("aut_s3_model", "sampled", 121_518_884),
]


@pytest.mark.parametrize("fixture, mode, checks", TABLE_LAW_CHECKS,
                         ids=[f"{f}-{m}" for f, m, _ in TABLE_LAW_CHECKS])
def test_table_laws_match_the_object_level_reference(request, fixture, mode, checks):
    model = request.getfixturevalue(fixture)
    report = validate_dgt(model, interchange=mode, seed=3, samples=2000)
    reference = reference_validate_dgt(model, mode, seed=3, samples=2000)
    assert report.checks == reference.checks == checks
    assert report.violations == reference.violations == []


def test_a_copy_rebuilds_its_index_and_refuses_a_duplicated_square():
    model = square_model(interval_finite_groupoid())
    kept = replace(model, squares=model.squares[:3])
    assert [s in kept for s in model.squares] == [True] * 3 + [False] * 13
    twice = (eps_h(model.xm, "id0"),) * 2
    with pytest.raises(InvalidDgt, match=r"square \(e; id0,id0,id0,id0\) is at both 0 and 1"):
        replace(model, squares=twice)


def test_absent_units_stay_degeneracy_closure_violations():
    # the one square eps_v(a) is closed under V, but the model lacks the
    # other degeneracies; the table laws skip an absent unit (index -1)
    model = square_model(interval_finite_groupoid())
    for a in sorted(model.edges.arrows):
        one = replace(model, squares=(eps_v(model.xm, a),))
        report = validate_dgt(one, interchange="exhaustive")
        reference = reference_validate_dgt(one, "exhaustive", seed=0, samples=0)
        assert report.checks == reference.checks
        assert report.violations == reference.violations
        assert {v.law for v in report.violations} <= {"degeneracy-closure", "h-inverse"}


def with_swapped_filler(model, table, i, j, rng):
    """A copy of ``model`` whose table entry [i, j] names another square
    with the same four edges; every other entry is the model's own."""
    t = model.tables()
    tables = {"H": t.H.copy(), "V": t.V.copy()}
    old = model.squares[tables[table][i, j]]
    fillers = [k for k, q in enumerate(model.squares)
               if q.key()[1:] == old.key()[1:] and q.elt != old.elt]
    tables[table][i, j] = rng.choice(fillers)
    mutant = replace(model)
    mutant._tables = SquareTables(tables["H"], tables["V"])
    return mutant


def test_every_table_law_catches_a_swapped_filler(aut_c3_model):
    # mu is trivial, so every commuting boundary has 3 fillers to swap
    model = aut_c3_model
    sq, index, xm = model.squares, model.index, model.xm
    rng = random.Random(17)
    s = rng.randrange(len(sq))
    q = sq[s]
    thin = [i for i, x in enumerate(sq) if is_thin(x)]
    thin_pair = rng.choice([(i, j) for i in thin for j in thin if sq[i].right == sq[j].left])
    h_pair = rng.choice([(i, j) for i in range(len(sq)) for j in range(len(sq))
                         if sq[i].right == sq[j].left])
    v_pair = rng.choice([(i, j) for i in range(len(sq)) for j in range(len(sq))
                         if sq[i].bottom == sq[j].top])
    mutations = {
        "h-unit": ("H", s, index[eps_h(xm, q.right).key()], f"eps_h unit law fails at {q}"),
        "v-unit": ("V", index[eps_v(xm, q.top).key()], s, f"eps_v unit law fails at {q}"),
        "h-inverse": ("H", s, index[inv_h(q).key()], f"inv_h fails at {q}"),
        "v-inverse": ("V", s, index[inv_v(q).key()], f"inv_v fails at {q}"),
        "thin-closure": ("H", *thin_pair,
                         f"{sq[thin_pair[0]]} o2 {sq[thin_pair[1]]} is not thin"),
        "h-associativity": ("H", *h_pair, None),
        "v-associativity": ("V", *v_pair, None),
        "interchange": ("H", *h_pair, None),
    }
    assert validate_dgt(replace(model), interchange="exhaustive").ok
    for law, (table, i, j, witness) in mutations.items():
        mutant = with_swapped_filler(model, table, i, j, rng)
        report = validate_dgt(mutant, interchange="exhaustive")
        caught = [v for v in report.violations if v.law == law]
        assert caught, (law, report.witnesses)
        if witness is not None:
            assert witness in [v.witness for v in caught], law
    # the sampled evaluator reads the same tables: it finds exactly the
    # violations of the object-level draw, folded in the mutant's tables
    mutant = with_swapped_filler(model, "H", *h_pair, rng)
    report = validate_dgt(mutant, interchange="sampled", seed=3, samples=2000)
    t = mutant.tables()

    def paste(table):
        return lambda x, y: sq[table[index[x.key()], index[y.key()]]]

    _, witnesses = reference_sampled_interchange(mutant, 3, 2000, paste(t.H), paste(t.V))
    assert witnesses
    assert [v.witness for v in report.violations if v.law == "interchange"] == witnesses


def planted_fault(model, fault):
    """A copy of ``model`` with one fault planted, and the witness it must give."""
    sq, xm = model.squares, model.xm
    if fault == "boundary":
        # another element over the same edges; the tables stay the model's
        k = next(k for k, s in enumerate(sq) if not is_thin(s))
        bad = sq[k]._replace(elt=xm.fibers[sq[k].corner_se].identity)
        mutant = replace(model, squares=sq[:k] + (bad,) + sq[k + 1:])
        mutant._tables = model.tables()
        return mutant, f"square {bad} violates the boundary law"
    a = next(a for a in sorted(model.edges.arrows) if a not in model.edges.identity.values())
    if fault == "degeneracy-thin":
        conn = model.connections_minus[a]
        filler = next(s for s in sq if s.key()[1:] == conn.key()[1:] and not is_thin(s))
        return replace(model, connections_minus={**model.connections_minus, a: filler}), \
            f"conn-({a}) is not thin"
    other = next(b for b in sorted(model.edges.arrows) if b != a)
    return replace(model, connections_plus={**model.connections_plus,
                                            a: model.connections_plus[other]}), \
        f"conn+({a}) has wrong edges"


@pytest.mark.parametrize("fixture, fault", [
    ("c2_in_c2_model", "boundary"),
    ("aut_c3_model", "degeneracy-thin"),
    ("aut_c3_model", "connection-boundary"),
])
def test_square_checks_catch_a_planted_fault(request, fixture, fault):
    model = request.getfixturevalue(fixture)
    assert validate_dgt(model, interchange="exhaustive").ok
    mutant, witness = planted_fault(model, fault)
    report = validate_dgt(mutant, interchange="exhaustive")
    assert witness in [v.witness for v in report.violations if v.law == fault], report.witnesses


def test_sampled_interchange_draws_nothing_without_an_arrangement():
    # eps_v of a non-identity arrow: no square starts a complete 2x2
    # arrangement, so every draw would fail
    model = square_model(interval_finite_groupoid())
    lonely = [replace(model, squares=(eps_v(model.xm, a),)) for a in ("i", "i_inv")]

    def stuck(signum, frame):
        raise TimeoutError("sampled interchange is still drawing")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(20)
    try:
        for one in lonely:
            assert count_compatible_quadruples(one) == 0
            sampled = validate_dgt(one, interchange="sampled", samples=10)
            exhaustive = validate_dgt(one, interchange="exhaustive")
            assert sampled.checks == exhaustive.checks
            assert sampled.violations == exhaustive.violations
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# -- the serial sweeps and their orbit passes ----------------------------------

@pytest.fixture
def class_sweeps(monkeypatch):
    """The result of each ``_class_sweep`` run while the test runs, in order."""
    runs, sweep = [], dgt._class_sweep

    def recorded(*args):
        runs.append(sweep(*args))
        return runs[-1]

    monkeypatch.setattr(dgt, "_class_sweep", recorded)
    return runs


def every_block(monkeypatch, sweep, *args):
    """``sweep(*args)`` with no symmetry verified: every block is compared."""
    with monkeypatch.context() as patch:
        patch.setattr(dgt, "_symmetries", lambda model: [])
        return sweep(*args)


def assoc_sweep(model, table, H=None, V=None):
    """Associativity of ``table`` ("H" or "V") after one ``_verify`` of H
    and V, by default the model's own."""
    t = model.tables()
    return _assoc_sweep(model, dgt._verify(model, t.H if H is None else H,
                                           t.V if V is None else V), table)


def law_sweeps(model, H=None):
    t = model.tables()
    H = t.H if H is None else H
    return interchange_sweep(model, H, t.V), assoc_sweep(model, "H", H), assoc_sweep(model, "V", H)


def names(symmetries):
    return [s.name for s in symmetries]


def verified(model, only=None):
    """The names of the symmetries that ``model``'s tables verify for
    interchange, or for the associativity of the table ``only``."""
    t = model.tables()
    return names(dgt._verify(model, t.H, t.V).on(*("HV" if only is None else only)))


@pytest.mark.parametrize("fixture", ["sq_c2", "sq_s3", "aut_c3_model", "sq_interval_s3",
                                     "a3s3_model"])
def test_orbit_sweeps_match_the_every_block_ones(request, monkeypatch, class_sweeps, fixture):
    model = request.getfixturevalue(fixture)
    for H in [None, unconjugated_h(model)] if fixture == "aut_c3_model" else [None]:
        got = law_sweeps(model, H)
        assert every_block(monkeypatch, law_sweeps, model, H) == got
        if H is not None:
            checked, bad, first = got[0]
            assert 0 < bad < checked and first is not None
    # on the real tables each orbit pass compares fewer arrangements than
    # it counts, and the every-block sweeps compare every one
    class_sweeps.clear()
    got = law_sweeps(model)
    every_block(monkeypatch, law_sweeps, model)
    orbit, full = class_sweeps[:3], class_sweeps[3:]
    assert full == list(got)
    assert all(0 < a[0] < b[0] for a, b in zip(orbit, full))


def test_associativity_by_orbits_matches_every_block_on_aut_s3(monkeypatch, class_sweeps,
                                                               aut_s3_model):
    model, t = aut_s3_model, aut_s3_model.tables()

    def sweeps():
        return assoc_sweep(model, "H"), assoc_sweep(model, "V")

    assert verified(model, only="H") == verified(model, only="V") == [
        "inv_h", "inv_v", "conjugation by aut1", "conjugation by aut2"]
    assert sweeps() == every_block(monkeypatch, sweeps) == ((60_466_176, 0, None),) * 2
    (h, _, _), (v, _, _), (full, _, _), _ = class_sweeps
    assert h == v < full == 60_466_176
    # the conjugations cut the blocks compared below the reflections' cut
    class_sweeps.clear()
    with monkeypatch.context() as patch:
        patch.setattr(dgt, "_symmetries", lambda model, all=dgt._symmetries: all(model)[:3])
        assert sweeps() == ((60_466_176, 0, None),) * 2
    assert h < class_sweeps[0][0] < full


def loop_interchange(model, H, V):
    """Reference: interchange by a plain loop over table indices in the scan
    order x, z, y, w; (checked, violations, first violating (x, y, z, w))."""
    c = model.code()
    T, R, B, L = (col.tolist() for col in (c.T, c.R, c.B, c.L))
    H, V = H.tolist(), V.tolist()
    by_left, by_top, by_corner = {}, {}, {}
    for s in range(len(T)):
        by_left.setdefault(L[s], []).append(s)
        by_top.setdefault(T[s], []).append(s)
        by_corner.setdefault((L[s], T[s]), []).append(s)
    checked = bad = 0
    first = None
    for x in range(len(T)):
        for z in by_top.get(B[x], ()):
            for y in by_left.get(R[x], ()):
                for w in by_corner.get((R[z], B[y]), ()):
                    checked += 1
                    if V[H[x][y]][H[z][w]] != H[V[x][z]][V[y][w]]:
                        bad += 1
                        first = first or (x, y, z, w)
    return checked, bad, first


def loop_associativity(table, edge_out, edge_in):
    """Reference: associativity by a plain loop over table indices in the
    scan order x, y, z; (checked, violations, first violating (x, y, z))."""
    out, into, table = edge_out.tolist(), edge_in.tolist(), table.tolist()
    by_in = {}
    for s in range(len(into)):
        by_in.setdefault(into[s], []).append(s)
    checked = bad = 0
    first = None
    for x in range(len(out)):
        for y in by_in.get(out[x], ()):
            for z in by_in.get(out[y], ()):
                checked += 1
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    bad += 1
                    first = first or (x, y, z)
    return checked, bad, first


def pasted_pairs(model, table):
    """Every pair of square indices that ``table`` ("H" or "V") pastes."""
    sq = model.squares
    return [(i, j) for i in range(len(sq)) for j in range(len(sq))
            if (sq[i].right == sq[j].left if table == "H" else sq[i].bottom == sq[j].top)]


# model fixture, then how its tables are changed
EXACT_CASES = [
    ("sq_interval_s3", None),  # uneven and empty blocks
    ("aut_c3_model", None),
    ("aut_c3_model", "unconjugated"),
    ("aut_c3_model", "V"),  # a swapped filler in V breaks v-associativity
    # one in each table: the least violation in x, y, z, w order is not
    # the first in scan order, which is the one reported
    ("aut_c3_model", "HV"),
]


@pytest.mark.parametrize("fixture, change", EXACT_CASES,
                         ids=[f"{f}-{c}" for f, c in EXACT_CASES])
def test_sweeps_equal_the_plain_loops(request, fixture, change):
    model = request.getfixturevalue(fixture)
    rng = random.Random(5)
    for table in change if change in ("V", "HV") else ():
        model = with_swapped_filler(model, table, *rng.choice(pasted_pairs(model, table)), rng)
    t, c = model.tables(), model.code()
    H = unconjugated_h(model) if change == "unconjugated" else t.H
    want = (loop_interchange(model, H, t.V), loop_associativity(H, c.R, c.L),
            loop_associativity(t.V, c.B, c.T))
    if change is not None:
        assert want[0][1]  # every change breaks interchange
    if change in ("V", "HV"):
        assert want[2][1]  # and a swapped filler in V breaks v-associativity
    assert law_sweeps(model, H) == want


def associativity_violations(table, edge_out, edge_in):
    """Every (x, y, z) that ``loop_associativity`` counts as a violation."""
    out, into, t = edge_out.tolist(), edge_in.tolist(), table.tolist()
    n = len(out)
    return [(x, y, z) for x in range(n) for y in range(n) if out[x] == into[y]
            for z in range(n) if out[y] == into[z] and t[t[x][y]][z] != t[x][t[y][z]]]


def test_associativity_reports_the_least_violation_in_x_y_z_order(aut_c3_model):
    # two swapped fillers in H, drawn until the least violation in x, y, z
    # order is not the least in y-major order, the layout that the right
    # side's rows come in: a sweep that took its first violation in that
    # layout would report another triple
    model, c = aut_c3_model, aut_c3_model.code()
    rng = random.Random(3)
    for _ in range(50):
        mutant = model
        for _ in range(2):
            mutant = with_swapped_filler(mutant, "H", *rng.choice(pasted_pairs(model, "H")), rng)
        H = mutant.tables().H
        bad = associativity_violations(H, c.R, c.L)
        if bad and min(bad) != min(bad, key=lambda v: (v[1], v[2], v[0])):
            break
    else:
        pytest.fail("no draw put the least violation after another in y-major order")
    want = loop_associativity(H, c.R, c.L)
    assert want[1:] == (len(bad), min(bad))
    assert assoc_sweep(mutant, "H", H) == want


def planted(model, table, value):
    """A copy of ``table`` whose entry at its first pasted pair is -1
    ("undefined") or a square with four other edges ("off-edge")."""
    c = model.code()
    edges = np.stack([c.T, c.R, c.B, c.L], axis=1)
    i, j = pasted_pairs(model, table)[0]
    out = getattr(model.tables(), table).copy()
    out[i, j] = -1 if value == "undefined" else np.flatnonzero(
        (edges != edges[out[i, j]]).all(axis=1))[0]
    return out, f"[{i}, {j}]"


@pytest.mark.parametrize("value", ["undefined", "off-edge"])
def test_sweeps_refuse_a_pasting_that_is_not_a_square_over_its_edges(aut_c3_model, value):
    model = aut_c3_model
    t = model.tables()
    H, at = planted(model, "H", value)
    with pytest.raises(InvalidDgt, match=re.escape(f"H{at}")):
        interchange_sweep(model, H, t.V)
    V, at = planted(model, "V", value)
    with pytest.raises(InvalidDgt, match=re.escape(f"V{at}")):
        interchange_sweep(model, t.H, V)


def test_the_pasting_checks_name_the_least_wrong_pair(aut_c3_model):
    model, c = aut_c3_model, aut_c3_model.code()
    t = model.tables()
    pairs = pasted_pairs(model, "H")
    # p1 pastes along a later edge than p2 but comes first in row-major order
    p1 = next((i, j) for i, j in pairs if c.R[i] != 0)
    p2 = [(i, j) for i, j in pairs if c.R[i] == 0][-1]
    assert p2 > p1
    H = t.H.copy()
    H[p1] = H[p2] = -1
    with pytest.raises(InvalidDgt, match=re.escape(f"H[{p1[0]}, {p1[1]}] is -1")):
        interchange_sweep(model, H, t.V)
    # a square with the forced left and right but another top and bottom:
    # interchange reads the top and bottom, associativity only the sides
    i, j = pairs[0]
    old = t.H[i, j]
    other = next(q for q in range(model.size())
                 if (c.L[q], c.R[q]) == (c.L[old], c.R[old]) and c.T[q] != c.T[old])
    H = t.H.copy()
    H[i, j] = other
    with pytest.raises(InvalidDgt, match=re.escape(f"H[{i}, {j}] = {other} is off the edge")):
        interchange_sweep(model, H, t.V)
    checked, bad, _ = assoc_sweep(model, "H", H)
    assert (checked, bad) == loop_associativity(H, c.R, c.L)[:2]


def test_interchange_is_exhaustive_on_aut_s3(aut_s3_model):
    quads = count_compatible_quadruples(aut_s3_model)
    assert interchange_exhaustive(aut_s3_model) == (quads, 0, None)
    assert quads == 2_176_782_336


def test_class_sweep_counts_a_toy_sweep():
    # 4 blocks, each of 2 outer squares x by 5 partners, one miss per x
    def pieces(rows):
        for k in rows.tolist():
            for x in (k, k + 4):
                miss = np.where(np.arange(5) == x % 5, -1, np.arange(5))
                yield np.arange(5)[None], miss[None], ([x], np.arange(5))

    assert dgt._class_sweep(np.arange(4), pieces) == (40, 8, (0, 0))


# -- the packed interchange rows ------------------------------------------------

def side_by_side(x1, x2):
    """Two crossed modules over the disjoint union of their bases."""
    base = disjoint_union(x1.base, x2.base)
    fibers, mu, action = {}, {}, {}
    for label, x in (("1", x1), ("2", x2)):
        def obj(s):
            return s if s in base.objects else f"{label}.{s}"

        def arrow(p):
            return p if p in base.arrows else f"{label}.{p}"

        for s, g in x.fibers.items():
            fibers[obj(s)] = g
            mu[obj(s)] = {m: arrow(p) for m, p in x.mu[s].items()}
        action.update({(m, arrow(p)): n for (m, p), n in x.action.items()})
    return CrossedModuleData(f"{x1.name}+{x2.name}", base, fibers, mu, action)


@pytest.fixture(scope="module")
def c3_beside_c2():
    # C3 -> Aut(C3) beside C2 -> C2: fibers of orders 3 and 2, and groups
    # of 6 and of 4 squares w per (left, top)
    c2 = cyclic_group(2)
    xm = side_by_side(automorphism_xmod(cyclic_group(3)), from_normal_subgroup(c2, c2.elements))
    assert validate_crossed_module(xm).ok
    return lambda_functor(xm)


@pytest.mark.parametrize("fixture, change", [("sq_interval_s3", None), ("c3_beside_c2", None),
                                             ("c3_beside_c2", "unconjugated"), ("c3_beside_c2", "V")])
def test_rows_of_several_words_sweep_as_the_plain_loop(request, monkeypatch, fixture, change):
    # one-byte words: a row of more than 4 two-bit ranks spans two of them
    monkeypatch.setattr(dgt, "_WORD", np.dtype(np.int8))
    model = request.getfixturevalue(fixture)
    sizes = set(model.groups("left", "top").count[:-1].tolist())
    assert len(sizes) > 1
    if change == "V":
        rng = random.Random(2)
        sq, V = model.squares, model.tables().V
        swappable = [(i, j) for i, j in pasted_pairs(model, "V")
                     if sum(q.key()[1:] == sq[V[i, j]].key()[1:] for q in sq) > 1]
        model = with_swapped_filler(model, "V", *rng.choice(swappable), rng)
    t = model.tables()
    H = unconjugated_h(model) if change == "unconjugated" else t.H
    want = loop_interchange(model, H, t.V)
    assert bool(want[1]) == (change is not None)
    assert interchange_sweep(model, H, t.V) == want


@pytest.mark.parametrize("word, n, bits, lane", [
    (np.int64, 18, 2, np.uint8), (np.int64, 36, 3, np.uint16), (np.int8, 6, 2, np.uint8),
    (np.int8, 5, 9, np.uint16), (np.int16, 40, 1, np.uint8)])
def test_packed_rows_are_equal_exactly_when_their_values_are(word, n, bits, lane, monkeypatch):
    monkeypatch.setattr(dgt, "_WORD", np.dtype(word))
    rng = np.random.default_rng(bits)
    per = np.iinfo(lane).bits // bits
    table = rng.integers(0, 1 << bits, (12, 7)).astype(lane)
    table[:, 0] = table[:, 1]  # two equal columns
    shifted = np.zeros((per, len(table) + 1, table.shape[1]), lane)
    for i in range(per):
        shifted[i, :-1] = table << (bits * i)
    at = rng.integers(0, len(table), (9, n))
    at[1] = at[0]  # two equal rows of at
    at[2] = at[0]
    at[2, -1] = (at[0, -1] + 1) % len(table)  # a row that differs in its last place
    words = dgt._packed(shifted, at)
    assert words.dtype == np.dtype(word) and words.shape[:2] == (len(at), table.shape[1])
    values = table[at]  # (row of at, k, column)
    for a, b in itertools.product(range(len(at)), repeat=2):
        for u, v in itertools.product(range(table.shape[1]), repeat=2):
            assert (words[a, u] == words[b, v]).all() == (values[a, :, u] == values[b, :, v]).all()


# -- the law sweeps by orbits of the verified symmetries -------------------------

REFLECTIONS = ["transpose", "inv_h", "inv_v"]

# each kind of symmetry's image of the arrangement [[x, y], [z, w]], given
# the mapped squares, and whether it swaps the law's two sides
ARRANGEMENT_MAPS = {
    "transpose": (lambda x, y, z, w: (x, z, y, w), True),
    "inv_h": (lambda x, y, z, w: (y, x, w, z), False),
    "inv_v": (lambda x, y, z, w: (z, w, x, y), False),
    "conjugation": (lambda x, y, z, w: (x, y, z, w), False),
}


def arrangements(model):
    """Every edge-compatible (x, y, z, w), as four index arrays."""
    c = model.code()
    T, R, B, L = (col.tolist() for col in (c.T, c.R, c.B, c.L))
    quads = [(x, y, z, w) for x in range(len(T)) for y in range(len(T)) if L[y] == R[x]
             for z in range(len(T)) if T[z] == B[x]
             for w in range(len(T)) if (L[w], T[w]) == (R[z], B[y])]
    return np.array(quads, np.intp).T


def arrangements_by_x(model, xs=None):
    """Every edge-compatible (x, y, z, w), or those with x in ``xs``, as
    four index arrays per x."""
    c = model.code()
    by_left, by_top, by_corner = (model.groups(*e) for e in (("left",), ("top",), ("left", "top")))
    for x in range(model.size()) if xs is None else xs:
        ys, zs = by_left.members(c.R[x]), by_top.members(c.B[x])
        y, z = np.repeat(ys, len(zs)), np.tile(zs, len(ys))
        y, z, w = by_corner.extend((y, z), (c.R[z], c.B[y]))
        yield np.full(len(w), x), y, z, w


def triples(model, table, xs=None):
    """Every (x, y, z) that ``table`` ("H" or "V") pastes twice, or those
    with x in ``xs``, as three index arrays."""
    c = model.code()
    out, into = dgt._PASTES[table]
    by_into = model.groups(into)
    x = np.arange(model.size()) if xs is None else np.asarray(xs)
    x, y = by_into.extend((x,), (c.edge[out][x],))
    return by_into.extend((x, y), (c.edge[out][y],))


def assert_block_maps_on(model, quads, symmetries):
    """Each symmetry maps each arrangement of ``quads`` onto an arrangement,
    its block onto the image's and its two sides onto the image's."""
    c, t = model.code(), model.tables()

    def block(x, y, z, w):  # (beta, rho, r, b)
        return np.stack([c.B[y], c.R[z], c.R[x], c.B[x]])

    def sides(x, y, z, w):
        return t.V[t.H[x, y], t.H[z, w]], t.H[t.V[x, z], t.V[y, w]]

    for s in symmetries:
        arrange, swaps = ARRANGEMENT_MAPS[s.kind]
        x, y, z, w = image = np.stack(arrange(*s.squares[quads]))
        assert ((c.R[x] == c.L[y]) & (c.B[x] == c.T[z]) & (c.R[z] == c.L[w])
                & (c.B[y] == c.T[w])).all()
        assert np.array_equal(np.stack(s.quad_block(*block(*quads))), block(*image))
        lhs, rhs = sides(*quads)
        assert np.array_equal(s.squares[np.stack((rhs, lhs) if swaps else (lhs, rhs))],
                              np.stack(sides(*image)))


def assert_triple_maps_on(model, table, trips, symmetries):
    """Each symmetry maps each triple of ``trips`` that ``table`` ("H" or
    "V") pastes onto such a triple, its block onto the image's and its two
    sides onto the image's."""
    c = model.code()
    T = getattr(model.tables(), table)
    out, into = (c.edge[e] for e in dgt._PASTES[table])

    def sides(x, y, z):
        return T[T[x, y], z], T[x, T[y, z]]

    for s in symmetries:
        anti = s.claim(table)[1]
        m = s.squares[trips]
        x, y, z = image = m[::-1] if anti else m
        assert ((out[x] == into[y]) & (out[y] == into[z])).all()
        assert np.array_equal(np.stack(s.triple_block(table, out[trips[0]], out[trips[1]])),
                              np.stack([out[x], out[y]]))
        lhs, rhs = sides(*trips)
        assert np.array_equal(s.squares[np.stack((rhs, lhs) if anti else (lhs, rhs))],
                              np.stack(sides(*image)))


@pytest.fixture(scope="module")
def sq_c3():
    # arrows that are not their own inverses, which inv_h and inv_v invert
    return square_model(group_as_groupoid(cyclic_group(3), name="c3"))


@pytest.fixture(scope="module")
def sq_interval():
    return square_model(interval_finite_groupoid())


@pytest.fixture(scope="module")
def c2_over_s3(s3):
    # C2 -> S3 with trivial boundary and action: 432 squares, two fillers
    # to each commuting boundary, and a base whose conjugations move arrows
    c2, base = cyclic_group(2), group_as_groupoid(s3, name="s3")
    xm = CrossedModuleData("c2s3", base, {"*": c2}, {"*": dict.fromkeys(c2.elements, "e")},
                           {(m, p): m for m in c2.elements for p in base.arrows})
    assert validate_crossed_module(xm).ok
    return lambda_functor(xm)


@pytest.mark.parametrize("fixture", ["sq_c3", "sq_interval", "aut_c3_model", "c3_beside_c2"])
def test_each_block_map_is_its_reflection_on_every_arrangement(request, fixture):
    model = request.getfixturevalue(fixture)
    assert verified(model) == REFLECTIONS
    quads = arrangements(model)
    symmetries = dgt._verify(model, model.tables().H, model.tables().V).on("H", "V")
    assert_block_maps_on(model, quads, symmetries)
    for s in symmetries:  # one to one onto the arrangements
        image = np.stack(ARRANGEMENT_MAPS[s.kind][0](*s.squares[quads]))
        assert {*map(tuple, image.T.tolist())} == {*map(tuple, quads.T.tolist())}


def test_each_conjugation_block_map_is_its_symmetry_on_every_arrangement(sq_s3):
    # the symmetries are permutations, so into the arrangements is onto them
    model = sq_s3
    symmetries = dgt._verify(model, model.tables().H, model.tables().V).on("H", "V")
    assert names(symmetries) == REFLECTIONS + ["conjugation by (12)", "conjugation by (123)"]
    for quads in arrangements_by_x(model):
        assert_block_maps_on(model, np.stack(quads), symmetries[3:])


@pytest.mark.parametrize("fixture", ["sq_c3", "sq_interval", "aut_c3_model", "c3_beside_c2",
                                     "sq_s3"])
@pytest.mark.parametrize("table", ["H", "V"])
def test_each_triple_block_map_is_its_symmetry_on_every_triple(request, fixture, table):
    model = request.getfixturevalue(fixture)
    c, t = model.code(), model.tables()
    T = getattr(t, table)
    symmetries = dgt._verify(model, t.H, t.V).on(table)
    assert names(symmetries) == names(dgt._symmetries(model))[1:]  # all but the transpose
    trips = np.stack(triples(model, table))
    assert len(trips[0]) == loop_associativity(T, *(c.edge[e] for e in dgt._PASTES[table]))[0]
    assert_triple_maps_on(model, table, trips, symmetries)


@pytest.mark.parametrize("fixture", ["a3s3_model", "c2_over_s3"])
def test_the_conjugations_carry_the_arrangements_and_triples_of_sampled_squares(request, fixture):
    # fibers of 3 and 2 elements, acted on by conjugation (A3 in S3) or not
    # at all: every arrangement and triple that starts at 3 drawn squares
    model = request.getfixturevalue(fixture)
    t = model.tables()
    xs = random.Random(29).sample(range(model.size()), 3)
    symmetries = dgt._verify(model, t.H, t.V).on("H", "V")
    assert names(symmetries) == REFLECTIONS + ["conjugation by (12)", "conjugation by (123)"]
    for quads in arrangements_by_x(model, xs):
        assert_block_maps_on(model, np.stack(quads), symmetries)
    for table in ("H", "V"):
        assert_triple_maps_on(model, table, np.stack(triples(model, table, xs)),
                              dgt._verify(model, t.H, t.V).on(table))


@pytest.mark.parametrize("fixture", ["sq_c2", "sq_s3", "c2_in_c2_model", "aut_c3_model",
                                     "sq_interval_s3", "a3s3_model", "aut_s3_model"])
def test_one_block_per_orbit_covers_every_arrangement(request, monkeypatch, class_sweeps, fixture):
    # the two generators of S3 conjugate; a conjugation by a central
    # generator, as in C2 or Aut(C3), moves no block and is left out
    model = request.getfixturevalue(fixture)
    t = model.tables()
    conjugations = 2 if fixture in ("sq_s3", "a3s3_model", "aut_s3_model") else 0
    assert verified(model)[:3] == REFLECTIONS and len(verified(model)) == 3 + conjugations
    total = count_compatible_quadruples(model)
    assert interchange_sweep(model, t.H, t.V) == (total, 0, None)
    [(compared, _, _)] = class_sweeps  # one sweep, over the least block of each orbit
    assert 0 < compared < total
    assert every_block(monkeypatch, interchange_sweep, model, t.H, t.V) == (total, 0, None)
    assert class_sweeps[1][0] == total


@pytest.mark.parametrize("table", ["H", "V"])
@pytest.mark.parametrize("fixture", ["aut_c3_model", "c3_beside_c2"])
def test_a_swapped_filler_is_swept_as_the_plain_loop(request, monkeypatch, fixture, table):
    # V is no longer H transposed; inv_h or inv_v may still hold where the
    # swapped entry's pair and its filler are their own images
    model = request.getfixturevalue(fixture)
    sq, rng = model.squares, random.Random(13)
    swappable = [(i, j) for i, j in pasted_pairs(model, table)
                 if sum(q.key()[1:] == sq[getattr(model.tables(), table)[i, j]].key()[1:]
                        for q in sq) > 1]
    for _ in range(3):
        mutant = with_swapped_filler(model, table, *rng.choice(swappable), rng)
        t = mutant.tables()
        assert "transpose" not in verified(mutant)
        want = loop_interchange(mutant, t.H, t.V)
        assert want[1]
        assert interchange_sweep(mutant, t.H, t.V) == want
        assert every_block(monkeypatch, interchange_sweep, mutant, t.H, t.V) == want


def doctored_along_an_orbit(model, i, j, rng, symmetries=None):
    """A copy of ``model`` whose H[i, j] names another square with the same
    four edges, and every entry that ``symmetries`` (by default all the
    model's) carry that one to names that square's image, so that the
    tables keep each of them where they stay consistent; and the number of
    entries changed."""
    t = model.tables()
    tables = {"H": t.H.copy(), "V": t.V.copy()}
    old = model.squares[t.H[i, j]]
    new = rng.choice([k for k, q in enumerate(model.squares)
                      if q.key()[1:] == old.key()[1:] and q.elt != old.elt])
    moves = [(s.squares.tolist(), s.claim)
             for s in (dgt._symmetries(model) if symmetries is None else symmetries)]
    entries, frontier = {("H", i, j): new}, [("H", i, j, new)]
    while frontier:
        tb, x, y, sq = frontier.pop()
        for m, claim in moves:
            target, anti = claim(tb)
            key = (target, *((m[y], m[x]) if anti else (m[x], m[y])))
            if key not in entries:
                entries[key] = m[sq]
                frontier.append((*key, m[sq]))
    for (tb, x, y), sq in entries.items():
        tables[tb][x, y] = sq
    mutant = replace(model)
    mutant._tables = SquareTables(tables["H"], tables["V"])
    return mutant, len(entries)


@pytest.mark.parametrize("fixture", ["aut_c3_model", "c3_beside_c2"])
def test_a_mutant_doctored_along_an_orbit_is_swept_block_by_block(request, monkeypatch,
                                                                 class_sweeps, fixture):
    # every reflection still holds, so the least block of each orbit is
    # compared first; its violations send the sweep over every block
    model = request.getfixturevalue(fixture)
    rng = random.Random(19)
    for _ in range(200):
        i, j = rng.choice(pasted_pairs(model, "H"))
        mutant, changed = doctored_along_an_orbit(model, i, j, rng)
        t = mutant.tables()
        want = loop_interchange(mutant, t.H, t.V)
        if verified(mutant) == REFLECTIONS and want[1]:
            break
    else:
        pytest.fail("no draw kept the reflections and broke interchange")
    assert changed == 8
    class_sweeps.clear()
    assert interchange_sweep(mutant, t.H, t.V) == want
    (compared, _, _), (swept, _, _) = class_sweeps  # the least blocks, then every block
    assert compared < swept == count_compatible_quadruples(model)
    assert every_block(monkeypatch, interchange_sweep, mutant, t.H, t.V) == want


# model, the names of the symmetries the doctoring follows (None: all of
# them), and the symmetries of H that then verify
ASSOCIATIVITY_DOCTORED = [
    ("aut_c3_model", None, ["inv_h", "inv_v"]),
    ("c3_beside_c2", None, ["inv_h", "inv_v"]),
    ("aut_c3_model", ["inv_h"], ["inv_h"]),
    ("c2_over_s3", None, ["inv_h", "inv_v", "conjugation by (12)", "conjugation by (123)"]),
    ("c2_over_s3", REFLECTIONS, ["inv_h", "inv_v"]),
]


@pytest.mark.parametrize("fixture, follow, holds", ASSOCIATIVITY_DOCTORED,
                         ids=[f"{f}-{'+'.join(w or ['all'])}" for f, w, _ in ASSOCIATIVITY_DOCTORED])
def test_associativity_doctored_along_an_orbit_is_swept_as_the_plain_loop(
        request, monkeypatch, class_sweeps, fixture, follow, holds):
    # the symmetries followed still hold on H, and only those: the orbit
    # pass finds the violations and sends the sweep over every block
    model, rng = request.getfixturevalue(fixture), random.Random(23)
    c, pairs = model.code(), pasted_pairs(model, "H")
    symmetries = [s for s in dgt._symmetries(model) if follow is None or s.name in follow]
    for _ in range(50):
        mutant, _ = doctored_along_an_orbit(model, *rng.choice(pairs), rng, symmetries)
        H = mutant.tables().H
        want = loop_associativity(H, c.R, c.L)
        if verified(mutant, only="H") == holds and want[1]:
            break
    else:
        pytest.fail("no draw kept just those symmetries and broke associativity")
    class_sweeps.clear()
    assert assoc_sweep(mutant, "H", H) == want
    (compared, _, _), (swept, _, _) = class_sweeps
    assert compared < swept == want[0]
    assert every_block(monkeypatch, assoc_sweep, mutant, "H", H) == want
    # interchange, too, is swept modulo the symmetries that still hold
    t = mutant.tables()
    assert interchange_sweep(mutant, t.H, t.V) == every_block(monkeypatch, interchange_sweep,
                                                              mutant, t.H, t.V)


@pytest.mark.parametrize("fixture", ["aut_c3_model", "c3_beside_c2"])
def test_the_unconjugated_pasting_fails_the_table_sweep(request, monkeypatch, fixture):
    # the table-level negative control: a count of violations, not one witness
    model = request.getfixturevalue(fixture)
    H, V = unconjugated_h(model), model.tables().V
    assert (H >= 0).sum() == len(pasted_pairs(model, "H"))  # the composites stay in the model
    want = loop_interchange(model, H, V)
    got = interchange_sweep(model, H, V)
    assert got == every_block(monkeypatch, interchange_sweep, model, H, V) == want
    assert 0 < got[1] < got[0]


def test_the_unconjugated_pasting_leaves_the_a3s3_model(a3s3_model):
    # mu is injective: each boundary has one filler, so the only H with the
    # forced edges is the real one, and the unconjugated pasting, where it
    # differs, names no square at all
    model = a3s3_model
    H = unconjugated_h(model)
    sq, index = model.squares, model.index
    i, j = min((i, index[y.key()]) for i, x in enumerate(sq) for y in model.squares_with(left=x.right)
               if comp_h_unconjugated(x, y) not in model)
    assert H[i, j] == -1 and (H < 0).sum() > 0
    with pytest.raises(InvalidDgt, match=re.escape(f"H[{i}, {j}] is -1 on an edge-compatible pair")):
        interchange_sweep(model, H, model.tables().V)


# -- v-associativity read off h-associativity -------------------------------------

def validate_recording_sweeps(monkeypatch, model, **kwargs):
    """validate_dgt's report, and the (table, result) of each
    associativity sweep it ran."""
    sweeps, sweep = [], dgt._assoc_sweep

    def recorded(model, verified, table):
        result = sweep(model, verified, table)
        sweeps.append((table, result))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(dgt, "_assoc_sweep", recorded)
        return validate_dgt(model, **kwargs), sweeps


def v_associativity_witnesses(report):
    return [v.witness for v in report.violations if v.law == "v-associativity"]


def test_validate_dgt_refuses_an_unknown_mode_before_any_sweep(monkeypatch, aut_s3_model):
    model, calls = replace(aut_s3_model), []
    for name in ("_verify", "_assoc_sweep", "_class_sweep", "count_compatible_quadruples"):
        def recorded(*args, name=name, run=getattr(dgt, name)):
            calls.append(name)
            return run(*args)
        monkeypatch.setattr(dgt, name, recorded)
    for mode in ("bogus", "auto"):  # no threshold picks a mode any more
        with pytest.raises(ValueError, match=rf"^unknown interchange mode '{mode}'$"):
            validate_dgt(model, interchange=mode)
    assert calls == [] and model._tables is None


@pytest.mark.parametrize("fixture", ["sq_c2", "sq_s3", "c2_in_c2_model", "aut_c3_model",
                                     "sq_interval_s3", "a3s3_model", "aut_s3_model"])
def test_v_associativity_is_h_associativity_transposed(request, monkeypatch, fixture):
    model = request.getfixturevalue(fixture)
    t = model.tables()
    assert dgt._verify(model, t.H, t.V).transposed
    h, v = assoc_sweep(model, "H"), assoc_sweep(model, "V")
    assert h[:2] == v[:2] and h[0] > 0
    report, sweeps = validate_recording_sweeps(monkeypatch, model, interchange="sampled",
                                               samples=200)
    assert sweeps == [("H", h)]  # V's sweep did not run
    # the same report as with V swept in full
    with monkeypatch.context() as patch:
        patch.setattr(dgt, "_verify",
                      lambda *args, run=dgt._verify, **kw: replace(run(*args, **kw), transposed=False))
        full, sweeps = validate_recording_sweeps(monkeypatch, model, interchange="sampled",
                                                 samples=200)
    assert sweeps == [("H", h), ("V", v)]
    assert (report.checks, report.violations) == (full.checks, full.violations)


def hollow_interval():
    """The interval's four horizontal degeneracies alone: a model whose
    transposes are missing, with 4 horizontal and 16 vertical triples."""
    model = square_model(interval_finite_groupoid())
    return replace(model, squares=tuple(eps_h(model.xm, a) for a in sorted(model.edges.arrows)))


@pytest.mark.parametrize("mutant", ["V", "H", "hollow"])
def test_a_model_that_is_not_transposed_gets_the_full_v_sweep(monkeypatch, aut_c3_model, mutant):
    rng = random.Random(7)
    if mutant == "hollow":
        model = hollow_interval()
        assert (model.maps().transpose < 0).any()
    else:
        model = with_swapped_filler(aut_c3_model, mutant,
                                    *rng.choice(pasted_pairs(aut_c3_model, mutant)), rng)
    t = model.tables()
    assert not dgt._verify(model, t.H, t.V).transposed
    h, v = assoc_sweep(model, "H"), assoc_sweep(model, "V")
    assert h[:2] != v[:2]  # H's counts would be wrong for V
    report, sweeps = validate_recording_sweeps(monkeypatch, model, interchange="exhaustive")
    assert sweeps == [("H", h), ("V", v)]
    assert v_associativity_witnesses(report) == ([f"{v[1]} violating triples"] if v[1] else [])


def test_a_filler_swapped_with_its_transpose_keeps_the_shortcut(monkeypatch, aut_c3_model):
    model, rng = aut_c3_model, random.Random(7)
    i, j = rng.choice(pasted_pairs(model, "H"))
    mutant = with_swapped_filler(model, "H", i, j, rng)
    tau, t = model.maps().transpose, mutant.tables()
    t.V[tau[i], tau[j]] = tau[t.H[i, j]]
    assert t.V[tau[i], tau[j]] != model.tables().V[tau[i], tau[j]]
    assert dgt._verify(mutant, t.H, t.V).transposed
    v = assoc_sweep(mutant, "V")
    report, sweeps = validate_recording_sweeps(monkeypatch, mutant, interchange="exhaustive")
    assert [table for table, _ in sweeps] == ["H"]
    assert sweeps[0][1][:2] == v[:2] and v[1] > 0
    assert v_associativity_witnesses(report) == [f"{v[1]} violating triples"]


# -- the one check of the tables and the symmetries -------------------------------

# each kind of symmetry's claim per table: the table a pasting's image
# lands in, and whether the image reverses the pasting
CLAIMS = {"transpose": {"H": ("V", False), "V": ("H", False)},
          "inv_h": {"H": ("H", True), "V": ("V", False)},
          "inv_v": {"H": ("H", False), "V": ("V", True)},
          "conjugation": {"H": ("H", False), "V": ("V", False)}}


def direct_verdicts(model, H, V):
    """Per listed symmetry, the tables on which its claim holds, each
    checked on its own: the map permutes the squares (tau is also its own
    inverse), and target[m x, m y], or target[m y, m x] where it reverses,
    is m table[x, y] on every pair that the table pastes."""
    c, n, tables = model.code(), model.size(), {"H": H, "V": V}
    out = {}
    for s in dgt._symmetries(model):
        m = s.squares
        ok = (sorted(m.tolist()) == list(range(n))
              and (s.kind != "transpose" or (m[m] == np.arange(n)).all()))
        out[s.name] = set()
        for k, (edge_out, edge_in) in dgt._PASTES.items():
            x, y = np.nonzero(c.edge[edge_out][:, None] == c.edge[edge_in])
            target, anti = CLAIMS[s.kind][k]
            image = tables[target][m[y], m[x]] if anti else tables[target][m[x], m[y]]
            if ok and (image == m[tables[k][x, y]]).all():
                out[s.name].add(k)
    return out


def assert_verdicts_are_direct(model, H, V):
    """``_verify``'s verdict on each symmetry and each table is a direct
    check of that claim on that table; returns the verdicts."""
    v = dgt._verify(model, H, V)
    want = direct_verdicts(model, H, V)
    got = {s.name: {k for k in "HV" if s.name in v.holds[k]} for s in v.symmetries}
    assert {name: got.get(name, set()) for name in want} == want
    assert v.transposed == ("H" in want.get("transpose", ()))
    assert all(s.claim(k) == CLAIMS[s.kind][k] for s in v.symmetries for k in "HV")
    return want


@pytest.mark.parametrize("fixture", ["sq_c2", "sq_c3", "sq_s3", "sq_interval", "c2_in_c2_model",
                                     "aut_c3_model", "sq_interval_s3", "c3_beside_c2",
                                     "c2_over_s3", "a3s3_model", "aut_s3_model", "hollow"])
def test_each_verdict_of_the_one_check_is_a_direct_check(request, fixture):
    model = hollow_interval() if fixture == "hollow" else request.getfixturevalue(fixture)
    t = model.tables()
    verdicts = assert_verdicts_are_direct(model, t.H, t.V)
    if fixture == "hollow":
        assert verdicts["transpose"] == set()
    else:  # every claim holds
        assert all(tables == {"H", "V"} for tables in verdicts.values())


def doctored(model, how, rng):
    """``model``'s tables (H, V) doctored as ``how`` names."""
    t = model.tables()
    if how == "unconjugated":
        return unconjugated_h(model), t.V
    if how == "orbit":
        mutant, _ = doctored_along_an_orbit(model, *rng.choice(pasted_pairs(model, "H")), rng)
    else:  # a filler swapped in H or V, or in H and its transpose in V
        mutant = with_swapped_filler(model, how[0], *rng.choice(pasted_pairs(model, how[0])), rng)
    H, V = mutant.tables().H, mutant.tables().V
    if how == "H+transposed":
        tau = model.maps().transpose
        x, y = np.nonzero(H != t.H)
        V[tau[x], tau[y]] = tau[H[x, y]]
    return H, V


# model fixture, then how its tables are doctored (``doctored``); C2 -> S3
# has trivial action, so its unconjugated pasting is the real one
DOCTORED = [(f, how) for f in ("aut_c3_model", "c2_over_s3")
            for how in ("H", "V", "orbit", "H+transposed")] + [
    ("aut_c3_model", "unconjugated"), ("c3_beside_c2", "unconjugated")]


@pytest.mark.parametrize("fixture, how", DOCTORED, ids=[f"{f}-{how}" for f, how in DOCTORED])
def test_each_verdict_on_doctored_tables_is_a_direct_check(request, fixture, how):
    model = request.getfixturevalue(fixture)
    H, V = doctored(model, how, random.Random(31))
    assert not (np.array_equal(H, model.tables().H) and np.array_equal(V, model.tables().V))
    verdicts = assert_verdicts_are_direct(model, H, V)
    if how == "V":  # tau fails while every other claim on H holds
        assert "H" not in verdicts["transpose"]
        assert all("H" in tables for name, tables in verdicts.items() if name != "transpose")
    if how == "H+transposed":
        assert "H" in verdicts["transpose"]


def test_a_listed_map_that_is_not_tau_s_tau_is_checked_on_v(monkeypatch, aut_c3_model):
    # inv_v listed with tau's map: tau inv_h tau is then no listed map, so
    # inv_h's claim on V is checked, not read off that inv_v's claim on H
    def symmetries(model, run=dgt._symmetries):
        out = run(model)
        out[2] = replace(out[2], squares=out[0].squares)
        return out

    monkeypatch.setattr(dgt, "_symmetries", symmetries)
    t = aut_c3_model.tables()
    verdicts = assert_verdicts_are_direct(aut_c3_model, t.H, t.V)
    assert verdicts["inv_h"] == {"H", "V"} and "H" not in verdicts["inv_v"]


def recording_checks(monkeypatch, run, *args, **kwargs):
    """``run(*args, **kwargs)``, the tables whose pastings it checked and
    the (symmetry, table) of each claim it checked, in order."""
    pastings, claims = [], []
    check, holds = dgt._check_pastings, dgt._holds

    def checked(model, table, name):
        pastings.append(name)
        return check(model, table, name)

    def held(model, s, tables, k):
        claims.append((s.name, k))
        return holds(model, s, tables, k)

    with monkeypatch.context() as patch:
        patch.setattr(dgt, "_check_pastings", checked)
        patch.setattr(dgt, "_holds", held)
        return run(*args, **kwargs), pastings, claims


@pytest.mark.parametrize("fixture", ["sq_s3", "aut_c3_model", "aut_s3_model"])
@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_validate_dgt_checks_each_table_and_claim_once(request, monkeypatch, fixture, mode):
    # tables() proved every pasting: no pasting check; tau, then each
    # other claim on H, once; V's claims are read off them through tau
    model = request.getfixturevalue(fixture)
    listed = names(dgt._symmetries(model))
    report, pastings, claims = recording_checks(monkeypatch, validate_dgt, model, interchange=mode)
    assert report.ok
    assert pastings == []
    assert claims == [(name, "H") for name in listed]


@pytest.mark.parametrize("mutant", ["V", "hollow"])
def test_validate_dgt_checks_v_once_where_tau_fails(monkeypatch, aut_c3_model, mutant):
    if mutant == "hollow":
        model = hollow_interval()
    else:
        rng = random.Random(7)
        model = with_swapped_filler(aut_c3_model, "V",
                                    *rng.choice(pasted_pairs(aut_c3_model, "V")), rng)
    listed = names(dgt._verify(model, model.tables().H, model.tables().V).symmetries)
    others = [name for name in listed if name != "transpose"]
    report, pastings, claims = recording_checks(monkeypatch, validate_dgt, model,
                                                interchange="exhaustive")
    assert pastings == []
    assert claims == ([("transpose", "H")] if "transpose" in listed else []) + [
        (name, k) for k in "HV" for name in others]


@pytest.mark.parametrize("fixture", ["sq_s3", "aut_c3_model", "aut_s3_model"])
def test_only_an_outside_table_gets_a_pasting_check(request, monkeypatch, fixture):
    model = request.getfixturevalue(fixture)
    t = model.tables()
    quads = count_compatible_quadruples(model)
    got, pastings, _ = recording_checks(monkeypatch, interchange_exhaustive, model)
    assert got == (quads, 0, None) and pastings == []
    got, pastings, _ = recording_checks(monkeypatch, interchange_sweep, model, t.H, t.V)
    assert got == (quads, 0, None) and pastings == ["H", "V"]


@pytest.mark.parametrize("fixture", ["sq_c2", "sq_s3", "a3s3_model", "aut_c3_model",
                                     "c3_beside_c2", "aut_s3_model", "hollow"])
def test_the_tables_pass_the_pasting_check(request, fixture):
    # what the sweeps of tables() read without a check: every pasting of
    # H and V is the square on its forced edges, composed ones included
    model = hollow_interval() if fixture == "hollow" else request.getfixturevalue(fixture)
    t = model.tables()
    dgt._check_pastings(model, t.H, "H")
    dgt._check_pastings(model, t.V, "V")


# -- connection verdicts ------------------------------------------------------------

def test_a_doctored_conn_minus_fails_its_boundary_and_transport_checks(aut_c3_model):
    model = aut_c3_model
    cm = model.connections_minus
    assert validate_dgt(model, interchange="exhaustive").ok and connection_transport_report(model).ok
    pairs = [("aut0", "aut0"), ("aut0", "aut1"), ("aut1", "aut0"), ("aut1", "aut1")]
    # conn-(aut0) is given aut1's: its edges are wrong, and no corner fills fit
    moved = replace(model, connections_minus={**cm, "aut0": cm["aut1"]})
    assert validate_dgt(moved, interchange="exhaustive").witnesses == [
        "connection-boundary: conn-(aut0) has wrong edges"]
    assert connection_transport_report(moved).witnesses == [
        f"transport-uniqueness: conn-({a}*{b}): 0 edge-compatible fills" for a, b in pairs]
    # a thick filler of conn-(aut0)'s edges: it widens the thin family and
    # is not what the 2x2 layouts compose to
    thick = next(s for s in model.squares
                 if s.key()[1:] == cm["aut0"].key()[1:] and not is_thin(s))
    swapped = replace(model, connections_minus={**cm, "aut0": thick})
    assert connection_transport_report(swapped).witnesses == [
        "transport-uniqueness: conn-(aut0*aut0): 4 edge-compatible fills",
        "transport-value: conn-(aut0*aut1) not reproduced",
        "transport-uniqueness: conn-(aut1*aut0): 4 edge-compatible fills",
        "transport-value: conn-(aut1*aut1) not reproduced",
    ]
