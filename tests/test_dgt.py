import itertools
import os
import random
import re
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from gpdkit import dgt
from gpdkit.crossed import CrossedModuleData, validate_crossed_module
from gpdkit.dgt import (
    SquareTables,
    _assoc_sweep,
    comp_h_unconjugated,
    connection_transport_report,
    count_compatible_quadruples,
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
from gpdkit.errors import InvalidCrossedModule, InvalidDgt
from gpdkit.finite import group_as_groupoid, interval_finite_groupoid, trivial_group
from gpdkit.grids import Grid, grid_compose
from gpdkit.report import Report
from gpdkit.squares import comp_h, comp_v, eps_h, eps_v, inv_h, inv_v, is_thin, recheck_boundary


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


def test_isomorphism_rejects_mismatched_modules(a3s3, s3):
    from gpdkit.crossed import automorphism_xmod

    other = automorphism_xmod(s3)
    assert find_xmod_isomorphism(a3s3, other) is None


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
    hollow = replace(a3s3_model, squares=kept, index=None)
    with pytest.raises(InvalidDgt):
        gamma(hollow)


def test_trivial_group_square_model_has_one_square():
    from gpdkit.finite import trivial_group

    model = square_model(group_as_groupoid(trivial_group(), name="pt"))
    assert model.size() == 1


def test_validate_dgt_auto_runs_exhaustive_on_a3s3(a3s3_model):
    # the full axiom sweep with auto interchange stays exhaustive here
    report = validate_dgt(a3s3_model, interchange="auto")
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
        # another bottom, or any -1, finds nothing; with top = -1 the key
        # of (elt, -1, ...) would be that of (elt - 1, arrows - 1, ...)
        assert (model.find(c.E, c.T, c.R, (c.B + 1) % c.arrows, c.L) == -1).all()
        for k in range(5):
            cols = [c.E, c.T, c.R, c.B, c.L]
            cols[k] = np.full(n, -1)
            assert (model.find(*cols) == -1).all()
        assert (model.find(c.E + 1, -1, c.R, c.B, c.L) == -1).all()


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
    """H built from comp_h_unconjugated: interchange fails on it."""
    n = model.size()
    H = np.full((n, n), -1, np.int16)
    for i, x in enumerate(model.squares):
        for y in model.squares_with(left=x.right):
            H[i, model.index[y.key()]] = model.index[comp_h_unconjugated(x, y).key()]
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
# the sorted subsets of a cube face's seams
_GROUPINGS = sorted({("right", "bottom"), ("left", "bottom"), ("top", "right"),
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
            assert g.options(*key) == want.get(key, [])
        assert g.rank().tolist() == [
            want[tuple(col[i] for col in cols)].index(i) for i in range(n)]
        if not edges:  # an array lookup needs an array of arrows
            continue
        vector = [np.array(col) for col in zip(*keys)]
        assert g.size(*vector).tolist() == [len(want.get(k, ())) for k in keys]
        prefix = np.arange(len(keys))
        assert [r.tolist() for r in g.extend((prefix,), vector)] == [
            list(r) for r in zip(*[(p, i) for p, k in enumerate(keys)
                                   for i in want.get(k, ())])]
    # every square boundary over Aut(S3) has a filler, so no key is absent there
    assert absent_seen == (fixture != "aut_s3_model")


def test_the_kernels_build_each_grouping_once(monkeypatch, aut_c3_model):
    from gpdkit.cubes import FACE_SLOTS, CubeKernel

    model = replace(aut_c3_model)  # fresh caches
    built = []
    init = dgt._Groups.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(dgt._Groups, "__init__", counted)
    # the associativity sweeps group the columns they are given, each call
    monkeypatch.setattr(dgt, "_assoc_sweep", lambda *args: (0, 0, None))

    def run():
        interchange_exhaustive(model)
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
    c = model.code()
    for law, table, out, into in (("h", t.H, c.R, c.L), ("v", t.V, c.B, c.T)):
        checked, bad, _ = _assoc_sweep(model, table, out, into)
        report.count(checked)
        if bad:
            report.fail(f"{law}-associativity", f"{bad} violating triples")
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
    rng = random.Random(seed)
    done = 0
    while done < samples:
        x = model.random_square(rng)
        ys = model.squares_with(left=x.right)
        zs = model.squares_with(top=x.bottom)
        if not ys or not zs:
            continue
        y = ys[rng.randrange(len(ys))]
        z = zs[rng.randrange(len(zs))]
        ws = model.squares_with(left=z.right, top=y.bottom)
        if not ws:
            continue
        w = ws[rng.randrange(len(ws))]
        done += 1
        report.count()
        if comp_v(comp_h(x, y), comp_h(z, w)) != comp_h(comp_v(x, z), comp_v(y, w)):
            report.fail("interchange", f"sampled violation at {x}, {y}, {z}, {w}")
    return report


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


def test_absent_units_stay_degeneracy_closure_violations():
    # the one square eps_v(a) is closed under V, but the model lacks the
    # other degeneracies; the table laws skip an absent unit (index -1)
    model = square_model(interval_finite_groupoid())
    for a in sorted(model.edges.arrows):
        one = replace(model, squares=(eps_v(model.xm, a),), index=None)
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
    # the sampled evaluator reads the same tables
    mutant = with_swapped_filler(model, "H", *h_pair, rng)
    report = validate_dgt(mutant, interchange="sampled", seed=3, samples=2000)
    assert any(v.law == "interchange" and v.witness.startswith("sampled violation at ")
               for v in report.violations)


def planted_fault(model, fault):
    """A copy of ``model`` with one fault planted, and the witness it must give."""
    sq, xm = model.squares, model.xm
    if fault == "boundary":
        # another element over the same edges; the tables stay the model's
        k = next(k for k, s in enumerate(sq) if not is_thin(s))
        bad = replace(sq[k], elt=xm.fibers[sq[k].corner_se].identity)
        mutant = replace(model, squares=sq[:k] + (bad,) + sq[k + 1:], index=None)
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
    lonely = [replace(model, squares=(eps_v(model.xm, a),), index=None) for a in ("i", "i_inv")]

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


# -- the forked sweep -----------------------------------------------------------

@pytest.fixture
def sweep_path(monkeypatch):
    """Sets which path a law sweep takes: "forked" (whenever it has two
    blocks, even on one CPU) or "serial"; records each sweep's exact count
    given beforehand and its result."""
    monkeypatch.setattr(dgt.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    runs = []
    sweep = dgt._class_sweep

    def recorded(*args):
        out = sweep(*args)
        runs.append((args[-1], out))
        return out

    monkeypatch.setattr(dgt, "_class_sweep", recorded)

    def use(path):
        monkeypatch.setattr(dgt, "_FORK_CHECKS", 0 if path == "forked" else 1 << 62)
        return runs

    return use


def law_sweeps(model, H=None):
    t = model.tables()
    H = t.H if H is None else H
    c = model.code()
    return (interchange_sweep(model, H, t.V), _assoc_sweep(model, H, c.R, c.L),
            _assoc_sweep(model, t.V, c.B, c.T))


@pytest.mark.parametrize("fixture", ["sq_c2", "sq_s3", "aut_c3_model", "sq_interval_s3",
                                     "a3s3_model"])
def test_forked_sweeps_match_the_serial_ones(request, sweep_path, fixture):
    model = request.getfixturevalue(fixture)
    for H in [None, unconjugated_h(model)] if fixture == "aut_c3_model" else [None]:
        runs = sweep_path("serial")
        serial = law_sweeps(model, H)
        sweep_path("forked")
        assert law_sweeps(model, H) == serial
        # the count each sweep is given beforehand is its exact check count
        assert all(total == out[0] for total, out in runs)
        if H is not None:
            checked, bad, first = serial[0]
            assert 0 < bad < checked and first is not None


def test_forked_associativity_matches_the_serial_one_on_aut_s3(sweep_path, aut_s3_model):
    t, c = aut_s3_model.tables(), aut_s3_model.code()
    for path in ("serial", "forked"):
        runs = sweep_path(path)
        _assoc_sweep(aut_s3_model, t.H, c.R, c.L)
        _assoc_sweep(aut_s3_model, t.V, c.B, c.T)
    assert [out for _, out in runs[:2]] == [out for _, out in runs[2:]]
    assert all(total == out[0] for total, out in runs)


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
    # the first in scan order, so both workers' firsts must be compared
    # in scan order
    ("aut_c3_model", "HV"),
]


@pytest.mark.parametrize("fixture, change", EXACT_CASES,
                         ids=[f"{f}-{c}" for f, c in EXACT_CASES])
def test_sweeps_equal_the_plain_loops(request, sweep_path, fixture, change):
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
    for path in ("serial", "forked"):
        sweep_path(path)
        assert (interchange_sweep(model, H, t.V), _assoc_sweep(model, H, c.R, c.L),
                _assoc_sweep(model, t.V, c.B, c.T)) == want


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
    t, c = model.tables(), model.code()
    H, at = planted(model, "H", value)
    with pytest.raises(InvalidDgt, match=re.escape(f"H{at}")):
        interchange_sweep(model, H, t.V)
    with pytest.raises(InvalidDgt, match=re.escape(f"table{at}")):
        _assoc_sweep(model, H, c.R, c.L)
    V, at = planted(model, "V", value)
    with pytest.raises(InvalidDgt, match=re.escape(f"V{at}")):
        interchange_sweep(model, t.H, V)
    with pytest.raises(InvalidDgt, match=re.escape(f"table{at}")):
        _assoc_sweep(model, V, c.B, c.T)


def test_forked_interchange_is_exhaustive_on_aut_s3(sweep_path, aut_s3_model):
    sweep_path("forked")
    quads = count_compatible_quadruples(aut_s3_model)
    assert interchange_exhaustive(aut_s3_model) == (quads, 0, None)
    assert quads == 2_176_782_336


def toy_sweep(evaluate):
    """_class_sweep over 4 blocks, each of 2 outer squares x by 5 partners."""
    def pieces(rows):
        for k in rows.tolist():
            for x in (k, k + 4):
                lhs, rhs = evaluate(x)
                yield lhs[None], rhs[None], ([x], np.arange(5))

    return dgt._class_sweep(np.arange(4), pieces, 40)


@pytest.fixture
def forks(monkeypatch, sweep_path):
    """The pids of the children forked while the test runs."""
    sweep_path("forked")
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(dgt.os, "fork", recorded)
    return pids


def assert_reaped(pids):
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


def one_miss_per_x(x):
    return np.arange(5), np.where(np.arange(5) == x % 5, -1, np.arange(5))


def test_forked_toy_sweep_counts_and_reaps(forks):
    fds = len(os.listdir("/proc/self/fd"))
    assert toy_sweep(one_miss_per_x) == (40, 8, (0, 0))
    assert_reaped(forks)
    assert len(os.listdir("/proc/self/fd")) == fds


def test_sweep_runs_serially_when_no_child_can_be_forked(monkeypatch, sweep_path):
    sweep_path("forked")

    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(dgt.os, "fork", no_fork)
    fds = len(os.listdir("/proc/self/fd"))
    assert toy_sweep(one_miss_per_x) == (40, 8, (0, 0))
    assert len(os.listdir("/proc/self/fd")) == fds


@pytest.mark.parametrize("failure, message", [
    (lambda: 1 / 0, "sweep worker failed: ZeroDivisionError: division by zero"),
    (lambda: os._exit(3), "sweep worker died without a result"),
])
def test_a_failing_child_makes_the_sweep_raise(forks, failure, message):
    parent = os.getpid()

    def evaluate(x):
        if os.getpid() != parent:
            failure()
        return np.zeros(5), np.zeros(5)

    with pytest.raises(RuntimeError, match=message):
        toy_sweep(evaluate)
    assert_reaped(forks)


def test_a_failing_parent_kills_and_reaps_its_child(forks):
    parent = os.getpid()

    def evaluate(x):
        if os.getpid() != parent:
            time.sleep(60)
        raise ValueError("parent half failed")

    start = time.perf_counter()
    with pytest.raises(ValueError, match="parent half failed"):
        toy_sweep(evaluate)
    assert time.perf_counter() - start < 30
    assert_reaped(forks)
