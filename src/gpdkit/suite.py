"""The bundled verification battery: twelve exact checks, one per property.

Each criterion returns a Report with its counts and witnesses; `run_suite`
executes any subset and gathers them into the one report ``vk suite``
prints.  All randomness is seeded; every assertion is exact (no tolerances
anywhere).

Each criterion imports the layers it calls in its own body, so importing
this module loads neither numpy nor any kernel layer, and a criterion
loads only what it runs: criterion 4 loads the finite groups, crossed
modules, squares and the double-groupoid tables, and nothing else.
"""

import random

from .errors import PreconditionFailed, UnknownCommand
from .report import Report


def circle_span() -> "Span":
    """Two interval legs glued over the discrete two-point apex."""
    from .morphisms import GroupoidMorphism
    from .presentations import GroupoidPresentation, discrete_presentation
    from .vkt import Span
    from .words import ArrowGen

    apex = discrete_presentation("apex01", ("0", "1"))
    arc1 = GroupoidPresentation("arc1", ("0", "1"), (ArrowGen("a", "0", "1"),))
    arc2 = GroupoidPresentation("arc2", ("0", "1"), (ArrowGen("b", "0", "1"),))
    ident = {"0": "0", "1": "1"}
    return Span(
        apex,
        GroupoidMorphism("arc1_leg", apex, arc1, dict(ident), {}),
        GroupoidMorphism("arc2_leg", apex, arc2, dict(ident), {}),
    )


def a3_s3_xmod():
    from .crossed import from_normal_subgroup
    from .finite import even_elements, symmetric_group

    s3 = symmetric_group(3)
    return from_normal_subgroup(s3, even_elements(s3), name="a3s3")


_MODEL_CACHE = {}


def a3_s3_model():
    if "a3s3" not in _MODEL_CACHE:
        from .dgt import lambda_functor

        _MODEL_CACHE["a3s3"] = lambda_functor(a3_s3_xmod())
    return _MODEL_CACHE["a3s3"]


def criterion_1_circle(seed: int = 0) -> Report:
    """Circle via two base points reduces to one free generator."""
    from .vkt import pushout, tietze_simplify, vertex_group

    r = Report("criterion-1 circle-vertex-group")
    po = pushout(circle_span(), name="circle")
    vg = tietze_simplify(vertex_group(po.presentation, "0"))
    r.counts["generators"] = len(vg.generators)
    r.counts["relators"] = len(vg.relators)
    r.payload.append(vg.pretty())
    if len(vg.generators) != 1 or len(vg.relators) != 0:
        r.fail(f"expected one free generator, got {vg.pretty()}")
    return r


def criterion_2_universal(seed: int = 0) -> Report:
    """Universal property of the circle pushout against the battery."""
    from .finite import standard_battery
    from .vkt import check_pushout_universal, pushout

    r = Report("criterion-2 universal-property")
    span = circle_span()
    po = pushout(span, name="circle")
    for f in standard_battery():
        verdict = check_pushout_universal(span, po, f)
        r.counts[f"{f.name}_morphisms"] = verdict.candidate_count
        r.counts[f"{f.name}_cocones"] = verdict.pair_count
        if not verdict.ok:
            r.fail(f"{f.name}: {verdict}")
    if r.counts.get("s3_morphisms") != 36 or r.counts.get("s3_cocones") != 36:
        r.fail("expected 36 = 36 against the six-element symmetric group")
    return r


def criterion_3_crossed_modules(seed: int = 0) -> Report:
    """Axiom sweeps pass; all 50 seeded action perturbations are caught."""
    from .crossed import (automorphism_xmod, from_normal_subgroup, perturb_action_entry, sweep_mu_and_action,
                          sweep_parts)
    from .finite import cyclic_group, symmetric_group, trivial_group

    def judge(xm, proof):
        # a module whose base or fibers fail is judged by that failure alone
        law, parts = proof
        return law if parts is None else sweep_mu_and_action(xm, *parts)[0]

    r = Report("criterion-3 crossed-module-axioms")
    s3 = symmetric_group(3)
    modules = [
        a3_s3_xmod(),
        automorphism_xmod(s3),
        automorphism_xmod(cyclic_group(3)),
        from_normal_subgroup(trivial_group(), {"e"}, name="trivial_module"),
    ]
    proofs = [sweep_parts(xm) for xm in modules]
    for xm, proof in zip(modules, proofs):
        law = judge(xm, proof)
        r.counts[f"{xm.name}_checks"] = law.checks
        if not law.ok:
            r.fail(f"{xm.name}: {law.violations[0]}")
    # each perturbed copy keeps the base and fibers of modules[0], and so their proof
    caught = sum(not judge(perturb_action_entry(modules[0], random.Random(seed + k)), proofs[0]).ok
                 for k in range(50))
    r.counts["perturbations_caught"] = caught
    if caught != 50:
        r.fail(f"only {caught}/50 action perturbations detected")
    return r


def criterion_4_interchange(seed: int = 0) -> Report:
    """Exhaustive interchange over the 648-square model; corrupted control."""
    from .dgt import (
        comp_h_unconjugated,
        count_compatible_quadruples,
        find_interchange_counterexample,
        interchange_exhaustive,
    )

    r = Report("criterion-4 interchange")
    model = a3_s3_model()
    r.counts["squares"] = model.size()
    if model.size() != 648:
        r.fail(f"expected 648 squares, got {model.size()}")
    expected = count_compatible_quadruples(model)
    checked, bad, first = interchange_exhaustive(model)
    r.counts["quadruples"] = checked
    r.counts["violations"] = bad
    if checked != expected:
        r.fail(f"sweep covered {checked} quadruples, edge count says {expected}")
    if bad:
        r.fail(f"{bad} interchange violations, first {first}")
    ce = find_interchange_counterexample(model, comp2=comp_h_unconjugated)
    r.counts["corrupted_counterexample"] = int(ce is not None)
    if ce is None:
        r.fail("corrupted composition produced no counterexample")
    return r


def criterion_5_boundary(seed: int = 0) -> Report:
    """mu(composite) always re-evaluates to the boundary word, on 1,000
    seeded 2x2 grids (``DgtModel.draw_grids``): cell (0, 0) is x, and
    cells (0, 1) and (1, 0), fitting x's right and bottom edges, are y and z;
    the fourth cell is drawn last and not read."""
    from .squares import comp_h, comp_v, recheck_boundary

    r = Report("criterion-5 boundary-law")
    model = a3_s3_model()
    squares, bad = model.squares, 0
    x, y, z, _ = model.draw_grids(random.Random(seed), 1000, 2, 2).reshape(-1, 4).T.tolist()
    for i, j, k in zip(x, y, z):
        if not recheck_boundary(comp_h(squares[i], squares[j])):
            bad += 1
        if not recheck_boundary(comp_v(squares[i], squares[k])):
            bad += 1
    r.counts["composites"] = 2000
    r.counts["violations"] = bad
    if bad:
        r.fail(f"{bad} composites broke the boundary law")
    return r


def _grid_folds(H: "np.ndarray", V: "np.ndarray", grids: "np.ndarray") -> "np.ndarray":
    """The (4, n) square indices that a batch of n 3x3 grids folds to in
    the tables ``H``/``V``: rows first, columns first, then alternating
    cuts starting horizontally and vertically, each plan evaluated once on
    the whole batch.  EdgeMismatch where a pasting reads -1."""
    from functools import partial

    import numpy as np

    from .cubes import _paste
    from .grids import _fold, _plan, alternating_cut, columns_first_cut, rows_first_cut

    cells = grids.transpose(1, 2, 0)  # cells[i][j]: cell (i, j) of every grid
    h, v = partial(_paste, "horizontal", H), partial(_paste, "vertical", V)
    cuts = (rows_first_cut, columns_first_cut, alternating_cut("h"), alternating_cut("v"))
    return np.array([_fold(_plan(3, 3, cut), cells, h, v) for cut in cuts])


def criterion_6_grids(seed: int = 0) -> Report:
    """500 seeded 3x3 grids agree across four fold orders.

    The grids are drawn over the A3 in S3 model as square indices, each
    cell fitting the cells before it (``DgtModel.draw_grids``), and each
    fold order is one bracketing plan evaluated on all 500 grids at once
    with the tables ``H``/``V``.
    The object-level folds (``grid_compose`` and its kin, with
    ``comp_h``/``comp_v``) are the oracle that tests hold this against.
    """
    r = Report("criterion-6 grid-fold-orders")
    model = a3_s3_model()
    t = model.tables()
    folds = _grid_folds(t.H, t.V, model.draw_grids(random.Random(seed), 500, 3, 3))
    disagreements = int((folds != folds[0]).any(axis=0).sum())
    r.counts["grids"] = folds.shape[1]
    r.counts["disagreements"] = disagreements
    if disagreements:
        r.fail(f"{disagreements} grids had order-dependent folds")
    return r


def criterion_7_connections(seed: int = 0) -> Report:
    """Connections are thin with commuting boundaries; transport is unique."""
    from .dgt import connection_transport_report
    from .squares import conn_minus, conn_plus, is_thin, recheck_boundary

    r = Report("criterion-7 connections")
    model = a3_s3_model()
    xm = model.xm
    P = model.edges
    for a in sorted(P.arrows):
        for sq in (conn_minus(xm, a), conn_plus(xm, a)):
            if not is_thin(sq) or not recheck_boundary(sq):
                r.fail(f"connection at {a} is not a thin commutative square")
    r.merge(connection_transport_report(model))
    return r


def _commuting(kernel: "CubeKernel", cubes: "np.ndarray") -> "np.ndarray":
    """Per cube: its fold is its lid, and the scalar oracle agrees."""
    return (kernel.fold(cubes) == cubes[:, 0]) & kernel.oracle(cubes)


def _square_kernel(name: str) -> "CubeKernel":
    """The cube kernel of sq(C2) (``"c2"``) or sq(S3) (``"s3"``), built once
    per process: it keeps its model's tables, index maps and groupings."""
    if name not in _MODEL_CACHE:
        from .cubes import CubeKernel
        from .dgt import square_model
        from .finite import cyclic_group, group_as_groupoid, symmetric_group

        group = cyclic_group(2) if name == "c2" else symmetric_group(3)
        _MODEL_CACHE[name] = CubeKernel(square_model(group_as_groupoid(group, name=name)))
    return _MODEL_CACHE[name]


def _c2_cubes(r: Report) -> int:
    """Every cube of sq(C2) and every composite of two; returns how many
    cubes the oracle checked."""
    from .cubes import FACE_SLOTS

    k = _square_kernel("c2")
    cubes = k.enumerate()
    r.counts["c2_cubes"] = len(cubes)
    for row in cubes[~_commuting(k, cubes)]:
        faces = ", ".join(f"{slot} {k.model.squares[i]}" for slot, i in zip(FACE_SLOTS, row))
        r.fail(f"cube in the 2-element model fails: {faces}")
    composites = 0
    for d in (1, 2, 3):
        i, j = k.pairs(cubes, d)
        comp = k.compose(cubes[i], cubes[j], d)
        composites += len(comp)
        for _ in range(int((~_commuting(k, comp)).sum())):
            r.fail(f"direction-{d} composite is not commutative")
    r.counts["c2_composites"] = composites
    return len(cubes)


def _s3_draws(kernel: "CubeKernel", seed: int):
    """Criterion 8's 1,000 seeded rounds: per round a direction d in 1..3 and
    two commutative cubes that paste in d, as arrays (1000,) and (1000, 2, 6).

    Drawn one step at a time across all rounds (``draw_below``, ``fill``):
    every direction, then the first cubes, then per direction the second
    cubes, pinned on the face they share with the first.  A lid is folded,
    never pinned, so in direction 1 the second cube sits on the first's lid."""
    import numpy as np

    from .cubes import _SLOT
    from .dgt import draw_below

    rng = random.Random(seed)
    d = draw_below(rng, np.full(1000, 3)) + 1
    first = kernel.fill(rng, np.full((len(d), 6), -1, np.intp))
    pairs = np.stack([first, first], axis=1)
    for e in (1, 2, 3):
        shared, pin = ("d1-", "d1+") if e == 1 else (f"d{e}+", f"d{e}-")
        second = np.full((int((d == e).sum()), 6), -1, np.intp)
        second[:, _SLOT[pin]] = first[d == e, _SLOT[shared]]
        pairs[d == e, int(e != 1)] = kernel.fill(rng, second, (pin,))
    return d, pairs


def _s3_samples(r: Report, seed: int) -> int:
    """Seeded pairs of commutative sq(S3) cubes sharing a face, and their
    composites; returns how many cubes the oracle checked."""
    import numpy as np

    k = _square_kernel("s3")
    d, pairs = _s3_draws(k, seed)
    c1, c2 = pairs[:, 0], pairs[:, 1]
    comp = np.empty_like(c1)
    for e in (1, 2, 3):
        comp[d == e] = k.compose(c1[d == e], c2[d == e], e)
    ok = _commuting(k, c1) & _commuting(k, c2) & _commuting(k, comp)
    for e in d[~ok]:
        r.fail(f"sampled direction-{e} composite fails")
    r.counts["s3_samples"] = len(d)
    return 3 * len(d)


def criterion_8_cubes(seed: int = 0) -> Report:
    """Cube composites stay commutative; fold agrees with the scalar oracle."""
    r = Report("criterion-8 commutative-cubes")
    r.counts["oracle_agreements"] = _c2_cubes(r) + _s3_samples(r, seed)
    return r


def criterion_9_row_collapse(seed: int = 0) -> Report:
    """Identity-framed chains of commutative squares force a = b."""
    from .crossed import trivial_crossed_module
    from .finite import group_as_groupoid, symmetric_group
    from .grids import Grid, collapse_commutative_row
    from .squares import thin_square

    r = Report("criterion-9 row-collapse")
    xm = trivial_crossed_module(group_as_groupoid(symmetric_group(3), name="s3"))
    P = xm.base
    rng = random.Random(seed)
    arrows = sorted(P.arrows)
    failures = 0
    for _ in range(200):
        n = rng.randrange(1, 7)
        verticals = ["e"] + [arrows[rng.randrange(len(arrows))] for _ in range(n - 1)] + ["e"]
        tops = [arrows[rng.randrange(len(arrows))] for _ in range(n)]
        cells = []
        for i in range(n):
            bottom = P.compose_all([P.inv(verticals[i]), tops[i], verticals[i + 1]])
            cells.append(thin_square(xm, tops[i], verticals[i + 1], bottom, verticals[i]))
        top, bottom, equal = collapse_commutative_row(Grid((tuple(cells),)))
        direct = P.compose_all(tops) == P.compose_all([c.bottom for c in cells])
        if not equal or not direct:
            failures += 1
    r.counts["chains"] = 200
    r.counts["failures"] = failures
    if failures:
        r.fail(f"{failures} chains broke the collapse lemma")
    # negative fixture: a non-identity outer edge must be rejected
    t = arrows[0] if arrows[0] != "e" else arrows[1]
    sq = thin_square(xm, "e", t, P.inv(t), "e")
    try:
        collapse_commutative_row(Grid(((sq,),)))
        r.fail("non-identity outer edge was accepted")
    except PreconditionFailed:
        r.counts["negative_fixture"] = 1
    return r


def criterion_10_roundtrip(seed: int = 0) -> Report:
    """gamma(lambda(X)) is isomorphic to X by an explicit matching."""
    from .crossed import automorphism_xmod, from_normal_subgroup, validate_crossed_module
    from .dgt import find_xmod_isomorphism, gamma, lambda_functor
    from .finite import symmetric_group, trivial_group

    r = Report("criterion-10 equivalence-roundtrip")
    s3 = symmetric_group(3)
    models = [
        a3_s3_model(),
        lambda_functor(automorphism_xmod(s3)),
        lambda_functor(from_normal_subgroup(trivial_group(), {"e"}, name="trivial_module")),
    ]
    for model in models:
        xm = model.xm
        back = gamma(model)
        law = validate_crossed_module(back)
        if not law.ok:
            r.fail(f"gamma(lambda({xm.name})) is not a crossed module: {law.violations[0]}")
            continue
        iso = find_xmod_isomorphism(xm, back)
        r.counts[f"{xm.name}_iso"] = int(iso is not None)
        if iso is None:
            r.fail(f"no isomorphism {xm.name} -> gamma(lambda({xm.name}))")
    return r


def criterion_11_eckmann_hilton(seed: int = 0) -> Report:
    """Interchange forces one commutative monoid structure, on carriers of size 1 to 3."""
    from .eckmann import eckmann_hilton_scan

    r = Report("criterion-11 eckmann-hilton")
    law = eckmann_hilton_scan(3)
    for n, t in law.totals.items():
        r.counts[f"size{n}_pairs"] = t["pairs"]
        r.counts[f"size{n}_interchange"] = t["interchange_pairs"]
    r.merge(law)
    return r


def criterion_12_free_module(seed: int = 0) -> Report:
    """Induced interval module is free of rank one with a working action."""
    from .freemodules import FreeModule, induce_free_module
    from .morphisms import GroupoidMorphism
    from .presentations import GroupoidPresentation, interval_groupoid
    from .words import ArrowGen, Word, generator_word

    r = Report("criterion-12 free-module")
    iv = interval_groupoid()
    mod = FreeModule("disk_module", iv, (("x", "0"),))
    t = ArrowGen("t", "*", "*")
    cinf = GroupoidPresentation("cinf", ("*",), (t,))
    u = GroupoidMorphism(
        "wrap", iv, cinf, {"0": "*", "1": "*"}, {"i": generator_word(t)}
    )
    ind = induce_free_module(mod, u)
    r.counts["rank"] = ind.rank()
    if ind.rank() != 1:
        r.fail(f"induced module has rank {ind.rank()}")
    # action laws on all elements with coefficient words of length <= 3
    tw = generator_word(t)
    # the reduced words of length <= 3, shortest first; n = 0 gives id twice
    words = [Word("*", ((t, exp),) * n) for n in range(4) for exp in (1, -1)][1:]
    x = ind.basis_element("x")
    elements = [x.acted(w) for w in words]
    checked = 0
    for e in elements:
        for w1 in words:
            e_w1 = e.acted(w1)
            for w2 in words:
                checked += 1
                if e.acted(w1 * w2) != e_w1.acted(w2):
                    r.fail(f"action not functorial on {e} with {w1}, {w2}")
        if e.acted(tw).acted(~tw) != e:
            r.fail(f"action by t not undone by t^-1 on {e}")
    two_t_minus_one = 2 * x.acted(tw) - x
    one_minus_t = x - x.acted(tw)
    if two_t_minus_one + one_minus_t != x.acted(tw):
        r.fail("coefficient arithmetic broke on (2t-1)x + (1-t)x")
    r.counts["action_checks"] = checked
    return r


CRITERIA = [
    ("1", criterion_1_circle, "circle pushout reduces to one free generator"),
    ("2", criterion_2_universal, "universal property counts agree on the battery"),
    ("3", criterion_3_crossed_modules, "crossed-module axioms and perturbation fuzzing"),
    ("4", criterion_4_interchange, "exhaustive interchange plus corrupted control"),
    ("5", criterion_5_boundary, "composites satisfy the boundary law"),
    ("6", criterion_6_grids, "grid folds are order-independent"),
    ("7", criterion_7_connections, "connections thin; transport layout unique"),
    ("8", criterion_8_cubes, "commutative cubes compose; scalar oracle agrees"),
    ("9", criterion_9_row_collapse, "row collapse forces top = bottom"),
    ("10", criterion_10_roundtrip, "gamma after lambda recovers the module"),
    ("11", criterion_11_eckmann_hilton, "interchange collapses monoid pairs"),
    ("12", criterion_12_free_module, "induced free module of rank one"),
]


def run_suite(seed: int = 0, only: set[str] | None = None) -> Report:
    """Run the battery into one report: a CRITERION line per criterion as
    payload, each criterion's counts as ``criterion_<key>.<count>``, and its
    witnesses prefixed by ``criterion <key>``.

    ``only`` selects criteria by key; an empty selection or an unknown key
    raises UnknownCommand rather than running nothing.
    """
    if only is not None:
        if not only:
            raise UnknownCommand("empty criterion selection")
        unknown = sorted(set(only) - {key for key, _, _ in CRITERIA})
        if unknown:
            raise UnknownCommand(f"no criterion matches {', '.join(unknown)}")
    total = Report("suite")
    for key, fn, blurb in CRITERIA:
        if only is not None and key not in only:
            continue
        rep = fn(seed=seed)
        total.payload.append(f"CRITERION {key} {'PASS' if rep.ok else 'FAIL'} {blurb}")
        for k, v in rep.counts.items():
            total.counts[f"criterion_{key}.{k}"] = v
        for w in rep.witnesses:
            total.fail(f"criterion {key}", w)
    return total
