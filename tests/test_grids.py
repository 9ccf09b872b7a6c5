import itertools
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from gpdkit import grids
from gpdkit.errors import EdgeMismatch, PreconditionFailed
from gpdkit.grids import (
    Grid,
    alternating_cut,
    collapse_commutative_row,
    grid_compose,
    grid_compose_bracketed,
    grid_compose_columns_first,
)
from gpdkit.squares import eps_h, eps_v, identity_square, thin_square
from gpdkit.suite import _grid_folds, a3_s3_model
from reference import random_cut, reference_draw_grids
from test_dgt import with_swapped_filler


def random_grid(model, rows, cols, rng):
    cells = []
    for i in range(rows):
        row = []
        for j in range(cols):
            constraints = {}
            if j > 0:
                constraints["left"] = row[j - 1].right
            if i > 0:
                constraints["top"] = cells[i - 1][j].bottom
            options = model.squares_with(**constraints)
            row.append(options[rng.randrange(len(options))])
        cells.append(tuple(row))
    return Grid(tuple(cells))


def reference_grids(model, rng, count):
    """``count`` 3x3 grids by ``reference_draw_grids``, as ``Grid``s."""
    return [Grid(tuple(map(tuple, g))) for g in reference_draw_grids(model, rng, count, 3, 3)]


def test_single_cell_grid(a3s3, a3s3_model):
    s = a3s3_model.squares[17]
    assert grid_compose(Grid(((s,),))) == s


def test_degenerate_grid_composes_to_degeneracy(a3s3):
    P = a3s3.base
    g1, g2 = "(12)", "(123)"
    grid = Grid(
        (
            (eps_v(a3s3, g1), eps_v(a3s3, g2)),
            (eps_v(a3s3, g1), eps_v(a3s3, g2)),
        )
    )
    assert grid_compose(grid) == eps_v(a3s3, P.compose(g1, g2))


def test_grid_seam_validation(a3s3, a3s3_model):
    s = a3s3_model.squares[0]
    t = next(q for q in a3s3_model.squares if q.left != s.right)
    with pytest.raises(EdgeMismatch) as err:
        Grid(((s, t),))
    assert "(0,0)" in str(err.value)


def test_fold_orders_agree(a3s3_model):
    rng = random.Random(11)
    for _ in range(100):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        grid = random_grid(a3s3_model, rows, cols, rng)
        results = {
            grid_compose(grid),
            grid_compose_columns_first(grid),
            grid_compose_bracketed(grid, alternating_cut("h")),
            grid_compose_bracketed(grid, alternating_cut("v")),
            grid_compose_bracketed(grid, random_cut(rng)),
        }
        assert len(results) == 1


def test_fold_orders_bracket_a_3x3_grid_differently(monkeypatch):
    # the folds only read rows, cols and cells, so letters can stand in for
    # squares and recording pastings show each bracketing
    monkeypatch.setattr(grids, "comp_h", lambda x, y: f"({x}|{y})")
    monkeypatch.setattr(grids, "comp_v", lambda x, y: f"({x}/{y})")
    g = SimpleNamespace(cells=("abc", "def", "ghi"), rows=3, cols=3)
    assert [grid_compose(g), grid_compose_columns_first(g),
            grid_compose_bracketed(g, alternating_cut("h")),
            grid_compose_bracketed(g, alternating_cut("v"))] == [
        "((((a|b)|c)/((d|e)|f))/((g|h)|i))",
        "((((a/d)/g)|((b/e)/h))|((c/f)/i))",
        "((a|(b|c))/((d/g)|((e|f)/(h|i))))",
        "((a/(d/g))|((b|c)/((e/h)|(f/i))))",
    ]


def test_a_row_past_the_recursion_limit_folds(monkeypatch):
    monkeypatch.setattr(grids, "comp_h", lambda x, y: x + y)
    g = SimpleNamespace(cells=((1,) * 1500,), rows=1, cols=1500)
    assert grid_compose(g) == grid_compose_columns_first(g) == 1500


def test_random_cuts_bracket_a_3x4_grid_by_their_seed(monkeypatch):
    # planning a fold asks the cut rule in the same order as folding did,
    # so a seeded random rule draws the same cuts
    monkeypatch.setattr(grids, "comp_h", lambda x, y: f"({x}|{y})")
    monkeypatch.setattr(grids, "comp_v", lambda x, y: f"({x}/{y})")
    g = SimpleNamespace(cells=("abcd", "efgh", "ijkl"), rows=3, cols=4)
    assert [grid_compose_bracketed(g, random_cut(random.Random(k))) for k in range(3)] == [
        "((((a|b)/(e|f))/(i|j))|((c/(g/k))|((d/h)/l)))",
        "(((a|b)|(c|d))/(((e/i)|(f/j))|((g|h)/(k|l))))",
        "((a/(e/i))|(((b|c)|d)/((f/j)|((g/k)|(h/l)))))",
    ]


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_criterion_6_batch_matches_the_object_folds(seed):
    model = a3_s3_model()
    objects = reference_grids(model, random.Random(seed), 500)
    drawn = model.draw_grids(random.Random(seed), 500, 3, 3)
    assert drawn.tolist() == [[[model.index[c.key()] for c in row] for row in g.cells]
                              for g in objects]
    t = model.tables()
    folds = _grid_folds(t.H, t.V, drawn)
    for k, g in enumerate(objects):
        want = [grid_compose(g), grid_compose_columns_first(g),
                grid_compose_bracketed(g, alternating_cut("h")),
                grid_compose_bracketed(g, alternating_cut("v"))]
        assert folds[:, k].tolist() == [model.index[s.key()] for s in want]


def test_a_grid_with_no_fitting_square_raises_as_the_object_draw_does(sq_s3):
    # without the squares whose left edge is x, a cell whose left neighbour
    # has right edge x has nothing to fit
    P = sq_s3.edges
    x = next(a for a in sorted(P.arrows) if not P.is_identity(a))
    hollow = replace(sq_s3, squares=tuple(s for s in sq_s3.squares if s.left != x))
    got, want = random.Random(0), random.Random(0)
    with pytest.raises(PreconditionFailed) as raised:
        hollow.draw_grids(got, 500, 3, 3)
    with pytest.raises(PreconditionFailed) as expected:
        reference_grids(hollow, want, 500)
    assert str(raised.value) == str(expected.value) == "no square matches the edge constraints"
    # the cells before the empty group drew, and that cell drew nothing, as
    # in the object-level loop
    assert got.getstate() == want.getstate()


@pytest.mark.parametrize("fixture", ["sq_c2", "sq_s3", "aut_c3_model", "sq_interval_s3",
                                     "a3s3_model", "aut_s3_model"])
def test_draw_grids_matches_the_object_level_draw(request, fixture):
    model = request.getfixturevalue(fixture)
    for seed, (rows, cols) in itertools.product(range(3), [(1, 1), (2, 2), (3, 3), (1, 3)]):
        got, want = random.Random(seed), random.Random(seed)
        drawn = model.draw_grids(got, 40, rows, cols)
        assert drawn.shape == (40, rows, cols)
        assert drawn.tolist() == [[[model.index[s.key()] for s in row] for row in g]
                                  for g in reference_draw_grids(model, want, 40, rows, cols)]
        assert got.getstate() == want.getstate()
    # no grids: nothing drawn
    rng = random.Random(0)
    state = rng.getstate()
    assert model.draw_grids(rng, 0, 3, 3).shape == (0, 3, 3)
    assert rng.getstate() == state


def test_criterion_6_fold_catches_doctored_tables(aut_c3_model, monkeypatch):
    model = aut_c3_model
    drawn = model.draw_grids(random.Random(0), 500, 3, 3)
    t = model.tables()
    folds = _grid_folds(t.H, t.V, drawn)
    assert not (folds != folds[0]).any()
    # rows first pastes the first two cells of every grid; no other order does
    pair = drawn[0, 0, 0], drawn[0, 0, 1]
    mutant = with_swapped_filler(model, "H", *pair, random.Random(3)).tables()
    folds = _grid_folds(mutant.H, mutant.V, drawn)
    assert (folds != folds[0]).any(axis=0).sum() >= 1
    # where the orders disagree, each batch fold is still its own order's
    monkeypatch.setattr(grids, "comp_h", lambda x, y: int(mutant.H[x, y]))
    monkeypatch.setattr(grids, "comp_v", lambda x, y: int(mutant.V[x, y]))
    for k, cells in enumerate(drawn.tolist()):
        g = SimpleNamespace(cells=cells, rows=3, cols=3)
        assert folds[:, k].tolist() == [
            grid_compose(g), grid_compose_columns_first(g),
            grid_compose_bracketed(g, alternating_cut("h")),
            grid_compose_bracketed(g, alternating_cut("v"))]
    H = t.H.copy()
    H[pair] = -1
    with pytest.raises(EdgeMismatch, match="horizontal pasting"):
        _grid_folds(H, t.V, drawn)


def test_collapse_commutative_row(sq_s3):
    xm = sq_s3.xm
    P = xm.base
    rng = random.Random(12)
    arrows = sorted(P.arrows)
    for _ in range(50):
        n = rng.randrange(1, 7)
        verticals = ["e"] + [arrows[rng.randrange(len(arrows))] for _ in range(n - 1)] + ["e"]
        tops = [arrows[rng.randrange(len(arrows))] for _ in range(n)]
        cells = []
        for i in range(n):
            bottom = P.compose_all([P.inv(verticals[i]), tops[i], verticals[i + 1]])
            cells.append(thin_square(xm, tops[i], verticals[i + 1], bottom, verticals[i]))
        top, bottom, equal = collapse_commutative_row(Grid((tuple(cells),)))
        assert equal
        # oracle: multiply the edge labels directly
        assert P.compose_all(tops) == top
        assert P.compose_all([c.bottom for c in cells]) == bottom


def test_collapse_single_commutative_square(sq_s3):
    xm = sq_s3.xm
    sq = thin_square(xm, "(123)", "e", "(123)", "e")
    top, bottom, equal = collapse_commutative_row(Grid(((sq,),)))
    assert equal and top == bottom == "(123)"


def test_collapse_rejects_non_identity_outer(sq_s3):
    xm = sq_s3.xm
    P = xm.base
    sq = thin_square(xm, "e", "(12)", "(12)", "e")
    with pytest.raises(PreconditionFailed):
        collapse_commutative_row(Grid(((sq,),)))


def test_collapse_rejects_non_thin(a3s3, a3s3_model):
    fat = next(s for s in a3s3_model.squares
               if s.elt != "e" and s.xm.base.is_identity(s.left) and s.xm.base.is_identity(s.right))
    with pytest.raises(PreconditionFailed):
        collapse_commutative_row(Grid(((fat,),)))


def test_collapse_rejects_tall_grids(a3s3):
    e = identity_square(a3s3, "*")
    with pytest.raises(PreconditionFailed):
        collapse_commutative_row(Grid(((e,), (e,))))
