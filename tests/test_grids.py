import random
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
    random_cut,
)
from gpdkit.squares import eps_h, eps_v, identity_square, thin_square


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
