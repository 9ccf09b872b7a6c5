"""Rectangular arrangements of squares and their order-independent composite.

A grid is composable exactly when horizontally adjacent cells share their
vertical edge and vertically adjacent cells share their horizontal edge.  By
the interchange law every way of cutting the rectangle into sub-rectangles
evaluates to the same square, which is what lets a subdivision be undone.

Every fold here is the bracketing that a cut rule picks: rows first,
columns first, alternating halves, or any rule a caller passes.  ``_plan`` writes
a rule's bracketing in postfix, once per shape for a rule that draws
nothing, and ``_fold`` evaluates a plan with any two pastings:
``comp_h``/``comp_v`` on a ``Grid`` here, the tables ``H``/``V`` on square
indices in ``cubes`` and ``suite``.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import EdgeMismatch, PreconditionFailed
from .squares import Square, comp_h, comp_v, is_thin


@dataclass(frozen=True)
class Grid:
    cells: tuple[tuple[Square, ...], ...]

    def __post_init__(self):
        if not self.cells or not self.cells[0]:
            raise EdgeMismatch("a grid needs at least one cell")
        width = len(self.cells[0])
        if any(len(row) != width for row in self.cells):
            raise EdgeMismatch("ragged grid")
        xm = self.cells[0][0].xm
        for i, row in enumerate(self.cells):
            for j, cell in enumerate(row):
                if cell.xm is not xm:
                    raise EdgeMismatch(f"cell ({i},{j}) lives over a different crossed module")
                if j + 1 < width and cell.right != row[j + 1].left:
                    raise EdgeMismatch(
                        f"cells ({i},{j})|({i},{j + 1}): right edge {cell.right} "
                        f"!= left edge {row[j + 1].left}"
                    )
                if i + 1 < len(self.cells) and cell.bottom != self.cells[i + 1][j].top:
                    raise EdgeMismatch(
                        f"cells ({i},{j})/({i + 1},{j}): bottom edge {cell.bottom} "
                        f"!= top edge {self.cells[i + 1][j].top}"
                    )

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def cols(self) -> int:
        return len(self.cells[0])


def rows_first_cut(r0, r1, c0, c1, depth):
    """Cut off the last row while rows remain, then the last column."""
    return ("h", r1 - 1) if r1 - r0 > 1 else ("v", c1 - 1)


def columns_first_cut(r0, r1, c0, c1, depth):
    """Cut off the last column while columns remain, then the last row."""
    return ("v", c1 - 1) if c1 - c0 > 1 else ("h", r1 - 1)


def grid_compose(g: Grid) -> Square:
    """Fold each row left to right, then the rows top to bottom."""
    return _fold(_fixed_plan(g.rows, g.cols, rows_first_cut), g.cells, comp_h, comp_v)


def grid_compose_columns_first(g: Grid) -> Square:
    """Fold each column top to bottom, then the columns left to right."""
    return _fold(_fixed_plan(g.rows, g.cols, columns_first_cut), g.cells, comp_h, comp_v)


def _plan(rows: int, cols: int, choose_cut) -> list:
    """A bracketing of a rows x cols grid in postfix: cell positions
    ``(i, j)`` and ``"h"``/``"v"`` pastes of the last two composites.

    ``choose_cut(r0, r1, c0, c1, depth)`` inspects a sub-rectangle (half-open
    bounds) and returns ``("h", i)`` to cut between rows i-1 and i, or
    ``("v", j)`` to cut between columns j-1 and j.  Each first part comes
    before its second, and the rule is asked in that order.
    """
    plan, todo = [], [(0, rows, 0, cols, 0)]
    while todo:  # a stack, not recursion, so a long row or column fits
        job = todo.pop()
        if isinstance(job, str):
            plan.append(job)
        elif job[1] - job[0] == 1 and job[3] - job[2] == 1:
            plan.append((job[0], job[2]))
        else:
            r0, r1, c0, c1, depth = job
            direction, at = choose_cut(r0, r1, c0, c1, depth)
            if direction == "h":
                todo += ["v", (at, r1, c0, c1, depth + 1), (r0, at, c0, c1, depth + 1)]
            else:
                todo += ["h", (r0, r1, at, c1, depth + 1), (r0, r1, c0, at, depth + 1)]
    return plan


@lru_cache(maxsize=128)
def _fixed_plan(rows: int, cols: int, choose_cut) -> tuple:
    """``_plan`` of a cut rule that draws nothing, kept for the shapes last
    folded."""
    return tuple(_plan(rows, cols, choose_cut))


def _fold(plan, cells, h, v):
    """Evaluate a plan on a stack: ``cells[i][j]`` for each position,
    ``h(x, y)`` and ``v(x, y)`` for each horizontal and vertical paste."""
    done = []
    push, pop = done.append, done.pop
    for step in plan:
        if step.__class__ is tuple:  # exact test: the cube kernel folds per draw
            i, j = step
            push(cells[i][j])
        else:
            second = pop()
            done[-1] = (h if step == "h" else v)(done[-1], second)
    return pop()


def grid_compose_bracketed(g: Grid, choose_cut) -> Square:
    """Evaluate by nested rectangle cuts, each first part before its second.

    ``choose_cut`` is as for ``_plan``.
    """
    return _fold(_plan(g.rows, g.cols, choose_cut), g.cells, comp_h, comp_v)


def alternating_cut(first: str):
    """Cut strategy that alternates directions, starting with ``first``."""

    def choose(r0, r1, c0, c1, depth):
        prefer_h = (depth % 2 == 0) == (first == "h")
        if prefer_h and r1 - r0 > 1:
            return ("h", r0 + (r1 - r0) // 2)
        if c1 - c0 > 1:
            return ("v", c0 + (c1 - c0) // 2)
        return ("h", r0 + (r1 - r0) // 2)

    return choose


def collapse_commutative_row(chain: Grid):
    """Top and bottom composites of a height-1 chain of commutative squares.

    Requires every square thin (commuting boundary) and both outer vertical
    edges to be identities; under those hypotheses the top composite equals
    the bottom composite in the base groupoid.  Returns the pair of arrows
    together with the verdict.
    """
    if chain.rows != 1:
        raise PreconditionFailed(f"expected a height-1 chain, got {chain.rows} rows")
    row = chain.cells[0]
    xm = row[0].xm
    P = xm.base
    for j, cell in enumerate(row):
        if not is_thin(cell):
            raise PreconditionFailed(f"square {j} is not a commutative square")
    if not P.is_identity(row[0].left):
        raise PreconditionFailed(f"left outer edge {row[0].left} is not an identity")
    if not P.is_identity(row[-1].right):
        raise PreconditionFailed(f"right outer edge {row[-1].right} is not an identity")
    top = P.compose_all([c.top for c in row])
    bottom = P.compose_all([c.bottom for c in row])
    return top, bottom, top == bottom
