"""Exhaustive scan of monoid pairs for the interchange collapse.

On a small carrier, enumerate every pair of monoid structures, filter by the
interchange condition (a *1 b) *2 (c *1 d) = (a *2 c) *1 (b *2 d), and check
that each surviving pair has equal identities, equal operations, and a
commutative operation.  Anything else would be a violation worth reporting.
"""

import itertools

from .errors import SizeLimit
from .report import Report

MAX_CARRIER = 4

Table = tuple[tuple[int, ...], ...]


def enumerate_monoids(n: int) -> list[tuple[Table, int]]:
    """All monoid tables on {0..n-1}, each with its (unique) identity.

    For each identity e, the cells off e's row and column are filled one at
    a time in row-major order, each with 0..n-1 in turn, so the tables come
    out in the order of a product over those cells.  A partial table is
    dropped as soon as a triple whose four cells are all filled breaks
    associativity, so every table that comes out is associative.
    """
    found = []
    triples = list(itertools.product(range(n), repeat=3))
    for e in range(n):
        table = [[-1] * n for _ in range(n)]  # -1: not filled yet
        for x in range(n):
            table[e][x] = table[x][e] = x
        free = [(i, j) for i in range(n) for j in range(n) if i != e and j != e]

        def fill(k):
            if k == len(free):
                found.append((tuple(map(tuple, table)), e))
                return
            i, j = free[k]
            for v in range(n):
                table[i][j] = v
                if not _breaks_associativity(table, triples):
                    fill(k + 1)
            table[i][j] = -1

        fill(0)
    return found


def _breaks_associativity(table: list[list[int]], triples) -> bool:
    """Whether some triple whose four cells are filled (>= 0) is not associative."""
    for a, b, c in triples:
        x, y = table[a][b], table[b][c]
        if x >= 0 and y >= 0:
            left, right = table[x][c], table[a][y]
            if left != right and left >= 0 and right >= 0:
                return True
    return False


def interchange_holds(n: int, op1: Table, op2: Table) -> bool:
    return all(
        op2[op1[a][b]][op1[c][d]] == op1[op2[a][c]][op2[b][d]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
        for d in range(n)
    )


def _interchange_pairs(n: int, monoids: list[tuple[Table, int]]):
    """Each ordered pair of ``monoids`` that satisfies the interchange law, in
    the order of ``itertools.product(monoids, repeat=2)``: ``interchange_holds``
    over the whole list at once.

    For each first table the list of second tables, flattened row-major,
    shrinks one quadruple at a time; quadruples over four distinct cells go
    first because they drop most tables soonest.
    """
    quads = sorted(
        ((a * n + b, c * n + d, a * n + c, b * n + d)
         for a, b, c, d in itertools.product(range(n), repeat=4)),
        key=lambda q: -len(set(q)),
    )
    flat = {sum(op, ()): (op, e) for op, e in monoids}
    for o1, first in flat.items():
        seconds = list(flat)
        for ab, cd, ac, bd in quads:
            lhs = o1[ab] * n + o1[cd]
            seconds = [o2 for o2 in seconds if o2[lhs] == o1[o2[ac] * n + o2[bd]]]
            if not seconds:
                break
        for o2 in seconds:
            yield first, flat[o2]


def eckmann_hilton_scan(max_size: int) -> Report:
    """Confirm the collapse on every interchange-satisfying pair up to size.

    The report counts, per carrier size, the monoids found, the ordered
    pairs considered, how many passed the interchange filter, and how many
    were filtered out; any surviving pair breaking one of the three
    conclusions is recorded as a violation.
    """
    if max_size > MAX_CARRIER:
        raise SizeLimit(f"carrier size is capped at {MAX_CARRIER}, got {max_size}")
    if max_size < 1:
        raise SizeLimit("max_size must be at least 1")
    report = Report(f"eckmann-hilton scan up to size {max_size}")
    totals = {}
    for n in range(1, max_size + 1):
        monoids = enumerate_monoids(n)
        pairs = len(monoids) ** 2
        passing = 0
        for (op1, e1), (op2, e2) in _interchange_pairs(n, monoids):
            passing += 1
            report.count(3)
            if e1 != e2:
                report.fail("identity", f"size {n}: e1={e1} != e2={e2} for {op1}/{op2}")
            if op1 != op2:
                report.fail("operations", f"size {n}: structures differ: {op1} vs {op2}")
            if any(
                op1[a][b] != op1[b][a] for a in range(n) for b in range(n)
            ):
                report.fail("commutativity", f"size {n}: {op1} is not commutative")
        totals[n] = {
            "monoids": len(monoids),
            "pairs": pairs,
            "interchange_pairs": passing,
            "filtered_out": pairs - passing,
        }
    report.totals = totals
    return report
