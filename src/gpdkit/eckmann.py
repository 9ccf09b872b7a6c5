"""Exhaustive scan of monoid pairs for the interchange collapse.

On a small carrier, enumerate every pair of monoid structures, filter by the
interchange condition (a *1 b) *2 (c *1 d) = (a *2 c) *1 (b *2 d), and check
that each surviving pair has equal identities, equal operations, and a
commutative operation.  Anything else would be a violation worth reporting.
"""

import itertools
from dataclasses import dataclass

from .errors import SizeLimit
from .report import Report

MAX_CARRIER = 4

Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MonoidPair:
    carrier: int
    op1: Table
    e1: int
    op2: Table
    e2: int

    def __post_init__(self):
        for op, e in ((self.op1, self.e1), (self.op2, self.e2)):
            if not _is_monoid(self.carrier, op, e):
                raise ValueError("not a monoid structure")


def _is_associative(n: int, op: Table) -> bool:
    return all(
        op[op[a][b]][c] == op[a][op[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def _identity_of(n: int, op: Table) -> int | None:
    for e in range(n):
        if all(op[e][x] == x and op[x][e] == x for x in range(n)):
            return e
    return None


def _is_monoid(n: int, op: Table, e: int) -> bool:
    return _identity_of(n, op) == e and _is_associative(n, op)


def enumerate_monoids(n: int) -> list[tuple[Table, int]]:
    """All monoid tables on {0..n-1}, each with its (unique) identity."""
    found = []
    cells = [(i, j) for i in range(n) for j in range(n)]
    for e in range(n):
        free = [(i, j) for i, j in cells if i != e and j != e]
        for values in itertools.product(range(n), repeat=len(free)):
            table = [[0] * n for _ in range(n)]
            for x in range(n):
                table[e][x] = x
                table[x][e] = x
            for (i, j), v in zip(free, values):
                table[i][j] = v
            op = tuple(tuple(row) for row in table)
            if _is_associative(n, op):
                found.append((op, e))
    return found


def interchange_holds(n: int, op1: Table, op2: Table) -> bool:
    return all(
        op2[op1[a][b]][op1[c][d]] == op1[op2[a][c]][op2[b][d]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
        for d in range(n)
    )


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
        pairs = 0
        passing = 0
        for (op1, e1), (op2, e2) in itertools.product(monoids, repeat=2):
            pairs += 1
            if not interchange_holds(n, op1, op2):
                continue
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
