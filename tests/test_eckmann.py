import itertools

import pytest

from gpdkit.eckmann import (
    _interchange_pairs,
    eckmann_hilton_scan,
    enumerate_monoids,
    interchange_holds,
)
from gpdkit.errors import SizeLimit

from reference import MonoidPair


def brute_monoid_count(n):
    """Oracle: scan every one of the n^(n*n) tables for monoid structure."""
    count = 0
    for flat in itertools.product(range(n), repeat=n * n):
        op = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
        has_identity = any(
            all(op[e][x] == x and op[x][e] == x for x in range(n)) for e in range(n)
        )
        if not has_identity:
            continue
        if all(
            op[op[a][b]][c] == op[a][op[b][c]]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        ):
            count += 1
    return count


def test_monoid_enumeration_matches_oracle():
    for n in (1, 2, 3):
        assert len(enumerate_monoids(n)) == brute_monoid_count(n)


def test_known_small_counts():
    assert len(enumerate_monoids(1)) == 1
    assert len(enumerate_monoids(2)) == 4
    assert len(enumerate_monoids(3)) == 33


def test_size_two_pairs():
    rep = eckmann_hilton_scan(2)
    assert rep.ok
    assert rep.totals[2] == {
        "monoids": 4,
        "pairs": 16,
        "interchange_pairs": 4,
        "filtered_out": 12,
    }


def test_scan_confirms_collapse_up_to_three():
    rep = eckmann_hilton_scan(3)
    assert rep.ok
    assert rep.totals[1]["interchange_pairs"] == 1
    assert rep.totals[3]["pairs"] == 33 * 33
    # every surviving pair is a single commutative monoid used twice
    monoids = enumerate_monoids(3)
    survivors = [
        (op1, op2)
        for (op1, _), (op2, _) in itertools.product(monoids, repeat=2)
        if interchange_holds(3, op1, op2)
    ]
    assert len(survivors) == rep.totals[3]["interchange_pairs"]
    for op1, op2 in survivors:
        assert op1 == op2
        assert all(op1[a][b] == op1[b][a] for a in range(3) for b in range(3))


def test_size_four_keeps_its_totals():
    rep = eckmann_hilton_scan(4)
    assert rep.ok
    assert rep.totals[4] == {
        "monoids": 624,
        "pairs": 389_376,
        "interchange_pairs": 376,
        "filtered_out": 389_000,
    }


def test_monoids_come_out_in_product_order():
    """Each table is a monoid with its identity, and per identity the cells
    off its row and column rise strictly: with the count, that is the list a
    product over those cells gives."""
    n = 4
    monoids = enumerate_monoids(n)
    for op, e in monoids:
        MonoidPair(n, op, e, op, e)
    keys = [
        (e, tuple(op[i][j] for i in range(n) for j in range(n) if e not in (i, j)))
        for op, e in monoids
    ]
    assert keys == sorted(set(keys))
    assert len(keys) == 624


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batch_interchange_filter_matches_the_pairwise_check(n):
    monoids = enumerate_monoids(n)
    assert list(_interchange_pairs(n, monoids)) == [
        (m1, m2)
        for m1, m2 in itertools.product(monoids, repeat=2)
        if interchange_holds(n, m1[0], m2[0])
    ]


def test_mixed_pair_is_filtered():
    # boolean xor against boolean or fails interchange
    xor = ((0, 1), (1, 0))
    orr = ((0, 1), (1, 1))
    assert not interchange_holds(2, xor, orr)
    assert interchange_holds(2, xor, xor)


def test_monoid_pair_validation():
    xor = ((0, 1), (1, 0))
    MonoidPair(2, xor, 0, xor, 0)
    with pytest.raises(ValueError):
        MonoidPair(2, xor, 1, xor, 0)


def test_size_limit():
    with pytest.raises(SizeLimit):
        eckmann_hilton_scan(5)
    with pytest.raises(SizeLimit):
        eckmann_hilton_scan(0)
