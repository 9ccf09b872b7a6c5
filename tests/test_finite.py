import itertools
from dataclasses import replace

import pytest

from gpdkit.crossed import automorphisms, from_normal_subgroup
from gpdkit.finite import (
    FiniteGroup,
    cyclic_group,
    even_elements,
    group_as_groupoid,
    interval_finite_groupoid,
    isomorphisms,
    standard_battery,
    subgroup_table,
    symmetric_group,
    trivial_group,
    validate_finite_group,
    validate_finite_groupoid,
)

from reference import disjoint_union, permutation_group, reference_isomorphisms


def test_standard_groups_validate():
    for g in (trivial_group(), cyclic_group(2), cyclic_group(3), cyclic_group(6), symmetric_group(3)):
        assert validate_finite_group(g).ok


def test_s3_multiplication_convention():
    s3 = symmetric_group(3)
    # left-to-right: apply the first, then the second
    assert s3.mul("(12)", "(13)") == "(123)"
    assert s3.mul("(13)", "(12)") == "(132)"
    assert s3.conj("(123)", "(12)") == "(132)"


def test_even_elements_is_a3():
    s3 = symmetric_group(3)
    assert even_elements(s3) == {"e", "(123)", "(132)"}
    a3 = subgroup_table(s3, even_elements(s3), "a3")
    assert validate_finite_group(a3).ok
    assert a3.order() == 3


def test_group_as_groupoid_validates():
    for g in (trivial_group(), symmetric_group(3)):
        assert validate_finite_groupoid(group_as_groupoid(g)).ok


def test_interval_finite_groupoid():
    iv = interval_finite_groupoid()
    assert len(iv.arrows) == 4
    assert validate_finite_groupoid(iv).ok
    assert iv.hom("0", "1") == ["i"]


def test_disjoint_union_validates():
    s3 = group_as_groupoid(symmetric_group(3), name="s3")
    both = disjoint_union(s3, interval_finite_groupoid())
    assert validate_finite_groupoid(both).ok
    assert len(both.arrows) == 10
    # per-component structure is preserved
    assert len(both.objects) == 3


def test_broken_associativity_is_reported_with_witness():
    g = group_as_groupoid(cyclic_group(3), name="c3x")
    g.table[("t", "t")] = "t"  # corrupt one entry
    report = validate_finite_groupoid(g)
    assert not report.ok
    assert any(v.law == "associativity" for v in report.violations)


def test_missing_identity_reported():
    iv = interval_finite_groupoid()
    del iv.identity["1"]
    report = validate_finite_groupoid(iv)
    assert not report.ok
    assert any(v.law == "identity-arrow" for v in report.violations)


def test_validator_counts_every_composable_triple():
    s3 = group_as_groupoid(symmetric_group(3))
    report = validate_finite_groupoid(s3)
    assert report.ok
    n = len(s3.arrows)
    # oracle: triples in a one-object groupoid are all n^3
    triples = sum(
        1
        for x, y, z in itertools.product(s3.arrows, repeat=3)
        if s3.dst[x] == s3.src[y] and s3.dst[y] == s3.src[z]
    )
    assert triples == n ** 3


def test_standard_battery_contents():
    battery = standard_battery()
    assert [f.name for f in battery] == ["triv", "c2", "c3", "s3"]
    assert [len(f.arrows) for f in battery] == [1, 2, 3, 6]
    assert all(validate_finite_groupoid(f).ok for f in battery)


def test_a_replaced_groupoid_builds_its_own_hom_sets():
    f = interval_finite_groupoid()
    assert f.hom("0", "1") == ["i"]  # fills f's cache
    swapped = replace(f, src={**f.src, "i": "1", "i_inv": "0"}, dst={**f.dst, "i": "0", "i_inv": "1"})
    assert swapped.hom("0", "1") == ["i_inv"]
    assert swapped.hom("1", "0") == ["i"]
    assert f.hom("0", "1") == ["i"]


def test_a_group_with_no_elements_has_no_identity():
    r = validate_finite_group(FiniteGroup("z", (), {}, "e", {}))
    assert [(v.law, v.witness) for v in r.violations] == [
        ("identity", "group has no elements, so no identity e")]
    assert r.checks == 0


def test_a_repeated_name_is_a_violation_naming_it():
    c2 = cyclic_group(2)
    doubled = replace(c2, elements=c2.elements + c2.elements[:1])
    assert [(v.law, v.witness) for v in validate_finite_group(doubled).violations] == [
        ("names", f"element {c2.elements[0]} is repeated")]
    g = group_as_groupoid(c2)
    for field, value, witness in [("objects", ("*", "*"), "object * is repeated"),
                                  ("arrows", g.arrows + g.arrows[-1:], f"arrow {g.arrows[-1]} is repeated")]:
        r = validate_finite_groupoid(replace(g, **{field: value}))
        assert [(v.law, v.witness) for v in r.violations] == [("names", witness)]


# one group of each isomorphism class of order <= 8, the non-cyclic ones
# closed from permutations: D4 from two permutations of S4, Q8 as its own
# right-regular permutations of 1, i, j, k, -1, -i, -j, -k
SMALL_GROUPS = {
    "triv": trivial_group,
    "c2": lambda: cyclic_group(2),
    "c3": lambda: cyclic_group(3),
    "c4": lambda: cyclic_group(4),
    "v4": lambda: permutation_group("v4", (1, 0, 3, 2), (2, 3, 0, 1)),
    "c5": lambda: cyclic_group(5),
    "s3": lambda: symmetric_group(3),
    "c6": lambda: cyclic_group(6),
    "c7": lambda: cyclic_group(7),
    "d4": lambda: permutation_group("d4", (1, 2, 3, 0), (2, 1, 0, 3)),
    "c8": lambda: cyclic_group(8),
    "c2c4": lambda: permutation_group("c2c4", (1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2)),
    "c2c2c2": lambda: permutation_group("c2c2c2", (1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5),
                                        (0, 1, 2, 3, 5, 4)),
    "q8": lambda: permutation_group("q8", (1, 4, 7, 2, 5, 0, 3, 6), (2, 3, 4, 5, 6, 7, 0, 1)),
}


def as_set(maps):
    return {tuple(sorted(phi.items())) for phi in maps}


def test_the_small_groups_are_the_fourteen_classes():
    # orders and automorphism counts tell the fourteen classes apart
    groups = {name: make() for name, make in SMALL_GROUPS.items()}
    assert all(validate_finite_group(g).ok for g in groups.values())
    assert {name: (g.order(), len(automorphisms(g))) for name, g in groups.items()} == {
        "triv": (1, 1), "c2": (2, 1), "c3": (3, 2), "c4": (4, 2), "v4": (4, 6), "c5": (5, 4),
        "s3": (6, 6), "c6": (6, 2), "c7": (7, 6), "d4": (8, 8), "c8": (8, 4), "c2c4": (8, 8),
        "c2c2c2": (8, 168), "q8": (8, 24)}
    # D4 and C2 x C4 share both numbers: only C2 x C4 is abelian
    assert not all(groups["d4"].mul(x, y) == groups["d4"].mul(y, x)
                   for x, y in itertools.product(groups["d4"].elements, repeat=2))
    assert all(groups["c2c4"].mul(x, y) == groups["c2c4"].mul(y, x)
               for x, y in itertools.product(groups["c2c4"].elements, repeat=2))


@pytest.mark.parametrize("name", list(SMALL_GROUPS))
def test_automorphisms_are_the_reference_list_in_order(name):
    g = SMALL_GROUPS[name]()
    assert automorphisms(g) == reference_isomorphisms(g, g)


@pytest.mark.parametrize("pair", [("c4", "v4"), ("c6", "s3")])
def test_groups_of_one_order_that_are_not_isomorphic_have_no_isomorphism(pair):
    a, b = (SMALL_GROUPS[name]() for name in pair)
    for x, y in ((a, b), (b, a)):
        assert reference_isomorphisms(x, y) == []
        assert list(isomorphisms(x, y)) == []


def test_isomorphisms_keep_only_the_maps_that_fit_the_boundaries():
    # A3 in S3: mu is injective, so only the identity fits; C3 -> C2 with
    # trivial boundary: both automorphisms of C3 fit
    s3 = symmetric_group(3)
    a3s3 = from_normal_subgroup(s3, even_elements(s3))
    c3 = cyclic_group(3)
    for fiber, mu, count in ((a3s3.fibers["*"], a3s3.mu["*"], 1), (c3, dict.fromkeys(c3.elements, "e"), 2)):
        def fits(m, n):
            return mu[m] == mu[n]
        found = list(isomorphisms(fiber, fiber, fits=fits))
        assert as_set(found) == as_set(reference_isomorphisms(fiber, fiber, fits))
        assert len(found) == count
