import itertools
from dataclasses import replace

from gpdkit.finite import (
    FiniteGroup,
    cyclic_group,
    even_elements,
    group_as_groupoid,
    interval_finite_groupoid,
    standard_battery,
    subgroup_table,
    symmetric_group,
    trivial_group,
    validate_finite_group,
    validate_finite_groupoid,
)

from reference import disjoint_union


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
