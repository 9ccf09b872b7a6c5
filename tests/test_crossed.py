import itertools
from collections import Counter
from dataclasses import replace
import random
import signal

import pytest

from gpdkit.crossed import (
    CrossedModuleData,
    automorphism_xmod,
    automorphisms,
    from_normal_subgroup,
    perturb_action_entry,
    trivial_crossed_module,
    validate_crossed_module,
)
from gpdkit.errors import FiberMismatch, NotASubgroup, NotNormal, PreconditionFailed, SizeLimit
from gpdkit.finite import (
    FiniteGroup,
    cyclic_group,
    even_elements,
    group_as_groupoid,
    interval_finite_groupoid,
    sweep_group,
    sweep_groupoid,
    symmetric_group,
    trivial_group,
)
from gpdkit.suite import criterion_3_crossed_modules


def test_a3_s3_valid(a3s3):
    assert validate_crossed_module(a3s3).ok
    assert a3s3.fibers["*"].order() == 3
    assert a3s3.base.size() == 6


def test_trivial_fiber_always_valid(s3):
    xm = from_normal_subgroup(s3, {"e"})
    assert validate_crossed_module(xm).ok
    assert xm.fibers["*"].order() == 1


def test_not_normal_witness(s3):
    with pytest.raises(NotNormal) as err:
        from_normal_subgroup(s3, {"e", "(12)"})
    m, p = err.value.witness
    # oracle: direct conjugation escapes the subset
    assert s3.conj(m, p) not in {"e", "(12)"}


def test_not_a_subgroup(s3):
    with pytest.raises(NotASubgroup):
        from_normal_subgroup(s3, {"e", "(123)"})  # not closed
    with pytest.raises(NotASubgroup):
        from_normal_subgroup(s3, {"(123)", "(132)"})  # no identity


def test_act_examples(a3s3):
    assert a3s3.act("(123)", "e") == "(123)"
    assert a3s3.act("(123)", "(12)") == "(132)"
    with pytest.raises(FiberMismatch):
        a3s3.act("(12)", "e")


def test_aut_xmod_sizes():
    assert automorphism_xmod(cyclic_group(2)).base.size() == 1
    c3 = automorphism_xmod(cyclic_group(3))
    assert c3.base.size() == 2
    # abelian group: inner automorphisms are trivial
    assert all(v == c3.base.id_at("*") for v in c3.mu["*"].values())
    s3x = automorphism_xmod(symmetric_group(3))
    assert s3x.base.size() == 6
    # complete group: mu is a bijection
    assert len(set(s3x.mu["*"].values())) == 6


def test_aut_xmod_validates(s3, aut_s3):
    assert validate_crossed_module(aut_s3).ok
    assert validate_crossed_module(automorphism_xmod(cyclic_group(3))).ok
    assert validate_crossed_module(automorphism_xmod(trivial_group())).ok


def test_aut_action_is_evaluation(s3, aut_s3):
    # g^(mu h) = h^-1 g h, an instance of the second axiom, by table lookup
    for g in s3.elements:
        for h in s3.elements:
            assert aut_s3.act(g, aut_s3.mu["*"][h]) == s3.conj(g, h)


def test_automorphism_search_size_limit():
    with pytest.raises(SizeLimit):
        automorphisms(cyclic_group(9))


def test_cm1_fails_with_trivial_action(a3s3):
    bad = CrossedModuleData(
        "bad",
        a3s3.base,
        a3s3.fibers,
        a3s3.mu,
        {(m, p): m for (m, p) in a3s3.action},
    )
    report = validate_crossed_module(bad)
    assert not report.ok
    assert any(v.law == "CM1" for v in report.violations)


def test_cm2_commutator_consequence(a3s3, aut_s3):
    # [m, n] = m^-1 * m^(mu n) on every fiber of every test module
    for xm in (a3s3, aut_s3, automorphism_xmod(cyclic_group(3))):
        for s in xm.base.objects:
            M = xm.fibers[s]
            for m, n in itertools.product(M.elements, repeat=2):
                commutator = M.mul(
                    M.mul(M.inv(m), M.inv(n)), M.mul(m, n)
                )
                assert commutator == M.mul(M.inv(m), xm.act(m, xm.mu[s][n]))


def test_kernel_central_and_fixed(a3s3, aut_s3):
    shadow = CrossedModuleData(
        "c3shadow",
        group_as_groupoid(trivial_group(), name="pt"),
        {"*": cyclic_group(3)},
        {"*": {x: "e" for x in cyclic_group(3).elements}},
        {(x, "e"): x for x in cyclic_group(3).elements},
    )
    assert validate_crossed_module(shadow).ok
    for xm in (a3s3, aut_s3, shadow):
        for s in xm.base.objects:
            M = xm.fibers[s]
            e = xm.base.id_at(s)
            kernel = [m for m in M.elements if xm.mu[s][m] == e]
            for k in kernel:
                for m in M.elements:
                    assert M.mul(k, m) == M.mul(m, k)
                    assert xm.act(k, xm.mu[s][m]) == k


def test_perturbation_always_caught(a3s3, aut_s3):
    # fiber image of the automorphism module is nonabelian; flips must be seen
    for k in range(50):
        rng = random.Random(k)
        assert not validate_crossed_module(perturb_action_entry(aut_s3, rng)).ok
        assert not validate_crossed_module(perturb_action_entry(a3s3, rng)).ok


def test_perturbation_refuses_a_module_with_no_entry_to_change():
    def stuck(signum, frame):
        raise TimeoutError("perturb_action_entry is still drawing")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(20)
    try:
        with pytest.raises(PreconditionFailed, match="no action entry has a second value"):
            perturb_action_entry(trivial_crossed_module(interval_finite_groupoid()), random.Random(0))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_trivial_crossed_module_over_groupoid():
    xm = trivial_crossed_module(interval_finite_groupoid())
    assert validate_crossed_module(xm).ok
    assert set(xm.fibers) == {"0", "1"}


def test_a_module_over_an_empty_fiber_fails_validation():
    empty = FiniteGroup("z", (), {}, "e", {})
    xm = CrossedModuleData("hollow", group_as_groupoid(trivial_group()), {"*": empty}, {"*": {}}, {})
    r = validate_crossed_module(xm)
    assert [(v.law, v.witness) for v in r.violations] == [
        ("fiber-identity", "at '*': group has no elements, so no identity e")]


def test_a_module_over_a_repeated_object_fails_validation():
    base = replace(group_as_groupoid(cyclic_group(2)), objects=("*", "*"))
    r = validate_crossed_module(trivial_crossed_module(base))
    assert [(v.law, v.witness) for v in r.violations] == [("base-names", "object * is repeated")]


def test_criterion_3_sweeps_each_base_and_fiber_once(monkeypatch):
    # four modules with one fiber each; the 50 perturbed copies of the
    # first reuse its proof
    calls = []
    for sweep in (sweep_group, sweep_groupoid):
        def counted(obj, sweep=sweep):
            calls.append(sweep.__name__)
            return sweep(obj)

        monkeypatch.setattr(f"gpdkit.crossed.{sweep.__name__}", counted)
    assert criterion_3_crossed_modules().ok
    assert Counter(calls) == {"sweep_groupoid": 4, "sweep_group": 4}
