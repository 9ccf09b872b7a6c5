"""The acceptance battery: every bundled criterion at its stated bound.

Each criterion runs once per session; its test prints the pass/fail line
and enforces the wall-clock budget.  Everything is exact; the only
tolerances are the time limits themselves.
"""

import time

import pytest

from gpdkit.suite import CRITERIA

BUDGET_SECONDS = {
    "1": 1,
    "2": 5,
    "3": 10,
    "4": 20,
    "5": 10,
    "6": 5,
    "7": 60,
    "8": 20,
    "9": 10,
    "10": 60,
    "11": 120,
    "12": 10,
}

_CACHE = {}


def run_criterion(key):
    if key not in _CACHE:
        fn = dict((k, f) for k, f, _ in CRITERIA)[key]
        t0 = time.perf_counter()
        report = fn(seed=0)
        _CACHE[key] = (report, time.perf_counter() - t0)
    return _CACHE[key]


@pytest.mark.parametrize("key,fn,blurb", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(key, fn, blurb):
    report, elapsed = run_criterion(key)
    status = "PASS" if report.ok else "FAIL"
    print(f"CRITERION {key} {status} ({elapsed:.2f}s) {blurb}")
    for k, v in report.counts.items():
        print(f"  {k}: {v}")
    assert report.ok, f"criterion {key} failed: {report.witnesses}"
    assert elapsed < BUDGET_SECONDS[key], (
        f"criterion {key} took {elapsed:.1f}s, budget {BUDGET_SECONDS[key]}s"
    )


def test_criterion_1_shape_is_exact():
    rep, _ = run_criterion("1")
    assert rep.counts["generators"] == 1
    assert rep.counts["relators"] == 0
    assert "⟨x_b | ⟩" in rep.payload


def test_criterion_2_exact_counts():
    rep, _ = run_criterion("2")
    assert rep.counts["s3_morphisms"] == rep.counts["s3_cocones"] == 36
    assert rep.counts["triv_morphisms"] == 1
    assert rep.counts["c2_morphisms"] == 4
    assert rep.counts["c3_morphisms"] == 9


def test_criterion_3_catches_all_perturbations():
    rep, _ = run_criterion("3")
    assert rep.counts["perturbations_caught"] == 50


def test_criterion_4_exact_quadruple_count():
    rep, _ = run_criterion("4")
    assert rep.counts["squares"] == 648
    assert rep.counts["quadruples"] == 648 * 108 * 108 * 18
    assert rep.counts["violations"] == 0
    assert rep.counts["corrupted_counterexample"] == 1


def test_criterion_8_cube_counts():
    rep, _ = run_criterion("8")
    assert rep.counts["c2_cubes"] == 128
    assert rep.counts["c2_composites"] == 6144
    assert rep.counts["s3_samples"] == 1000
    assert rep.counts["oracle_agreements"] == 128 + 3 * 1000


def test_criterion_11_totals():
    rep, _ = run_criterion("11")
    assert rep.counts["size2_interchange"] == 4
    assert rep.counts["size3_interchange"] == 27


def test_suite_runner_aggregates():
    from gpdkit.suite import run_suite

    rep = run_suite(only={"1", "11"})
    assert rep.ok
    assert rep.counts["criterion_1.generators"] == 1
    assert rep.counts["criterion_1.relators"] == 0
    assert rep.counts["criterion_11.size3_interchange"] == 27
    assert rep.counts["criterion_11.violations"] == 0
    assert any(line.startswith("CRITERION 1 PASS") for line in rep.payload)
