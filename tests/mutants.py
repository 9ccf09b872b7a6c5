"""Apply each mutant of a fixed table to a copy of this checkout and require
the tests named for it to fail.

    python tests/mutants.py [--json PATH]

A mutant is (name, file, old text, new text, killers).  ``old`` must occur
exactly once in ``file``; found any other number of times it is an error,
not a pass.  A killer is a tier-1 test id, which fails when any test it
selects fails or errors, or ``vk suite``, which fails when
``vk --format machine suite`` exits non-zero or prints other bytes than on
the unmutated copy.  The unmutated copy must pass every killer and
``vk suite``.  Then each mutant is applied alone to a fresh copy of
``src``, ``tests`` and ``pyproject.toml`` in a temporary directory, and its
killers and ``vk suite`` run in bytecode-free subprocesses.
Prints one line per (mutant, killer) and one per mutant for ``vk suite``
alone and, with ``--json``, writes that kill matrix to PATH, the suite's
verdicts as the ``suite_only`` column.  Exits 1 unless every killer passes
unmutated and every mutant is killed by all of its own killers, whatever
``vk suite`` alone finds.  Standard library only; pytest does not collect
it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parents[1]
SUITE = "vk suite"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    killers: tuple[str, ...]


MUTANTS = (
    Mutant("xmod isomorphism ignores the action", "src/gpdkit/dgt.py",
           "iso[a.base.dst[p]][a.action[(m, p)]] == b.action[(iso[a.base.src[p]][m], p)]", "True",
           ("tests/test_dgt.py::test_isomorphism_needs_the_fiber_map_to_respect_the_action",)),
    Mutant("cube oracle conjugates by b_r", "src/gpdkit/cubes.py",
           'conj(inv[w["d2+"]], inv[b_r]),', 'conj(inv[w["d2+"]], b_r),',
           ("tests/test_cubes.py::test_oracle_agrees_on_lambda_models",
            "tests/test_cubes.py::test_kernel_matches_the_object_level_reference[aut_s3_model]")),
    Mutant("every symmetry claim holds", "src/gpdkit/dgt.py",
           "    (target, anti), m, table = s.claim(k), s.squares, tables[k]\n",
           "    return True\n",
           ("tests/test_dgt.py::test_each_verdict_on_doctored_tables_is_a_direct_check",
            "tests/test_dgt.py::test_a_swapped_filler_is_swept_as_the_plain_loop")),
    Mutant("inv_v's edge move swaps right and left too", "src/gpdkit/dgt.py",
           '"inv_v": (2, 1, 0, 3)', '"inv_v": (2, 3, 0, 1)',
           ("tests/test_dgt.py::test_each_block_map_is_its_reflection_on_every_arrangement",)),
    Mutant("block images place y and z at each other's corner", "src/gpdkit/dgt.py",
           '(("top", "right"), (("left", 2), ("bottom", 0))),\n'
           '           (("bottom", "left"), (("top", 3), ("right", 1))),',
           '(("bottom", "left"), (("left", 2), ("bottom", 0))),\n'
           '           (("top", "right"), (("top", 3), ("right", 1))),',
           ("tests/test_dgt.py::test_each_block_map_is_its_reflection_on_every_arrangement",
            "tests/test_dgt.py::test_a_mutant_doctored_along_an_orbit_is_swept_block_by_block[c3_beside_c2]")),
    Mutant("the edge check passes every symmetry", "src/gpdkit/dgt.py",
           "    for e, to in zip(_EDGES, _MOVES[s.kind]):\n",
           "    return True\n    for e, to in zip(_EDGES, _MOVES[s.kind]):\n",
           ("tests/test_dgt.py::test_a_listed_map_that_moves_edges_against_its_kind_is_left_out",)),
    Mutant("Light's test checks only the first generator", "src/gpdkit/dgt.py",
           "    for s in _generating_set(table):\n", "    for s in _generating_set(table)[:1]:\n",
           ("tests/test_dgt.py::test_a_violation_with_its_middle_square_outside_the_generators_is_swept_exactly",)),
    Mutant("the generating set stops before every square is reached", "src/gpdkit/dgt.py",
           "    while not reached.all():\n", "    if not reached.all():\n",
           ("tests/test_dgt.py::test_the_generating_set_is_the_plain_closures",)),
    Mutant("grid row 0 drawn from top", "src/gpdkit/dgt.py",
           '("left", k - 1, "right")', '("top", k - 1, "right")',
           ("tests/test_grids.py::test_draw_grids_matches_the_object_level_draw", SUITE)),
    Mutant("any face can be pinned", "src/gpdkit/cubes.py",
           'if _SLOT.get(slot) not in _DRAW_ORDER[:3]:', "if False:",
           ("tests/test_cubes.py::test_a_face_that_cannot_be_pinned_is_refused_before_any_draw",)),
    Mutant("cube pasting reads table[y, x]", "src/gpdkit/cubes.py",
           "    z = table[x, y]\n", "    z = table[y, x]\n",
           ("tests/test_cubes.py::test_kernel_matches_the_object_level_reference", SUITE)),
    Mutant("reduce_letters stops cancelling", "src/gpdkit/words.py",
           "if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:", "if False:",
           ("tests/test_words.py::test_reduce_matches_fixpoint_oracle", SUITE)),
    Mutant("evaluate matches generators by name", "src/gpdkit/morphisms.py",
           "if gen not in m.domain.generators:",
           "if gen.name not in {g.name for g in m.domain.generators}:",
           ("tests/test_morphisms.py::test_evaluate_unknown_generator",)),
    Mutant("isomorphisms skip the final homomorphism check", "src/gpdkit/finite.py",
           "if all(phi[a.mul(x, y)] == b.mul(phi[x], phi[y]) for x in order for y in order):",
           "if True:",
           ("tests/test_finite.py::test_automorphisms_are_the_reference_list_in_order[c2c4]",)),
    Mutant("lambda bottom reads mu(m) for mu(m)^-1", "src/gpdkit/dgt.py",
           "bottom = rows[ltr][inv[mu]]", "bottom = rows[ltr][mu]",
           ("tests/test_reference.py::test_lambda_functor_squares_match_the_reference", SUITE)),
    Mutant("squares_with passes its arrows in unsorted edge order", "src/gpdkit/dgt.py",
           "members(*(index[edges[e]] for e in names))", "members(*(index[edges[e]] for e in edges))",
           ("tests/test_dgt.py::test_squares_with_is_an_exact_filter_in_model_order",)),
)


def copy_tree(dest: Path) -> Path:
    for part in ("src", "tests"):
        shutil.copytree(HERE / part, dest / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(HERE / "pyproject.toml", dest / "pyproject.toml")
    return dest


def mutated(m: Mutant) -> str:
    """The text of ``m.file`` with ``m`` applied; SystemExit unless its old
    text occurs exactly once."""
    text = (HERE / m.file).read_text()
    found = text.count(m.old)
    if found != 1:
        raise SystemExit(f"mutant {m.name!r}: its old text occurs {found} times in {m.file}")
    return text.replace(m.old, m.new)


def _run(tree: Path, argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=tree, capture_output=True, text=True,
                          timeout=1800, env={**os.environ, "PYTHONPATH": str(tree / "src"),
                                             "PYTHONDONTWRITEBYTECODE": "1"})


def suite_output(tree: Path) -> tuple[int, str]:
    proc = _run(tree, ["-m", "gpdkit.cli", "--format", "machine", "suite"])
    return proc.returncode, proc.stdout


def run_killers(tree: Path, killers, suite_bytes: str | None) -> dict[str, bool]:
    """Whether each killer fails on ``tree``.  SystemExit for a test id that
    selects no test."""
    failed = {}
    if SUITE in killers:
        code, out = suite_output(tree)
        failed[SUITE] = code != 0 or (suite_bytes is not None and out != suite_bytes)
    ids = [k for k in killers if k != SUITE]
    if ids:
        proc = _run(tree, ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-rA", *ids])
        outcomes = {}  # reported test id -> whether it failed or errored
        for line in proc.stdout.splitlines():
            status, _, rest = line.partition(" ")
            if status in ("PASSED", "FAILED", "ERROR") and rest:
                outcomes[rest.split(" ")[0]] = status != "PASSED"
        for k in ids:
            selected = [bad for test, bad in outcomes.items() if test == k or test.startswith(k + "[")]
            if not selected:
                raise SystemExit(f"killer {k} selects no test:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            failed[k] = any(selected)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run every mutant of the table against its killers.")
    parser.add_argument("--json", type=Path, metavar="PATH", help="write the kill matrix here")
    out_json = parser.parse_args(argv).json
    killers = sorted({SUITE, *(k for m in MUTANTS for k in m.killers)})
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        texts = [mutated(m) for m in MUTANTS]  # every old text is found once before anything runs
        base = copy_tree(Path(tmp) / "unmutated")
        suite_bytes = suite_output(base)[1]
        baseline = run_killers(base, killers, suite_bytes)
        for k in killers:
            print(f"{'FAIL' if baseline[k] else 'pass'} unmutated | {k}", flush=True)
            ok &= not baseline[k]
        matrix, suite_only = [], {}
        for n, (m, text) in enumerate(zip(MUTANTS, texts)):
            tree = copy_tree(Path(tmp) / f"mutant{n}")
            (tree / m.file).write_text(text)
            result = run_killers(tree, (*m.killers, SUITE), suite_bytes)
            shutil.rmtree(tree)
            for k in m.killers:
                print(f"{'killed' if result[k] else 'SURVIVED'} {m.name} | {k}", flush=True)
            print(f"{'killed' if result[SUITE] else 'survived'} {m.name} | {SUITE} alone", flush=True)
            ok &= all(result[k] for k in m.killers)
            suite_only[m.name] = "killed" if result[SUITE] else "survived"
            matrix.append({"name": m.name, "file": m.file,
                           "killers": {k: "killed" if result[k] else "survived" for k in m.killers}})
    killed = sum(all(v == "killed" for v in row["killers"].values()) for row in matrix)
    print(f"{killed} of {len(matrix)} mutants killed by all of their killers; "
          f"unmutated copy {'passes' if not any(baseline.values()) else 'FAILS'} all {len(killers)} killers; "
          f"{list(suite_only.values()).count('killed')} of {len(matrix)} killed by {SUITE} alone")
    if out_json:
        out_json.write_text(json.dumps({"unmutated": {k: "failed" if baseline[k] else "passed" for k in killers},
                                        "mutants": matrix, "suite_only": suite_only}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
