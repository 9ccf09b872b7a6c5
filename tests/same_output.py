"""Check that two source trees give the same ``vk --format machine`` output.

    python tests/same_output.py OTHER_TREE

runs a fixed list of commands, every ``vk`` subcommand among them, each
in a fresh interpreter, once against this checkout's ``src`` and once
against ``OTHER_TREE/src``, and compares stdout, stderr (with each tree's
path stripped) and the exit code.  Both trees read the workspaces bundled
with this checkout.  Prints each command
as it passes and exits 1 at the first difference, 0 when none is found.
No bytecode is written into either tree.  Standard library only; pytest
does not collect it.
"""

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
DATA = HERE / "src" / "gpdkit" / "data"
SEEDS = (0, 1, 5)
AUT_S3 = "group s3 = symmetric(3)\nxmod auts3 = autxmod(s3)\n"
# circle.vk's pushout as a workspace block with its two cocone legs, to
# append to circle.vk for a named candidate; tests/test_cli.py fills
# {extra} with one more generator for a candidate that must fail
CIRCLE_CANDIDATE = """
groupoid po
objects: 0 1
gen a: 0 -> 1
gen b: 0 -> 1{extra}

morphism inl: arc1 -> po
obj 0 -> 0
obj 1 -> 1
gen a -> a

morphism inr: arc2 -> po
obj 0 -> 0
obj 1 -> 1
gen b -> b
"""


def commands(aut_s3: Path, candidate: Path) -> list[list[str]]:
    """The vk argument lists compared, after ``--format machine``."""
    out = [["--seed", str(s), "suite"] for s in SEEDS]
    for path in sorted(DATA.glob("*.vk")):
        out += [["check", str(path)], ["print", str(path)]]
    for path in (DATA / "a3s3.vk", aut_s3):
        out += [["--seed", str(s), "xmod", action, str(path)]
                for action in ("validate", "lambda", "gamma") for s in SEEDS]
    out += [["cube", "check", str(DATA / name)] for name in ("squares.vk", "bad_cube.vk")]
    circle, wedge, disk, squares = (str(DATA / name) for name in
                                    ("circle.vk", "wedge.vk", "disk_module.vk", "squares.vk"))
    for path, base in ((circle, "0"), (wedge, "p")):
        out += [["pushout", path], ["check-universal", path], ["count-morphisms", path]]
        out += [["vertex-group", path, "--base", base, *raw] for raw in ((), ("--raw",))]
    out += [["vertex-group", circle, "--base", "0", "--tree", "a"],
            ["check-universal", str(candidate), "--span", "circle", "--candidate", "po",
             "--candidate-left", "inl", "--candidate-right", "inr"]]
    out += [["count-morphisms", disk, "--presentation", name] for name in ("interval", "cinf")]
    out += [["eh-scan", "--max-size", "3"],
            ["induce", disk, "--module", "disk", "--morphism", "wrap"],
            ["square", "compose", squares, "--left", "sq_left", "--right", "sq_right"],
            *(["square", "invert", squares, "--name", "sq_left", "--dir", d] for d in "hv"),
            ["grid", "compose", squares, "--name", "demo"]]
    return out


def run(tree: Path, argv: list[str]) -> tuple[str, str, int]:
    proc = subprocess.run(
        [sys.executable, "-m", "gpdkit.cli", "--format", "machine", *argv],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    return proc.stdout, proc.stderr.replace(str(tree), "<tree>"), proc.returncode


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "gpdkit").is_dir():
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        aut_s3 = Path(tmp) / "auts3.vk"
        aut_s3.write_text(AUT_S3)
        candidate = Path(tmp) / "candidate.vk"
        candidate.write_text((DATA / "circle.vk").read_text() + CIRCLE_CANDIDATE.format(extra=""))
        cmds = commands(aut_s3, candidate)
        for k, cmd in enumerate(cmds, 1):
            ours, theirs = run(HERE, cmd), run(other, cmd)
            shown = " ".join(cmd).replace(str(HERE) + "/", "").replace(tmp + "/", "")
            for what, a, b in zip(("stdout", "stderr", "exit code"), ours, theirs):
                if a != b:
                    print(f"DIFFER {shown}: {what}")
                    print("".join(difflib.unified_diff(
                        str(a).splitlines(True), str(b).splitlines(True), "this checkout", str(other))))
                    return 1
            print(f"same [{k}/{len(cmds)}] {shown}")
    print(f"no difference in {len(cmds)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
