"""Child-process side of the benchmark: the only code here that calls gpdkit.

Run by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` set to the
checkout's ``src``; each mode prints one JSON document on stdout.

    worker.py setup                   import numpy, then gpdkit.cli: the
                                      set-up every vk command pays
    worker.py criterion4 --seed N     battery criterion 4, then its control's
                                      counterexample for the independent check
    worker.py cli VK-ARG...           one vk command, in-process through
                                      gpdkit.cli.main
    worker.py session --seed N --seconds S
                                      the vk-session commands (read as JSON on
                                      stdin), in-process through gpdkit.cli.main
    worker.py layers --seed N         one traced round of direct layer calls

Every mode but ``layers`` runs under the host-speed gauge (``gauge.py``) from
before gpdkit is imported until its output is ready, and reports the gauge's
chunk times with its output.
"""

import argparse
import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

from gauge import HostGauge
from spans import Tracer


def _in_checkout():
    """Import gpdkit, refusing to measure a copy other than this checkout's."""
    import gpdkit.cli as cli

    here = Path(__file__).resolve().parent.parent / "src"
    if here not in Path(cli.__file__).resolve().parents:
        sys.exit(f"gpdkit imported from {cli.__file__}, not from {here}")


def setup() -> dict:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    _in_checkout()
    return {"numpy_s": t1 - t0, "cli_s": time.perf_counter() - t1}


def criterion4(seed: int) -> dict:
    from gpdkit import dgt, suite

    rep = suite.criterion_4_interchange(seed=seed)
    ce = dgt.find_interchange_counterexample(suite.a3_s3_model(), comp2=dgt.comp_h_unconjugated)
    return {
        "status": rep.status,
        "counts": rep.counts,
        "witnesses": rep.witnesses,
        "counterexample": [list(s.key()) for s in ce] if ce else None,
    }


def run_command(argv: list[str], gauge: HostGauge) -> dict:
    """One vk command in this process: exit code, stdout, or the exception.

    ``s`` is its wall time and ``net_s`` the same less the gauge's chunks.
    """
    import gpdkit.cli as cli

    buf = io.StringIO()
    out = {"rc": None, "error": None}
    busy = gauge.busy
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            out["rc"] = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        out["error"] = f"SystemExit({exc.code})"
    except Exception as exc:  # a crash is a failed operation, recorded with its type
        out["error"] = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    out["s"] = t1 - t0
    out["net_s"] = out["s"] - (gauge.busy - busy)
    # A command of a few ms seldom holds a chunk of its own: take those of
    # the tenth of a second before it as well (later ones have not run yet).
    out["chunk_s"] = gauge.chunk_s(t0 - 0.1, t1 + 0.1)
    out["out"] = buf.getvalue()
    return out


def session(plan: list, seconds: float, gauge: HostGauge) -> dict:
    """A warm-up pass, then whole timed passes until ``seconds`` have passed.

    Each pass carries its wall time, that less the gauge's chunks, and the
    mean chunk time over the pass.
    """
    warmup = [run_command(argv, gauge) for _, argv in plan]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        busy = gauge.busy
        t0 = time.perf_counter()
        results = [run_command(argv, gauge) for _, argv in plan]
        t1 = time.perf_counter()
        passes.append({"wall_s": t1 - t0, "net_s": t1 - t0 - (gauge.busy - busy),
                       "chunk_s": gauge.chunk_s(t0, t1), "results": results})
    return {"warmup": warmup, "passes": passes}


# -- the traced layer round -----------------------------------------------------

def _reps(tracer: Tracer, name: str, n: int, fn, **attrs):
    """Call ``fn`` n times, one span each; return the last result."""
    out = None
    for _ in range(n):
        with tracer.span(name, **attrs):
            out = fn()
    return out


def layers(seed: int, data: Path) -> dict:
    import gpdkit.cli as cli
    from gpdkit import crossed, cubes, dgt, eckmann, finite, freemodules, grids
    from gpdkit import morphisms, report, squares, suite, textfmt, vkt

    tracer = Tracer()
    rng = random.Random(seed)
    facts = {}

    xa3 = suite.a3_s3_xmod()
    s3 = finite.symmetric_group(3)
    xaut = crossed.automorphism_xmod(s3)
    m = _reps(tracer, "dgt.lambda_functor_ms.a3s3", 5, lambda: dgt.lambda_functor(xa3))
    ma = _reps(tracer, "dgt.lambda_functor_ms.auts3", 5, lambda: dgt.lambda_functor(xaut))
    facts["a3s3"] = {"squares": m.size(), "thin": len(m.thin_squares)}
    facts["auts3"] = {"squares": ma.size(), "thin": len(ma.thin_squares)}

    with tracer.span("dgt.tables_s.a3s3"):
        m.tables()
    with tracer.span("dgt.tables_s.auts3"):
        ma.tables()
    with tracer.span("dgt.count_quadruples_s"):
        facts["count_quadruples"] = dgt.count_compatible_quadruples(m)
    with tracer.span("dgt.interchange_exhaustive_s"):
        checked, bad, _ = dgt.interchange_exhaustive(m)
    facts["interchange"] = {"checked": checked, "violations": bad}
    ce = _reps(tracer, "dgt.counterexample_ms", 5,
               lambda: dgt.find_interchange_counterexample(m, comp2=dgt.comp_h_unconjugated))
    facts["counterexample"] = [list(s.key()) for s in ce] if ce else None
    for label, model in (("a3s3", m), ("auts3", ma)):
        with tracer.span(f"dgt.validate_dgt_s.{label}"):
            law = dgt.validate_dgt(model, interchange="sampled", seed=seed, samples=2000)
        facts[f"validate_{label}"] = {"checks": law.checks, "violations": len(law.violations)}

    arrows = sorted(ma.edges.arrows)
    pairs = [(rng.choice(arrows), rng.choice(arrows)) for _ in range(2000)]
    found = 0
    with tracer.span("dgt.squares_with_us", calls=len(pairs)):
        for left, top in pairs:
            found += len(ma.squares_with(left=left, top=top))
    facts["squares_with"] = {"calls": len(pairs), "found": found}

    back = _reps(tracer, "dgt.gamma_ms", 5, lambda: dgt.gamma(m))
    iso = _reps(tracer, "dgt.xmod_iso_ms", 5, lambda: dgt.find_xmod_isomorphism(xa3, back))
    facts["gamma_iso"] = iso is not None
    law = _reps(tracer, "dgt.transport_ms", 5, lambda: dgt.connection_transport_report(m))
    facts["transport"] = {"checks": law.checks, "violations": len(law.violations)}

    for label, edge_out, edge_in, compose in (
        ("comp_h", "right", "left", squares.comp_h),
        ("comp_v", "bottom", "top", squares.comp_v),
    ):
        operands = []
        for _ in range(5000):
            a = m.random_square(rng)
            b = rng.choice(m.squares_with(**{edge_in: getattr(a, edge_out)}))
            operands.append((a, b))
        with tracer.span(f"squares.{label}_us", calls=len(operands)):
            results = [compose(a, b) for a, b in operands]
        facts[label] = [[list(a.key()), list(b.key()), list(c.key())]
                        for (a, b), c in zip(operands[:50], results[:50])]

    folds = []
    for _ in range(50):
        cells = []
        for i in range(3):
            row = []
            for j in range(3):
                want = {}
                if j:
                    want["left"] = row[j - 1].right
                if i:
                    want["top"] = cells[i - 1][j].bottom
                row.append(rng.choice(m.squares_with(**want)))
            cells.append(tuple(row))
        g = grids.Grid(tuple(cells))
        with tracer.span("grids.fold_orders_ms"):
            results = {
                grids.grid_compose(g),
                grids.grid_compose_columns_first(g),
                grids.grid_compose_bracketed(g, grids.alternating_cut("h")),
                grids.grid_compose_bracketed(g, grids.alternating_cut("v")),
            }
        folds.append({"cells": [[list(c.key()) for c in row] for row in cells],
                      "results": sorted(list(r.key()) for r in results)})
    facts["folds"] = folds[:10]

    sq_s3 = dgt.square_model(finite.group_as_groupoid(s3, name="s3"))
    sampled = []
    for _ in range(100):
        with tracer.span("cubes.random_cube_ms"):
            c1 = cubes.random_commutative_cube(sq_s3, rng)
        c2 = cubes.random_commutative_cube(sq_s3, rng, fixed=("d2-", c1.face("d2+")))
        with tracer.span("cubes.compose_ms"):
            comp = cubes.compose_cubes(c1, c2, 2)
        sampled.append(comp)
    facts["cubes"] = [{slot: list(c.face(slot).key()) for slot in cubes.FACE_SLOTS}
                      for c in sampled[:10]]
    sq_c2 = dgt.square_model(finite.group_as_groupoid(finite.cyclic_group(2), name="c2"))
    facts["c2_cubes"] = len(_reps(tracer, "cubes.enumerate_ms", 3,
                                  lambda: list(cubes.enumerate_cubes(sq_c2))))

    law = _reps(tracer, "crossed.validate_ms", 5, lambda: crossed.validate_crossed_module(xa3))
    facts["xmod_validate"] = {"checks": law.checks, "violations": len(law.violations)}
    with tracer.span("crossed.perturbation_sweep_ms"):
        caught = sum(
            not crossed.validate_crossed_module(
                crossed.perturb_action_entry(xa3, random.Random(seed + k))
            ).ok
            for k in range(50)
        )
    facts["perturbations_caught"] = caught

    scan = _reps(tracer, "eckmann.scan_ms", 3, lambda: eckmann.eckmann_hilton_scan(3))
    facts["eckmann"] = {str(n): t for n, t in scan.totals.items()}

    parsed = {}
    for path in sorted(data.glob("*.vk")):
        if path.name.startswith("bad_"):
            continue
        parsed[path.name] = _reps(tracer, "textfmt.parse_ms", 3,
                                  lambda: textfmt.parse_workspace([path]), workspace=path.name)
    facts["parsed_objects"] = {nm: sum(len(t) for t in ws.kinds().values())
                               for nm, ws in parsed.items()}

    disk = parsed["disk_module.vk"]
    mod, wrap = disk.modules["disk"], disk.morphisms["wrap"]
    ind = _reps(tracer, "freemodules.induce_ms", 5,
                lambda: freemodules.induce_free_module(mod, wrap))
    facts["induce"] = {"rank": ind.rank(), "sites": [list(g) for g in ind.generators]}

    circle = parsed["circle.vk"].spans["circle"]
    po = _reps(tracer, "vkt.pushout_ms", 5, lambda: vkt.pushout(circle))
    vg = _reps(tracer, "vkt.vertex_group_ms", 5, lambda: vkt.vertex_group(po.presentation, "0"))
    facts["pushout"] = {"objects": len(po.presentation.objects),
                        "generators": len(po.presentation.generators),
                        "vertex_rank": len(vkt.tietze_simplify(vg).generators)}
    battery = finite.standard_battery()
    verdicts = _reps(tracer, "vkt.universal_ms", 3, lambda: [
        vkt.check_pushout_universal(circle, po, f) for f in battery])
    facts["universal"] = {f.name: [v.candidate_count, v.pair_count, v.ok]
                          for f, v in zip(battery, verdicts)}
    s3_groupoid = next(f for f in battery if f.name == "s3")
    found = _reps(tracer, "morphisms.enumerate_ms", 5,
                  lambda: morphisms.enumerate_morphisms(po.presentation, s3_groupoid))
    facts["morphisms_s3"] = len(found)

    argv = ["--format", "machine", "--seed", str(seed), "check", str(data / "squares.vk")]
    _reps(tracer, "cli.argparse_ms", 20, lambda: cli.build_parser().parse_args(argv))
    rep = cli.cmd_eh_scan(argparse.Namespace(max_size=3))
    with tracer.span("report.emit_us", calls=1000):
        for _ in range(1000):
            text = report.emit(rep, "machine")
    facts["emit_tail"] = text.splitlines()[-1]

    facts["criteria"] = {}
    for key, fn, _ in suite.CRITERIA:
        with tracer.span(f"suite.criterion_s.{key}"):
            rep = fn(seed=seed)
        facts["criteria"][key] = {"status": rep.status, "counts": rep.counts}

    return {"spans": tracer.spans, "facts": facts}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "criterion4", "cli", "session", "layers"))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--data", type=Path)
    # In cli mode every argument after the mode belongs to the vk command.
    args = ap.parse_args(argv[:1] if argv[:1] == ["cli"] else argv)
    if args.mode == "layers":
        _in_checkout()
        out = layers(args.seed, args.data)
    else:
        plan = json.load(sys.stdin) if args.mode == "session" else None
        with HostGauge() as gauge:
            t0 = time.perf_counter()
            if args.mode == "setup":
                out = setup()
            else:
                _in_checkout()
                if args.mode == "criterion4":
                    out = criterion4(args.seed)
                elif args.mode == "cli":
                    out = run_command(argv[1:], gauge)
                else:
                    out = session(plan, args.seconds, gauge)
            # What the parent needs to scale a spawn-to-exit wall time.
            out["gauge"] = {"busy_s": gauge.busy,
                            "chunk_s": gauge.chunk_s(t0, time.perf_counter())}
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
