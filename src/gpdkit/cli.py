"""The ``vk`` command line: parse workspaces, dispatch, report.

One logical command per invocation; exit status is 0 exactly when the
report says ok.  ``--format machine`` produces the stable line format for
golden-file testing, ``--seed`` pins every randomized sweep.

Each handler imports the layers it calls in its own body, so importing this
module loads only the errors and report modules, and a command loads only
the layers it runs: a workspace without cubes never loads numpy.
"""

import argparse
import sys
import time
from contextlib import suppress
from functools import cache

from .errors import GpdError, PreconditionFailed, UnknownCommand
from .report import Report, emit


def _name(args) -> str:
    """The report's name: the command, then its action if it takes one."""
    action = getattr(args, "action", None)
    return f"{args.command}-{action}" if action else args.command


def _load(args):
    from .textfmt import parse_workspace

    return parse_workspace(args.files)


def _the(table: dict, kind: str, name: str | None):
    if name is not None:
        if name not in table:
            raise UnknownCommand(f"no {kind} named {name!r} in the workspace")
        return table[name]
    if len(table) == 1:
        return next(iter(table.values()))
    raise UnknownCommand(
        f"workspace has {len(table)} {kind}s; pick one with --name"
    )


def _battery(args):
    from .finite import standard_battery

    battery = {f.name: f for f in standard_battery()}
    for n in args.test_groupoid:
        if n not in battery:
            raise UnknownCommand(
                f"no test groupoid named {n!r}; the battery has {', '.join(battery)}"
            )
    return [battery[n] for n in args.test_groupoid] or list(battery.values())


def cmd_check(args) -> Report:
    from .crossed import validate_crossed_module
    from .finite import validate_finite_group, validate_finite_groupoid
    from .squares import recheck_boundary

    ws = _load(args)
    r = Report("check")
    names = (
        ws.find(args.name)
        if args.name
        else [(k, v) for k, t in ws.kinds().items() for v in t.values()]
    )
    if args.name and not names:
        raise UnknownCommand(f"nothing named {args.name!r} in the workspace")
    checked = 0
    for kind, obj in names:
        checked += 1
        if kind == "finite":
            r.merge(validate_finite_groupoid(obj))
        elif kind == "group":
            r.merge(validate_finite_group(obj))
        elif kind == "xmod":
            r.merge(validate_crossed_module(obj))
        elif kind == "square":
            law = Report(f"square {obj}")
            law.count()
            if not recheck_boundary(obj):
                law.fail("boundary", f"{obj} fails the boundary law")
            r.merge(law)
        # presentations, morphisms, spans, grids and cubes validate at parse time
    r.counts["objects"] = checked
    return r


def cmd_pushout(args) -> Report:
    from .textfmt import print_presentation
    from .vkt import pushout

    ws = _load(args)
    span = _the(ws.spans, "span", args.name)
    po = pushout(span)
    r = Report("pushout")
    r.counts["objects"] = len(po.presentation.objects)
    r.counts["generators"] = len(po.presentation.generators)
    r.counts["relations"] = len(po.presentation.relations)
    r.payload.append(po.presentation.pretty())
    r.payload.extend(print_presentation(po.presentation).splitlines())
    return r


def _resolve_presentation(ws, args):
    """A presentation to work on: named, sole, or the sole span's pushout."""
    from .vkt import pushout

    if args.presentation:
        return _the(ws.presentations, "presentation", args.presentation)
    if getattr(args, "span", None):
        return pushout(_the(ws.spans, "span", args.span)).presentation
    if len(ws.presentations) == 1:
        return next(iter(ws.presentations.values()))
    if len(ws.spans) == 1:
        return pushout(next(iter(ws.spans.values()))).presentation
    raise UnknownCommand("pick a presentation with --presentation or a span with --span")


def cmd_vertex_group(args) -> Report:
    from .vkt import tietze_simplify, vertex_group

    ws = _load(args)
    p = _resolve_presentation(ws, args)
    tree = None
    if args.tree:
        wanted = set(args.tree.split(","))
        tree = {g for g in p.generators if g.name in wanted}
        if len(tree) != len(wanted):
            raise UnknownCommand(f"unknown tree generators in {args.tree!r}")
    vg = vertex_group(p, args.base, tree)
    if not args.raw:
        vg = tietze_simplify(vg)
    r = Report("vertex-group")
    r.counts["generators"] = len(vg.generators)
    r.counts["relators"] = len(vg.relators)
    r.payload.append(vg.pretty())
    return r


def cmd_check_universal(args) -> Report:
    from .vkt import Pushout, check_pushout_universal, pushout

    ws = _load(args)
    span = _the(ws.spans, "span", args.span or args.name)
    if args.candidate:
        pres = _the(ws.presentations, "presentation", args.candidate)
        left = _the(ws.morphisms, "morphism", args.candidate_left)
        right = _the(ws.morphisms, "morphism", args.candidate_right)
        cand = Pushout(pres, left, right)
    else:
        cand = pushout(span)
    r = Report("check-universal")
    for f in _battery(args):
        verdict = check_pushout_universal(span, cand, f)
        r.counts[f"{f.name}_morphisms"] = verdict.candidate_count
        r.counts[f"{f.name}_cocones"] = verdict.pair_count
        if not verdict.ok:
            r.fail(f"{f.name}: {verdict}")
    return r


def cmd_square(args) -> Report:
    from .squares import comp_h, comp_v, inv_h, inv_v, recheck_boundary

    ws = _load(args)
    r = Report(_name(args))
    if args.action == "compose":
        left = _the(ws.squares, "square", args.left)
        right = _the(ws.squares, "square", args.right)
        out = comp_h(left, right) if args.dir == "h" else comp_v(left, right)
    else:
        sq = _the(ws.squares, "square", args.name)
        out = inv_h(sq) if args.dir == "h" else inv_v(sq)
    r.payload.append(str(out))
    r.counts["boundary_ok"] = int(recheck_boundary(out))
    if not recheck_boundary(out):
        r.fail("result violates the boundary law")
    return r


def cmd_grid(args) -> Report:
    from .grids import grid_compose

    ws = _load(args)
    grid = _the(ws.grids, "grid", args.name)
    out = grid_compose(grid)
    r = Report(_name(args))
    r.counts["rows"] = grid.rows
    r.counts["cols"] = grid.cols
    r.payload.append(str(out))
    return r


def cmd_cube(args) -> Report:
    from .cubes import commutativity_oracle, fold_five_faces

    ws = _load(args)
    cube = _the(ws.cubes, "cube", args.name)
    r = Report(_name(args))
    folded = fold_five_faces(cube)
    commutative = folded == cube.face("d1-")
    r.counts["commutative"] = int(commutative)
    with suppress(PreconditionFailed):  # no oracle verdict outside its preconditions
        r.counts["oracle"] = int(commutativity_oracle(cube))
    r.payload.append(f"fold: {folded}")
    r.payload.append(f"lid:  {cube.face('d1-')}")
    if not commutative:
        r.fail("fold of the five faces differs from the lid")
    return r


def cmd_xmod(args) -> Report:
    from .crossed import validate_crossed_module

    ws = _load(args)
    xm = _the(ws.xmods, "xmod", args.name)
    r = Report(_name(args))
    if args.action == "validate":
        r.merge(validate_crossed_module(xm))
    elif args.action == "lambda":
        from .dgt import check_table_size, lambda_functor, lambda_square_count, validate_dgt

        # validate_dgt needs the tables: refuse them before building a square
        name = f"squares({xm.name})"
        check_table_size(name, lambda_square_count(xm))
        model = lambda_functor(xm, name)
        r.counts["squares"] = model.size()
        r.counts["thin"] = len(model.thin_squares)
        r.merge(validate_dgt(model, interchange="sampled", seed=args.seed, samples=2000))
    elif args.action == "gamma":
        from .dgt import find_xmod_isomorphism, gamma, lambda_functor

        model = lambda_functor(xm)
        back = gamma(model)
        r.merge(validate_crossed_module(back))
        iso = find_xmod_isomorphism(xm, back)
        r.counts["roundtrip_iso"] = int(iso is not None)
        if iso is None:
            r.fail("no isomorphism with the original module")
    else:
        raise UnknownCommand(f"unknown xmod action {args.action!r}")
    return r


def cmd_eh_scan(args) -> Report:
    from .eckmann import eckmann_hilton_scan

    r = Report("eh-scan")
    law = eckmann_hilton_scan(args.max_size)
    for n, t in law.totals.items():
        r.counts[f"size{n}_monoids"] = t["monoids"]
        r.counts[f"size{n}_interchange_pairs"] = t["interchange_pairs"]
        r.counts[f"size{n}_filtered_out"] = t["filtered_out"]
    r.merge(law)
    return r


def cmd_induce(args) -> Report:
    from .freemodules import induce_free_module

    ws = _load(args)
    mod = _the(ws.modules, "freemodule", args.module)
    f = _the(ws.morphisms, "morphism", args.morphism)
    out = induce_free_module(mod, f)
    r = Report("induce")
    r.counts["rank"] = out.rank()
    for g, site in out.generators:
        r.payload.append(f"mgen {g} at {site}")
    return r


def cmd_suite(args) -> Report:
    from .suite import run_suite

    only = None
    if args.criteria is not None:
        only = {k.strip() for k in args.criteria.split(",")} - {""}
    return run_suite(seed=args.seed, only=only)


def cmd_morphisms(args) -> Report:
    from .morphisms import enumerate_morphisms

    ws = _load(args)
    p = _resolve_presentation(ws, args)
    r = Report("count-morphisms")
    for f in _battery(args):
        r.counts[f.name] = len(enumerate_morphisms(p, f))
    return r


def cmd_print(args) -> Report:
    from .textfmt import print_workspace

    ws = _load(args)
    r = Report("print")
    r.payload.extend(print_workspace(ws).splitlines())
    return r


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a subcommand's re-parse from clobbering flags that were
    # given before the subcommand name
    common.add_argument(
        "--format", choices=("text", "machine"), default=argparse.SUPPRESS
    )
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="vk",
        parents=[common],
        description="groupoid presentations, crossed modules and double "
        "groupoids, checked by brute force on finite models",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def sub_parser(name, **kw):
        return subparsers.add_parser(name, parents=[common], **kw)

    def files(sp):
        sp.add_argument("files", nargs="*", help="workspace files (.vk)")

    sp = sub_parser("check", help="validate named objects")
    files(sp)
    sp.add_argument("--name")
    sp.set_defaults(fn=cmd_check)

    sp = sub_parser("pushout", help="pushout of a span")
    files(sp)
    sp.add_argument("--name", help="span name")
    sp.set_defaults(fn=cmd_pushout)

    sp = sub_parser("vertex-group", help="vertex group at a base object")
    files(sp)
    sp.add_argument("--base", required=True)
    sp.add_argument("--presentation")
    sp.add_argument("--span")
    sp.add_argument("--tree", help="comma-separated tree generators")
    sp.add_argument("--raw", action="store_true", help="skip simplification")
    sp.set_defaults(fn=cmd_vertex_group)

    sp = sub_parser("check-universal", help="universal property of a pushout")
    files(sp)
    sp.add_argument("--span")
    sp.add_argument("--name", help="span name (alias for --span)")
    sp.add_argument("--candidate", help="candidate presentation to test instead")
    sp.add_argument("--candidate-left", help="left cocone morphism name")
    sp.add_argument("--candidate-right", help="right cocone morphism name")
    sp.add_argument("--test-groupoid", action="append", default=[])
    sp.set_defaults(fn=cmd_check_universal)

    sp = sub_parser("square", help="compose or invert squares")
    sp.add_argument("action", choices=("compose", "invert"))
    files(sp)
    sp.add_argument("--left")
    sp.add_argument("--right")
    sp.add_argument("--name")
    sp.add_argument("--dir", choices=("h", "v"), default="h")
    sp.set_defaults(fn=cmd_square)

    sp = sub_parser("grid", help="compose a grid")
    sp.add_argument("action", choices=("compose",))
    files(sp)
    sp.add_argument("--name")
    sp.set_defaults(fn=cmd_grid)

    sp = sub_parser("cube", help="check cube commutativity")
    sp.add_argument("action", choices=("check",))
    files(sp)
    sp.add_argument("--name")
    sp.set_defaults(fn=cmd_cube)

    sp = sub_parser("xmod", help="crossed module operations")
    sp.add_argument("action", choices=("validate", "lambda", "gamma"))
    files(sp)
    sp.add_argument("--name")
    sp.set_defaults(fn=cmd_xmod)

    sp = sub_parser("eh-scan", help="scan monoid pairs for the interchange collapse")
    sp.add_argument("--max-size", type=int, default=3)
    sp.set_defaults(fn=cmd_eh_scan)

    sp = sub_parser("induce", help="induce a free module along a morphism")
    files(sp)
    sp.add_argument("--module", help="freemodule name")
    sp.add_argument("--morphism", help="morphism name")
    sp.set_defaults(fn=cmd_induce)

    sp = sub_parser("count-morphisms", help="morphism counts into the battery")
    files(sp)
    sp.add_argument("--presentation")
    sp.add_argument("--span")
    sp.add_argument("--test-groupoid", action="append", default=[])
    sp.set_defaults(fn=cmd_morphisms)

    sp = sub_parser("print", help="canonical form of a workspace")
    files(sp)
    sp.set_defaults(fn=cmd_print)

    sp = sub_parser("suite", help="run the bundled verification battery")
    sp.add_argument("--criteria", help="comma-separated subset, e.g. 1,4,8")
    sp.set_defaults(fn=cmd_suite)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` shares across calls, built on first use.

    Sharing is safe: parsing leaves the parser as it was, ``--format`` and
    ``--seed`` default to SUPPRESS and are filled in per call, argparse
    copies an ``append`` default before appending to it, and the handlers
    import what they call when they run.  Built lazily, not at import, so
    importing the module builds no parser.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not hasattr(args, "format"):
        args.format = "text"
    if not hasattr(args, "seed"):
        args.seed = 0
    t0 = time.perf_counter()
    try:
        report = args.fn(args)
    except GpdError as exc:
        report = Report(_name(args))
        report.fail(str(exc))
    report.wall_time = time.perf_counter() - t0
    sys.stdout.write(emit(report, args.format))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
