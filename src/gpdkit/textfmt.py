"""Line-oriented text format for workspaces of named kernel objects.

A file is a sequence of blocks.  Each block starts with a header line
(``groupoid N``, ``finite N``, ``group N``, ``morphism N: D -> C``,
``span N``, ``xmod N``, ``square N = (...) over X``, ``grid N RxC: ...``,
``cube N: ...``, ``freemodule N over P``) followed by its field lines.
``#`` starts a comment; blank lines separate nothing in particular.

Words are dot-separated signed letters (``a.b^-1.c``) or ``id(obj)``.
"""

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .crossed import (
    CrossedModuleData,
    automorphism_xmod,
    from_normal_subgroup,
    trivial_crossed_module,
)
from .errors import DuplicateName, LocatedError, ParseError, UnreadableWorkspace, UnresolvedReference
from .finite import (
    FiniteGroup,
    FiniteGroupoid,
    cyclic_group,
    group_as_groupoid,
    interval_finite_groupoid,
    symmetric_group,
    trivial_group,
)
from .freemodules import FreeModule
from .grids import Grid
from .morphisms import GroupoidMorphism
from .presentations import GroupoidPresentation, discrete_presentation
from .squares import Square, make_square
from .vkt import Span
from .words import ArrowGen, Word

if TYPE_CHECKING:  # cubes load the square kernel and numpy: only a cube block imports them
    from .cubes import Cube


@dataclass
class Workspace:
    presentations: dict[str, GroupoidPresentation] = field(default_factory=dict)
    finites: dict[str, FiniteGroupoid] = field(default_factory=dict)
    groups: dict[str, FiniteGroup] = field(default_factory=dict)
    morphisms: dict[str, GroupoidMorphism] = field(default_factory=dict)
    spans: dict[str, Span] = field(default_factory=dict)
    xmods: dict[str, CrossedModuleData] = field(default_factory=dict)
    squares: dict[str, Square] = field(default_factory=dict)
    grids: dict[str, Grid] = field(default_factory=dict)
    cubes: "dict[str, Cube]" = field(default_factory=dict)
    modules: dict[str, FreeModule] = field(default_factory=dict)

    def kinds(self):
        return {
            "presentation": self.presentations,
            "finite": self.finites,
            "group": self.groups,
            "morphism": self.morphisms,
            "span": self.spans,
            "xmod": self.xmods,
            "square": self.squares,
            "grid": self.grids,
            "cube": self.cubes,
            "freemodule": self.modules,
        }

    def find(self, name: str):
        """All (kind, object) entries carrying this name."""
        return [
            (kind, table[name]) for kind, table in self.kinds().items() if name in table
        ]


_HEADERS = (
    "groupoid", "finite", "group", "morphism", "span",
    "xmod", "square", "grid", "cube", "freemodule",
)


@dataclass
class _Line:
    path: str
    no: int
    text: str


def _strip(raw: str) -> str:
    if "#" in raw:
        raw = raw[: raw.index("#")]
    return raw.strip()


def _blocks(path: str, content: str):
    """Each block as (kind, rest of its header line as a list of 0 or 1 items, lines)."""
    blocks = []
    for i, raw in enumerate(content.splitlines()):
        if not (text := _strip(raw)):
            continue
        ln = _Line(path, i + 1, text)
        kind, *rest = text.split(None, 1)
        if kind.rstrip(":") in _HEADERS:
            blocks.append((kind.rstrip(":"), rest, [ln]))
        elif not blocks:
            raise ParseError(path, ln.no, f"expected a block header, got {text!r}")
        else:
            blocks[-1][2].append(ln)
    return blocks


def parse_word_text(text: str, resolve_gen, ln: _Line) -> Word:
    """Parse ``a.b^-1.c`` or ``id(obj)`` using a generator resolver."""
    text = text.strip()
    if text.startswith("id(") and text.endswith(")"):
        return Word(text[3:-1].strip(), ())
    letters = []
    for token in text.split("."):
        token = token.strip()
        if not token:
            raise ParseError(ln.path, ln.no, f"empty letter in word {text!r}")
        if token.endswith("^-1"):
            name, exp = token[:-3], -1
        else:
            name, exp = token, 1
        gen = resolve_gen(name)
        if gen is None:
            raise UnresolvedReference(ln.path, ln.no, f"unknown generator {name!r}")
        letters.append((gen, exp))
    base = letters[0][0].src if letters[0][1] == 1 else letters[0][0].dst
    try:
        return Word(base, tuple(letters))
    except Exception as exc:
        raise ParseError(ln.path, ln.no, f"bad word {text!r}: {exc}") from exc


def _expect(cond: bool, ln: _Line, message: str):
    if not cond:
        raise ParseError(ln.path, ln.no, message)


def _int(text: str) -> int | None:
    try:
        return int(text)
    except ValueError:
        return None


def _size_arg(ctor: str, least: int, most: int, ln: _Line) -> int:
    """The integer ``n`` of a constructor ``name(n)``; ParseError outside [least, most]."""
    n = _int(ctor[ctor.index("(") + 1:-1])
    _expect(n is not None and least <= n <= most, ln,
            f"{ctor}: the argument must be an integer >= {least} and <= {most}")
    return n


def _arrow_ref(token: str, ln: _Line) -> tuple[str, str]:
    _expect("->" in token, ln, f"expected 'src -> dst' in {token!r}")
    src, dst = token.split("->", 1)
    return src.strip(), dst.strip()


def _mul(ln: _Line) -> tuple[str, str, str]:
    """``mul x y = z`` of a finite or group block, as (x, y, z)."""
    parts = ln.text[4:].split("=")
    _expect(len(parts) == 2, ln, "expected 'mul x y = z'")
    xy = parts[0].split()
    _expect(len(xy) == 2, ln, "expected 'mul x y = z'")
    return xy[0], xy[1], parts[1].strip()


class _Parser:
    """Parses blocks in two passes.

    ``parse_<kind>(block, rest)`` gets a block's lines and the rest of its
    header line.  Self-contained blocks are built at once; blocks that name
    other objects go into ``pending`` as ``(kind, name, header line, build)``
    and ``resolve`` builds them in file order.
    """

    def __init__(self):
        self.ws = Workspace()
        self.pending = []

    def add(self, kind: str, name: str, value, ln: _Line):
        table = self.ws.kinds()[kind]
        if name in table:
            raise DuplicateName(ln.path, ln.no, f"duplicate {kind} {name!r}")
        table[name] = value

    # -- first pass: self-contained blocks -------------------------------

    def parse_groupoid(self, block, name):
        head = block[0]
        objects: list[str] = []
        gens: list[tuple[ArrowGen, _Line]] = []
        rel_lines = []
        for ln in block[1:]:
            if ln.text.startswith("objects:"):
                objects.extend(ln.text[len("objects:"):].split())
            elif ln.text.startswith("gen "):
                body = ln.text[4:]
                _expect(":" in body, ln, "expected 'gen name: src -> dst'")
                gname, arrow = body.split(":", 1)
                src, dst = _arrow_ref(arrow, ln)
                gens.append((ArrowGen(gname.strip(), src, dst), ln))
            elif ln.text.startswith("rel:"):
                rel_lines.append(ln)
            else:
                raise ParseError(ln.path, ln.no, f"unexpected line in groupoid block: {ln.text!r}")
        declared = set(objects)
        for g, ln in gens:
            for obj in (g.src, g.dst):
                if obj not in declared:
                    raise UnresolvedReference(
                        ln.path, ln.no, f"generator {g.name} uses undeclared object {obj!r}"
                    )
        gens = [g for g, _ in gens]
        by_name = {g.name: g for g in gens}
        relations = []
        for ln in rel_lines:
            body = ln.text[len("rel:"):]
            _expect("=" in body, ln, "expected 'rel: word = word'")
            lhs, rhs = body.split("=", 1)
            relations.append(
                (
                    parse_word_text(lhs, by_name.get, ln),
                    parse_word_text(rhs, by_name.get, ln),
                )
            )
        try:
            p = GroupoidPresentation(name, tuple(objects), tuple(gens), tuple(relations))
        except Exception as exc:
            raise ParseError(head.path, head.no, str(exc)) from exc
        self.add("presentation", name, p, head)

    def parse_finite(self, block, rest):
        head = block[0]
        if "=" in rest:
            name, ctor = (x.strip() for x in rest.split("=", 1))
            self.pending.append(("finite", name, head, lambda: self._finite_ctor(ctor, name, head)))
            return
        name = rest
        arrows = []
        src, dst, identity = {}, {}, {}
        muls = []
        for ln in block[1:]:
            if ln.text.startswith("arrow "):
                body = ln.text[6:]
                _expect(":" in body, ln, "expected 'arrow name: src -> dst [id]'")
                aname, arrow = body.split(":", 1)
                aname = aname.strip()
                flag_id = arrow.strip().endswith(" id")
                if flag_id:
                    arrow = arrow.strip()[:-3]
                a_src, a_dst = _arrow_ref(arrow, ln)
                arrows.append(aname)
                src[aname], dst[aname] = a_src, a_dst
                if flag_id:
                    _expect(a_src == a_dst, ln, "identity arrows must be loops")
                    identity[a_src] = aname
            elif ln.text.startswith("mul "):
                muls.append((*_mul(ln), ln))
            else:
                raise ParseError(ln.path, ln.no, f"unexpected line in finite block: {ln.text!r}")
        table = {}
        for x, y, z, ln in muls:
            for t in (x, y, z):
                if t not in src:
                    raise UnresolvedReference(ln.path, ln.no, f"unknown arrow {t!r}")
            table[(x, y)] = z
        objects = tuple(sorted({*src.values(), *dst.values()}))
        inverse = {}
        for x in arrows:
            e = identity.get(src[x])
            for y in arrows:
                if table.get((x, y)) == e and table.get((y, x)) == identity.get(dst[x]):
                    inverse[x] = y
                    break
        f = FiniteGroupoid(
            name, objects, tuple(arrows), src, dst, table, identity, inverse
        )
        self.add("finite", name, f, head)

    def parse_group(self, block, rest):
        head = block[0]
        if "=" in rest:
            name, ctor = (x.strip() for x in rest.split("=", 1))
            g = self._group_ctor(ctor, name, head)
            self.add("group", name, g, head)
            return
        name = rest
        elements: list[str] = []
        table = {}
        for ln in block[1:]:
            if ln.text.startswith("elements:"):
                elements.extend(ln.text[len("elements:"):].split())
            elif ln.text.startswith("mul "):
                x, y, z = _mul(ln)
                table[(x, y)] = z
            else:
                raise ParseError(ln.path, ln.no, f"unexpected line in group block: {ln.text!r}")
        identity = None
        for e in elements:
            if all(table.get((e, x)) == x and table.get((x, e)) == x for x in elements):
                identity = e
                break
        _expect(identity is not None, head, f"group {name!r} has no identity element")
        inverse = {}
        for x in elements:
            for y in elements:
                if table.get((x, y)) == identity and table.get((y, x)) == identity:
                    inverse[x] = y
                    break
        g = FiniteGroup(name, tuple(elements), table, identity, inverse)
        self.add("group", name, g, head)

    def _group_ctor(self, ctor: str, name: str, ln: _Line) -> FiniteGroup:
        # cyclic(256) has a 65,536-entry table; symmetric(4) has 24 elements
        if ctor.startswith("cyclic(") and ctor.endswith(")"):
            g = cyclic_group(_size_arg(ctor, 1, 256, ln))
        elif ctor.startswith("symmetric(") and ctor.endswith(")"):
            g = symmetric_group(_size_arg(ctor, 0, 4, ln))
        elif ctor == "trivial()":
            g = trivial_group()
        else:
            raise ParseError(ln.path, ln.no, f"unknown group constructor {ctor!r}")
        g.name = name
        return g

    # -- deferred blocks ---------------------------------------------------

    def parse_morphism(self, block, rest):
        head = block[0]
        _expect(":" in rest and "->" in rest, head, "expected 'morphism name: dom -> cod'")
        name, arrow = rest.split(":", 1)
        dom, cod = _arrow_ref(arrow, head)
        name = name.strip()
        self.pending.append(
            ("morphism", name, head, lambda: self._morphism(name, dom, cod, block[1:], head))
        )

    def parse_span(self, block, rest):
        head = block[0]
        if ":" in rest:
            name, body = rest.split(":", 1)
            toks = body.split()
            _expect(
                len(toks) == 4 and toks[0] == "left" and toks[2] == "right",
                head,
                "expected 'span name: left M1 right M2'",
            )
            self.pending.append(
                ("span", name.strip(), head, lambda: self._span_named(toks[1], toks[3], head))
            )
            return
        name = rest
        apex_objects = None
        legs = {}
        for ln in block[1:]:
            if ln.text.startswith("apex objects:"):
                apex_objects = ln.text[len("apex objects:"):].split()
            elif ln.text.startswith(("left ", "right ")):
                side, body = ln.text.split(None, 1)
                _expect(":" in body, ln, f"expected '{side} target: o -> o, ...'")
                target, maps = body.split(":", 1)
                pairs = []
                for part in maps.split(","):
                    part = part.strip()
                    if part:
                        o, oi = _arrow_ref(part, ln)
                        pairs.append((o, oi))
                legs[side] = (target.strip(), pairs, ln)
            else:
                raise ParseError(ln.path, ln.no, f"unexpected line in span block: {ln.text!r}")
        _expect(apex_objects is not None, head, "span block needs 'apex objects:'")
        _expect("left" in legs and "right" in legs, head, "span block needs left and right legs")
        self.pending.append(
            ("span", name, head, lambda: self._span_inline(name, apex_objects, legs))
        )

    def parse_xmod(self, block, rest):
        head = block[0]
        if "=" in rest:
            name, ctor = (x.strip() for x in rest.split("=", 1))
            self.pending.append(("xmod", name, head, lambda: self._xmod_ctor(ctor, name, head)))
            return
        self.pending.append(
            ("xmod", rest, head, lambda: self._xmod_literal(rest, block[1:], head))
        )

    def parse_square(self, block, rest):
        head = block[0]
        _expect("=" in rest, head, "expected 'square name = (elt; top,right,bottom,left) over X'")
        name, body = rest.split("=", 1)
        _expect(" over " in body, head, "square needs 'over <xmod>'")
        tup, xm_name = body.rsplit(" over ", 1)
        tup = tup.strip()
        _expect(tup.startswith("(") and tup.endswith(")"), head, "square tuple must be parenthesized")
        inner = tup[1:-1]
        _expect(";" in inner, head, "expected '(elt; top,right,bottom,left)'")
        elt, edges = inner.split(";", 1)
        parts = [x.strip() for x in edges.split(",")]
        _expect(len(parts) == 4, head, "expected four edges top,right,bottom,left")
        self.pending.append(("square", name.strip(), head, lambda: make_square(
            self._need(self.ws.xmods, xm_name.strip(), "xmod", head), elt.strip(), *parts)))

    def parse_grid(self, block, rest):
        head = block[0]
        _expect(":" in rest, head, "expected 'grid name RxC: s1 s2 ...'")
        left, names = rest.split(":", 1)
        toks = left.split()
        _expect(len(toks) == 2 and "x" in toks[1], head, "expected 'grid name RxC: ...'")
        size = [_int(t) for t in toks[1].split("x")]
        _expect(len(size) == 2 and None not in size and min(size) >= 1, head,
                f"grid size {toks[1]!r}: expected RxC, two integers >= 1")
        self.pending.append(
            ("grid", toks[0], head, lambda: self._grid(*size, names.split(), head))
        )

    def parse_cube(self, block, rest):
        head = block[0]
        _expect(":" in rest, head, "expected 'cube name: six face names'")
        name, names = rest.split(":", 1)
        faces = names.split()
        _expect(len(faces) == 6, head, "a cube needs exactly six faces (d1- d1+ d2- d2+ d3- d3+)")
        self.pending.append(("cube", name.strip(), head, lambda: self._cube(faces, head)))

    def parse_freemodule(self, block, rest):
        head = block[0]
        _expect(" over " in rest, head, "expected 'freemodule name over presentation'")
        name, base = rest.split(" over ", 1)
        name = name.strip()
        gens = []
        for ln in block[1:]:
            if ln.text.startswith("mgen "):
                toks = ln.text[5:].split()
                _expect(len(toks) == 3 and toks[1] == "at", ln, "expected 'mgen x at obj'")
                gens.append((toks[0], toks[2]))
            else:
                raise ParseError(ln.path, ln.no, f"unexpected line in freemodule block: {ln.text!r}")
        self.pending.append(("freemodule", name, head, lambda: FreeModule(
            name, self._need(self.ws.presentations, base.strip(), "presentation", head),
            tuple(gens))))

    # -- resolution ----------------------------------------------------------

    def _need(self, table: dict, name: str, kind: str, ln: _Line):
        if name not in table:
            raise UnresolvedReference(ln.path, ln.no, f"unknown {kind} {name!r}")
        return table[name]

    def resolve(self):
        """Build every deferred block; a failure is located at its header."""
        for kind, name, ln, build in self.pending:
            try:
                value = build()
            except LocatedError:
                raise
            except Exception as exc:
                raise ParseError(ln.path, ln.no, f"{kind}: {exc}") from exc
            self.add(kind, name, value, ln)

    def _finite_ctor(self, ctor: str, name: str, ln: _Line) -> FiniteGroupoid:
        if ctor.startswith("group(") and ctor.endswith(")"):
            g = self._need(self.ws.groups, ctor[6:-1].strip(), "group", ln)
            return group_as_groupoid(g, name=name)
        if ctor == "interval()":
            f = interval_finite_groupoid()
            f.name = name
            return f
        raise ParseError(ln.path, ln.no, f"unknown finite constructor {ctor!r}")

    def _xmod_ctor(self, ctor: str, name: str, ln: _Line) -> CrossedModuleData:
        if ctor.startswith("normal(") and ctor.endswith(")"):
            body = ctor[7:-1]
            _expect("," in body, ln, "expected normal(group, {elements})")
            gname, subset = body.split(",", 1)
            subset = subset.strip()
            _expect(
                subset.startswith("{") and subset.endswith("}"),
                ln,
                "subset must be brace-enclosed",
            )
            elems = [x.strip() for x in subset[1:-1].split(",") if x.strip()]
            g = self._need(self.ws.groups, gname.strip(), "group", ln)
            return from_normal_subgroup(g, elems, name=name)
        if ctor.startswith("autxmod(") and ctor.endswith(")"):
            g = self._need(self.ws.groups, ctor[8:-1].strip(), "group", ln)
            x = automorphism_xmod(g)
            x.name = name
            return x
        if ctor.startswith("trivial(") and ctor.endswith(")"):
            f = self._need(self.ws.finites, ctor[8:-1].strip(), "finite", ln)
            return trivial_crossed_module(f, name=name)
        raise ParseError(ln.path, ln.no, f"unknown xmod constructor {ctor!r}")

    def _xmod_literal(self, name: str, lines, head: _Line) -> CrossedModuleData:
        base = None
        fibers = {}
        mu: dict[str, dict[str, str]] = {}
        action = {}
        for ln in lines:
            if ln.text.startswith("base "):
                base = self._need(self.ws.finites, ln.text[5:].strip(), "finite", ln)
            elif ln.text.startswith("fiber "):
                toks = ln.text[6:].split()
                _expect(len(toks) == 2, ln, "expected 'fiber obj groupname'")
                fibers[toks[0]] = self._need(self.ws.groups, toks[1], "group", ln)
            elif ln.text.startswith("mu "):
                body = ln.text[3:]
                m, p = _arrow_ref(body, ln)
                _expect(base is not None, ln, "'base' must come before 'mu' lines")
                site = None
                for obj, g in fibers.items():
                    if m in g.elements:
                        _expect(site is None, ln, f"element {m!r} is ambiguous across fibers")
                        site = obj
                _expect(site is not None, ln, f"element {m!r} not found in any fiber")
                mu.setdefault(site, {})[m] = p
            elif ln.text.startswith("act "):
                body = ln.text[4:]
                _expect("=" in body.partition("^")[2], ln, "expected 'act m ^ p = m2'")
                m, rest = body.split("^", 1)
                p, m2 = rest.split("=", 1)
                action[(m.strip(), p.strip())] = m2.strip()
            else:
                raise ParseError(ln.path, ln.no, f"unexpected line in xmod block: {ln.text!r}")
        _expect(base is not None, head, "xmod block needs a 'base' line")
        return CrossedModuleData(name, base, fibers, mu, action)

    def _morphism(self, name: str, dom_name: str, cod_name: str, lines, head: _Line) -> GroupoidMorphism:
        dom = self._need(self.ws.presentations, dom_name, "presentation", head)
        if cod_name in self.ws.presentations:
            cod = self.ws.presentations[cod_name]
        elif cod_name in self.ws.finites:
            cod = self.ws.finites[cod_name]
        else:
            raise UnresolvedReference(
                head.path, head.no, f"unknown codomain {cod_name!r}"
            )
        object_map = {}
        gen_map = {}
        gen_lookup = {g.name: g for g in (cod.generators if isinstance(cod, GroupoidPresentation) else ())}
        for ln in lines:
            if ln.text.startswith("obj "):
                o, oi = _arrow_ref(ln.text[4:], ln)
                object_map[o] = oi
            elif ln.text.startswith("gen "):
                body = ln.text[4:]
                g, image = _arrow_ref(body, ln)
                if isinstance(cod, GroupoidPresentation):
                    gen_map[g] = parse_word_text(image, gen_lookup.get, ln)
                else:
                    image = image.strip()
                    if image.startswith("id(") and image.endswith(")"):
                        image = cod.id_at(image[3:-1].strip())
                    if image not in cod.arrows:
                        raise UnresolvedReference(ln.path, ln.no, f"unknown arrow {image!r}")
                    gen_map[g] = image
            else:
                raise ParseError(ln.path, ln.no, f"unexpected line in morphism block: {ln.text!r}")
        return GroupoidMorphism(name, dom, cod, object_map, gen_map)

    def _span_named(self, left_name: str, right_name: str, head: _Line) -> Span:
        left = self._need(self.ws.morphisms, left_name, "morphism", head)
        right = self._need(self.ws.morphisms, right_name, "morphism", head)
        if left.domain != right.domain:
            raise UnresolvedReference(head.path, head.no, "span legs have different apexes")
        return Span(left.domain, left, right)

    def _span_inline(self, name: str, apex_objects, legs) -> Span:
        apex = discrete_presentation(f"{name}.apex", tuple(apex_objects))
        morphs = {}
        for side in ("left", "right"):
            target_name, pairs, ln = legs[side]
            target = self._need(self.ws.presentations, target_name, "presentation", ln)
            try:
                morphs[side] = GroupoidMorphism(
                    f"{name}.{side}", apex, target, dict(pairs), {}
                )
            except Exception as exc:
                raise ParseError(ln.path, ln.no, f"span leg {side}: {exc}") from exc
        return Span(apex, morphs["left"], morphs["right"])

    def _grid(self, rows: int, cols: int, names, head: _Line) -> Grid:
        _expect(len(names) == rows * cols, head, f"grid needs {rows * cols} squares, got {len(names)}")
        cells = [self._need(self.ws.squares, n, "square", head) for n in names]
        return Grid(tuple(tuple(cells[i * cols:(i + 1) * cols]) for i in range(rows)))

    def _cube(self, faces, head: _Line) -> "Cube":
        from .cubes import make_cube

        return make_cube(*(self._need(self.ws.squares, f, "square", head) for f in faces))


def parse_workspace(files) -> Workspace:
    """Parse one or more (path, content) pairs or file paths into a workspace.

    A file that cannot be read raises ``UnreadableWorkspace``; every other
    failure raises a ``LocatedError`` whose message starts with ``path:line:``.
    """
    parser = _Parser()
    for f in files:
        if isinstance(f, tuple):
            path, content = f
        else:
            path = str(f)
            try:
                with open(f, "r", encoding="utf-8") as fh:
                    content = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                reason = getattr(exc, "strerror", None) or exc
                raise UnreadableWorkspace(f"cannot read {path}: {reason}") from exc
        for kind, rest, block in _blocks(path, content):
            _expect(rest, block[0], f"expected a name after {kind!r}")
            getattr(parser, f"parse_{kind}")(block, rest[0])
    parser.resolve()
    return parser.ws


# -- canonical printing --------------------------------------------------------


def print_presentation(p: GroupoidPresentation) -> str:
    lines = [f"groupoid {p.name}", "objects: " + " ".join(p.sorted_objects())]
    for g in p.sorted_generators():
        lines.append(f"gen {g.name}: {g.src} -> {g.dst}")
    for lhs, rhs in p.relations:
        lines.append(f"rel: {lhs} = {rhs}")
    return "\n".join(lines)


def print_finite(f: FiniteGroupoid) -> str:
    lines = [f"finite {f.name}"]
    ids = set(f.identity.values())
    for a in sorted(f.arrows):
        flag = " id" if a in ids else ""
        lines.append(f"arrow {a}: {f.src[a]} -> {f.dst[a]}{flag}")
    for (x, y) in sorted(f.table):
        lines.append(f"mul {x} {y} = {f.table[(x, y)]}")
    return "\n".join(lines)


def print_group(g: FiniteGroup) -> str:
    lines = [f"group {g.name}", "elements: " + " ".join(g.elements)]
    for (x, y) in sorted(g.table):
        lines.append(f"mul {x} {y} = {g.table[(x, y)]}")
    return "\n".join(lines)


def print_morphism(m: GroupoidMorphism) -> str:
    cod_name = m.codomain.name
    lines = [f"morphism {m.name}: {m.domain.name} -> {cod_name}"]
    for o in sorted(m.object_map):
        lines.append(f"obj {o} -> {m.object_map[o]}")
    for g in sorted(m.gen_map):
        lines.append(f"gen {g} -> {m.gen_map[g]}")
    return "\n".join(lines)


def print_span(name: str, s: Span) -> str:
    if s.apex.generators:
        # only discrete apexes have an inline form; fall back to references
        return f"span {name}: left {s.left.name} right {s.right.name}"
    lines = [f"span {name}", "apex objects: " + " ".join(s.apex.sorted_objects())]
    for side, leg in (("left", s.left), ("right", s.right)):
        pairs = ", ".join(f"{o} -> {leg.object_map[o]}" for o in s.apex.sorted_objects())
        lines.append(f"{side} {leg.codomain.name}: {pairs}")
    return "\n".join(lines)


def print_xmod(x: CrossedModuleData) -> str:
    lines = [f"xmod {x.name}", f"base {x.base.name}"]
    for s in sorted(x.fibers):
        lines.append(f"fiber {s} {x.fibers[s].name}")
    for s in sorted(x.mu):
        for m in sorted(x.mu[s]):
            lines.append(f"mu {m} -> {x.mu[s][m]}")
    for (m, p) in sorted(x.action):
        lines.append(f"act {m} ^ {p} = {x.action[(m, p)]}")
    return "\n".join(lines)


def print_square(name: str, s: Square) -> str:
    return (
        f"square {name} = ({s.elt}; {s.top},{s.right},{s.bottom},{s.left}) "
        f"over {s.xm.name}"
    )


def print_workspace(ws: Workspace) -> str:
    """Canonical text for the self-contained parts of a workspace.

    Spans with inline apexes, grids whose cells and cubes whose faces are
    all named squares are printed; everything prints in kind order then name
    order so output is reproducible.
    """
    chunks = []
    groups = dict(ws.groups)
    finites = dict(ws.finites)
    for xm in ws.xmods.values():
        # constructor-built modules carry bases and fibers never declared
        finites.setdefault(xm.base.name, xm.base)
        for fib in xm.fibers.values():
            groups.setdefault(fib.name, fib)
    for name in sorted(groups):
        chunks.append(print_group(groups[name]))
    for name in sorted(finites):
        chunks.append(print_finite(finites[name]))
    for name in sorted(ws.presentations):
        chunks.append(print_presentation(ws.presentations[name]))
    for name in sorted(ws.morphisms):
        chunks.append(print_morphism(ws.morphisms[name]))
    for name in sorted(ws.spans):
        chunks.append(print_span(name, ws.spans[name]))
    for name in sorted(ws.xmods):
        chunks.append(print_xmod(ws.xmods[name]))
    for name in sorted(ws.squares):
        chunks.append(print_square(name, ws.squares[name]))
    # a square under two names prints as the first
    square_names = {sq: name for name, sq in sorted(ws.squares.items(), reverse=True)}
    for name in sorted(ws.grids):
        g = ws.grids[name]
        cells = [cell for row in g.cells for cell in row]
        if all(cell in square_names for cell in cells):
            chunks.append(f"grid {name} {g.rows}x{g.cols}: " + " ".join(square_names[c] for c in cells))
    for name in sorted(ws.cubes):
        from .cubes import FACE_SLOTS

        faces = [ws.cubes[name].face(slot) for slot in FACE_SLOTS]
        if all(f in square_names for f in faces):
            chunks.append(f"cube {name}: " + " ".join(square_names[f] for f in faces))
    for name in sorted(ws.modules):
        m = ws.modules[name]
        lines = [f"freemodule {name} over {m.base.name}"]
        lines.extend(f"mgen {g} at {site}" for g, site in m.generators)
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"
