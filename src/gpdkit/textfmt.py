"""Line-oriented text format for workspaces of named kernel objects.

A file is a sequence of blocks: a header line, whose first word names the
block's kind, then that kind's field lines.  ``#`` starts a comment; blank
lines separate nothing in particular.  Words are dot-separated signed
letters (``a.b^-1.c``) or ``id(obj)``.

``_TEMPLATES`` is the grammar.  Each line form is one template, such as
``gen {name}: {src} -> {dst}``: the pattern its lines match, the
``expected '...'`` error when a line does not, and the printer's format.
A template reads a line by four rules.  Every slot is stripped; whitespace
is optional next to a separator (``:`` ``=`` ``;`` ``,`` ``^`` ``->``) and
required at any other template space.  A slot stops at the first
occurrence of the separator after it, or, before a closing bracket, holds
no occurrence of the separator before it.  A slot next to a word or
another slot (``mul {x} {y}``, ``{x} at``) is one word.  The last slot
takes the rest of the line, up to the closing literal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .crossed import (
    CrossedModuleData,
    automorphism_xmod,
    from_normal_subgroup,
    trivial_crossed_module,
)
from .errors import DuplicateName, GpdError, LocatedError, ParseError, UnreadableWorkspace, UnresolvedReference
from .finite import (
    FiniteGroup,
    FiniteGroupoid,
    cyclic_group,
    group_as_groupoid,
    interval_finite_groupoid,
    symmetric_group,
    trivial_group,
    validate_finite_group,
)
from .squares import Square, make_square
from .words import ArrowGen, Word

if TYPE_CHECKING:
    from .cubes import Cube
    from .freemodules import FreeModule
    from .grids import Grid
    from .morphisms import GroupoidMorphism
    from .presentations import GroupoidPresentation
    from .vkt import Span


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
    cubes: dict[str, Cube] = field(default_factory=dict)
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


# Kinds in printing order: header forms, and indented under the last of them
# the field forms it takes.  A label is the words of a template after the kind.
_TEMPLATES = """
group {name} = cyclic({n})
group {name} = symmetric({n})
group {name} = trivial()
group {name}
    elements: {elements}
    mul {x} {y} = {z}
finite {name} = group({group})
finite {name} = interval()
finite {name}
    arrow {name}: {src} -> {dst} id
    arrow {name}: {src} -> {dst}
    mul {x} {y} = {z}
groupoid {name}
    objects: {objects}
    gen {name}: {src} -> {dst}
    rel: {lhs} = {rhs}
morphism {name}: {dom} -> {cod}
    obj {object} -> {image}
    gen {name} -> {image}
span {name}: left {M1} right {M2}
span {name}
    apex objects: {objects}
    left {target}: {pairs}
    right {target}: {pairs}
xmod {name} = normal({group}, {subset})
xmod {name} = autxmod({group})
xmod {name} = trivial({finite})
xmod {name}
    base {finite}
    fiber {obj} {groupname}
    mu {m} -> {p}
    act {m} ^ {p} = {m2}
square {name} = ({elt}; {top},{right},{bottom},{left}) over {X}
grid {name} {R}x{C}: {squares}
cube {name}: {faces}
freemodule {name} over {presentation}
    mgen {x} at {obj}
"""

_ATOM = re.compile(r"\{(\w+)\}|->|[A-Za-z]+|\s+|.")
_SLOT = re.compile(r"\{(\w+)\}")


def _slot(prev, nxt, first: bool, last: bool) -> str:
    """The pattern of one slot, from the (slot/word/sep/bracket, text) items beside it."""
    if nxt is None:
        return ".*"
    what, t = nxt
    if last and what != "sep":
        return ".*?"  # the rest of the line, up to the closing literal
    if what == "bracket":
        return ".*?" if prev[0] == "bracket" else f"[^{re.escape(prev[1])}]*?"
    if what != "sep" or (not first and prev[0] in ("word", "slot")):
        return r"\S+?" if what != "sep" else f"[^\\s{re.escape(t)}]+?"  # one word
    return f"[^{re.escape(t)}]*?" if len(t) == 1 else f"(?:(?!{re.escape(t)}).)*?"


class _Form:
    """One line form, compiled from its template by the rules above.  It claims
    the lines that start with its key, its leading literal, or for a header
    form the headers that hold its key, the literal after its first slot."""

    def __init__(self, template: str, kind: str = ""):
        self.fmt, self.shown = _SLOT.sub("{}", template), _SLOT.sub(r"\1", template)
        body = template[len(kind):].lstrip()  # a header is read after its kind word
        lead = body.partition("{")[0]
        self.key = lead if lead[-2:-1].isalpha() else lead.rstrip()  # "gen " claims no "general"
        self.label = " ".join(re.findall("[A-Za-z]+", _SLOT.sub(" ", body)))
        items = []  # (slot/word/sep/bracket, text, whether a space comes before)
        for m in _ATOM.finditer(body, len(lead)):
            if not m[0].isspace():
                t = m[1] or m[0]
                what = "slot" if m[1] else "word" if t.isalpha() else "bracket" if t in "()[]{}" else "sep"
                items.append((what, t, m.start() > len(lead) and body[m.start() - 1] == " "))
        last = max(i for i, item in enumerate(items) if item[0] == "slot")
        out = [re.escape(self.key) + r"\s*"] if lead else []
        for i, (what, t, spaced) in enumerate(items):
            prev = items[i - 1][:2] if i else (None, None)
            pair = {prev[0], what}
            if spaced:
                out.append(r"\s*" if "sep" in pair else r"\s+")
            elif "slot" in pair and pair & {"sep", "bracket"}:
                out.append(r"\s*")
            nxt = items[i + 1][:2] if i + 1 < len(items) else None
            out.append(f"({_slot(prev, nxt, i == 0, i == last)})" if what == "slot" else re.escape(t))
        self.rx, self.groups = "".join(out), sum(what == "slot" for what, _, _ in items)
        if kind:
            self.key = items[1][1] if len(items) > 1 and items[1][0] != "slot" else ""


class _Kind:
    """A kind's header and field forms, and the two alternations that read
    them, compiled on first use.  By the last group of a match, ``ends`` gives
    its form's label and groups.  A keyless header form takes the headers
    that no keyed form claims."""

    def __init__(self, kind: str, templates: list[str]):
        self.heads = [_Form(t, kind) for t in templates if not t.startswith(" ")]
        self.fields = [_Form(t.strip()) for t in templates[len(self.heads):]]
        self.forms = {f.label: f for f in self.heads + self.fields}

    @cached_property
    def patterns(self):
        guard = "".join(sorted({f"(?!.*{re.escape(f.key)})" for f in self.heads if f.key}))
        out = []
        for forms in (self.heads, self.fields):
            ends, n = {}, 0
            for f in forms:
                ends[n + f.groups] = f.label, n, n + f.groups
                n += f.groups
            out.append((re.compile("|".join(("" if f.key else guard) + f.rx for f in forms)), ends))
        return out


def _grammar() -> dict[str, _Kind]:
    kinds = {}
    for t in _TEMPLATES.strip("\n").splitlines():
        if not t.startswith(" "):
            kind = t.split()[0]
        kinds.setdefault(kind, []).append(t)
    return {kind: _Kind(kind, templates) for kind, templates in kinds.items()}


_GRAMMAR = _grammar()


_Line = tuple[str, int]  # a path and a line number


def parse_word_text(text: str, resolve_gen, ln: _Line) -> Word:
    """Parse ``a.b^-1.c`` or ``id(obj)`` using a generator resolver."""
    text = text.strip()
    if text.startswith("id(") and text.endswith(")"):
        return Word(text[3:-1].strip(), ())
    letters = []
    for token in map(str.strip, text.split(".")):
        _expect(token, ln, f"empty letter in word {text!r}")
        name = token.removesuffix("^-1")
        if (gen := resolve_gen(name)) is None:
            raise UnresolvedReference(*ln, f"unknown generator {name!r}")
        letters.append((gen, 1 if name == token else -1))
    base = letters[0][0].src if letters[0][1] == 1 else letters[0][0].dst
    try:
        return Word(base, tuple(letters))
    except GpdError as exc:
        raise ParseError(*ln, f"bad word {text!r}: {exc}") from exc


def _expect(cond: bool, ln: _Line, message: str):
    if not cond:
        raise ParseError(*ln, message)


def _expected(forms, ln: _Line):
    raise ParseError(*ln, "expected " + " or ".join(f"'{f.shown}'" for f in forms))


def _int(text: str) -> int | None:
    try:
        return int(text)
    except ValueError:
        return None


def _table(lines, known, what: str) -> dict:
    """The product table of the ``mul x y = z`` lines of a finite or group block."""
    muls = [(xyz, ln) for label, xyz, ln in lines if label == "mul"]
    for xyz, ln in muls:
        if unknown := [t for t in xyz if t not in known]:
            raise UnresolvedReference(*ln, f"unknown {what} {unknown[0]!r}")
    return {xyz[:2]: xyz[2] for xyz, _ in muls}


class _Parser:
    """Reads every line, then builds the blocks in two passes in file order.

    A block is ``(kind, header form label, header slot values, header line,
    [(field form label, slot values, line), ...])``.  ``resolve`` builds the
    blocks that name no other object (groupoids, groups, literal finite
    groupoids), then the rest, each by the method named after its kind.
    """

    def __init__(self):
        self.ws = Workspace()
        self.tables = self.ws.kinds()
        self.first, self.pending = [], []

    def read(self, path: str, content: str):
        block = fields = None  # fields: the block's field forms, if it takes field lines
        for no, raw in enumerate(content.splitlines(), 1):
            if not (text := raw.partition("#")[0].strip()):
                continue
            ln = path, no
            if fields and (m := fields[0].fullmatch(text)):
                label, i, j = fields[1][m.lastindex]
                block[4].append((label, m.groups()[i:j], ln))
                continue
            word, *rest = text.split(None, 1)
            kind = word.rstrip(":")
            if kind not in _GRAMMAR:
                _expect(block, ln, f"expected a block header, got {text!r}")
                claims = [f for f in _GRAMMAR[block[0]].fields if fields and text.startswith(f.key)]
                _expect(claims, ln, f"unexpected line in {block[0]} block: {text!r}")
                _expected(claims, ln)
            _expect(rest, ln, f"expected a name after {kind!r}")
            g = _GRAMMAR[kind]
            head, lines = g.patterns
            if not (m := head[0].fullmatch(rest[0])):
                _expected([f for f in g.heads if f.key and f.key in rest[0]] or g.heads, ln)
            label, i, j = head[1][m.lastindex]
            _expect(m[i + 1], ln, f"expected a name after {kind!r}")  # every header names its block first
            block = kind, label, m.groups()[i:j], ln, []
            first = kind == "group" or not label and kind in ("groupoid", "finite")
            (self.first if first else self.pending).append(block)
            fields = lines if g.fields and label == g.heads[-1].label else None

    def resolve(self):
        for block in self.first + self.pending:
            self.build(*block)

    def build(self, kind: str, form: str, values, head: _Line, lines):
        """Build one block and add it.  A kernel error is located at its header;
        any other exception is a fault of the program and propagates as it is."""
        try:
            value = getattr(self, kind)(form, values, lines, head)
        except LocatedError:
            raise
        except GpdError as exc:
            raise ParseError(*head, f"{kind}: {exc}") from exc
        kind = "presentation" if kind == "groupoid" else kind
        if values[0] in self.tables[kind]:
            raise DuplicateName(*head, f"duplicate {kind} {values[0]!r}")
        self.tables[kind][values[0]] = value

    def need(self, kind: str, name: str, ln: _Line):
        if name not in self.tables[kind]:
            raise UnresolvedReference(*ln, f"unknown {kind} {name!r}")
        return self.tables[kind][name]

    # -- one builder per kind: the semantic checks.  Each imports its own layer,
    # but words, finite groupoids, crossed modules and squares, which square
    # blocks need by the dozen, stay at module top.

    def group(self, form, values, lines, head) -> FiniteGroup:
        if form == "trivial":
            g = trivial_group()
        elif form:
            # cyclic(256) has a 65,536-entry table; symmetric(4) has 24 elements
            least, most = (1, 256) if form == "cyclic" else (0, 4)
            n = _int(values[1])
            _expect(n is not None and least <= n <= most, head,
                    f"{form}({values[1]}): the argument must be an integer >= {least} and <= {most}")
            g = (cyclic_group if form == "cyclic" else symmetric_group)(n)
        else:
            elements = [e for label, v, _ in lines if label == "elements" for e in v[0].split()]
            table = _table(lines, elements, "element")
            e = next((e for e in elements if all(
                table.get((e, x)) == x and table.get((x, e)) == x for x in elements)), None)
            _expect(e is not None, head, f"group {values[0]!r} has no identity element")
            inverse = {}
            for x in elements:
                for y in elements:
                    if table.get((x, y)) == e and table.get((y, x)) == e:
                        inverse[x] = y
                        break
            g = FiniteGroup(values[0], tuple(elements), table, e, inverse)
            # the group sweep raises, not reports, where a closed table has no
            # inverse of an element: raised here, it is located at the header
            validate_finite_group(g)
            return g
        g.name = values[0]
        return g

    def finite(self, form, values, lines, head) -> FiniteGroupoid:
        if form == "group":
            return group_as_groupoid(self.need("group", values[1], head), name=values[0])
        if form == "interval":
            f = interval_finite_groupoid()
            f.name = values[0]
            return f
        arrows, src, dst, identity = [], {}, {}, {}
        for label, (a, s, d), ln in lines:
            if label != "mul":
                arrows.append(a)
                src[a], dst[a] = s, d
            if label == "arrow id":
                _expect(s == d, ln, "identity arrows must be loops")
                identity[s] = a
        table = _table(lines, src, "arrow")
        inverse = {}
        for x in arrows:
            for y in arrows:
                if table.get((x, y)) == identity.get(src[x]) and table.get((y, x)) == identity.get(dst[x]):
                    inverse[x] = y
                    break
        objects = tuple(sorted({*src.values(), *dst.values()}))
        return FiniteGroupoid(values[0], objects, tuple(arrows), src, dst, table, identity, inverse)

    def groupoid(self, form, values, lines, head) -> GroupoidPresentation:
        from .presentations import GroupoidPresentation

        objects = [o for label, v, _ in lines if label == "objects" for o in v[0].split()]
        gens = [(ArrowGen(*v), ln) for label, v, ln in lines if label == "gen"]
        for g, ln in gens:
            for obj in (g.src, g.dst):
                if obj not in objects:
                    raise UnresolvedReference(*ln, f"generator {g.name} uses undeclared object {obj!r}")
        by_name = {g.name: g for g, _ in gens}
        relations = tuple(tuple(parse_word_text(w, by_name.get, ln) for w in v)
                          for label, v, ln in lines if label == "rel")
        return GroupoidPresentation(values[0], tuple(objects), tuple(g for g, _ in gens), relations)

    def morphism(self, form, values, lines, head) -> GroupoidMorphism:
        from .morphisms import GroupoidMorphism

        name, dom, cod = values
        dom = self.need("presentation", dom, head)
        cod = self.ws.presentations.get(cod, self.ws.finites.get(cod, cod))
        if isinstance(cod, str):
            raise UnresolvedReference(*head, f"unknown codomain {cod!r}")
        into_finite = isinstance(cod, FiniteGroupoid)
        gens = {} if into_finite else {g.name: g for g in cod.generators}
        object_map, gen_map = {}, {}
        for label, (x, image), ln in lines:
            if label == "obj":
                object_map[x] = image
            elif into_finite:
                if image.startswith("id(") and image.endswith(")"):
                    image = cod.id_at(image[3:-1].strip())
                if image not in cod.arrows:
                    raise UnresolvedReference(*ln, f"unknown arrow {image!r}")
                gen_map[x] = image
            else:
                gen_map[x] = parse_word_text(image, gens.get, ln)
        return GroupoidMorphism(name, dom, cod, object_map, gen_map)

    def span(self, form, values, lines, head) -> Span:
        from .vkt import Span

        if form:
            left, right = (self.need("morphism", m, head) for m in values[1:])
            if left.domain != right.domain:
                raise UnresolvedReference(*head, "span legs have different apexes")
            return Span(left.domain, left, right)
        from .morphisms import GroupoidMorphism
        from .presentations import discrete_presentation

        apex, legs = None, {}
        for label, v, ln in lines:  # a later line overwrites an earlier one
            if label == "apex objects":
                apex = v[0].split()
                continue
            legs[label] = v[0], {}, ln
            for part in filter(None, map(str.strip, v[1].split(","))):
                o, arrow, image = part.partition("->")
                _expect(arrow, ln, f"expected 'src -> dst' in {part!r}")
                legs[label][1][o.strip()] = image.strip()
        _expect(apex is not None, head, "span block needs 'apex objects:'")
        _expect(len(legs) == 2, head, "span block needs left and right legs")
        apex = discrete_presentation(f"{values[0]}.apex", tuple(apex))
        for side in ("left", "right"):
            target, pairs, ln = legs[side]
            target = self.need("presentation", target, ln)
            try:
                legs[side] = GroupoidMorphism(f"{values[0]}.{side}", apex, target, pairs, {})
            except GpdError as exc:
                raise ParseError(*ln, f"span leg {side}: {exc}") from exc
        return Span(apex, legs["left"], legs["right"])

    def xmod(self, form, values, lines, head) -> CrossedModuleData:
        name = values[0]
        if form == "normal":
            subset = values[2]
            _expect(subset.startswith("{") and subset.endswith("}"), head, "subset must be brace-enclosed")
            elems = [x.strip() for x in subset[1:-1].split(",") if x.strip()]
            return from_normal_subgroup(self.need("group", values[1], head), elems, name=name)
        if form == "autxmod":
            x = automorphism_xmod(self.need("group", values[1], head))
            x.name = name
            return x
        if form == "trivial":
            return trivial_crossed_module(self.need("finite", values[1], head), name=name)
        base, fibers, mu, action = None, {}, {}, {}
        for label, v, ln in lines:
            if label == "base":
                base = self.need("finite", v[0], ln)
            elif label == "fiber":
                fibers[v[0]] = self.need("group", v[1], ln)
            elif label == "mu":
                _expect(base is not None, ln, "'base' must come before 'mu' lines")
                sites = [obj for obj, g in fibers.items() if v[0] in g.elements]
                _expect(len(sites) < 2, ln, f"element {v[0]!r} is ambiguous across fibers")
                _expect(sites, ln, f"element {v[0]!r} not found in any fiber")
                mu.setdefault(sites[0], {})[v[0]] = v[1]
            else:
                action[v[:2]] = v[2]
        _expect(base is not None, head, "xmod block needs a 'base' line")
        return CrossedModuleData(name, base, fibers, mu, action)

    def square(self, form, values, lines, head) -> Square:
        return make_square(self.need("xmod", values[6], head), *values[1:6])

    def grid(self, form, values, lines, head) -> Grid:
        from .grids import Grid

        _, r, c, names = values
        rows, cols, names = _int(r), _int(c), names.split()
        _expect(None not in (rows, cols) and min(rows, cols) >= 1, head,
                f"grid size {r + 'x' + c!r}: expected RxC, two integers >= 1")
        _expect(len(names) == rows * cols, head, f"grid needs {rows * cols} squares, got {len(names)}")
        cells = [self.need("square", n, head) for n in names]
        return Grid(tuple(tuple(cells[i * cols:(i + 1) * cols]) for i in range(rows)))

    def cube(self, form, values, lines, head) -> Cube:
        from .cubes import make_cube

        faces = values[1].split()
        _expect(len(faces) == 6, head, "a cube needs exactly six faces (d1- d1+ d2- d2+ d3- d3+)")
        return make_cube(*(self.need("square", f, head) for f in faces))

    def freemodule(self, form, values, lines, head) -> FreeModule:
        from .freemodules import FreeModule

        base = self.need("presentation", values[1], head)
        return FreeModule(values[0], base, tuple(v for _, v, _ in lines))


def parse_workspace(files) -> Workspace:
    """Parse (path, content) pairs or file paths into a workspace.  A file that
    cannot be read raises ``UnreadableWorkspace``; every other failure raises
    a ``LocatedError`` whose message starts with ``path:line:``."""
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
        parser.read(path, content)
    parser.resolve()
    return parser.ws


# -- canonical printing --------------------------------------------------------


def _rows(kind: str, name: str, x, names):
    """One block as rows of a form label and slot values; ``names`` names squares."""
    if kind in ("group", "finite", "groupoid", "xmod"):
        yield "", x.name
    if kind == "group":
        yield "elements", " ".join(x.elements)
    elif kind == "finite":
        ids = set(x.identity.values())
        for a in sorted(x.arrows):
            yield "arrow id" if a in ids else "arrow", a, x.src[a], x.dst[a]
    elif kind == "groupoid":
        yield "objects", " ".join(x.sorted_objects())
        for g in x.sorted_generators():
            yield "gen", g.name, g.src, g.dst
        for lhs, rhs in x.relations:
            yield "rel", lhs, rhs
    elif kind == "morphism":
        yield "", x.name, x.domain.name, x.codomain.name
        for o in sorted(x.object_map):
            yield "obj", o, x.object_map[o]
        for g in sorted(x.gen_map):
            yield "gen", g, x.gen_map[g]
    elif kind == "span" and x.apex.generators:
        yield "left right", name, x.left.name, x.right.name  # only a discrete apex prints inline
    elif kind == "span":
        objects = x.apex.sorted_objects()
        yield "", name
        yield "apex objects", " ".join(objects)
        for side, leg in (("left", x.left), ("right", x.right)):
            yield side, leg.codomain.name, ", ".join(f"{o} -> {leg.object_map[o]}" for o in objects)
    elif kind == "xmod":
        yield "base", x.base.name
        for s in sorted(x.fibers):
            yield "fiber", s, x.fibers[s].name
        for s in sorted(x.mu):
            for m in sorted(x.mu[s]):
                yield "mu", m, x.mu[s][m]
        for m, p in sorted(x.action):
            yield "act", m, p, x.action[m, p]
    elif kind == "square":
        yield "over", name, x.elt, x.top, x.right, x.bottom, x.left, x.xm.name
    elif kind == "grid":
        yield "x", name, x.rows, x.cols, " ".join(names[c] for row in x.cells for c in row)
    elif kind == "cube":
        from .cubes import FACE_SLOTS

        yield "", name, " ".join(names[x.face(s)] for s in FACE_SLOTS)
    elif kind == "freemodule":
        yield "over", name, x.base.name
        for g, site in x.generators:
            yield "mgen at", g, site
    if kind in ("group", "finite"):
        for xy in sorted(x.table):
            yield "mul", *xy, x.table[xy]


def _render(kind: str, rows) -> str:
    forms = _GRAMMAR[kind].forms
    return "\n".join(forms[label].fmt.format(*values) for label, *values in rows)


def print_presentation(p: GroupoidPresentation) -> str:
    return _render("groupoid", _rows("groupoid", p.name, p, {}))


def print_workspace(ws: Workspace) -> str:
    """Canonical text of a workspace, in kind order then name order.  A grid or
    cube prints only when all its squares are named."""
    groups, finites = dict(ws.groups), dict(ws.finites)
    for xm in ws.xmods.values():
        # constructor-built modules carry bases and fibers never declared
        finites.setdefault(xm.base.name, xm.base)
        for fib in xm.fibers.values():
            groups.setdefault(fib.name, fib)
    # a square under two names prints as the first
    names = {sq: name for name, sq in sorted(ws.squares.items(), reverse=True)}
    grids = {n: g for n, g in ws.grids.items() if all(c in names for row in g.cells for c in row)}
    cubes = {n: c for n, c in ws.cubes.items() if all(f in names for f in c.faces.values())}
    tables = (groups, finites, ws.presentations, ws.morphisms, ws.spans, ws.xmods, ws.squares,
              grids, cubes, ws.modules)
    return "\n\n".join(_render(kind, _rows(kind, name, table[name], names))
                       for kind, table in zip(_GRAMMAR, tables) for name in sorted(table)) + "\n"
