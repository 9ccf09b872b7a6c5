import importlib.resources as resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gpdkit.cubes import FACE_SLOTS
from gpdkit.errors import DuplicateName, LocatedError, ParseError, UnresolvedReference
from gpdkit.textfmt import _GRAMMAR, _Parser, parse_workspace, print_workspace
from gpdkit.vkt import pushout, tietze_simplify, vertex_group


def data(name: str) -> str:
    return str(resources.files("gpdkit").joinpath("data", name))


def test_circle_file_contents():
    ws = parse_workspace([data("circle.vk")])
    assert len(ws.spans) == 1
    assert len(ws.presentations) == 2
    span = ws.spans["circle"]
    po = pushout(span)
    vg = tietze_simplify(vertex_group(po.presentation, "0"))
    assert vg.pretty() == "⟨x_b | ⟩"


def test_squares_file(a3s3):
    ws = parse_workspace([data("squares.vk")])
    assert set(ws.xmods) == {"a3s3"}
    assert "demo" in ws.grids
    assert "box" in ws.cubes
    from gpdkit.cubes import is_commutative_cube
    from gpdkit.squares import comp_h

    assert is_commutative_cube(ws.cubes["box"])
    assert comp_h(ws.squares["sq_left"], ws.squares["sq_right"]) == ws.squares["sq_row"]


def test_bad_cube_file_reports_seam():
    with pytest.raises(ParseError) as err:
        parse_workspace([data("bad_cube.vk")])
    assert "seam" in str(err.value)


def test_disk_module_file():
    ws = parse_workspace([data("disk_module.vk")])
    assert ws.modules["disk"].rank() == 1
    assert ws.morphisms["wrap"].gen_map["i"].letters[0][0].name == "t"


def test_unresolved_object_reference():
    content = "groupoid g\nobjects: 0\ngen a: 0 -> 9\n"
    with pytest.raises(UnresolvedReference) as err:
        parse_workspace([("inline.vk", content)])
    assert err.value.line_no == 3
    assert "9" in str(err.value)


def test_unresolved_generator_in_relation():
    content = "groupoid g\nobjects: 0\ngen a: 0 -> 0\nrel: zz = id(0)\n"
    with pytest.raises(UnresolvedReference) as err:
        parse_workspace([("inline.vk", content)])
    assert "zz" in str(err.value)


def test_duplicate_names_rejected():
    content = "groupoid g\nobjects: 0\n\ngroupoid g\nobjects: 1\n"
    with pytest.raises(DuplicateName) as err:
        parse_workspace([("inline.vk", content)])
    assert err.value.line_no == 4


def test_error_carries_position():
    content = "groupoid g\nobjects: 0\nnonsense line\n"
    with pytest.raises(ParseError) as err:
        parse_workspace([("somewhere.vk", content)])
    assert err.value.path == "somewhere.vk"
    assert err.value.line_no == 3


def test_comments_and_blank_lines_ignored():
    content = "# header\n\ngroupoid g  # trailing\nobjects: 0 1\ngen a: 0 -> 1\n"
    ws = parse_workspace([("inline.vk", content)])
    assert "g" in ws.presentations


def test_group_and_xmod_constructors():
    content = (
        "group s3 = symmetric(3)\n"
        "group c2 = cyclic(2)\n"
        "group one = trivial()\n"
        "finite fs3 = group(s3)\n"
        "finite iv = interval()\n"
        "xmod a3 = normal(s3, {e, (123), (132)})\n"
        "xmod auts3 = autxmod(s3)\n"
        "xmod sq = trivial(fs3)\n"
    )
    ws = parse_workspace([("inline.vk", content)])
    assert ws.groups["s3"].order() == 6
    assert ws.finites["iv"].size() == 4
    from gpdkit.crossed import validate_crossed_module

    for xm in ws.xmods.values():
        assert validate_crossed_module(xm).ok


def test_literal_finite_and_group_and_xmod():
    content = (
        "group c2\n"
        "elements: e t\n"
        "mul e e = e\nmul e t = t\nmul t e = t\nmul t t = e\n"
        "finite pt\n"
        "arrow e: p -> p id\n"
        "mul e e = e\n"
        "xmod shadow\n"
        "base pt\n"
        "fiber p c2\n"
        "mu e -> e\nmu t -> e\n"
        "act e ^ e = e\nact t ^ e = t\n"
    )
    ws = parse_workspace([("inline.vk", content)])
    from gpdkit.crossed import validate_crossed_module

    assert validate_crossed_module(ws.xmods["shadow"]).ok


def _cell_keys(ws):
    grids = {n: [[c.key() for c in row] for row in g.cells] for n, g in ws.grids.items()}
    cubes = {n: [c.face(s).key() for s in FACE_SLOTS] for n, c in ws.cubes.items()}
    return grids, cubes


def test_roundtrip_print_parse():
    for name in ("circle.vk", "a3s3.vk", "squares.vk", "disk_module.vk", "wedge.vk"):
        ws1 = parse_workspace([data(name)])
        text1 = print_workspace(ws1)
        ws2 = parse_workspace([("canon.vk", text1)])
        assert print_workspace(ws2) == text1
        # Square equality also asks for the same crossed-module object
        assert _cell_keys(ws2) == _cell_keys(ws1)
        if name == "squares.vk":
            assert (set(ws2.grids), set(ws2.cubes)) == ({"demo"}, {"box"})


def test_roundtrip_squares_subset():
    ws1 = parse_workspace([data("squares.vk")])
    text1 = print_workspace(ws1)
    ws2 = parse_workspace([("canon.vk", text1)])
    assert print_workspace(ws2) == text1
    assert set(ws2.squares) == set(ws1.squares)


def test_morphism_into_finite_groupoid_parses():
    content = (
        "group s3 = symmetric(3)\n"
        "finite fs3 = group(s3)\n"
        "groupoid loop\nobjects: p\ngen x: p -> p\n"
        "morphism ev: loop -> fs3\nobj p -> *\ngen x -> (123)\n"
    )
    ws = parse_workspace([("inline.vk", content)])
    m = ws.morphisms["ev"]
    assert m.gen_map["x"] == "(123)"


def test_full_form_span_parses():
    content = (
        "groupoid apex\nobjects: 0\n"
        "groupoid left_t\nobjects: 0\ngen x: 0 -> 0\n"
        "groupoid right_t\nobjects: 0\ngen y: 0 -> 0\n"
        "morphism lm: apex -> left_t\nobj 0 -> 0\n"
        "morphism rm: apex -> right_t\nobj 0 -> 0\n"
        "span w: left lm right rm\n"
    )
    ws = parse_workspace([("inline.vk", content)])
    po = pushout(ws.spans["w"])
    assert sorted(g.name for g in po.presentation.generators) == ["x", "y"]


@pytest.mark.parametrize("ctor, least", [
    ("cyclic(x)", 1),
    ("cyclic(0)", 1),
    ("cyclic(-2)", 1),
    ("cyclic(257)", 1),
    ("cyclic(100000000)", 1),
    ("symmetric(-1)", 0),
    ("symmetric(5)", 0),
])
def test_group_constructor_argument_fails_at_its_line(monkeypatch, ctor, least):
    # a missing bound must fail here, not build a 10^16-entry table
    monkeypatch.setattr("gpdkit.textfmt.cyclic_group", lambda n: pytest.fail(f"cyclic({n}) built"))
    most = 256 if ctor.startswith("cyclic") else 4
    content = f"group s3 = symmetric(3)\ngroup g = {ctor}\n"
    with pytest.raises(ParseError) as err:
        parse_workspace([("inline.vk", content)])
    assert (err.value.path, err.value.line_no) == ("inline.vk", 2)
    assert f"{ctor}: the argument must be an integer >= {least} and <= {most}" in str(err.value)


_KINDS = ("groupoid", "finite", "group", "morphism", "span",
          "xmod", "square", "grid", "cube", "freemodule")
_GAPPY = "group g\nelements: e a\nmul e e = e\nmul e a = a\nmul a e = a\n"  # no a * a
_A3 = "group s3 = symmetric(3)\nxmod a3 = normal(s3, {e, (123), (132)})\nsquare s = (e; e,e,e,e) over a3\n"


@pytest.mark.parametrize("content, line", [
    *((f"group one = trivial()\n{kind}\n", 2) for kind in _KINDS),
    ("group one = trivial()\ncube:\n", 2),
    ("group s3 = symmetric(3)\nxmod b = normal(s3, {e, (12)})\n", 2),
    ("group s3 = symmetric(3)\nxmod b = normal(s3, {e, zz})\n", 2),
    ("group s4 = symmetric(4)\nxmod b = autxmod(s4)\n", 2),
    ("groupoid p\nobjects: 0\ngen a: 0 -> 0\nrel: a.a = id(0)\nfreemodule m over p\nmgen x at 0\n", 5),
    (_A3 + "grid g 2xa: s s\n", 4),
    (_A3 + "grid g 1x1x1: s\n", 4),
    ("group c = trivial()\nfinite pt = group(c)\nxmod x\nbase pt\nact e = e ^ e\n", 5),
    # tables with gaps: the entry a build looks up is missing
    (_GAPPY + "xmod x = normal(g, {e, a})\n", 6),
    (_GAPPY + "xmod x = autxmod(g)\n", 6),
    # a product outside the declared elements; a closed table that is not associative
    (_GAPPY + "mul a a = b\nxmod x = autxmod(g)\n", 6),
    ("group g\nelements: e a b\nmul e e = e\nmul e a = a\nmul e b = b\nmul a e = a\nmul b e = b\n"
     "mul a a = e\nmul a b = a\nmul b a = e\nmul b b = e\nxmod x = autxmod(g)\n", 12),
    # a closed table in which a has no inverse: the group block itself fails
    ("group g\nelements: e a\nmul e e = e\nmul e a = a\nmul a e = a\nmul a a = a\n", 1),
    ("finite k\narrow u: x -> y\narrow v: y -> x\nxmod t = trivial(k)\n", 4),
    ("group c = trivial()\nfinite pt = group(c)\nxmod x\nbase pt\nfiber * c\n"
     "square s = (e; e,e,e,e) over x\n", 6),
    ("groupoid p\nobjects: 0\ngen g: 0 -> 0\ngroup c = trivial()\nfinite f = group(c)\n"
     "morphism m: p -> f\nobj 0 -> *\ngen g -> id(zz)\n", 6),
], ids=[*_KINDS, "cube:", "not-normal", "not-an-element", "autxmod-s4", "freemodule-rel",
        "grid-2xa", "grid-1x1x1", "act-equals-before-caret", "normal-gap", "autxmod-gap",
        "mul-unknown-element", "autxmod-not-associative", "group-no-inverse",
        "trivial-no-identity", "square-no-boundary", "morphism-no-identity"])
def test_bad_block_fails_at_its_line(content, line):
    with pytest.raises(LocatedError) as err:
        parse_workspace([("inline.vk", content)])
    assert (err.value.path, err.value.line_no) == ("inline.vk", line)
    assert str(err.value).startswith(f"inline.vk:{line}: ")


def test_a_program_fault_in_a_build_is_not_read_as_a_bad_file(monkeypatch):
    # only a GpdError is located at the block's header
    def broken(*args):
        raise NameError("name 'Grid' is not defined")

    monkeypatch.setattr("gpdkit.textfmt._Parser.grid", broken)
    with pytest.raises(NameError):
        parse_workspace([data("squares.vk")])


_BUNDLED = {
    name: resources.files("gpdkit").joinpath("data", name).read_text(encoding="utf-8")
    for name in ("a3s3.vk", "bad_cube.vk", "bad_groupoid.vk", "circle.vk",
                 "disk_module.vk", "squares.vk", "wedge.vk")
}
_SYMBOLS = ("", ":", "=", "->", "x", "0", "-1", "(", ")", "{", "}", ",", ";", ".", "^", "#",
            "over", "id(0)", "e")


@st.composite
def edited_workspace(draw):
    """A bundled workspace after one to three random line edits."""
    lines = _BUNDLED[draw(st.sampled_from(sorted(_BUNDLED)))].splitlines()
    lines = [ln for ln in map(str.strip, lines) if ln and not ln.startswith("#")]
    tokens = sorted({t for ln in lines for t in ln.split()}) + list(_SYMBOLS)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("delete", "duplicate", "move", "truncate", "token", "insert")))
        if edit == "delete" and len(lines) > 1:
            del lines[i]
        elif edit == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif edit == "move":
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
        elif edit == "truncate":
            words = lines[i].split()
            lines[i] = " ".join(words[:draw(st.integers(0, len(words)))])
        elif edit == "token":
            words = lines[i].split(" ")
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(tokens))
            lines[i] = " ".join(words)
        elif edit == "insert":
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(st.sampled_from(_SYMBOLS)) + lines[i][at:]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(edited_workspace())
def test_edited_workspace_parses_or_fails_at_a_line(content):
    try:
        ws = parse_workspace([("edited.vk", content)])
    except LocatedError as exc:
        assert 1 <= exc.line_no <= content.count("\n")
        assert str(exc).startswith(f"edited.vk:{exc.line_no}: ")
    else:
        print_workspace(ws)


# the laws of the cyclic groups of order 1 to 4 and of the Klein four-group
# on positions 0..n-1, position 0 the identity
_SMALL_GROUPS = [(n, lambda i, j, n=n: (i + j) % n) for n in (1, 2, 3, 4)] + [(4, int.__xor__)]


@st.composite
def group_literal_workspace(draw):
    """The table of a small real group, its elements relabelled by a drawn
    permutation and at times one product changed or dropped, and every
    constructor that reads a group built on it: normal on the subgroup
    one drawn element generates, autxmod and trivial."""
    n, law = draw(st.sampled_from(_SMALL_GROUPS))
    elements = draw(st.permutations(("e", "a", "b", "c")[:n]))
    table = {(elements[i], elements[j]): elements[law(i, j)] for i in range(n) for j in range(n)}
    if draw(st.booleans()):
        x, y = draw(st.sampled_from(sorted(table)))
        table[x, y] = draw(st.sampled_from((*elements, None)))
    lines = ["group g", "elements: " + " ".join(elements)]
    lines += [f"mul {x} {y} = {z}" for (x, y), z in table.items() if z is not None]
    k = power = draw(st.integers(0, n - 1))
    subgroup = {0}
    while power not in subgroup:
        subgroup.add(power)
        power = law(power, k)
    subset = sorted(elements[i] for i in subgroup)
    lines += ["finite f = group(g)", "xmod n = normal(g, {" + ", ".join(subset) + "})",
              "xmod a = autxmod(g)", "xmod t = trivial(f)"]
    return "\n".join(lines) + "\n"


def test_group_literal_builds_or_fails_at_a_line():
    parsed = []

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(group_literal_workspace())
    def check(content):
        try:
            ws = parse_workspace([("group.vk", content)])
        except LocatedError as exc:
            assert str(exc).startswith(f"group.vk:{exc.line_no}: ")
            parsed.append(False)
        else:
            print_workspace(ws)
            parsed.append(True)

    check()
    # most draws are real groups, so the accept path runs
    assert 3 * sum(parsed) >= len(parsed) > 0


@pytest.mark.parametrize("kind, content", [
    ("group", "group s3 = symmetric(3)\nmul e e = (12)\n"),
    ("finite", "group s3 = symmetric(3)\nfinite f = group(s3)\narrow x: * -> * id\n"),
    ("xmod", "group s3 = symmetric(3)\nxmod a3 = normal(s3, {e, (123), (132)})\nbase f\n"),
    ("square", _A3 + "elements: e\n"),
    ("grid", _A3 + "grid g 1x1: s\nmul e e = e\n"),
    ("cube", _A3 + "cube c: s s s s s s\nobjects: 0\n"),
    ("span", "groupoid p\nobjects: 0\nmorphism m: p -> p\nobj 0 -> 0\nspan w: left m right m\napex objects: 0\n"),
])
def test_a_field_line_under_a_header_that_takes_none_fails_at_its_line(kind, content):
    # a constructor or header-only header takes no field lines; none is dropped unread
    with pytest.raises(ParseError) as err:
        parse_workspace([("inline.vk", content)])
    assert (err.value.path, err.value.line_no) == ("inline.vk", content.count("\n"))
    assert f"unexpected line in {kind} block: " in str(err.value)


@pytest.mark.parametrize("content", [
    "group  = cyclic(3)\n",
    "group  = symmetric(3)\n",
    "group  = trivial()\n",
    "group s3 = symmetric(3)\nfinite  = group(s3)\n",
    "finite  = interval()\n",
    "group s3 = symmetric(3)\nxmod  = normal(s3, {e, (123), (132)})\n",
    "group s3 = symmetric(3)\nxmod  = autxmod(s3)\n",
    "finite i = interval()\nxmod  = trivial(i)\n",
])
def test_a_constructor_header_with_no_name_fails_at_its_line(content):
    # such a block would be stored under "" and printed under a name of its own
    kind = content.splitlines()[-1].split()[0]
    with pytest.raises(ParseError) as err:
        parse_workspace([("inline.vk", content)])
    assert (err.value.path, err.value.line_no) == ("inline.vk", content.count("\n"))
    assert str(err.value).endswith(f"expected a name after {kind!r}")


@st.composite
def relations_workspace(draw):
    """A one-object groupoid with up to three relations between drawn words."""
    gens = ("a", "b", "c")[:draw(st.integers(1, 3))]
    letter = st.builds(lambda g, inverse: g + "^-1" * inverse, st.sampled_from(gens), st.booleans())
    word = st.one_of(st.just("id(p)"), st.lists(letter, min_size=1, max_size=4).map(".".join))
    rels = draw(st.lists(st.tuples(word, word), max_size=3))
    return "\n".join(["groupoid g", "objects: p", *(f"gen {x}: p -> p" for x in gens),
                      *(f"rel: {lhs} = {rhs}" for lhs, rhs in rels)]) + "\n"


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(relations_workspace())
@example("groupoid g\nobjects: 0 1\ngen a: 0 -> 1\ngen b: 1 -> 0\n"
         "rel: a.b = id(0)\nrel: b^-1.a^-1 = id(0)\nrel: b.a = id(1)\n")
def test_relations_print_and_read_back_to_the_same_print(content):
    text = print_workspace(parse_workspace([("rels.vk", content)]))
    assert text == content  # the drawn lines are already in canonical form
    assert print_workspace(parse_workspace([("canon.vk", text)])) == text


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(st.one_of(edited_workspace(), group_literal_workspace()))
def test_a_printed_workspace_reads_back_to_the_same_print(content):
    try:
        ws = parse_workspace([("edited.vk", content)])
    except LocatedError:
        return
    text = print_workspace(ws)
    assert print_workspace(parse_workspace([("canon.vk", text)])) == text


def test_the_readme_format_block_shows_every_line_form():
    readme = Path(__file__).resolve().parents[1].joinpath("README.md").read_text(encoding="utf-8")
    block = readme.split("## The `vk` command line", 1)[1].split("```")[1]
    parser = _Parser()
    parser.read("README.md", block)
    blocks = parser.first + parser.pending
    shown = {(kind, label) for kind, label, *_ in blocks}
    shown |= {(kind, label) for kind, _, _, _, lines in blocks for label, _, _ in lines}
    assert shown == {(kind, f.label) for kind, g in _GRAMMAR.items() for f in g.heads + g.fields}
