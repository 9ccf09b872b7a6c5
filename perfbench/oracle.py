"""Arithmetic the benchmark does on its own, apart from gpdkit.

Every expected figure the checkers compare against comes from here: the
symmetric group on three letters as explicit permutations, closed-form
model sizes from group orders, the square calculus over a normal subgroup,
labelled-monoid enumeration, and a line-level reading of `.vk` files.
Nothing in this module imports gpdkit.

Conventions follow gpdkit's README: products are written left to right
(``x * y`` is "x then y"), a cycle name such as ``(123)`` sends 1 to 2, 2 to
3 and 3 to 1, and the identity is named ``e``.
"""

import functools
import itertools
import re

LETTERS = (1, 2, 3)


# -- permutations of {1, 2, 3} ---------------------------------------------------

def perm(name: str) -> tuple[int, ...]:
    """The permutation named in cycle notation, as images of 1, 2, 3."""
    image = {i: i for i in LETTERS}
    if name != "e":
        for cycle in re.findall(r"\((\d+)\)", name):
            pts = [int(c) for c in cycle]
            for a, b in zip(pts, pts[1:] + pts[:1]):
                image[a] = b
    return tuple(image[i] for i in LETTERS)


def name(p: tuple[int, ...]) -> str:
    """Cycle notation of a permutation, smallest point first in each cycle."""
    seen, cycles = set(), []
    for start in LETTERS:
        if start in seen or p[start - 1] == start:
            continue
        cycle, i = [], start
        while i not in seen:
            seen.add(i)
            cycle.append(str(i))
            i = p[i - 1]
        cycles.append("(" + "".join(cycle) + ")")
    return "".join(cycles) or "e"


def mul(x: str, y: str) -> str:
    """``x * y``: apply x, then y."""
    px, py = perm(x), perm(y)
    return name(tuple(py[px[i - 1] - 1] for i in LETTERS))


def inv(x: str) -> str:
    p = perm(x)
    out = [0] * len(LETTERS)
    for i in LETTERS:
        out[p[i - 1] - 1] = i
    return name(tuple(out))


def product(*xs: str) -> str:
    return functools.reduce(mul, xs, "e")


def conj(m: str, p: str) -> str:
    """The right conjugation action ``m^p = p^-1 * m * p``."""
    return product(inv(p), m, p)


S3 = tuple(sorted(name(p) for p in itertools.permutations(LETTERS)))


def is_even(x: str) -> bool:
    p = perm(x)
    return sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2 == 0


A3 = tuple(x for x in S3 if is_even(x))


def automorphism_count(elements=S3) -> int:
    """Bijections of the group that preserve the product, by brute force."""
    count = 0
    for images in itertools.permutations(elements):
        phi = dict(zip(elements, images))
        if all(phi[mul(a, b)] == mul(phi[a], phi[b]) for a in elements for b in elements):
            count += 1
    return count


def is_normal(sub, group=S3) -> bool:
    return all(conj(m, p) in sub for m in sub for p in group)


# -- closed forms for the square models over a one-object base ------------------
#
# A square over M -> P (P one object, order n) is a choice of top, left and
# right (n^3 ways), a bottom whose boundary word lies in the image of mu, and
# a fiber element over that word: n^3 * |M| squares in all, n^3 of them thin.
# A 2x2 arrangement fixes x, then y, z and w each share one or two edges:
# n^8 * |M|^4 arrangements.

def square_count(n: int, m: int) -> int:
    return n ** 3 * m


def thin_count(n: int) -> int:
    return n ** 3


def quadruple_count(n: int, m: int) -> int:
    return n ** 8 * m ** 4


# -- squares over A3 inside S3 ---------------------------------------------------
#
# A square is (elt, top, right, bottom, left); the boundary law reads
# mu(elt) = bottom^-1 * left^-1 * top * right, and mu is the inclusion.

def boundary_ok(sq) -> bool:
    elt, top, right, bottom, left = sq
    return elt in A3 and elt == product(inv(bottom), inv(left), top, right)


def comp_h(a, b, conjugate: bool = True):
    """Paste b to the right of a: element (n^b_bottom) * m."""
    if a[2] != b[4]:
        raise ValueError(f"right edge {a[2]} != left edge {b[4]}")
    moved = conj(a[0], b[3]) if conjugate else a[0]
    return (mul(moved, b[0]), mul(a[1], b[1]), b[2], mul(a[3], b[3]), a[4])


def comp_v(a, b):
    """Paste b below a: element m * (u^d), d the lower square's right edge."""
    if a[3] != b[1]:
        raise ValueError(f"bottom edge {a[3]} != top edge {b[1]}")
    return (mul(b[0], conj(a[0], b[2])), a[1], mul(a[2], b[2]), b[3], mul(a[4], b[4]))


def eps_h(edge: str):
    """Horizontal identity along a vertical edge."""
    return ("e", "e", edge, "e", edge)


def eps_v(edge: str):
    """Vertical identity along a horizontal edge."""
    return ("e", edge, "e", edge, "e")


@functools.cache
def a3s3_squares() -> tuple:
    """Every square over A3 inside S3, enumerated from the boundary law."""
    out = []
    for top, right, bottom, left in itertools.product(S3, repeat=4):
        elt = product(inv(bottom), inv(left), top, right)
        if elt in A3:
            out.append((elt, top, right, bottom, left))
    return tuple(sorted(out))


def interchange_sides(x, y, z, w, conjugate: bool = True):
    """Both evaluation orders of the arrangement [[x, y], [z, w]]."""
    lhs = comp_v(comp_h(x, y, conjugate), comp_h(z, w, conjugate))
    rhs = comp_h(comp_v(x, z), comp_v(y, w), conjugate)
    return lhs, rhs


def parse_square(text: str):
    """Read gpdkit's printed form ``(elt; top,right,bottom,left)``."""
    inner = text.strip()
    if not (inner.startswith("(") and inner.endswith(")") and ";" in inner):
        raise ValueError(f"not a square: {text!r}")
    elt, edges = inner[1:-1].split(";", 1)
    parts = [p.strip() for p in edges.split(",")]
    if len(parts) != 4:
        raise ValueError(f"not four edges: {text!r}")
    return (elt.strip(), *parts)


def square_text(sq) -> str:
    return f"({sq[0]}; {sq[1]},{sq[2]},{sq[3]},{sq[4]})"


# -- labelled monoids ------------------------------------------------------------

@functools.cache
def monoid_counts(n: int) -> tuple[int, int]:
    """(monoids, commutative monoids) on the labelled set {0..n-1}."""
    monoids = commutative = 0
    cells = range(n)
    for flat in itertools.product(cells, repeat=n * n):
        op = [flat[i * n:(i + 1) * n] for i in cells]
        if not any(all(op[e][a] == a == op[a][e] for a in cells) for e in cells):
            continue
        if all(op[op[a][b]][c] == op[a][op[b][c]] for a in cells for b in cells for c in cells):
            monoids += 1
            commutative += all(op[a][b] == op[b][a] for a in cells for b in cells)
    return monoids, commutative


# -- reading .vk workspaces line by line -----------------------------------------

KEYWORDS = ("group", "xmod", "square", "grid", "cube", "groupoid", "finite",
            "span", "morphism", "freemodule")


def vk_lines(text: str):
    """(line number, stripped line) for every line that is not blank or a comment."""
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def vk_blocks(text: str) -> list[tuple[str, str, int, list[str]]]:
    """Top-level definitions as (keyword, name, line number, body lines)."""
    blocks = []
    for no, line in vk_lines(text):
        head = line.split(None, 1)[0]
        if head in KEYWORDS:
            nm = re.split(r"[\s=:]+", line.split(None, 1)[1])[0]
            blocks.append((head, nm, no, [line]))
        elif blocks:
            blocks[-1][3].append(line)
    return blocks


def vk_squares(text: str) -> dict[str, tuple]:
    out = {}
    for kind, nm, _, body in vk_blocks(text):
        if kind == "square":
            rhs = body[0].split("=", 1)[1].rsplit(" over ", 1)[0]
            out[nm] = parse_square(rhs)
    return out


def vk_presentations(text: str) -> dict[str, dict]:
    """Free presentations: objects, generators (name -> (src, dst)) and relations."""
    out = {}
    for kind, nm, _, body in vk_blocks(text):
        if kind != "groupoid":
            continue
        objects, gens, rels = [], {}, 0
        for line in body[1:]:
            if line.startswith("objects:"):
                objects = line.split(":", 1)[1].split()
            elif line.startswith("gen "):
                g, ends = line[4:].split(":", 1)
                src, dst = (s.strip() for s in ends.split("->"))
                gens[g.strip()] = (src, dst)
            elif line.startswith("rel:"):
                rels += 1
        out[nm] = {"objects": objects, "generators": gens, "relations": rels}
    return out


def vk_spans(text: str) -> dict[str, dict]:
    """Spans with a discrete apex: apex objects and the two object maps."""
    out = {}
    for kind, nm, _, body in vk_blocks(text):
        if kind != "span":
            continue
        span = {}
        for line in body[1:]:
            key, rest = line.split(":", 1)
            if key == "apex objects":
                span["apex"] = rest.split()
            else:
                side, target = key.split()
                maps = dict(
                    (a.strip(), b.strip())
                    for a, b in (pair.split("->") for pair in rest.split(","))
                )
                span[side] = (target, maps)
        out[nm] = span
    return out


def span_pushout_shape(text: str, span_name: str) -> dict:
    """Objects, generators and relations of a pushout over a discrete apex.

    Objects of the two legs are glued by union-find along the apex maps; the
    apex has no generators, so the pushout keeps every leg generator.
    """
    pres = vk_presentations(text)
    span = vk_spans(text)[span_name]
    parent = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    legs = [span["left"], span["right"]]
    for target, _ in legs:
        for o in pres[target]["objects"]:
            find((target, o))
    for a in span["apex"]:
        ends = [find((target, maps[a])) for target, maps in legs]
        parent[ends[0]] = ends[1]
    objects = len({find(v) for v in list(parent)})
    gens = sum(len(pres[t]["generators"]) for t, _ in legs)
    rels = sum(pres[t]["relations"] for t, _ in legs)
    return {"objects": objects, "generators": gens, "relations": rels,
            "generator_names": sorted(g for t, _ in legs for g in pres[t]["generators"])}


def vk_finite_table(text: str, finite_name: str) -> dict[tuple[str, str], str]:
    for kind, nm, _, body in vk_blocks(text):
        if kind == "finite" and nm == finite_name:
            table = {}
            for line in body[1:]:
                m = re.fullmatch(r"mul (\S+) (\S+) = (\S+)", line)
                if m:
                    table[(m[1], m[2])] = m[3]
            return table
    raise KeyError(finite_name)


def vk_morphism_objects(text: str, morphism_name: str) -> dict[str, str]:
    for kind, nm, _, body in vk_blocks(text):
        if kind == "morphism" and nm == morphism_name:
            return dict(
                tuple(s.strip() for s in line[4:].split("->"))
                for line in body[1:]
                if line.startswith("obj ")
            )
    raise KeyError(morphism_name)


def vk_module_generators(text: str, module_name: str) -> dict[str, str]:
    for kind, nm, _, body in vk_blocks(text):
        if kind == "freemodule" and nm == module_name:
            return dict(
                (g, site)
                for g, site in (line[5:].split(" at ") for line in body[1:] if line.startswith("mgen "))
            )
    raise KeyError(module_name)


# -- the fixed test battery ------------------------------------------------------

def battery_orders() -> dict[str, int]:
    """Orders of the one-object test groups gpdkit's check commands use."""
    return {"triv": 1, "c2": 2, "c3": 3, "s3": len(S3)}
