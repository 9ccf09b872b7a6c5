"""The dict-walking axiom sweeps, kept as the oracle of the integer ones.

``gpdkit.finite`` and ``gpdkit.crossed`` sweep the group, groupoid and
crossed-module axioms over integer tables.  The functions here are the plain
loops those sweeps replaced: every check is a lookup in the objects' own
dicts, one ``Report.count()`` per check.  ``tests/test_reference.py``
requires both to give the same counts, the same violations in the same
order, and the same exception.  ``reference_lambda_keys`` is the name-walking
square enumeration that ``gpdkit.dgt.lambda_functor`` replaced with integer
words.  ``reference_components``, ``reference_spanning_tree`` and
``reference_tree_paths`` are the three breadth-first searches that
``gpdkit.presentations._walk`` replaced.  ``reference_evaluate`` and
``reference_acted`` are the letter-by-letter folds that ``evaluate`` and
``ModuleElement.acted`` replaced: one composite ``Word`` per letter or per
term, each reduced as it is built.  ``reference_below`` is the bounded-integer
draw of ``gpdkit.dgt.draw_below`` on plain ints, round by round; the tests'
object-level samplers draw through it, ``reference_draw_grids`` among them:
``DgtModel.draw_grids`` cell by cell over ``squares_with``.  The rest are test-only helpers: ``disjoint_union`` builds a groupoid,
``interchange_check`` evaluates one 2x2 arrangement both ways, ``random_cut``
is a seeded cut rule for fold-order fuzzing, ``is_reduced`` tests a word and
``induce_element`` pushes a module element along a morphism,
``identity_morphism`` is a presentation's identity, ``morphism_signature``
counts morphisms into a battery, and ``MonoidPair`` checks two monoid
structures on one carrier.
"""

import itertools
from collections import deque
from dataclasses import dataclass

from gpdkit.crossed import CrossedModuleData
from gpdkit.eckmann import Table
from gpdkit.errors import BaseNotInComponent, Disconnected, EdgeMismatch, PreconditionFailed, TreeInvalid
from gpdkit.finite import FiniteGroup, FiniteGroupoid
from gpdkit.freemodules import FreeModule, ModuleElement, Term
from gpdkit.morphisms import GroupoidMorphism, evaluate
from gpdkit.presentations import GroupoidPresentation
from gpdkit.report import Report
from gpdkit.squares import Square, comp_h, comp_v
from gpdkit.vkt import morphism_count
from gpdkit.words import Word, free_reduce, generator_word, word_compose, word_inverse


def _repeats(report: Report, kind: str, names) -> None:
    seen = set()
    for x in names:
        if x in seen:
            report.fail("names", f"{kind} {x} is repeated")
        seen.add(x)


def reference_validate_finite_group(g: FiniteGroup) -> Report:
    report = Report(f"group {g.name}")
    elems = g.elements
    if not elems:
        report.fail("identity", f"group has no elements, so no identity {g.identity}")
        return report
    _repeats(report, "element", elems)
    if report.violations:
        return report
    for x, y in itertools.product(elems, repeat=2):
        report.count()
        if g.table.get((x, y)) not in elems:
            report.fail("closure", f"{x}*{y} undefined or escapes")
    if report.violations:
        return report
    for x in elems:
        report.count(2)
        if g.mul(g.identity, x) != x or g.mul(x, g.identity) != x:
            report.fail("identity", f"identity fails on {x}")
        report.count(2)
        if g.mul(x, g.inv(x)) != g.identity or g.mul(g.inv(x), x) != g.identity:
            report.fail("inverse", f"inverse fails on {x}")
    for x, y, z in itertools.product(elems, repeat=3):
        report.count()
        if g.mul(g.mul(x, y), z) != g.mul(x, g.mul(y, z)):
            report.fail("associativity", f"({x}*{y})*{z} != {x}*({y}*{z})")
    return report


def reference_validate_finite_groupoid(f: FiniteGroupoid) -> Report:
    """Exhaustively check every groupoid axiom, with a witness per failure."""
    report = Report(f"groupoid {f.name}")
    if not f.objects:
        report.fail("objects", "groupoid has no objects")
        return report
    _repeats(report, "object", f.objects)
    _repeats(report, "arrow", f.arrows)
    if report.violations:
        return report
    arrows = f.arrows
    for a in arrows:
        if f.src.get(a) not in f.objects or f.dst.get(a) not in f.objects:
            report.fail("endpoints", f"arrow {a} has undeclared endpoints")
            return report
    for obj in f.objects:
        report.count()
        e = f.identity.get(obj)
        if e is None or f.src.get(e) != obj or f.dst.get(e) != obj:
            report.fail("identity-arrow", f"object {obj} lacks an identity loop")
    if report.violations:
        return report
    for x, y in itertools.product(arrows, repeat=2):
        report.count()
        defined = (x, y) in f.table
        should = f.dst[x] == f.src[y]
        if defined != should:
            report.fail("domain", f"{x}*{y} defined={defined}, composable={should}")
        elif defined:
            z = f.table[(x, y)]
            if f.src.get(z) != f.src[x] or f.dst.get(z) != f.dst[y]:
                report.fail("endpoints", f"{x}*{y}={z} breaks endpoint bookkeeping")
    if report.violations:
        return report
    for x in arrows:
        report.count(2)
        if f.compose(f.id_at(f.src[x]), x) != x or f.compose(x, f.id_at(f.dst[x])) != x:
            report.fail("unit", f"identity law fails at {x}")
        report.count(2)
        xi = f.inverse.get(x)
        if xi is None or f.src.get(xi) != f.dst[x] or f.dst.get(xi) != f.src[x]:
            report.fail("inverse", f"{x} lacks a well-typed inverse")
        elif (
            f.compose(x, xi) != f.id_at(f.src[x])
            or f.compose(xi, x) != f.id_at(f.dst[x])
        ):
            report.fail("inverse", f"{x} * {xi} is not the identity")
    for x, y, z in itertools.product(arrows, repeat=3):
        if f.dst[x] == f.src[y] and f.dst[y] == f.src[z]:
            report.count()
            if f.compose(f.compose(x, y), z) != f.compose(x, f.compose(y, z)):
                report.fail("associativity", f"({x}*{y})*{z} != {x}*({y}*{z})")
    return report


def reference_validate_crossed_module(x: CrossedModuleData) -> Report:
    """Sweep every axiom; each failure is reported with a witness triple."""
    report = Report(f"xmod {x.name}")
    base_report = reference_validate_finite_groupoid(x.base)
    if not base_report.ok:
        for v in base_report.violations:
            report.fail("base-" + v.law, v.witness)
        return report
    P = x.base
    for s in P.objects:
        if s not in x.fibers:
            report.fail("fibers", f"no fiber at object {s!r}")
            return report
        fib = reference_validate_finite_group(x.fibers[s])
        if not fib.ok:
            for v in fib.violations:
                report.fail("fiber-" + v.law, f"at {s!r}: {v.witness}")
            return report

    # mu lands in vertex groups and is a homomorphism per object
    for s in P.objects:
        M = x.fibers[s]
        loops = set(P.vertex_arrows(s))
        report.count(len(M.elements))
        for m in M.elements:
            img = x.mu.get(s, {}).get(m)
            if img is None or img not in loops:
                report.fail("mu-typing", f"mu({m}) at {s!r} is not a loop at {s!r}")
        if report.violations:
            return report
        report.count(len(M.elements) ** 2)
        for m, n in itertools.product(M.elements, repeat=2):
            if x.mu[s][M.mul(m, n)] != P.compose(x.mu[s][m], x.mu[s][n]):
                report.fail("mu-homomorphism", f"mu({m}*{n}) != mu({m})mu({n}) at {s!r}")

    # action totality and typing
    for p in P.arrows:
        s, t = P.src[p], P.dst[p]
        report.count(len(x.fibers[s].elements))
        for m in x.fibers[s].elements:
            out = x.action.get((m, p))
            if out is None or out not in x.fibers[t].elements:
                report.fail("action-typing", f"{m}^{p} missing or outside M({t!r})")
    if report.violations:
        return report

    # action laws: identity, composition, multiplicativity
    for s in P.objects:
        e = P.id_at(s)
        report.count(len(x.fibers[s].elements))
        for m in x.fibers[s].elements:
            if x.action[(m, e)] != m:
                report.fail("action-identity", f"{m}^id != {m} at {s!r}")
    for p, q in itertools.product(P.arrows, repeat=2):
        if P.dst[p] != P.src[q]:
            continue
        pq = P.compose(p, q)
        report.count(len(x.fibers[P.src[p]].elements))
        for m in x.fibers[P.src[p]].elements:
            if x.action[(x.action[(m, p)], q)] != x.action[(m, pq)]:
                report.fail("action-composition", f"({m}^{p})^{q} != {m}^({p}{q})")
    for p in P.arrows:
        s = P.src[p]
        M = x.fibers[s]
        Mt = x.fibers[P.dst[p]]
        report.count(len(M.elements) ** 2)
        for m, n in itertools.product(M.elements, repeat=2):
            if x.action[(M.mul(m, n), p)] != Mt.mul(x.action[(m, p)], x.action[(n, p)]):
                report.fail("action-multiplicative", f"({m}{n})^{p} != {m}^{p} {n}^{p}")

    # CM1: mu(m^p) = p^-1 mu(m) p
    for p in P.arrows:
        s, t = P.src[p], P.dst[p]
        report.count(len(x.fibers[s].elements))
        for m in x.fibers[s].elements:
            lhs = x.mu[t][x.action[(m, p)]]
            rhs = P.compose_all([P.inv(p), x.mu[s][m], p])
            if lhs != rhs:
                report.fail("CM1", f"mu({m}^{p}) = {lhs} but p^-1 mu({m}) p = {rhs}")

    # CM2: n^-1 m n = m^(mu n)
    for s in P.objects:
        M = x.fibers[s]
        report.count(len(M.elements) ** 2)
        for m, n in itertools.product(M.elements, repeat=2):
            lhs = M.mul(M.mul(M.inv(n), m), n)
            rhs = x.action[(m, x.mu[s][n])]
            if lhs != rhs:
                report.fail("CM2", f"n^-1 m n = {lhs} but {m}^mu({n}) = {rhs}  (m={m}, n={n})")
    return report


def reference_lambda_keys(x: CrossedModuleData) -> list[tuple]:
    """The keys of every square over a valid ``x``, in model order: each
    boundary word composed over names with ``compose_all``."""
    P = x.base
    arrows = sorted(P.arrows)
    preimage: dict[str, dict[str, list[str]]] = {s: {} for s in P.objects}
    for s in P.objects:
        for m in x.fibers[s].elements:
            preimage[s].setdefault(x.mu[s][m], []).append(m)
    keys = []
    for top in arrows:
        rights = [a for a in arrows if P.src[a] == P.dst[top]]
        lefts = [a for a in arrows if P.src[a] == P.src[top]]
        for left in lefts:
            for right in rights:
                z = P.dst[right]
                for bottom in P.hom(P.dst[left], z):
                    word = P.compose_all([P.inv(bottom), P.inv(left), top, right])
                    for elt in preimage[z].get(word, ()):
                        keys.append((elt, top, right, bottom, left))
    return sorted(keys)


# -- reference: three separate breadth-first searches ---------------------------

def reference_components(p):
    adjacency = {o: set() for o in p.objects}
    for g in p.generators:
        adjacency[g.src].add(g.dst)
        adjacency[g.dst].add(g.src)
    seen = set()
    comps = []
    for start in p.sorted_objects():
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adjacency[v]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def reference_spanning_tree(p):
    comps = reference_components(p)
    if len(comps) > 1:
        raise Disconnected(comps)
    incident = {o: [] for o in p.objects}
    for g in p.sorted_generators():
        incident[g.src].append(g)
        incident[g.dst].append(g)
    root = p.sorted_objects()[0]
    visited = {root}
    tree = set()
    frontier = [root]
    while frontier:
        next_frontier = []
        for v in sorted(frontier):
            for g in incident[v]:
                other = g.dst if g.src == v else g.src
                if other not in visited:
                    visited.add(other)
                    tree.add(g)
                    next_frontier.append(other)
        frontier = next_frontier
    return tree


def reference_tree_paths(p, base, tree):
    if base not in p.objects:
        raise BaseNotInComponent(f"object {base!r} not in presentation {p.name}")
    gens = set(p.generators)
    for g in tree:
        if g not in gens:
            raise TreeInvalid(f"edge {g.name} is not a generator of {p.name}")
    component = next(c for c in reference_components(p) if base in c)
    incident = {o: [] for o in p.objects}
    for g in sorted(tree, key=lambda g: g.name):
        incident[g.src].append(g)
        incident[g.dst].append(g)
    paths = {base: Word(base, ())}
    queue = deque([base])
    while queue:
        v = queue.popleft()
        for g in incident[v]:
            other = g.dst if g.src == v else g.src
            exp = 1 if g.src == v else -1
            if other in paths:
                continue
            paths[other] = paths[v] * Word(v, ((g, exp),))
            queue.append(other)
    if set(paths) != component:
        raise TreeInvalid(
            f"tree does not span the component of {base!r}: "
            f"missing {sorted(component - set(paths))}"
        )
    if len(tree) != len(component) - 1:
        raise TreeInvalid(
            f"{len(tree)} edges cannot be a tree on {len(component)} objects"
        )
    return paths


# -- reference: the letter-by-letter folds -----------------------------------------

def reference_evaluate(m: GroupoidMorphism, w: Word) -> Word:
    """Image of ``w`` under a morphism into a presentation: each letter's
    image (its inverse for a -1 letter) composed onto the word so far."""
    out = Word(m.object_map[w.base], ())
    for gen, exp in w.letters:
        image = m.gen_map[gen.name]
        out = out * (image if exp == 1 else word_inverse(image))
    return free_reduce(out)


def reference_acted(e: ModuleElement, w: Word) -> ModuleElement:
    """Right action of ``w`` on ``e``: each term's path as a ``Word`` at its
    generator's site, composed with ``w``."""
    terms: dict[Term, int] = {}
    for (gen, letters), c in e.terms.items():
        moved = word_compose(Word(e.module.site(gen), letters), w)
        key = (gen, moved.letters)
        terms[key] = terms.get(key, 0) + c
    return ModuleElement(e.module, w.end, terms)


def disjoint_union(f1: FiniteGroupoid, f2: FiniteGroupoid, name: str | None = None) -> FiniteGroupoid:
    """Place two groupoids side by side, prefixing names on collision."""
    def tag(needed, label, items):
        return {x: (f"{label}.{x}" if needed else x) for x in items}

    clash_obj = bool(set(f1.objects) & set(f2.objects))
    clash_arr = bool(set(f1.arrows) & set(f2.arrows))
    o1 = tag(clash_obj, "1", f1.objects)
    o2 = tag(clash_obj, "2", f2.objects)
    a1 = tag(clash_arr, "1", f1.arrows)
    a2 = tag(clash_arr, "2", f2.arrows)
    src = {a1[x]: o1[f1.src[x]] for x in f1.arrows}
    src.update({a2[x]: o2[f2.src[x]] for x in f2.arrows})
    dst = {a1[x]: o1[f1.dst[x]] for x in f1.arrows}
    dst.update({a2[x]: o2[f2.dst[x]] for x in f2.arrows})
    table = {(a1[x], a1[y]): a1[z] for (x, y), z in f1.table.items()}
    table.update({(a2[x], a2[y]): a2[z] for (x, y), z in f2.table.items()})
    identity = {o1[o]: a1[e] for o, e in f1.identity.items()}
    identity.update({o2[o]: a2[e] for o, e in f2.identity.items()})
    inverse = {a1[x]: a1[y] for x, y in f1.inverse.items()}
    inverse.update({a2[x]: a2[y] for x, y in f2.inverse.items()})
    return FiniteGroupoid(
        name or f"{f1.name}+{f2.name}",
        tuple(o1[x] for x in f1.objects) + tuple(o2[x] for x in f2.objects),
        tuple(a1[x] for x in f1.arrows) + tuple(a2[x] for x in f2.arrows),
        src,
        dst,
        table,
        identity,
        inverse,
    )


def interchange_check(x: Square, y: Square, z: Square, w: Square) -> bool:
    """Compare the two evaluation orders of the 2x2 arrangement [[x, y], [z, w]]."""
    if x.right != y.left or z.right != w.left:
        raise EdgeMismatch("rows of the 2x2 arrangement do not paste")
    if x.bottom != z.top or y.bottom != w.top:
        raise EdgeMismatch("columns of the 2x2 arrangement do not paste")
    rows_first = comp_v(comp_h(x, y), comp_h(z, w))
    cols_first = comp_h(comp_v(x, z), comp_v(y, w))
    return rows_first == cols_first


def reference_below(rng, sizes) -> list[int]:
    """One uniform int in [0, s) per s in ``sizes``, as ``draw_below`` draws
    it: per round one ``rng.randbytes``, a little-endian 32-bit word u per
    pending size in order; a size takes u * s // 2**32 unless
    u * s % 2**32 < 2**32 % s, and is pending again in the next round."""
    bad = [s for s in sizes if not 1 <= s <= 1 << 32]
    if bad:
        raise ValueError(f"cannot draw below {bad[0]}: sizes run 1..2**32")
    out, todo = [None] * len(sizes), list(range(len(sizes)))
    while todo:
        words = rng.randbytes(4 * len(todo))
        again = []
        for n, k in enumerate(todo):
            m = int.from_bytes(words[4 * n:4 * n + 4], "little") * sizes[k]
            if m % (1 << 32) >= (1 << 32) % sizes[k]:
                out[k] = m >> 32
            else:
                again.append(k)
        todo = again
    return out


def reference_draw_grids(model, rng, n, rows, cols) -> list:
    """``n`` grids of ``rows`` x ``cols`` squares, as nested lists, drawn as
    ``DgtModel.draw_grids`` draws them: per cell in row-major order, one
    pick for every grid among ``squares_with`` the edges of the cells to
    its left and above, all by one ``reference_below``.  PreconditionFailed,
    before that cell draws, where some grid has no square to pick."""
    grids = [[[None] * cols for _ in range(rows)] for _ in range(n)]
    for i, j in itertools.product(range(rows), range(cols)):
        options = []
        for g in grids:
            constraints = {}
            if j > 0:
                constraints["left"] = g[i][j - 1].right
            if i > 0:
                constraints["top"] = g[i - 1][j].bottom
            options.append(model.squares_with(**constraints))
        if not all(options):
            raise PreconditionFailed("no square matches the edge constraints")
        for g, o, k in zip(grids, options, reference_below(rng, [len(o) for o in options])):
            g[i][j] = o[k]
    return grids


def random_cut(rng):
    """Seeded random cut strategy for fold-order fuzzing."""

    def choose(r0, r1, c0, c1, depth):
        can_h = r1 - r0 > 1
        can_v = c1 - c0 > 1
        if can_h and (not can_v or rng.random() < 0.5):
            return ("h", rng.randrange(r0 + 1, r1))
        return ("v", rng.randrange(c0 + 1, c1))

    return choose


def is_reduced(w: Word) -> bool:
    return all(
        not (x[0] == y[0] and x[1] == -y[1])
        for x, y in zip(w.letters, w.letters[1:])
    )


def induce_element(e: ModuleElement, m_ind: FreeModule, f: GroupoidMorphism) -> ModuleElement:
    """Push a formal sum along the morphism used to induce the module."""
    terms: dict[Term, int] = {}
    for (gen, letters), c in e.terms.items():
        path = Word(e.module.site(gen), letters)
        moved = free_reduce(evaluate(f, path))
        key = (gen, moved.letters)
        terms[key] = terms.get(key, 0) + c
    return ModuleElement(m_ind, f.object_map[e.at], terms)


def identity_morphism(p: GroupoidPresentation) -> GroupoidMorphism:
    return GroupoidMorphism(
        f"id_{p.name}",
        p,
        p,
        {o: o for o in p.objects},
        {g.name: generator_word(g) for g in p.generators},
    )


def morphism_signature(gp, battery) -> tuple[int, ...]:
    """Morphism counts into a battery of finite groupoids.

    Agreement of signatures is the falsifiable stand-in for isomorphism of
    presentations used by all the cross-checks here.
    """
    return tuple(morphism_count(gp, f) for f in battery)


def _is_monoid(n: int, op: Table, e: int) -> bool:
    """``e`` is the first two-sided identity of ``op`` and ``op`` associates."""
    identities = [u for u in range(n) if all(op[u][x] == x and op[x][u] == x for x in range(n))]
    return identities[:1] == [e] and all(
        op[op[a][b]][c] == op[a][op[b][c]] for a in range(n) for b in range(n) for c in range(n))


@dataclass(frozen=True)
class MonoidPair:
    carrier: int
    op1: Table
    e1: int
    op2: Table
    e2: int

    def __post_init__(self):
        for op, e in ((self.op1, self.e1), (self.op2, self.e2)):
            if not _is_monoid(self.carrier, op, e):
                raise ValueError("not a monoid structure")
