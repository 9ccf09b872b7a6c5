"""Pushouts of presented groupoids and vertex-group extraction.

The pushout of a span is computed syntactically: glue the object sets along
the apex, take all generators of both legs, and add one relation per apex
generator equating its two images.  Semantic questions (is this really the
pushout? are two presentations the same?) are settled by counting morphisms
into finite test groupoids, which is decidable and exactly what the
universal property asks for.
"""

import warnings
from collections import Counter
from dataclasses import dataclass

from .errors import InvalidSpan
from .finite import FiniteGroupoid
from .morphisms import (
    GroupoidMorphism,
    compose_morphisms,
    enumerate_morphisms,
    evaluate,
)
from .presentations import GroupoidPresentation, _components, spanning_tree, tree_paths
from .words import ArrowGen, Word, generator_word, inverse_letters, reduce_letters


@dataclass(frozen=True)
class Span:
    apex: GroupoidPresentation
    left: GroupoidMorphism
    right: GroupoidMorphism

    def __post_init__(self):
        for leg, label in ((self.left, "left"), (self.right, "right")):
            if leg.domain != self.apex:
                raise InvalidSpan(f"{label} leg is not defined on the apex")
            if not isinstance(leg.codomain, GroupoidPresentation):
                raise InvalidSpan(f"{label} leg must land in a presentation")


@dataclass(frozen=True)
class Pushout:
    presentation: GroupoidPresentation
    left_inclusion: GroupoidMorphism   # codomain(left leg) -> pushout
    right_inclusion: GroupoidMorphism  # codomain(right leg) -> pushout


def _fresh(name: str, taken: set[str]) -> str:
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def pushout(s: Span, name: str | None = None) -> Pushout:
    """Glue the two legs of a span over its apex.

    Objects identified through the apex share a name (the least original
    name of the class); unidentified name clashes between the legs get a
    prime appended on the right-hand copy.  Every apex generator contributes
    the relation "left image = right image".

    The syntactic pushout always exists.  When some component of a leg
    contains no image of an apex object, the glueing hypothesis behind the
    classical union theorem fails, so a warning is issued (the result is
    still returned).
    """
    g1: GroupoidPresentation = s.left.codomain
    g2: GroupoidPresentation = s.right.codomain
    legs = (("1", g1), ("2", g2))
    for leg, g in ((s.left, g1), (s.right, g2)):
        hit = {leg.object_map[o] for o in s.apex.objects}
        for comp in _components(g):
            if not (comp & hit):
                warnings.warn(
                    f"pushout leg {g.name!r} has a component {sorted(comp)} "
                    "not meeting the apex; the union theorem hypothesis fails",
                    stacklevel=2,
                )
    tagged = [(tag, o) for tag, g in legs for o in sorted(g.objects)]
    parent = {t: t for t in tagged}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for o in s.apex.objects:
        union(("1", s.left.object_map[o]), ("2", s.right.object_map[o]))
    classes: dict[tuple, list[tuple]] = {}
    for t in tagged:
        classes.setdefault(find(t), []).append(t)
    taken: set[str] = set()
    class_name: dict[tuple, str] = {}
    for root in sorted(classes, key=lambda r: (min(o for _, o in classes[r]), r)):
        class_name[root] = _fresh(min(o for _, o in classes[root]), taken)
    obj_name = {t: class_name[find(t)] for t in tagged}

    gen_taken: set[str] = set()
    new_gens: dict[tuple[str, str], ArrowGen] = {}
    for tag, g in legs:
        for gen in g.sorted_generators():
            nm = _fresh(gen.name, gen_taken)
            new_gens[(tag, gen.name)] = ArrowGen(
                nm, obj_name[(tag, gen.src)], obj_name[(tag, gen.dst)]
            )

    def move_word(tag: str, w: Word) -> Word:
        letters = tuple((new_gens[(tag, gen.name)], exp) for gen, exp in w.letters)
        return Word(obj_name[(tag, w.base)], letters)

    relations = []
    for tag, g in legs:
        for lhs, rhs in g.relations:
            relations.append((move_word(tag, lhs), move_word(tag, rhs)))
    for gen in s.apex.sorted_generators():
        w = generator_word(gen)
        relations.append(
            (move_word("1", evaluate(s.left, w)), move_word("2", evaluate(s.right, w)))
        )

    out = GroupoidPresentation(
        name or f"po({g1.name},{g2.name})",
        tuple(sorted({obj_name[t] for t in tagged})),
        tuple(new_gens[k] for k in sorted(new_gens)),
        tuple(relations),
    )
    left_inc, right_inc = (
        GroupoidMorphism(
            f"{g.name}->po",
            g,
            out,
            {o: obj_name[(tag, o)] for o in g.objects},
            {x.name: Word(obj_name[(tag, x.src)], ((new_gens[(tag, x.name)], 1),))
             for x in g.generators},
        )
        for tag, g in legs
    )
    return Pushout(out, left_inc, right_inc)


@dataclass
class UniversalVerdict:
    candidate_count: int
    pair_count: int
    bijective: bool

    @property
    def ok(self) -> bool:
        return self.bijective

    def __str__(self):
        state = "ok" if self.ok else "FAIL"
        return (
            f"universal property {state}: {self.candidate_count} morphisms "
            f"vs {self.pair_count} compatible cocones"
        )


def check_pushout_universal(s: Span, candidate: Pushout, test: FiniteGroupoid) -> UniversalVerdict:
    """Compare morphisms out of the candidate with compatible cocone pairs.

    Both sides are enumerated independently; the candidate passes when
    composing with its two inclusions realizes a bijection onto the set of
    leg pairs that agree on the apex.
    """
    morphs = enumerate_morphisms(candidate.presentation, test)
    realized = Counter()
    for phi in morphs:
        f = compose_morphisms(candidate.left_inclusion, phi)
        g = compose_morphisms(candidate.right_inclusion, phi)
        realized[(f.canonical(), g.canonical())] += 1

    g1: GroupoidPresentation = s.left.codomain
    g2: GroupoidPresentation = s.right.codomain
    pairs = set()
    apex_gens = [generator_word(g) for g in s.apex.sorted_generators()]
    for f in enumerate_morphisms(g1, test):
        for g in enumerate_morphisms(g2, test):
            if any(
                f.object_map[s.left.object_map[o]] != g.object_map[s.right.object_map[o]]
                for o in s.apex.objects
            ):
                continue
            if any(
                evaluate(f, evaluate(s.left, w)) != evaluate(g, evaluate(s.right, w))
                for w in apex_gens
            ):
                continue
            pairs.add((f.canonical(), g.canonical()))
    bijective = (
        len(morphs) == len(pairs)
        and all(v == 1 for v in realized.values())
        and set(realized) == pairs
    )
    return UniversalVerdict(len(morphs), len(pairs), bijective)


# -- vertex groups ---------------------------------------------------------------

@dataclass(frozen=True)
class GroupPresentation:
    """One-object presentation: generators plus relator loops."""

    name: str
    generators: tuple[str, ...]
    relators: tuple[tuple[tuple[str, int], ...], ...]

    def as_groupoid(self, obj: str = "*") -> GroupoidPresentation:
        gens = {g: ArrowGen(g, obj, obj) for g in self.generators}
        rels = []
        for rel in self.relators:
            w = Word(obj, tuple((gens[g], e) for g, e in rel))
            rels.append((w, Word(obj, ())))
        return GroupoidPresentation(self.name, (obj,), tuple(gens.values()), tuple(rels))

    def pretty(self) -> str:
        rels = ", ".join(
            ".".join(g if e == 1 else f"{g}^-1" for g, e in rel) or "1"
            for rel in self.relators
        )
        return f"⟨{', '.join(self.generators)} | {rels}⟩"


def vertex_group(p: GroupoidPresentation, base: str, tree=None,
                 name: str | None = None) -> GroupPresentation:
    """Loops at ``base`` presented through a spanning-tree retraction.

    Every non-tree generator g becomes a loop generator x_g (conjugated to
    the base along tree paths); relations rewrite by dropping tree letters.
    Generators and relations outside the base component do not contribute.
    """
    if tree is None:
        tree = spanning_tree(p)
    else:
        tree = set(tree)
    paths = tree_paths(p, base, tree)  # validates the tree
    component = set(paths)
    loop_gens = [
        g for g in p.sorted_generators()
        if g not in tree and g.src in component
    ]
    names = {g.name: f"x_{g.name}" for g in loop_gens}

    def retract(w: Word) -> tuple[tuple[str, int], ...]:
        return tuple(
            (names[gen.name], exp)
            for gen, exp in w.letters
            if gen.name in names
        )

    relators = []
    for lhs, rhs in p.relations:
        if lhs.base not in component:
            continue
        rel = reduce_letters(retract(lhs) + inverse_letters(retract(rhs)))
        if rel:
            relators.append(rel)
    return GroupPresentation(
        name or f"{p.name}@{base}",
        tuple(names[g.name] for g in loop_gens),
        tuple(relators),
    )


def tietze_simplify(gp: GroupPresentation) -> GroupPresentation:
    """Clean up a group presentation by the three safe moves, to a fixpoint.

    Moves, in deterministic order: freely reduce every relator, drop empty
    relators and duplicates, and delete any generator that occurs exactly
    once across all relators (its relator just defines it away).
    """

    generators = list(gp.generators)
    relators = list(gp.relators)
    changed = True
    while changed:
        changed = False
        cleaned = []
        seen = set()
        for rel in relators:
            red = reduce_letters(rel)
            if red and red not in seen:
                seen.add(red)
                cleaned.append(red)
        if cleaned != relators:
            relators = cleaned
            changed = True
        occurrences = Counter(g for rel in relators for g, _ in rel)
        for g in sorted(generators):
            if occurrences[g] == 1:
                relators = [rel for rel in relators if all(x != g for x, _ in rel)]
                generators = [x for x in generators if x != g]
                changed = True
                break
    return GroupPresentation(gp.name, tuple(generators), tuple(relators))


def morphism_count(gp: GroupPresentation | GroupoidPresentation, f: FiniteGroupoid) -> int:
    """Number of morphisms into a finite test groupoid."""
    p = gp.as_groupoid() if isinstance(gp, GroupPresentation) else gp
    return len(enumerate_morphisms(p, f))
