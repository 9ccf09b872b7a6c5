"""Groupoid presentations: objects, generating arrows, relation pairs.

Relations are stored as pairs of coterminal words (``w1 = w2``) rather than
relators, since relators only make sense for loops.  Decidable normal forms
exist only for free presentations; presentations with relations get their
semantics through morphisms into finite groupoids.

Components, spanning trees and tree paths all read one breadth-first walk,
``_walk``, so they break ties between edges the same way.
"""

from dataclasses import dataclass

from .errors import (
    BaseNotInComponent,
    Disconnected,
    InvalidPresentation,
    TreeInvalid,
    UndefinedGenerator,
)
from .words import ArrowGen, Word


@dataclass(frozen=True)
class GroupoidPresentation:
    name: str
    objects: tuple[str, ...]
    generators: tuple[ArrowGen, ...] = ()
    relations: tuple[tuple[Word, Word], ...] = ()

    def __post_init__(self):
        if not self.objects:
            raise InvalidPresentation(f"{self.name}: a presentation needs at least one object")
        if len(set(self.objects)) != len(self.objects):
            raise InvalidPresentation(f"{self.name}: duplicate object names")
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise InvalidPresentation(f"{self.name}: duplicate generator names")
        objs = set(self.objects)
        for g in self.generators:
            if g.src not in objs or g.dst not in objs:
                raise InvalidPresentation(f"{self.name}: generator {g} uses undeclared objects")
        gens = set(self.generators)
        for lhs, rhs in self.relations:
            for w in (lhs, rhs):
                if w.base not in objs:
                    raise InvalidPresentation(f"{self.name}: relation word {w} based off-presentation")
                for gen, _ in w.letters:
                    if gen not in gens:
                        raise InvalidPresentation(
                            f"{self.name}: relation mentions unknown generator {gen.name}"
                        )
            if lhs.base != rhs.base or lhs.end != rhs.end:
                raise InvalidPresentation(
                    f"{self.name}: relation {lhs} = {rhs} is not coterminal"
                )

    def generator(self, name: str) -> ArrowGen:
        for g in self.generators:
            if g.name == name:
                return g
        raise UndefinedGenerator(f"{self.name}: no generator named {name!r}")

    def sorted_objects(self) -> list[str]:
        return sorted(self.objects)

    def sorted_generators(self) -> list[ArrowGen]:
        return sorted(self.generators, key=lambda g: g.name)

    def pretty(self) -> str:
        gens = ", ".join(g.name for g in self.sorted_generators())
        rels = ", ".join(f"{l} = {r}" for l, r in self.relations)
        return f"⟨{gens} | {rels}⟩"


def discrete_presentation(name: str, objects) -> GroupoidPresentation:
    """A presentation with no arrows at all (one identity per object)."""
    return GroupoidPresentation(name, tuple(objects))


def interval_groupoid() -> GroupoidPresentation:
    """Two objects 0, 1 and a single generating arrow ``i: 0 -> 1``.

    Free, so its groupoid has exactly four arrows: both identities, i and
    its inverse.  Despite the tiny size it is the basic transition operator
    and one leg of the two-base-point circle computation.
    """
    return GroupoidPresentation(
        "interval", ("0", "1"), (ArrowGen("i", "0", "1"),)
    )


def _walk(p: GroupoidPresentation, start: str, gens) -> dict[str, Word]:
    """Words from ``start`` to every object it reaches along ``gens``.

    Breadth first, one level at a time: a level's objects in name order, at
    each object its incident generators in name order, taken +1 at their
    source and -1 at their target.  The first word to reach an object wins;
    it extends its parent's word by one letter that cannot cancel (it leads
    to an object not yet reached), so each word is built once, reduced.
    """
    steps: dict[str, list] = {o: [] for o in p.objects}
    for g in sorted(gens, key=lambda g: g.name):
        steps[g.src].append((g, 1, g.dst))
        steps[g.dst].append((g, -1, g.src))
    words = {start: Word(start, ())}
    level = [start]
    while level:
        reached = []
        for v in sorted(level):
            for g, exp, other in steps[v]:
                if other not in words:
                    words[other] = Word(start, words[v].letters + ((g, exp),))
                    reached.append(other)
        level = reached
    return words


def _components(p: GroupoidPresentation) -> list[set[str]]:
    comps: list[set[str]] = []
    for start in p.sorted_objects():
        if not any(start in c for c in comps):
            comps.append(set(_walk(p, start, p.generators)))
    return comps


def spanning_tree(p: GroupoidPresentation) -> set[ArrowGen]:
    """Breadth-first spanning tree from the lexicographically least object.

    The tree edge into each object is the last letter of its ``_walk`` word,
    so ties are broken by generator name and the result is reproducible for
    a given presentation.  Raises Disconnected with the component list when
    no single tree can reach every object.
    """
    words = _walk(p, p.sorted_objects()[0], p.generators)
    if len(words) < len(p.objects):
        raise Disconnected(_components(p))
    return {w.letters[-1][0] for w in words.values() if w.letters}


def tree_paths(p: GroupoidPresentation, base: str, tree: set[ArrowGen]) -> dict[str, Word]:
    """Word from ``base`` to every object of its component through ``tree``.

    Validates that ``tree`` really is a spanning tree of the component of
    ``base``: a subset of the generators, cycle-free, and reaching every
    object of the component.
    """
    if base not in p.objects:
        raise BaseNotInComponent(f"object {base!r} not in presentation {p.name}")
    gens = set(p.generators)
    for g in tree:
        if g not in gens:
            raise TreeInvalid(f"edge {g.name} is not a generator of {p.name}")
    paths = _walk(p, base, tree)
    # the tree spans the component when no generator leaves what it reaches
    if any((g.src in paths) != (g.dst in paths) for g in p.generators):
        component = set(_walk(p, base, p.generators))
        raise TreeInvalid(
            f"tree does not span the component of {base!r}: "
            f"missing {sorted(component - set(paths))}"
        )
    # n - 1 edges on n reached objects rules out cycles and stray edges.
    if len(tree) != len(paths) - 1:
        raise TreeInvalid(
            f"{len(tree)} edges cannot be a tree on {len(paths)} objects"
        )
    return paths
