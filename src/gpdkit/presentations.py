"""Groupoid presentations: objects, generating arrows, relation pairs.

Relations are stored as pairs of coterminal words (``w1 = w2``) rather than
relators, since relators only make sense for loops.  Decidable normal forms
exist only for free presentations; presentations with relations get their
semantics through morphisms into finite groupoids.
"""

from collections import deque
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


def _components(p: GroupoidPresentation) -> list[set[str]]:
    adjacency: dict[str, set[str]] = {o: set() for o in p.objects}
    for g in p.generators:
        adjacency[g.src].add(g.dst)
        adjacency[g.dst].add(g.src)
    seen: set[str] = set()
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


def spanning_tree(p: GroupoidPresentation) -> set[ArrowGen]:
    """Breadth-first spanning tree from the lexicographically least object.

    Ties between candidate edges are broken by generator name, so the result
    is reproducible for a given presentation.  Raises Disconnected with the
    component list when no single tree can reach every object.
    """
    comps = _components(p)
    if len(comps) > 1:
        raise Disconnected(comps)
    incident: dict[str, list[ArrowGen]] = {o: [] for o in p.objects}
    for g in p.sorted_generators():
        incident[g.src].append(g)
        incident[g.dst].append(g)
    root = p.sorted_objects()[0]
    visited = {root}
    tree: set[ArrowGen] = set()
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
    component = next(c for c in _components(p) if base in c)
    incident: dict[str, list[ArrowGen]] = {o: [] for o in p.objects}
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
    # n - 1 edges on n reached objects rules out cycles and stray edges.
    if len(tree) != len(component) - 1:
        raise TreeInvalid(
            f"{len(tree)} edges cannot be a tree on {len(component)} objects"
        )
    return paths
