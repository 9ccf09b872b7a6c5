"""Morphisms out of a presented groupoid.

The codomain is either another presentation (images are words) or a finite
groupoid (images are arrows, and relations are checked at construction time
since equality there is decidable).
"""

import itertools
from dataclasses import dataclass

from .errors import EndpointMismatch, InvalidMorphism, UndefinedGenerator
from .finite import FiniteGroupoid
from .presentations import GroupoidPresentation
from .words import Word, inverse_letters, reduce_letters


@dataclass(frozen=True, eq=False)
class GroupoidMorphism:
    """Object and generator assignment, endpoint-compatible by construction."""

    name: str
    domain: GroupoidPresentation
    codomain: GroupoidPresentation | FiniteGroupoid
    object_map: dict[str, str]
    gen_map: dict[str, Word | str]

    def __post_init__(self):
        dom = self.domain
        cod = self.codomain
        for o in dom.objects:
            if o not in self.object_map:
                raise InvalidMorphism(f"{self.name}: object {o!r} has no image")
            target = self.object_map[o]
            cod_objects = cod.objects
            if target not in cod_objects:
                raise InvalidMorphism(f"{self.name}: image object {target!r} undeclared")
        for g in dom.generators:
            if g.name not in self.gen_map:
                raise InvalidMorphism(f"{self.name}: generator {g.name} has no image")
            image = self.gen_map[g.name]
            if isinstance(cod, FiniteGroupoid):
                if image not in cod.arrows:
                    raise InvalidMorphism(f"{self.name}: {g.name} -> {image} is not an arrow")
                s, t = cod.src[image], cod.dst[image]
            else:
                if not isinstance(image, Word):
                    raise InvalidMorphism(f"{self.name}: image of {g.name} must be a word")
                s, t = image.base, image.end
            if (s, t) != (self.object_map[g.src], self.object_map[g.dst]):
                raise EndpointMismatch(
                    f"{self.name}: image of {g.name} runs {s} -> {t}, "
                    f"expected {self.object_map[g.src]} -> {self.object_map[g.dst]}"
                )
        if isinstance(cod, FiniteGroupoid):
            for lhs, rhs in dom.relations:
                if evaluate(self, lhs) != evaluate(self, rhs):
                    raise InvalidMorphism(
                        f"{self.name}: relation {lhs} = {rhs} not preserved"
                    )

    @classmethod
    def _trusted(cls, name, domain, codomain, object_map, gen_map) -> "GroupoidMorphism":
        """A morphism whose caller built every image and checked every
        relation: the same fields, without ``__post_init__``'s second pass."""
        m = object.__new__(cls)
        m.__dict__.update(name=name, domain=domain, codomain=codomain,
                          object_map=object_map, gen_map=gen_map)
        return m

    def canonical(self):
        """Hashable form used to compare morphisms into finite targets."""
        gm = []
        for k in sorted(self.gen_map):
            v = self.gen_map[k]
            gm.append((k, v if isinstance(v, str) else (v.base, v.letters)))
        return (
            self.domain.name,
            self.codomain.name,
            tuple(sorted(self.object_map.items())),
            tuple(gm),
        )


def evaluate(m: GroupoidMorphism, w: Word):
    """Image of a word; a reduced word or an arrow depending on the codomain.

    Respects composition and inverses: the image of ``w1 * w2`` is the
    composite of the images.  Into a presentation, the whole word's image
    letters are reduced once, into one ``Word``.
    """
    if w.base not in m.object_map:
        raise EndpointMismatch(f"word base {w.base!r} not in domain of {m.name}")
    for gen, _ in w.letters:
        if gen not in m.domain.generators:
            raise UndefinedGenerator(f"{m.name}: {gen} is not a generator of {m.domain.name}")
    cod = m.codomain
    if isinstance(cod, FiniteGroupoid):
        return _arrow(cod, m.object_map, m.gen_map, w)
    letters = []
    for gen, exp in w.letters:
        image = m.gen_map[gen.name].letters
        letters += image if exp == 1 else inverse_letters(image)
    return Word(m.object_map[w.base], reduce_letters(letters))


def _arrow(f: FiniteGroupoid, object_map: dict[str, str], gen_map: dict[str, str],
           w: Word) -> str:
    """The arrow of ``f`` that ``w`` names once its generators map to arrows."""
    out = f.id_at(object_map[w.base])
    for gen, exp in w.letters:
        arrow = gen_map[gen.name]
        out = f.compose(out, arrow if exp == 1 else f.inv(arrow))
    return out


def compose_morphisms(f: GroupoidMorphism, g: GroupoidMorphism, name: str | None = None) -> GroupoidMorphism:
    """The composite ``f`` then ``g`` (so g's domain is f's codomain)."""
    if f.codomain is not g.domain and f.codomain != g.domain:
        raise InvalidMorphism(
            f"cannot compose {f.name} then {g.name}: codomain/domain differ"
        )
    return GroupoidMorphism(
        name or f"{f.name};{g.name}",
        f.domain,
        g.codomain,
        {o: g.object_map[f.object_map[o]] for o in f.domain.objects},
        {k: evaluate(g, w) for k, w in f.gen_map.items()},
    )


def enumerate_morphisms(p: GroupoidPresentation, f: FiniteGroupoid) -> list[GroupoidMorphism]:
    """All morphisms ``p -> f`` in a deterministic canonical order.

    Objects and generators are scanned in name order and candidate images in
    sorted order, so two runs (and two machines) agree on the output list.
    """
    objects = p.sorted_objects()
    generators = p.sorted_generators()
    targets = sorted(f.objects)
    found: list[GroupoidMorphism] = []
    for obj_images in itertools.product(targets, repeat=len(objects)):
        object_map = dict(zip(objects, obj_images))
        choice_lists = [
            f.hom(object_map[g.src], object_map[g.dst]) for g in generators
        ]
        if any(not c for c in choice_lists):
            continue
        for gen_images in itertools.product(*choice_lists):
            gen_map = dict(zip((g.name for g in generators), gen_images))
            if all(_arrow(f, object_map, gen_map, lhs) == _arrow(f, object_map, gen_map, rhs)
                   for lhs, rhs in p.relations):
                found.append(GroupoidMorphism._trusted(
                    f"{p.name}->{f.name}#{len(found)}", p, f, object_map, gen_map
                ))
    return found
