"""Free modules over a free groupoid presentation, as formal sums.

An element at an object v is an integer combination of pairs (generator,
path), where the path is a freely reduced word from the generator's site to
v.  Arrows act on the right by composing the path; the action by w is undone
by w^-1.  Only relation-free base presentations are supported, keeping
coefficient words in normal form.
"""

from dataclasses import dataclass, field

from .errors import BaseMismatch, SiteUndefined
from .morphisms import GroupoidMorphism
from .presentations import GroupoidPresentation
from .words import Word, reduce_letters


@dataclass(frozen=True)
class FreeModule:
    name: str
    base: GroupoidPresentation
    generators: tuple[tuple[str, str], ...]  # (generator name, site object)

    def __post_init__(self):
        if self.base.relations:
            raise BaseMismatch(
                f"{self.name}: free modules need a relation-free base presentation"
            )
        names = [g for g, _ in self.generators]
        if len(set(names)) != len(names):
            raise BaseMismatch(f"{self.name}: duplicate module generator names")
        for g, site in self.generators:
            if site not in self.base.objects:
                raise SiteUndefined(f"{self.name}: generator {g} sits at unknown {site!r}")

    def rank(self) -> int:
        return len(self.generators)

    def site(self, gen: str) -> str:
        for g, s in self.generators:
            if g == gen:
                return s
        raise SiteUndefined(f"{self.name}: no module generator {gen!r}")

    def zero(self, at: str) -> "ModuleElement":
        return ModuleElement(self, at, {})

    def basis_element(self, gen: str) -> "ModuleElement":
        site = self.site(gen)
        key = (gen, ())
        return ModuleElement(self, site, {key: 1})


Term = tuple[str, tuple]  # (generator name, letters of the coefficient word)


@dataclass(frozen=True, eq=False)
class ModuleElement:
    """Formal sum sited at one object; keys pair a generator with a path."""

    module: FreeModule
    at: str
    terms: dict[Term, int] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {k: c for k, c in self.terms.items() if c != 0}
        object.__setattr__(self, "terms", cleaned)

    def _check_mate(self, other: "ModuleElement"):
        if self.module != other.module or self.at != other.at:
            raise BaseMismatch(
                f"elements live at {self.module.name}@{self.at} "
                f"vs {other.module.name}@{other.at}"
            )

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        self._check_mate(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return ModuleElement(self.module, self.at, terms)

    def __neg__(self) -> "ModuleElement":
        return ModuleElement(self.module, self.at, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + (-other)

    def __rmul__(self, n: int) -> "ModuleElement":
        return ModuleElement(self.module, self.at, {k: n * c for k, c in self.terms.items()})

    def acted(self, w: Word) -> "ModuleElement":
        """Right action by an arrow word ``w`` starting at this element's site;
        each term's path and ``w`` are reduced once, with no ``Word`` per term."""
        if w.base != self.at:
            raise BaseMismatch(f"action word starts at {w.base!r}, element sits at {self.at!r}")
        terms: dict[Term, int] = {}
        for (gen, letters), c in self.terms.items():
            key = (gen, reduce_letters(letters + w.letters))
            terms[key] = terms.get(key, 0) + c
        return ModuleElement(self.module, w.end, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, ModuleElement):
            return NotImplemented
        return (
            self.module == other.module
            and self.at == other.at
            and self.terms == other.terms
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (gen, letters), c in sorted(self.terms.items()):
            w = Word(self.module.site(gen), letters)
            path = "" if w.is_empty() else f"·{w}"
            parts.append(f"{c}{gen}{path}" if c != 1 else f"{gen}{path}")
        return " + ".join(parts)


def induce_free_module(m: FreeModule, f: GroupoidMorphism, name: str | None = None) -> FreeModule:
    """Re-site a free module along a morphism of its base.

    Freeness and the generator list are preserved; each generator moves to
    the image of its site.
    """
    if f.domain != m.base:
        raise BaseMismatch(f"morphism {f.name} is not defined on {m.base.name}")
    if not isinstance(f.codomain, GroupoidPresentation):
        raise BaseMismatch("free modules live over presentations, not finite groupoids")
    sites = []
    for g, site in m.generators:
        if site not in f.object_map:
            raise SiteUndefined(f"site {site!r} of {g} has no image under {f.name}")
        sites.append((g, f.object_map[site]))
    return FreeModule(name or f"{m.name}*{f.name}", f.codomain, tuple(sites))
