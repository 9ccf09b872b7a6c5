"""Crossed modules over finite groupoids, with exhaustive axiom sweeps.

A crossed module here is a base groupoid P over objects S, one finite group
M(s) per object, a boundary mu: M(s) -> P(s, s), and a right action
(m, p) |-> m^p sending M(src p) to M(dst p).  The two defining rules are

    CM1:  mu(m^p) = p^-1 * mu(m) * p
    CM2:  n^-1 * m * n = m^(mu n)

and both are checked by plain enumeration, since everything is a table.
"""

import itertools
import random
from dataclasses import dataclass, replace

from .errors import FiberMismatch, MissingEntry, NotASubgroup, NotNormal, PreconditionFailed, SizeLimit
from .finite import (
    FiniteGroup,
    FiniteGroupoid,
    group_as_groupoid,
    subgroup_table,
    validate_finite_group,
    validate_finite_groupoid,
)
from .report import Report


@dataclass
class CrossedModuleData:
    name: str
    base: FiniteGroupoid                     # P
    fibers: dict[str, FiniteGroup]           # object -> M(s)
    mu: dict[str, dict[str, str]]            # object -> element -> loop arrow
    action: dict[tuple[str, str], str]       # (element of M(src p), arrow p) -> element

    def boundary(self, obj: str, m: str) -> str:
        try:
            return self.mu[obj][m]
        except KeyError:
            raise MissingEntry(f"{self.name} has no boundary of {m} at {obj!r}") from None

    def act(self, m: str, p: str) -> str:
        """Apply the stored action ``m^p`` where p runs src -> dst."""
        s = self.base.src[p]
        if s not in self.fibers or m not in self.fibers[s].elements:
            raise FiberMismatch(
                f"{self.name}: element {m!r} is not in the fiber at {s!r}"
            )
        try:
            return self.action[(m, p)]
        except KeyError:
            raise MissingEntry(f"{self.name} has no action {m}^{p}") from None


def validate_crossed_module(x: CrossedModuleData) -> Report:
    """Sweep every axiom; each failure is reported with a witness triple."""
    report = Report(f"xmod {x.name}")
    base_report = validate_finite_groupoid(x.base)
    if not base_report.ok:
        for v in base_report.violations:
            report.fail("base-" + v.law, v.witness)
        return report
    P = x.base
    for s in P.objects:
        if s not in x.fibers:
            report.fail("fibers", f"no fiber at object {s!r}")
            return report
        fib = validate_finite_group(x.fibers[s])
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


# -- constructors ---------------------------------------------------------------

def from_normal_subgroup(g: FiniteGroup, subset, name: str | None = None) -> CrossedModuleData:
    """Inclusion of a normal subgroup with the conjugation action."""
    subset = set(subset)
    for m in subset:
        if m not in g.elements:
            raise NotASubgroup(f"{m!r} is not an element of {g.name}")
    if g.identity not in subset:
        raise NotASubgroup("subset does not contain the identity")
    for m, n in itertools.product(sorted(subset), repeat=2):
        if g.mul(m, n) not in subset:
            raise NotASubgroup(f"not closed: {m}*{n} escapes the subset")
    for m in subset:
        if g.inv(m) not in subset:
            raise NotASubgroup(f"not closed under inverse: {m}")
    for p in g.elements:
        for m in sorted(subset):
            if g.conj(m, p) not in subset:
                raise NotNormal(
                    f"{p}^-1 {m} {p} = {g.conj(m, p)} leaves the subset",
                    witness=(m, p),
                )
    obj = "*"
    base = group_as_groupoid(g, obj)
    M = subgroup_table(g, subset, name=f"{g.name}_sub")
    action = {
        (m, p): g.conj(m, p) for m in M.elements for p in g.elements
    }
    return CrossedModuleData(
        name or f"{g.name}_normal",
        base,
        {obj: M},
        {obj: {m: m for m in M.elements}},
        action,
    )


def trivial_crossed_module(base: FiniteGroupoid, name: str | None = None) -> CrossedModuleData:
    """One-element fibers everywhere; mu sends everything to identities."""
    fibers = {}
    mu = {}
    action = {}
    for s in base.objects:
        e = "e"
        fibers[s] = FiniteGroup(f"triv@{s}", (e,), {(e, e): e}, e, {e: e})
        mu[s] = {e: base.id_at(s)}
    for p in base.arrows:
        action[("e", p)] = "e"
    return CrossedModuleData(name or f"triv_over_{base.name}", base, fibers, mu, action)


def automorphisms(g: FiniteGroup) -> list[dict[str, str]]:
    """All automorphisms of ``g`` by brute force over bijections."""
    if g.order() > 8:
        raise SizeLimit(f"automorphism search is limited to order <= 8, got {g.order()}")
    elems = list(g.elements)
    others = [x for x in elems if x != g.identity]
    found = []
    for images in itertools.permutations(others):
        phi = dict(zip(others, images))
        phi[g.identity] = g.identity
        if all(
            phi[g.mul(a, b)] == g.mul(phi[a], phi[b])
            for a in elems
            for b in elems
        ):
            found.append(phi)
    found.sort(key=lambda phi: tuple(phi[x] for x in sorted(phi)))
    return found


def automorphism_xmod(g: FiniteGroup) -> CrossedModuleData:
    """The crossed module g -> Aut(g): mu is inner conjugation, phi acts by
    evaluation, and Aut(g) composes left to right like everything else."""
    auts = automorphisms(g)
    names = [f"aut{i}" for i in range(len(auts))]
    by_name = dict(zip(names, auts))

    def aut_key(phi):
        return tuple(phi[x] for x in sorted(phi))

    index = {aut_key(phi): nm for nm, phi in by_name.items()}

    def compose(nm1, nm2):
        # left-to-right: apply nm1 first
        phi1, phi2 = by_name[nm1], by_name[nm2]
        return index[aut_key({x: phi2[phi1[x]] for x in phi1})]

    table = {(a, b): compose(a, b) for a in names for b in names}
    ident = index[aut_key({x: x for x in g.elements})]
    inverse = {}
    for nm in names:
        phi = by_name[nm]
        inverse[nm] = index[aut_key({phi[x]: x for x in phi})]
    P = FiniteGroup(f"aut_{g.name}", tuple(names), table, ident, inverse)
    obj = "*"
    base = group_as_groupoid(P, obj)
    inner = {}
    for m in g.elements:
        key = aut_key({x: g.conj(x, m) for x in g.elements})
        if key not in index:
            raise PreconditionFailed(f"conjugation by {m} is not an automorphism of {g.name}")
        inner[m] = index[key]
    action = {
        (m, nm): by_name[nm][m] for m in g.elements for nm in names
    }
    return CrossedModuleData(
        f"aut_xmod_{g.name}",
        base,
        {obj: g},
        {obj: inner},
        action,
    )


# -- perturbation fuzzing ---------------------------------------------------------

def perturb_action_entry(x: CrossedModuleData, rng: random.Random) -> CrossedModuleData:
    """Copy ``x`` with one action-table entry flipped to a different element.

    Raises PreconditionFailed when no entry can change."""
    keys = sorted(x.action)
    if not any(v != x.action[(m, p)] for m, p in keys for v in x.fibers[x.base.dst[p]].elements):
        raise PreconditionFailed(f"{x.name}: no action entry has a second value")
    while True:
        m, p = keys[rng.randrange(len(keys))]
        t = x.base.dst[p]
        candidates = [v for v in x.fibers[t].elements if v != x.action[(m, p)]]
        if candidates:
            break
    new_action = dict(x.action)
    new_action[(m, p)] = candidates[rng.randrange(len(candidates))]
    return replace(x, name=f"{x.name}~perturbed", action=new_action)
