"""Crossed modules over finite groupoids, with exhaustive axiom sweeps.

A crossed module here is a base groupoid P over objects S, one finite group
M(s) per object, a boundary mu: M(s) -> P(s, s), and a right action
(m, p) |-> m^p sending M(src p) to M(dst p).  The two defining rules are

    CM1:  mu(m^p) = p^-1 * mu(m) * p
    CM2:  n^-1 * m * n = m^(mu n)

and both are checked by plain enumeration, since everything is a table.

``sweep_crossed_module`` checks them on the module's one integer encoding
(``EncodedXmod``), which ``dgt.lambda_functor`` and ``dgt.SquareCode`` read,
in two steps: ``sweep_parts`` proves the base and the fibers, and
``sweep_mu_and_action`` checks mu, the action, CM1 and CM2 over their
encodings, all that a copy with another action needs.
"""

import itertools
import random
from dataclasses import dataclass, replace

from .errors import FiberMismatch, MissingEntry, NotASubgroup, NotNormal, PreconditionFailed, SizeLimit
from .finite import (
    Encoded,
    FiniteGroup,
    FiniteGroupoid,
    group_as_groupoid,
    isomorphisms,
    subgroup_table,
    sweep_group,
    sweep_groupoid,
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


@dataclass
class EncodedXmod:
    """A crossed module as plain int lists over its base's and fibers'
    ``finite.Encoded`` numberings: arrows and elements in declared order.

    ``fibers[o]`` encodes the fiber at object position ``o``.  Its element
    ``k`` is ``start[o] + k`` globally, in runs over the sorted objects,
    ``size`` in all; ``mu[o][k]`` is its boundary arrow, and ``act[p][k]``
    the position of ``m^p`` in the fiber at ``dst p``, for element ``k`` of
    the fiber at ``src p``.
    """

    base: Encoded
    fibers: list[Encoded]
    start: list[int]
    size: int
    mu: list[list[int]]
    act: list[list[int]]


def validate_crossed_module(x: CrossedModuleData) -> Report:
    return sweep_crossed_module(x)[0]


def sweep_crossed_module(x: CrossedModuleData) -> tuple[Report, EncodedXmod | None]:
    """Sweep every axiom; each failure is reported with a witness triple.
    Return the report and, once it is ok, the module's encoding."""
    report, parts = sweep_parts(x)
    return (report, None) if parts is None else sweep_mu_and_action(x, *parts)


def sweep_parts(x: CrossedModuleData) -> tuple[Report, tuple[Encoded, list[Encoded]] | None]:
    """Sweep the base and each fiber.  Return the report and, once it is ok,
    the base's encoding and the fibers' at each object position."""
    report = Report(f"xmod {x.name}")
    base_report, P = sweep_groupoid(x.base)
    if not base_report.ok:
        for v in base_report.violations:
            report.fail("base-" + v.law, v.witness)
        return report, None
    M = [None] * len(x.base.objects)  # the fiber's encoding at each object position
    for s in x.base.objects:
        if s not in x.fibers:
            report.fail("fibers", f"no fiber at object {s!r}")
            return report, None
        fib, M[P.obj_index[s]] = sweep_group(x.fibers[s])
        if not fib.ok:
            for v in fib.violations:
                report.fail("fiber-" + v.law, f"at {s!r}: {v.witness}")
            return report, None
    return report, (P, M)


def sweep_mu_and_action(x: CrossedModuleData, P: Encoded, M: list) -> tuple[Report, EncodedXmod | None]:
    """Sweep mu, the action, CM1 and CM2 of ``x`` as int lists over the
    encodings ``sweep_parts`` proved for its base and fibers (-1 for an entry
    that is missing or foreign); names are read back only for a witness.
    Return the report and, once it is ok, the module's encoding."""
    report = Report(f"xmod {x.name}")
    objects, arrows, rows = x.base.objects, P.names, P.rows

    # mu lands in vertex groups and is a homomorphism per object
    mu = [None] * len(objects)  # mu[o][m]: the arrow mu(m) at object position o
    for s in objects:
        o = P.obj_index[s]
        F = M[o]
        images = x.mu.get(s, {})
        mu_s = mu[o] = [P.index.get(images.get(m), -1) for m in F.names]
        report.count(len(F.names))
        for k, a in enumerate(mu_s):
            if a < 0 or P.src[a] != o or P.dst[a] != o:
                report.fail("mu-typing", f"mu({F.names[k]}) at {s!r} is not a loop at {s!r}")
        if report.violations:
            return report, None
        report.count(len(F.names) ** 2)
        for k, m in enumerate(F.names):
            row = rows[mu_s[k]]
            if [mu_s[mn] for mn in F.rows[k]] != [row[b] for b in mu_s]:
                for l, n in enumerate(F.names):
                    if mu_s[F.rows[k][l]] != row[mu_s[l]]:
                        report.fail("mu-homomorphism", f"mu({m}*{n}) != mu({m})mu({n}) at {s!r}")

    # action totality and typing; act[p][m]: the position of m^p in M(dst p)
    act = []
    for i, p in enumerate(arrows):
        F, t = M[P.src[i]], objects[P.dst[i]]
        index = M[P.dst[i]].index
        ap = [index.get(x.action.get((m, p)), -1) for m in F.names]
        act.append(ap)
        report.count(len(ap))
        if -1 in ap:
            for k, m in enumerate(F.names):
                if ap[k] < 0:
                    report.fail("action-typing", f"{m}^{p} missing or outside M({t!r})")
    if report.violations:
        return report, None

    # action laws: identity, composition, multiplicativity
    for s in objects:
        F = M[P.obj_index[s]]
        ae = act[P.unit[P.obj_index[s]]]
        report.count(len(ae))
        for k, m in enumerate(F.names):
            if ae[k] != k:
                report.fail("action-identity", f"{m}^id != {m} at {s!r}")
    for i, p in enumerate(arrows):
        ap, names = act[i], M[P.src[i]].names
        report.count(len(ap) * len(P.after[i]))
        for j in P.after[i]:
            apq, aq = act[rows[i][j]], act[j]
            if [aq[mp] for mp in ap] != apq:
                q = arrows[j]
                for k, m in enumerate(names):
                    if aq[ap[k]] != apq[k]:
                        report.fail("action-composition", f"({m}^{p})^{q} != {m}^({p}{q})")
    for i, p in enumerate(arrows):
        F, T, ap = M[P.src[i]], M[P.dst[i]], act[i]
        report.count(len(ap) ** 2)
        for k, m in enumerate(F.names):
            row = T.rows[ap[k]]
            if [ap[mn] for mn in F.rows[k]] != [row[b] for b in ap]:
                for l, n in enumerate(F.names):
                    if ap[F.rows[k][l]] != row[ap[l]]:
                        report.fail("action-multiplicative", f"({m}{n})^{p} != {m}^{p} {n}^{p}")

    # CM1: mu(m^p) = p^-1 mu(m) p
    for i, p in enumerate(arrows):
        F, ap = M[P.src[i]], act[i]
        mu_s, mu_t, back = mu[P.src[i]], mu[P.dst[i]], rows[P.inv[i]]
        report.count(len(ap))
        lhs = [mu_t[mp] for mp in ap]
        rhs = [rows[back[a]][i] for a in mu_s]
        if lhs != rhs:
            for k, m in enumerate(F.names):
                if lhs[k] != rhs[k]:
                    report.fail("CM1", f"mu({m}^{p}) = {arrows[lhs[k]]} but p^-1 mu({m}) p = {arrows[rhs[k]]}")

    # CM2: n^-1 m n = m^(mu n)
    for s in objects:
        F = M[P.obj_index[s]]
        mu_s, frows = mu[P.obj_index[s]], F.rows
        report.count(len(F.names) ** 2)
        by_mu = [act[a] for a in mu_s]  # by_mu[n]: the action of mu(n)
        for k, m in enumerate(F.names):
            lhs = [frows[frows[F.inv[l]][k]][l] for l in range(len(F.names))]
            rhs = [by_n[k] for by_n in by_mu]
            if lhs != rhs:
                for l, n in enumerate(F.names):
                    if lhs[l] != rhs[l]:
                        report.fail("CM2", f"n^-1 m n = {F.names[lhs[l]]} but {m}^mu({n}) = "
                                           f"{F.names[rhs[l]]}  (m={m}, n={n})")
    if report.violations:
        return report, None
    start, size = [0] * len(objects), 0
    for s in sorted(P.obj_index):
        o = P.obj_index[s]
        start[o], size = size, size + len(M[o].names)
    return report, EncodedXmod(P, M, start, size, mu, act)


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
    """All automorphisms of ``g`` (``finite.isomorphisms(g, g)``), sorted by
    their images of the sorted elements; SizeLimit above order 8."""
    if g.order() > 8:
        raise SizeLimit(f"automorphism search is limited to order <= 8, got {g.order()}")
    return sorted(isomorphisms(g, g), key=lambda phi: tuple(phi[x] for x in sorted(phi)))


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
