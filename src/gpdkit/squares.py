"""Filled squares over a crossed module and their two compositions.

A square is a fiber element together with four base arrows:

            top
        w --------> x
        |           |
   left |           | right        edges run top-to-bottom and
        v           v              left-to-right
        y --------> z
           bottom

The fiber element lives at the bottom-right object z, and the boundary law
reads clockwise from z:  mu(elt) = bottom^-1 * left^-1 * top * right.

A ``Square`` is an immutable named tuple ``(xm, elt, top, right, bottom,
left)``.  Its equality reads module identity: two squares are equal when
they lie over the same crossed-module object (``is``) and share ``key()``,
and a square never equals a plain tuple.

Horizontal composition pastes along a shared vertical edge with element
(n^b) * m  (n the left element, b the right square's bottom, m the right
element); vertical composition pastes along a shared horizontal edge with
element  m * (u^d)  (u upper, m lower, d the lower square's right edge).
"""

from collections import namedtuple

from .crossed import CrossedModuleData
from .errors import BoundaryMismatch, EdgeMismatch, EndpointMismatch


class Square(namedtuple("Square", "xm elt top right bottom left")):
    __slots__ = ()

    def key(self):
        return self[1:]

    def __eq__(self, other):
        if isinstance(other, Square):
            return self.xm is other.xm and tuple.__eq__(self, other)
        # NotImplemented would let a plain tuple compare field by field
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):  # tuple's own != would compare xm by value
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((id(self.xm), self[1:]))

    def __str__(self):
        return f"({self.elt}; {self.top},{self.right},{self.bottom},{self.left})"

    @property
    def corner_se(self) -> str:
        return self.xm.base.dst[self.right]


def boundary_word(xm: CrossedModuleData, top: str, right: str, bottom: str, left: str) -> str:
    """The clockwise boundary bottom^-1 * left^-1 * top * right in P."""
    P = xm.base
    return P.compose(P.compose(P.compose(P.inv(bottom), P.inv(left)), top), right)


def make_square(xm: CrossedModuleData, elt: str, top: str, right: str,
                bottom: str, left: str) -> Square:
    P = xm.base
    for e in (top, right, bottom, left):
        if e not in P.arrows:
            raise EndpointMismatch(f"{e!r} is not an arrow of {P.name}")
    if P.src[top] != P.src[left]:
        raise EndpointMismatch("top and left must start at the same corner")
    if P.dst[top] != P.src[right]:
        raise EndpointMismatch("right must start where top ends")
    if P.dst[left] != P.src[bottom]:
        raise EndpointMismatch("bottom must start where left ends")
    if P.dst[bottom] != P.dst[right]:
        raise EndpointMismatch("bottom and right must end at the same corner")
    z = P.dst[right]
    if z not in xm.fibers or elt not in xm.fibers[z].elements:
        raise BoundaryMismatch(f"element {elt!r} is not in the fiber at {z!r}")
    want = boundary_word(xm, top, right, bottom, left)
    have = xm.boundary(z, elt)
    if have != want:
        raise BoundaryMismatch(
            f"mu({elt}) = {have} but bottom^-1 left^-1 top right = {want}"
        )
    return Square(xm, elt, top, right, bottom, left)


def thin_square(xm: CrossedModuleData, top: str, right: str, bottom: str, left: str) -> Square:
    """The unique thin filler of a commuting boundary."""
    z = xm.base.dst[right]
    return make_square(xm, xm.fibers[z].identity, top, right, bottom, left)


def is_thin(s: Square) -> bool:
    return s.elt == s.xm.fibers[s.corner_se].identity


def comp_h(left: Square, right: Square) -> Square:
    """Horizontal pasting (the direction-2 composition)."""
    if left.xm is not right.xm:
        raise EdgeMismatch("squares live over different crossed modules")
    if left.right != right.left:
        raise EdgeMismatch(
            f"shared vertical edge differs: {left.right} vs {right.left}"
        )
    xm = left.xm
    P = xm.base
    alpha = xm.fibers[right.corner_se].mul(
        xm.act(left.elt, right.bottom), right.elt
    )
    return Square(
        xm,
        alpha,
        P.compose(left.top, right.top),
        right.right,
        P.compose(left.bottom, right.bottom),
        left.left,
    )


def comp_v(upper: Square, lower: Square) -> Square:
    """Vertical pasting (the direction-1 composition)."""
    if upper.xm is not lower.xm:
        raise EdgeMismatch("squares live over different crossed modules")
    if upper.bottom != lower.top:
        raise EdgeMismatch(
            f"shared horizontal edge differs: {upper.bottom} vs {lower.top}"
        )
    xm = upper.xm
    P = xm.base
    beta = xm.fibers[lower.corner_se].mul(
        lower.elt, xm.act(upper.elt, lower.right)
    )
    return Square(
        xm,
        beta,
        upper.top,
        P.compose(upper.right, lower.right),
        lower.bottom,
        P.compose(upper.left, lower.left),
    )


def inv_h(s: Square) -> Square:
    """Two-sided inverse for horizontal pasting."""
    xm = s.xm
    P = xm.base
    fib = xm.fibers[s.corner_se]
    elt = xm.act(fib.inv(s.elt), P.inv(s.bottom))
    return Square(xm, elt, P.inv(s.top), s.left, P.inv(s.bottom), s.right)


def inv_v(s: Square) -> Square:
    """Two-sided inverse for vertical pasting."""
    xm = s.xm
    P = xm.base
    fib = xm.fibers[s.corner_se]
    elt = xm.act(fib.inv(s.elt), P.inv(s.right))
    return Square(xm, elt, s.bottom, P.inv(s.right), s.top, P.inv(s.left))


def transpose(s: Square) -> Square:
    """Reflect across the main diagonal; an involution on valid squares."""
    xm = s.xm
    return Square(
        xm,
        xm.fibers[s.corner_se].inv(s.elt),
        s.left,
        s.bottom,
        s.right,
        s.top,
    )


def eps_v(xm: CrossedModuleData, g: str) -> Square:
    """Degenerate square with top = bottom = g; the unit for comp_v."""
    P = xm.base
    return thin_square(xm, g, P.id_at(P.dst[g]), g, P.id_at(P.src[g]))


def eps_h(xm: CrossedModuleData, h: str) -> Square:
    """Degenerate square with left = right = h; the unit for comp_h."""
    P = xm.base
    return thin_square(xm, P.id_at(P.src[h]), h, P.id_at(P.dst[h]), h)


def conn_minus(xm: CrossedModuleData, a: str) -> Square:
    """Connection with the two *upper-left* edges equal to ``a``."""
    P = xm.base
    e = P.id_at(P.dst[a])
    return thin_square(xm, a, e, e, a)


def conn_plus(xm: CrossedModuleData, a: str) -> Square:
    """Connection with the two *lower-right* edges equal to ``a``."""
    P = xm.base
    e = P.id_at(P.src[a])
    return thin_square(xm, e, a, a, e)


def identity_square(xm: CrossedModuleData, obj: str) -> Square:
    e = xm.base.id_at(obj)
    return thin_square(xm, e, e, e, e)


def recheck_boundary(s: Square) -> bool:
    """Construction-independent re-evaluation of the boundary law."""
    xm, elt, top, right, bottom, left = s
    return xm.boundary(xm.base.dst[right], elt) == boundary_word(xm, top, right, bottom, left)
