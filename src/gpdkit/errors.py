"""Exception hierarchy shared by all kernel modules."""


class GpdError(Exception):
    """Base class for every error raised by this package."""


# -- words and presentations -------------------------------------------------

class MalformedWord(GpdError):
    """Letters of a word do not chain head-to-tail."""


class EndpointMismatch(GpdError):
    """Source/target objects do not line up."""


class UndefinedGenerator(GpdError):
    """A word or map mentions a generator the presentation does not declare."""


class InvalidPresentation(GpdError):
    """Presentation-level invariant broken (duplicate names, bad relation, ...)."""


class Disconnected(GpdError):
    """The generator graph is not connected; carries the component list."""

    def __init__(self, components):
        self.components = [sorted(c) for c in components]
        super().__init__(f"generator graph is disconnected: {self.components}")


class TreeInvalid(GpdError):
    """The proposed edge set is not a spanning tree of the base component."""


class BaseNotInComponent(GpdError):
    """Requested base object lies outside the spanned component."""


# -- finite models and morphisms ---------------------------------------------

class InvalidMorphism(GpdError):
    """Morphism data violates endpoint compatibility or a relation."""


class NotASubgroup(GpdError):
    """Subset is not closed under multiplication/inverse."""


class NotNormal(GpdError):
    """Subgroup is not normal; carries a conjugation witness."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class FiberMismatch(GpdError):
    """Element does not belong to the fiber an operation expects."""


class SizeLimit(GpdError):
    """Input exceeds the documented brute-force bound."""


# -- squares, grids, cubes ---------------------------------------------------

class BoundaryMismatch(GpdError):
    """Square filler does not satisfy the boundary law."""


class EdgeMismatch(GpdError):
    """Adjacent squares disagree on a shared edge."""


class PreconditionFailed(GpdError):
    """An operation's stated precondition does not hold."""


class InvalidCrossedModule(GpdError):
    """Crossed-module axioms fail; carries the violation report."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"crossed module invalid: {report.summary()}")


class InvalidDgt(GpdError):
    """Double-groupoid model is structurally broken."""


# -- van Kampen engine -------------------------------------------------------

class InvalidSpan(GpdError):
    """Span legs are not morphisms out of the apex."""


class SiteUndefined(GpdError):
    """Module generator sits at an object the morphism does not map."""


class BaseMismatch(GpdError):
    """Module elements live over different modules or objects."""


# -- workspace / CLI ---------------------------------------------------------

class LocatedError(GpdError):
    """An error at a line of a workspace file; its message starts with ``path:line:``."""

    def __init__(self, path, line_no, message):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class ParseError(LocatedError):
    """A line does not parse, or its block does not build."""


class UnresolvedReference(LocatedError):
    """A line names an object that no block defines."""


class DuplicateName(LocatedError):
    """A block reuses the name of another block of its kind."""


class UnreadableWorkspace(GpdError):
    """A workspace file could not be opened or decoded."""


class UnknownCommand(GpdError):
    """CLI dispatch received a command it does not know."""
