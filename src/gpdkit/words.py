"""Words in a free groupoid on a directed graph of generating arrows.

A word starts at a base object and walks along signed generators; the empty
word is the identity at its base.  Composition is written left to right:
``w1 * w2`` means "do w1, then w2".
"""

from dataclasses import dataclass

from .errors import EndpointMismatch, MalformedWord


@dataclass(frozen=True, order=True)
class ArrowGen:
    """A named generating arrow between two objects."""

    name: str
    src: str
    dst: str

    def __str__(self):
        return f"{self.name}: {self.src} -> {self.dst}"


Letter = tuple[ArrowGen, int]


def letter_src(letter: Letter) -> str:
    gen, exp = letter
    return gen.src if exp == 1 else gen.dst


def letter_dst(letter: Letter) -> str:
    gen, exp = letter
    return gen.dst if exp == 1 else gen.src


@dataclass(frozen=True)
class Word:
    """A composable chain of signed generators starting at ``base``.

    >>> a = ArrowGen("a", "0", "1")
    >>> w = Word("0", ((a, 1), (a, -1)))
    >>> str(free_reduce(w))
    'id(0)'
    """

    base: str
    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        at = self.base
        for gen, exp in self.letters:
            if exp not in (1, -1):
                raise MalformedWord(f"exponent {exp} on {gen.name} (must be +1/-1)")
            if letter_src((gen, exp)) != at:
                raise MalformedWord(
                    f"letter {gen.name}^{exp} starts at "
                    f"{letter_src((gen, exp))}, expected {at}"
                )
            at = letter_dst((gen, exp))

    @property
    def end(self) -> str:
        return letter_dst(self.letters[-1]) if self.letters else self.base

    def is_empty(self) -> bool:
        return not self.letters

    def __mul__(self, other: "Word") -> "Word":
        return word_compose(self, other)

    def __invert__(self) -> "Word":
        return word_inverse(self)

    def __str__(self):
        if not self.letters:
            return f"id({self.base})"
        return ".".join(
            gen.name if exp == 1 else f"{gen.name}^-1" for gen, exp in self.letters
        )


def identity_word(obj: str) -> Word:
    return Word(obj, ())


def generator_word(gen: ArrowGen, exp: int = 1) -> Word:
    return Word(letter_src((gen, exp)), ((gen, exp),))


def free_reduce(w: Word) -> Word:
    """Cancel adjacent ``g g^-1`` / ``g^-1 g`` pairs until none remain.

    The result is the unique freely reduced word equal to ``w``; applying
    ``free_reduce`` again is a no-op.
    """
    return Word(w.base, reduce_letters(w.letters))


def reduce_letters(letters) -> tuple:
    """Cancel adjacent ``(g, e), (g, -e)`` pairs; ``g`` may be any label."""
    stack = []
    for letter in letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def word_compose(w1: Word, w2: Word) -> Word:
    """Concatenate two words and reduce the letters once, into one ``Word``."""
    if w1.end != w2.base:
        raise EndpointMismatch(
            f"cannot compose: {w1} ends at {w1.end}, {w2} starts at {w2.base}"
        )
    return Word(w1.base, reduce_letters(w1.letters + w2.letters))


def inverse_letters(letters) -> tuple:
    """Reverse the letters and flip every exponent; any labels will do."""
    return tuple((gen, -exp) for gen, exp in reversed(letters))


def word_inverse(w: Word) -> Word:
    """Reverse the letters and flip every exponent."""
    return Word(w.end, inverse_letters(w.letters))
