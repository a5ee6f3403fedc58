"""Letter-injection morphisms, their compositions, and morphic image streams.

The generator morphism for a letter ``a`` fixes ``a`` and prepends ``a`` to
every other letter.  Compositions of these generators form a monoid acting on
words and streams.  Every stream kind states its own image as a stream of
the same kind (``WordStream._image``), and ``apply`` returns it: a standard
episturmian word's image is the standard word of its directive with the
generators prepended, and a literal or concatenated word's image maps its
finite parts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .words import Alphabet, AlphabetError, Word, WordStream, _check_indices

if TYPE_CHECKING:
    from .engine import DirectiveWord

__all__ = [
    "MorphicImageStream",
    "PureEpistandardMorphism",
    "identity",
    "psi",
]


@dataclass(frozen=True)
class PureEpistandardMorphism:
    """A composition of generator morphisms, outermost generator first.

    ``letters = (z1, ..., zn)`` denotes the map that applies the ``zn``
    generator first and the ``z1`` generator last; ``letters = ()`` is the
    identity.  Images are non-empty (non-erasing), and for ``n >= 1`` the
    image of every letter begins with ``z1``.
    """

    alphabet: Alphabet
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_indices(self.alphabet, self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def generator_tokens(self) -> tuple[str, ...]:
        return tuple(self.alphabet.letters[z] for z in self.letters)

    def __repr__(self) -> str:
        if self.is_identity:
            return "Morphism(id)"
        return f"Morphism(psi:{','.join(self.generator_tokens())})"

    def _map_text(self, text: str) -> str:
        """The image of a ``chr`` text, one pass per generator, innermost
        first: the generator of ``z`` is ``text.replace(y, z + y)`` for each
        other letter y present, whose inserted z's no later replace touches."""
        present = set(text)
        for z in [chr(c) for c in reversed(self.letters)]:
            for y in present - {z}:
                text = text.replace(y, z + y)
            present.add(z)
        return text

    def _image_size(self, text: str) -> int:
        """The image length of a ``chr`` text, from letter counts: no image is built."""
        return sum(n * image_length(self, ord(c)) for c, n in Counter(text).items())

    def apply(self, w: "Word | WordStream") -> "Word | WordStream":
        """The image of a word or stream, as its own kind states it (``_image``):
        a word's is its mapped text (:meth:`Word._image`, refused past
        ``MAX_LETTERS`` before it is built), and a stream's is a stream of
        the same kind.  This is the one way to map a word."""
        if w.alphabet != self.alphabet:
            raise AlphabetError("the morphism's alphabet differs from its argument's")
        return w._image(self)

    def compose(self, other: "PureEpistandardMorphism") -> "PureEpistandardMorphism":
        """``self`` after ``other``: generator sequences concatenate."""
        if other.alphabet != self.alphabet:
            raise AlphabetError("cannot compose morphisms over different alphabets")
        return PureEpistandardMorphism(self.alphabet, self.letters + other.letters)


def identity(alphabet: Alphabet) -> PureEpistandardMorphism:
    return PureEpistandardMorphism(alphabet, ())


def psi(alphabet: Alphabet, letter: str) -> PureEpistandardMorphism:
    """The single-generator morphism for ``letter``."""
    return PureEpistandardMorphism(alphabet, (alphabet.index(letter),))


def image_length(mu: PureEpistandardMorphism, y: int) -> int:
    """|mu(y)| without building the image, from letter counts.

    The generator of z inserts a z before every other letter, so it sets the
    count of z to the word's length and leaves the other counts as they are;
    the generators act innermost first, from the one letter y.
    """
    counts = [0] * mu.alphabet.size
    counts[y] = total = 1
    for z in reversed(mu.letters):
        total, counts[z] = 2 * total - counts[z], total
    return total


class MorphicImageStream(WordStream):
    """Image of a stream under a morphism, read through from its source: the
    image the inner stream states, a stream of its own kind (``_image``),
    which is what :meth:`PureEpistandardMorphism.apply` returns.  No letter
    is mapped here; the memo ``str``, directive and bound are the source's.
    """

    def __init__(self, morphism: PureEpistandardMorphism, inner: WordStream) -> None:
        self._source = morphism.apply(inner)
        super().__init__(inner.alphabet)
        self.morphism = morphism
        self.inner = inner

    def _extend(self, n: int) -> None:
        self._source._letters(n, n)  # grows the source to n letters and copies none
        self._buf = self._source._buf

    def _image(self, morphism: PureEpistandardMorphism) -> WordStream:
        return self._source._image(morphism)

    def directive(self) -> DirectiveWord | None:
        return self._source.directive()

    def exact_horizon(self, k: int) -> int:
        return self._source.exact_horizon(k)
