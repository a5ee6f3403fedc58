"""Letter-injection morphisms, their compositions, and morphic image streams.

The generator morphism for a letter ``a`` fixes ``a`` and prepends ``a`` to
every other letter.  Compositions of these generators form a monoid acting on
words and streams; a standard episturmian word's image under one states the
directive with the generators prepended.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

from .words import Alphabet, AlphabetError, Word, WordStream, _check_indices, _grow_by

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

    @cached_property
    def images(self) -> tuple[tuple[int, ...], ...]:
        """The image of every letter, indexed by letter, computed once."""
        images = [(c,) for c in range(self.alphabet.size)]
        for z in self.letters:  # compose with the next inner generator
            head = images[z]
            images = [head if c == z else head + image for c, image in enumerate(images)]
        return tuple(images)

    def apply_word(self, w: Word) -> Word:
        if w.alphabet != self.alphabet:
            raise AlphabetError("word alphabet does not match morphism alphabet")
        return Word._trusted(self.alphabet, self._map_text(w.text))

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

    def apply(self, w: "Word | WordStream") -> "Word | WordStream":
        """Letterwise image; streams map to a lazily generated image stream."""
        if isinstance(w, Word):
            return self.apply_word(w)
        return MorphicImageStream(self, w)

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
    """Image of a stream under a morphism, generated image block by image block.

    The inner stream is read by range, each inner letter once, so growing the
    image to ``n`` letters costs time linear in ``n``.  Each chunk of inner
    text is mapped by :meth:`PureEpistandardMorphism._map_text`, and the
    mapped chunks are joined to the memo once per ``_extend``, which grows it
    to at least twice its length (:func:`~epilex.words._grow_by`).
    ``_longest``, the longest letter image, comes from
    :func:`image_length`, which builds no image.  The stream keeps each
    bound it looks up (``WordStream._kept_bound``).
    """

    def __init__(self, morphism: PureEpistandardMorphism, inner: WordStream) -> None:
        if morphism.alphabet != inner.alphabet:
            raise AlphabetError("morphism and stream alphabets differ")
        super().__init__(inner.alphabet)
        self.morphism = morphism
        self.inner = inner
        self._longest = max(image_length(morphism, y) for y in range(inner.alphabet.size))
        self._consumed = 0
        # Streams are immutable, so the directive is stated once.
        inner_directive = inner.directive()
        self._directive = (
            None
            if inner_directive is None
            else replace(inner_directive, preperiod=morphism.letters + inner_directive.preperiod)
        )

    def _extend(self, n: int) -> None:
        chunks, have, consumed, longest = [self._buf], len(self._buf), self._consumed, self._longest
        target = have + _grow_by(have, n)
        # Images are non-empty, so every inner letter makes progress.  Each
        # chunk is what the rest of the target needs at the longest image, so
        # the memo passes the target only to reach n, by less than one image.
        while have < n or have + longest <= target:
            text = self.inner._letters(consumed, consumed + max((target - have) // longest, 1))
            if not text:
                raise RuntimeError("inner stream stopped producing letters")
            consumed += len(text)
            chunks.append(self.morphism._map_text(text))
            have += len(chunks[-1])
        self._buf, self._consumed = "".join(chunks), consumed

    def directive(self) -> DirectiveWord | None:
        """The inner stream's directive with this morphism's generators prepended."""
        return self._directive

    def exact_horizon(self, k: int) -> int:
        return self._kept_bound(k, self._look_up_bound)

    def _look_up_bound(self, k: int) -> int:
        if self._directive is not None:
            return self._directive.exact_horizon(k)
        # A length-k window of the image lies inside the image of k consecutive
        # inner letters, which occur within the inner bound.
        return self._longest * self.inner.exact_horizon(k)
