"""Letter-injection morphisms, their compositions, and free-group arithmetic.

The generator morphism for a letter ``a`` fixes ``a`` and prepends ``a`` to
every other letter.  Compositions of these generators form a monoid acting on
words and streams; viewed on the free group they are invertible, and the
generator inverses are what the skew-word reconstruction peels with.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

from .words import Alphabet, AlphabetError, Word, WordStream

if TYPE_CHECKING:
    from .engine import DirectiveWord

__all__ = [
    "GroupWord",
    "MorphicImageStream",
    "Permutation",
    "EpistandardMorphism",
    "PureEpistandardMorphism",
    "apply_inverse",
    "identity",
    "is_separating",
    "psi",
    "reduce_word",
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
        k = self.alphabet.size
        for z in self.letters:
            if not 0 <= z < k:
                raise AlphabetError(f"generator index {z} out of range")

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

    def image_of(self, letter_index: int) -> tuple[int, ...]:
        return self.images[letter_index]

    def apply_word(self, w: Word) -> Word:
        if w.alphabet != self.alphabet:
            raise AlphabetError("word alphabet does not match morphism alphabet")
        images = self.images
        out: list[int] = []
        for i in w.indices:
            out.extend(images[i])
        return Word(self.alphabet, tuple(out))

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

    def apply_group(self, g: "GroupWord") -> "GroupWord":
        """The induced free-group endomorphism."""
        images = self.images
        out: list[tuple[int, int]] = []
        for letter, sign in g.syllables:
            image = images[letter]
            if sign > 0:
                out.extend((c, 1) for c in image)
            else:
                out.extend((c, -1) for c in reversed(image))
        return reduce_word(self.alphabet, out)

    def invert_group(self, g: "GroupWord") -> "GroupWord":
        """Apply the inverse automorphism: generator inverses in reverse order."""
        for z in self.letters:
            g = apply_inverse(self.alphabet.letters[z], g)
        return g


def identity(alphabet: Alphabet) -> PureEpistandardMorphism:
    return PureEpistandardMorphism(alphabet, ())


def psi(alphabet: Alphabet, letter: str) -> PureEpistandardMorphism:
    """The single-generator morphism for ``letter``."""
    return PureEpistandardMorphism(alphabet, (alphabet.index(letter),))


class MorphicImageStream(WordStream):
    """Image of a stream under a morphism, generated image block by image block.

    The inner stream is read by range, each inner letter once, so growing the
    image to ``n`` letters costs time linear in ``n``.
    """

    kind = "morphic-image"

    def __init__(self, morphism: PureEpistandardMorphism, inner: WordStream) -> None:
        if morphism.alphabet != inner.alphabet:
            raise AlphabetError("morphism and stream alphabets differ")
        super().__init__(inner.alphabet)
        self.morphism = morphism
        self.inner = inner
        self._longest = max(map(len, morphism.images))
        self._consumed = 0
        # Streams are immutable, so the directive is stated once.
        inner_directive = inner.directive()
        self._directive = (
            None
            if inner_directive is None
            else replace(inner_directive, preperiod=morphism.letters + inner_directive.preperiod)
        )

    def _extend(self, n: int) -> None:
        buf, images = self._buf, self.morphism.images
        while len(buf) < n:
            # Images are non-empty, so every inner letter makes progress.  Read
            # what the deficit needs at the longest image, at least 64 letters
            # so short requests batch and at most 4096 to bound the overshoot.
            chunk = min(max((n - len(buf)) // self._longest + 1, 64), 4096)
            letters = self.inner.raw_range(self._consumed, self._consumed + chunk)
            if not letters:
                raise RuntimeError("inner stream stopped producing letters")
            for c in letters:
                buf.extend(images[c])
            self._consumed += len(letters)

    def directive(self) -> DirectiveWord | None:
        """The inner stream's directive with this morphism's generators prepended."""
        return self._directive

    def exact_horizon(self, k: int) -> int | None:
        if self._directive is not None:
            return self._directive.exact_horizon(k)
        # A length-k window of the image lies inside the image of k consecutive
        # inner letters, which occur within the inner bound.
        inner = self.inner.exact_horizon(k)
        return None if inner is None else self._longest * inner


@dataclass(frozen=True)
class GroupWord:
    """A reduced word over letters and their formal inverses.

    ``syllables`` is a sequence of ``(letter_index, sign)`` with sign +1 or -1;
    adjacent mutually inverse syllables are forbidden, so construction goes
    through :func:`reduce_word` which cancels eagerly.
    """

    alphabet: Alphabet
    syllables: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        k = self.alphabet.size
        prev: tuple[int, int] | None = None
        for letter, sign in self.syllables:
            if not 0 <= letter < k:
                raise AlphabetError(f"letter index {letter} out of range")
            if sign not in (1, -1):
                raise ValueError("syllable sign must be +1 or -1")
            if prev is not None and prev[0] == letter and prev[1] == -sign:
                raise ValueError("group word is not reduced")
            prev = (letter, sign)

    def __len__(self) -> int:
        return len(self.syllables)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if other.alphabet != self.alphabet:
            raise AlphabetError("cannot multiply group words over different alphabets")
        return reduce_word(self.alphabet, self.syllables + other.syllables)

    @property
    def is_positive(self) -> bool:
        return all(s == 1 for _, s in self.syllables)

    def to_word(self) -> Word:
        if not self.is_positive:
            raise ValueError(f"group word {self} has inverse letters")
        return Word(self.alphabet, tuple(l for l, _ in self.syllables))

    @classmethod
    def from_word(cls, w: Word) -> "GroupWord":
        return cls(w.alphabet, tuple((i, 1) for i in w.indices))

    def __str__(self) -> str:
        toks = self.alphabet.letters
        return " ".join(toks[l] + ("" if s == 1 else "'") for l, s in self.syllables)

    def __repr__(self) -> str:
        return f"GroupWord({str(self)!r})"


def reduce_word(alphabet: Alphabet, syllables: Iterable[tuple[int, int]]) -> GroupWord:
    """Cancel adjacent inverse pairs until none remain; the unique reduced form."""
    stack: list[tuple[int, int]] = []
    for letter, sign in syllables:
        if stack and stack[-1][0] == letter and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((letter, sign))
    return GroupWord(alphabet, tuple(stack))


def apply_inverse(letter: str, g: "GroupWord | Word") -> GroupWord:
    """Apply the inverse of the generator morphism for ``letter``, syllable-wise.

    Inputs outside the generator's image come back with negative syllables;
    that is legal and used by intermediate calculations.
    """
    if isinstance(g, Word):
        g = GroupWord.from_word(g)
    a = g.alphabet.index(letter)
    out: list[tuple[int, int]] = []
    for l, s in g.syllables:
        if l == a:
            out.append((l, s))
        elif s > 0:
            out.append((a, -1))
            out.append((l, 1))
        else:
            out.append((l, -1))
            out.append((a, 1))
    return reduce_word(g.alphabet, out)


def separates(a: int, seq: Sequence[int]) -> bool:
    """Whether every length-2 factor of ``seq`` contains the letter index ``a``."""
    return all(seq[i] == a or seq[i + 1] == a for i in range(len(seq) - 1))


def is_separating(letter: str, w: Word) -> bool:
    """Whether every length-2 factor of ``w`` contains ``letter``."""
    return separates(w.alphabet.index(letter), w.indices)


@dataclass(frozen=True)
class Permutation:
    """A bijection of the alphabet, applied letterwise."""

    alphabet: Alphabet
    mapping: tuple[int, ...]  # mapping[i] = image of letter i

    def __post_init__(self) -> None:
        if sorted(self.mapping) != list(range(self.alphabet.size)):
            raise ValueError("permutation mapping must be a bijection")

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Permutation":
        return cls(alphabet, tuple(range(alphabet.size)))

    @classmethod
    def from_pairs(cls, alphabet: Alphabet, pairs: dict[str, str]) -> "Permutation":
        mapping = list(range(alphabet.size))
        for src, dst in pairs.items():
            mapping[alphabet.index(src)] = alphabet.index(dst)
        return cls(alphabet, tuple(mapping))

    def apply_letter(self, index: int) -> int:
        return self.mapping[index]

    def apply_word(self, w: Word) -> Word:
        return Word(self.alphabet, tuple(self.mapping[i] for i in w.indices))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.mapping)
        for i, m in enumerate(self.mapping):
            inv[m] = i
        return Permutation(self.alphabet, tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        return Permutation(self.alphabet, tuple(self.mapping[m] for m in other.mapping))


@dataclass(frozen=True)
class EpistandardMorphism:
    """A permutation followed by a pure composition: the normal form ``perm . pure``.

    Composition uses the exchange rule: a generator morphism commuted past a
    permutation becomes the generator of the preimage letter.
    """

    perm: Permutation
    pure: PureEpistandardMorphism

    def apply_word(self, w: Word) -> Word:
        return self.perm.apply_word(self.pure.apply_word(w))

    def compose(self, other: "EpistandardMorphism") -> "EpistandardMorphism":
        # (p1.m1) . (p2.m2) = (p1.p2) . (p2^-1 m1 p2 . m2)
        inv = other.perm.inverse()
        renamed = PureEpistandardMorphism(
            self.pure.alphabet, tuple(inv.apply_letter(z) for z in self.pure.letters)
        )
        return EpistandardMorphism(
            self.perm.compose(other.perm), renamed.compose(other.pure)
        )
