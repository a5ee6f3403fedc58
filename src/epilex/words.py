"""Alphabets, finite words, lexicographic orders, and lazy infinite-word streams.

Letters are interned as small integers against an :class:`Alphabet` and held
as ``chr`` text, character i being ``chr`` of letter index i: a :class:`Word`
and a stream's prefix memo alike.  Infinite words are deterministic prefix
generators (:class:`WordStream`): every question about an infinite word is
answered relative to a horizon, and each stream kind states through
``exact_horizon(k)`` how long a prefix holds all its length-k factors.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import permutations
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from .engine import DirectiveWord
    from .morphisms import PureEpistandardMorphism

__all__ = [
    "Alphabet",
    "AlphabetError",
    "LengthError",
    "Word",
    "LexOrder",
    "WordStream",
    "LiteralPeriodicStream",
    "ConcatStream",
    "all_orders",
    "complexity",
    "factors",
    "scan_length",
]

# Letters may not contain these: the text formats' punctuation, whitespace,
# and the apostrophe.
_RESERVED_CHARS = set("(),<'*= \t\n")


class AlphabetError(ValueError):
    """A word, order, or stream was combined with the wrong alphabet."""


class LengthError(ValueError):
    """A requested factor length exceeds the available word length."""


# The most letters one input may ask to hold or generate (1 byte each in a
# stream memo or a Word's text below index 256); a larger request is refused
# before anything is built, not when memory runs out.  No memo passes it by
# a whole block (a literal's cycle) unless a read asks for more (``_grow_by``).
MAX_LETTERS = 10**7


def _chr_text(indices: Iterable[int]) -> str:
    """The ``chr`` text of letter indices, the one encoder from indices to
    text; as ``chr``, it keeps 0xD800-0xDFFF and raises past ``sys.maxunicode``."""
    return "".join([chr(i) for i in indices])


def _grow_by(length: int, n: int, block: int = 1) -> int:
    """How many ``block``-letter blocks a memo of ``length`` letters appends
    to hold ``n``: enough to reach ``n``, and as many as fit in twice its
    length, up to :data:`MAX_LETTERS`.  A ``str`` memo is copied whole on
    each growth; growing it geometrically keeps small-step reads linear."""
    return max(-((length - n) // block), (min(2 * length, MAX_LETTERS) - length) // block)


def _check_indices(alphabet: "Alphabet", indices: Sequence[int]) -> None:
    """Raise :class:`AlphabetError` unless every letter index is in range for ``alphabet``."""
    k = alphabet.size
    for i in indices:
        if not 0 <= i < k:
            raise AlphabetError(f"letter index {i} out of range for {alphabet.letters}")


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of distinct letter tokens.

    Declaration order doubles as the default lexicographic order.  Tokens are
    usually single characters but may be longer; they may not contain the
    punctuation reserved by the text formats.
    """

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.letters:
            raise ValueError("alphabet needs at least one letter")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError(f"duplicate letters in alphabet: {self.letters}")
        for tok in self.letters:
            if not tok or any(c in _RESERVED_CHARS for c in tok):
                raise ValueError(f"invalid letter token: {tok!r}")
        # What Word.__str__ translates a word's text with: letter index to
        # token, for single-character letters.  Set here, not cached on first
        # use: an attribute added after __init__ moves the instance's
        # attributes out of their inline slots, and every later ``letters``
        # read is slower.
        single = all(len(t) == 1 for t in self.letters)
        object.__setattr__(self, "_token_table", dict(enumerate(self.letters)) if single else None)

    @classmethod
    def of(cls, *letters: str) -> "Alphabet":
        return cls(tuple(letters))

    @property
    def size(self) -> int:
        return len(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __contains__(self, token: str) -> bool:
        return token in self.letters

    def index(self, token: str) -> int:
        try:
            return self.letters.index(token)
        except ValueError:
            raise AlphabetError(f"letter {token!r} not in alphabet {self.letters}") from None

    def word(self, text: str) -> "Word":
        """Build a word from its text: letters written contiguously when every
        letter is one character, comma-separated otherwise."""
        tokens = text if all(len(t) == 1 for t in self.letters) else [t for t in text.split(",") if t]
        return Word(self, tuple(self.index(t) for t in tokens))

    def empty(self) -> "Word":
        return Word._trusted(self, "")


def _slot_setters(cls: type) -> tuple:
    """The ``__set__`` of each field's slot of a slotted frozen dataclass, in field order.

    The one way the library fills a :class:`Word` or an
    :class:`~epilex.extremal.ExtremalResult` it builds: a slot's member
    descriptor writes past the frozen ``__setattr__`` in one C call, where
    ``object.__setattr__`` looks the descriptor up by name on every write.
    Bound once per class, at import.
    """
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


@dataclass(frozen=True, init=False, slots=True)
class Word:
    """A finite word: an immutable ``chr`` text over an alphabet.

    ``text`` is the format stream memos and scans use, so a stream prefix, a
    slice, a concatenation or a mirror image is one ``str`` operation.
    ``raw(n)`` gives the first ``n`` letter indices as a list, as
    :meth:`WordStream.raw` does, and ``_image`` is the one map of a finite
    word through a morphism.  Its two fields are slots: a ``Word`` has no
    per-instance ``__dict__``.
    """

    alphabet: Alphabet
    text: str

    def __init__(self, alphabet: Alphabet, indices: Sequence[int]) -> None:
        _check_indices(alphabet, indices)
        _set_alphabet(self, alphabet)
        _set_text(self, _chr_text(indices))

    @classmethod
    def _trusted(cls, alphabet: Alphabet, text: str) -> "Word":
        """A word of letters already checked where they entered the library.

        Skips ``__init__``'s per-letter check and encoding: for slices,
        images, closures and stream prefixes, whose text comes from checked
        words, directives, morphism images or stream memos.  The fields are
        written through their slots' setters (:func:`_slot_setters`); the
        result equals, hashes and pickles as ``Word(alphabet, indices)``.
        """
        w = _new(cls)
        _set_alphabet(w, alphabet)
        _set_text(w, text)
        return w

    def __len__(self) -> int:
        return len(self.text)

    def __iter__(self) -> Iterator[str]:
        return map(self.alphabet.letters.__getitem__, map(ord, self.text))

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word._trusted(self.alphabet, self.text[item])
        return self.alphabet.letters[ord(self.text[item])]

    def __add__(self, other: "Word") -> "Word":
        if other.alphabet != self.alphabet:
            raise AlphabetError("cannot concatenate words over different alphabets")
        return Word._trusted(self.alphabet, self.text + other.text)

    def __str__(self) -> str:
        table = self.alphabet._token_table
        if table is not None:
            return self.text.translate(table)
        return ",".join(self)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def reversal(self) -> "Word":
        return Word._trusted(self.alphabet, self.text[::-1])

    def prefix(self, n: int) -> "Word":
        """The first ``n`` letters, as :meth:`WordStream.prefix` gives them;
        raises :class:`LengthError` past the word's length."""
        return Word._trusted(self.alphabet, self._text(n))

    def raw(self, n: int) -> list[int]:
        """The first ``n`` letter indices, as a fresh list."""
        return list(map(ord, self._text(n)))

    def _text(self, n: int) -> str:
        """The ``chr`` text of the first ``n`` letters, as :meth:`WordStream._text`
        gives it; raises :class:`LengthError` past the word's length."""
        if not 0 <= n <= len(self.text):
            raise LengthError(f"prefix length {n} out of range for a word of length {len(self.text)}")
        return self.text[:n]

    def exact_horizon(self, k: int) -> int:
        """A finite word holds all its factors: the bound is its length."""
        return len(self.text)

    def _image(self, morphism: PureEpistandardMorphism) -> "Word":
        """The image under ``morphism``, refused past :data:`MAX_LETTERS` from
        letter counts, before it is built."""
        if morphism._image_size(self.text) > MAX_LETTERS:
            raise LengthError(f"an image exceeds the limit of {MAX_LETTERS} letters")
        return Word._trusted(self.alphabet, morphism._map_text(self.text))

    def is_palindrome(self) -> bool:
        return self.text == self.text[::-1]


_new = object.__new__
_set_alphabet, _set_text = _slot_setters(Word)


@dataclass(frozen=True)
class LexOrder:
    """A total order on an alphabet, given as a rank for every letter index."""

    alphabet: Alphabet
    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.ranks) != list(range(self.alphabet.size)):
            raise ValueError(f"ranks must be a permutation of 0..{self.alphabet.size - 1}")
        # The reversed order's ranks, which max queries and ``reversed`` read:
        # set here, as ``Alphabet._token_table`` is, not on first use.
        top = self.alphabet.size - 1
        object.__setattr__(self, "_reversed_ranks", tuple(top - r for r in self.ranks))

    @classmethod
    def default(cls, alphabet: Alphabet) -> "LexOrder":
        return cls(alphabet, tuple(range(alphabet.size)))

    @classmethod
    def from_letters(cls, alphabet: Alphabet, ordered: Sequence[str]) -> "LexOrder":
        """Order in which ``ordered`` lists every letter from least to greatest."""
        if sorted(ordered) != sorted(alphabet.letters):
            raise AlphabetError(f"order {ordered} does not cover alphabet {alphabet.letters}")
        ranks = [0] * alphabet.size
        for pos, tok in enumerate(ordered):
            ranks[alphabet.index(tok)] = pos
        return cls(alphabet, tuple(ranks))

    def describe(self) -> str:
        """The letters from least to greatest, as ``a<b<c``."""
        return "<".join(t for _, t in sorted(zip(self.ranks, self.alphabet.letters)))

    def reversed(self) -> "LexOrder":
        return LexOrder(self.alphabet, self._reversed_ranks)


def all_orders(alphabet: Alphabet, subset: Sequence[str] | None = None) -> list[LexOrder]:
    """Every total order on ``alphabet``, as a fresh list.

    With ``subset``, only the given letters are permuted (in declaration
    order); the remaining letters are ranked above them, also in declaration
    order.  Enumeration order is deterministic.
    """
    return list(_orders(alphabet, None if subset is None else tuple(subset)))


@lru_cache(maxsize=256)
def _orders(alphabet: Alphabet, subset: tuple[str, ...] | None) -> tuple[LexOrder, ...]:
    """The orders :func:`all_orders` lists, built once per (alphabet, subset)."""
    chosen = set(alphabet.letters if subset is None else subset)
    base = [t for t in alphabet.letters if t in chosen]
    rest = [t for t in alphabet.letters if t not in chosen]
    return tuple(LexOrder.from_letters(alphabet, list(p) + rest) for p in permutations(base))


class WordStream:
    """A deterministic generator of an infinite word.

    ``prefix(n)`` is total and prefix-monotone: repeated calls agree, and the
    result for ``m <= n`` is a prefix of the result for ``n``.  Streams are
    immutable values.  The internal prefix memo ``_buf`` is the prefix's
    ``chr`` text, a ``str`` replaced by a longer one on each growth: at least
    twice as long (:func:`_grow_by`), except where a directive stream steps
    to its next palindromic prefix.  A stream read through from another one
    (a morphic image) holds that source's memo ``str`` itself, not a copy.
    ``_letters(start, stop)`` is the one place it grows: it calls ``_extend``
    under a lock, so concurrent readers are safe, and returns a ``str`` slice,
    which lets a concatenation read its tail by range in time linear in what
    it consumes.
    ``_text(n)`` is the prefix's text, what the scans read and what ``prefix``
    wraps in a :class:`Word`; ``raw`` gives the indices as a ``list``.

    ``_minima`` maps an order's ranks to the pair (least factor computed so
    far, a prefix of min(t), as text; the first start in t of each of its
    prefixes), which exact queries fill and horizon-limited ones only read
    (see :func:`~epilex.extremal.min_factor`); a pair is published whole and
    replaced only by a longer one, under the lock.

    Letters are checked where they enter the library, not where they are read:
    a subclass's ``_extend`` appends only indices in range for its alphabet,
    which is why ``prefix`` builds its :class:`Word` without re-checking them.

    Every stream states its bound through ``exact_horizon(k)``, and its
    image under a morphism, as a stream of its own kind, through ``_image``.
    A word with no stated structure is not a stream: it is scanned as a
    finite :class:`Word` prefix, whose answers are exact for that prefix.  A
    stream keeps no bound: one that costs a lookup is kept in the engine's
    cache (:func:`~epilex.engine.exact_horizon`), the one memo of bounds.
    """

    def __init__(self, alphabet: Alphabet) -> None:
        self.alphabet = alphabet
        self._buf = ""
        self._lock = threading.Lock()
        self._minima: dict[tuple[int, ...], tuple[str, tuple[int, ...]]] = {}

    def _extend(self, n: int) -> None:
        """Replace ``self._buf`` by a memo of at least ``n`` letters.  Called under the lock."""
        raise NotImplementedError

    def _letters(self, start: int, stop: int) -> str:
        """The ``chr`` text of the letters at positions ``start`` to ``stop - 1``.

        ``start`` is at most ``stop``; a prefix, ``start`` 0, of negative
        length raises.
        """
        if stop < 0:
            raise ValueError("prefix length must be >= 0")
        buf = self._buf
        if len(buf) < stop:
            with self._lock:
                if len(self._buf) < stop:
                    self._extend(stop)
                buf = self._buf
        return buf[start:stop]

    def _text(self, n: int) -> str:
        """The ``chr`` text of the first ``n`` letters: character i is ``chr`` of letter i."""
        return self._letters(0, n)

    def raw(self, n: int) -> list[int]:
        """The first ``n`` letter indices, as a fresh list."""
        return list(map(ord, self._letters(0, n)))

    def prefix(self, n: int) -> Word:
        return Word._trusted(self.alphabet, self._letters(0, n))

    def directive(self) -> DirectiveWord | None:
        """The directive of the standard episturmian word this stream is, if its kind states one."""
        return None

    def exact_horizon(self, k: int) -> int:
        """A prefix length by which every length-``k`` factor has occurred."""
        raise NotImplementedError

    def _image(self, morphism: PureEpistandardMorphism) -> "WordStream":
        """The image under ``morphism``, as a stream of this kind."""
        raise NotImplementedError


def scan_length(w: Word | WordStream, k: int, horizon: int | None) -> tuple[int, bool]:
    """How many letters a scan for factors of length at most ``k`` reads, and
    whether that prefix holds them all.

    The scan stops at ``w.exact_horizon(k)``: every length-``k`` factor has
    occurred by then, and every shorter factor is a prefix of one.  It reads
    ``horizon`` letters cut at that bound, so a horizon past the bound costs
    nothing and changes no result; with no horizon it reads the bound.  The
    one bound lookup is all it does: it reads no letter.
    """
    bound = w.exact_horizon(k)
    if horizon is None or horizon >= bound:
        return bound, True
    return horizon, False


class LiteralPeriodicStream(WordStream):
    """The ultimately periodic word ``head . cycle . cycle . ...``."""

    def __init__(self, head: Word, cycle: Word) -> None:
        if not cycle:
            raise ValueError("the repeated part of a literal stream must be non-empty")
        if head.alphabet != cycle.alphabet:
            raise AlphabetError("head and cycle must share an alphabet")
        super().__init__(head.alphabet)
        self.head = head
        self.cycle = cycle

    def _extend(self, n: int) -> None:
        buf, cyc = self._buf or self.head.text, self.cycle.text
        if len(buf) < n:
            # Whole cycles, as many as reach n or fit in twice the memo.
            buf += cyc * _grow_by(len(buf), n, len(cyc))
        self._buf = buf

    def exact_horizon(self, k: int) -> int:
        # Every factor starts at some position before the end of the first cycle.
        return len(self.head) + len(self.cycle) + k - 1

    def _image(self, morphism: PureEpistandardMorphism) -> "LiteralPeriodicStream":
        return LiteralPeriodicStream(self.head._image(morphism), self.cycle._image(morphism))


class ConcatStream(WordStream):
    """A finite word followed by another stream."""

    def __init__(self, head: Word, tail: WordStream) -> None:
        if head.alphabet != tail.alphabet:
            raise AlphabetError("head and tail must share an alphabet")
        super().__init__(head.alphabet)
        self.head = head
        self.tail = tail

    def _extend(self, n: int) -> None:
        buf, offset = self._buf or self.head.text, len(self.head)
        if len(buf) < n:
            stop = len(buf) + _grow_by(len(buf), n)
            buf += self.tail._letters(len(buf) - offset, stop - offset)
        self._buf = buf

    def exact_horizon(self, k: int) -> int:
        return len(self.head) + self.tail.exact_horizon(k)

    def _image(self, morphism: PureEpistandardMorphism) -> "ConcatStream":
        return ConcatStream(self.head._image(morphism), self.tail._image(morphism))


def factors(w: Word, k: int) -> set[Word]:
    """All distinct length-``k`` blocks of ``w``; empty set when ``k > |w|``."""
    if k < 0:
        raise ValueError("factor length must be >= 0")
    text = w.text
    return {Word._trusted(w.alphabet, t) for t in {text[i : i + k] for i in range(len(text) - k + 1)}}


def complexity(stream: WordStream, n: int, horizon: int | None = None) -> int:
    """Number of distinct length-``n`` factors of the prefix a scan to ``horizon`` reads.

    With no horizon, or one past ``stream.exact_horizon(n)``, the scan reads
    that bound (:func:`scan_length`), so the count is exact: the complexity
    of the infinite word.  A shorter horizon gives a lower bound.
    """
    if n < 0:
        raise ValueError("factor length must be >= 0")
    if horizon is not None and horizon < n:
        raise ValueError("horizon must be at least the factor length")
    text = stream._text(scan_length(stream, n, horizon)[0])
    return len({text[i : i + n] for i in range(len(text) - n + 1)})
