"""Alphabets, finite words, lexicographic orders, and lazy infinite-word streams.

Letters are interned as small integers against an :class:`Alphabet`; a
:class:`Word` is an immutable sequence of letter indices.  Infinite words are
deterministic prefix generators (:class:`WordStream`): every question about an
infinite word is answered relative to a horizon, and each stream kind states
through ``exact_horizon(k)`` how long a prefix holds all its length-k factors.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import cycle, islice, permutations
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    from .engine import DirectiveWord

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


# The most letters one input may ask to hold or generate (8 bytes or more each);
# a larger request is refused before anything is built, not when memory runs out.
MAX_LETTERS = 10**7


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

    def word(self, text_or_tokens: "str | Sequence[str]") -> "Word":
        """Build a word from a contiguous string (single-char letters) or token sequence."""
        if isinstance(text_or_tokens, str):
            if all(len(t) == 1 for t in self.letters):
                tokens: Sequence[str] = list(text_or_tokens)
            else:
                tokens = [t for t in text_or_tokens.split(",") if t]
        else:
            tokens = text_or_tokens
        return Word(self, tuple(self.index(t) for t in tokens))

    def empty(self) -> "Word":
        return Word(self, ())


@dataclass(frozen=True)
class Word:
    """A finite word: an immutable sequence of letter indices over an alphabet."""

    alphabet: Alphabet
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_indices(self.alphabet, self.indices)

    @classmethod
    def _trusted(cls, alphabet: Alphabet, indices: tuple[int, ...]) -> "Word":
        """A word of letters already checked where they entered the library.

        Skips ``__post_init__``'s per-letter check: for slices, images,
        closures and stream prefixes, whose letters come from checked words,
        directives, morphism images or stream buffers.
        """
        w = object.__new__(cls)
        object.__setattr__(w, "alphabet", alphabet)
        object.__setattr__(w, "indices", indices)
        return w

    def __len__(self) -> int:
        return len(self.indices)

    def __bool__(self) -> bool:
        return bool(self.indices)

    def __iter__(self) -> Iterator[str]:
        tok = self.alphabet.letters
        return (tok[i] for i in self.indices)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word._trusted(self.alphabet, self.indices[item])
        return self.alphabet.letters[self.indices[item]]

    def __add__(self, other: "Word") -> "Word":
        if other.alphabet != self.alphabet:
            raise AlphabetError("cannot concatenate words over different alphabets")
        return Word._trusted(self.alphabet, self.indices + other.indices)

    def __str__(self) -> str:
        toks = [self.alphabet.letters[i] for i in self.indices]
        if all(len(t) == 1 for t in self.alphabet.letters):
            return "".join(toks)
        return ",".join(toks)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def tokens(self) -> tuple[str, ...]:
        return tuple(self.alphabet.letters[i] for i in self.indices)

    def reversal(self) -> "Word":
        return Word._trusted(self.alphabet, self.indices[::-1])

    def raw(self, n: int) -> list[int]:
        """The first ``n`` letter indices, as a fresh list."""
        if not 0 <= n <= len(self.indices):
            raise LengthError(f"prefix length {n} out of range for a word of length {len(self.indices)}")
        return list(self.indices[:n])

    def exact_horizon(self, k: int) -> int:
        """A finite word holds all its factors: the bound is its length."""
        return len(self.indices)

    def is_palindrome(self) -> bool:
        return self.indices == self.indices[::-1]


@dataclass(frozen=True)
class LexOrder:
    """A total order on an alphabet, given as a rank for every letter index."""

    alphabet: Alphabet
    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.ranks) != list(range(self.alphabet.size)):
            raise ValueError(f"ranks must be a permutation of 0..{self.alphabet.size - 1}")

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

    def letters_ascending(self) -> tuple[str, ...]:
        pairs = sorted(range(self.alphabet.size), key=lambda i: self.ranks[i])
        return tuple(self.alphabet.letters[i] for i in pairs)

    def describe(self) -> str:
        return "<".join(self.letters_ascending())

    def reversed(self) -> "LexOrder":
        top = self.alphabet.size - 1
        return LexOrder(self.alphabet, tuple(top - r for r in self.ranks))


def all_orders(alphabet: Alphabet, subset: Sequence[str] | None = None) -> list[LexOrder]:
    """Every total order on ``alphabet``.

    With ``subset``, only the given letters are permuted (in declaration
    order); the remaining letters are ranked above them, also in declaration
    order.  Enumeration order is deterministic.
    """
    if subset is None:
        base = list(alphabet.letters)
        rest: list[str] = []
    else:
        base = [t for t in alphabet.letters if t in set(subset)]
        rest = [t for t in alphabet.letters if t not in set(subset)]
    return [LexOrder.from_letters(alphabet, list(p) + rest) for p in permutations(base)]


class WordStream:
    """A deterministic generator of an infinite word.

    ``prefix(n)`` is total and prefix-monotone: repeated calls agree, and the
    result for ``m <= n`` is a prefix of the result for ``n``.  Streams are
    immutable values.  The internal prefix memo ``_buf`` is append-only: a
    letter, once stored, is never removed or rewritten, and ``_extend`` only
    appends, under a lock, so concurrent readers are safe.  ``raw_range``
    copies out just the letters asked for, which lets a stream built on
    another one (a concatenation, a morphic image) read its source by range
    in time linear in what it consumes.  ``_minima`` maps an order's ranks to
    the pair (least factor computed so far, a prefix of min(t); the first
    start in t of each of its prefixes), which exact queries fill and
    horizon-limited ones only read (see :func:`~epilex.extremal.min_factor`);
    a pair is published whole and replaced only by a longer one, under the lock.

    Letters are checked where they enter the library, not where they are read:
    a subclass's ``_extend`` appends only indices in range for its alphabet,
    which is why ``prefix`` builds its :class:`Word` without re-checking them.

    Every stream states its bound through ``exact_horizon(k)``.  A word with
    no stated structure is not a stream: it is scanned as a finite
    :class:`Word` prefix, whose answers are exact for that prefix.
    """

    def __init__(self, alphabet: Alphabet) -> None:
        self.alphabet = alphabet
        self._buf: list[int] = []
        self._lock = threading.Lock()
        self._minima: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def _extend(self, n: int) -> None:
        """Grow ``self._buf`` to at least ``n`` letters.  Called under the lock."""
        raise NotImplementedError

    def raw_range(self, start: int, stop: int) -> list[int]:
        """The letter indices at positions ``start`` to ``stop - 1``, as a fresh list."""
        if not 0 <= start <= stop:
            raise ValueError(f"letter range {start}:{stop} must satisfy 0 <= start <= stop")
        if len(self._buf) < stop:
            with self._lock:
                if len(self._buf) < stop:
                    self._extend(stop)
        return self._buf[start:stop]

    def raw(self, n: int) -> list[int]:
        """The first ``n`` letter indices, as a fresh list."""
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        return self.raw_range(0, n)

    def prefix(self, n: int) -> Word:
        return Word._trusted(self.alphabet, tuple(self.raw(n)))

    def directive(self) -> DirectiveWord | None:
        """The directive of the standard episturmian word this stream is, if its kind states one."""
        return None

    def exact_horizon(self, k: int) -> int:
        """A prefix length by which every length-``k`` factor has occurred."""
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
        buf = self._buf
        if not buf:
            buf.extend(self.head.indices)
        cyc = self.cycle.indices
        if len(buf) < n:
            # Whole cycles, as many as reach n.
            buf.extend(islice(cycle(cyc), -((len(buf) - n) // len(cyc)) * len(cyc)))

    def exact_horizon(self, k: int) -> int:
        # Every factor starts at some position before the end of the first cycle.
        return len(self.head) + len(self.cycle) + k - 1


class ConcatStream(WordStream):
    """A finite word followed by another stream."""

    def __init__(self, head: Word, tail: WordStream) -> None:
        if head.alphabet != tail.alphabet:
            raise AlphabetError("head and tail must share an alphabet")
        super().__init__(head.alphabet)
        self.head = head
        self.tail = tail

    def _extend(self, n: int) -> None:
        buf = self._buf
        if not buf:
            buf.extend(self.head.indices)
        offset = len(self.head)
        if len(buf) < n:
            buf.extend(self.tail.raw_range(len(buf) - offset, n - offset))

    def exact_horizon(self, k: int) -> int:
        return len(self.head) + self.tail.exact_horizon(k)


def factors(w: Word, k: int) -> set[Word]:
    """All distinct length-``k`` blocks of ``w``; empty set when ``k > |w|``."""
    if k < 0:
        raise ValueError("factor length must be >= 0")
    if k > len(w):
        return set()
    seen = {w.indices[i : i + k] for i in range(len(w) - k + 1)}
    return {Word._trusted(w.alphabet, t) for t in seen}


def complexity(stream: WordStream, n: int, horizon: int) -> int:
    """Number of distinct length-``n`` factors of ``prefix(horizon)``.

    This is a lower bound on the complexity of the infinite word, exact once
    the horizon covers the recurrence scale of the stream.
    """
    if horizon < n:
        raise ValueError("horizon must be at least the factor length")
    seq = stream.raw(horizon)
    return len({tuple(seq[i : i + n]) for i in range(len(seq) - n + 1)})
