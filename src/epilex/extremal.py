"""Lexicographically extremal factors of finite words and streams.

The smallest length-k factor is computed by tracking every occurrence of the
current minimum and extending one letter at a time, which also yields the
whole chain of minima cheaply.  The occurrences are held as one ``int``
bitset of their end positions, from the first length to the last
(:func:`minimal_window_positions`).  The brute-force oracles the tests
compare against live with the tests; they share no code with this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .words import AlphabetError, LengthError, LexOrder, Word, WordStream, scan_length

__all__ = [
    "ExtremalResult",
    "max_factor",
    "max_stream",
    "min_factor",
    "min_stream",
    "minimal_window_positions",
]


@dataclass(frozen=True)
class ExtremalResult:
    """An extremal factor together with the scan parameters that produced it.

    ``exact`` says whether the scanned prefix reached the bound
    ``exact_horizon(k)``, so that ``word`` is the extremal factor of the
    whole word and not only of its first ``horizon`` letters.
    """

    word: Word
    k: int
    order: LexOrder
    horizon: int
    exact: bool


def minimal_window_positions(text: str, rank: Sequence[int], k_max: int) -> list[int]:
    """For each k = 1..k_max, the first start of the rank-minimal window.

    ``text`` is the scanned prefix's ``chr`` text (``WordStream._text``).
    The least windows of length k+1 are the least windows of length k that
    extend by the least letter any of them is followed by.  Their end
    positions are one ``int`` bitset, ``live``, with position i at bit
    n - 1 - i: bit n - 1 - i of ``ends[j]`` is set where ``text[i]`` is the
    j-th least letter present.  One length is ``live >> 1``, which moves
    every window's end to the letter after it, and an ``&`` with ``ends[j]``
    for each letter tried until one is nonzero, each one C-level pass over n
    bits; the first start is read off ``live.bit_length()``.  If no least
    window extends (each ends flush with a horizon-limited prefix), every
    window is compared as a slice of the text translated to ranks, which is
    O(n*k), and the starts of the least become the next ``live``.  Only the
    current length is held, so memory stays O(n + k_max).

    The letter bitsets depend on ``text`` alone (:func:`_letter_bitsets`), so
    a caller that runs the chain under several orders on one prefix builds
    them once and runs :func:`_window_chain` per order.
    """
    return _window_chain(text, _letter_bitsets(text), rank, k_max)


def _letter_bitsets(text: str) -> dict[int, int]:
    """One ``int`` bitset per letter present in ``text``, keyed by the letter
    index: bit n - 1 - i is set where character i is that letter."""
    # int(..., 2) of the text translated to "0"/"1" puts position i at bit n - 1 - i.
    zeros = dict.fromkeys(map(ord, set(text)), "0")
    return {c: int(text.translate({**zeros, c: "1"}), 2) for c in zeros}


def _window_chain(text: str, bitsets: dict[int, int], rank: Sequence[int], k_max: int) -> list[int]:
    """:func:`minimal_window_positions` on ``bitsets``, which is ``_letter_bitsets(text)``."""
    n = len(text)
    k_max = min(k_max, n)
    if k_max < 1:
        return []
    ends = [bitsets[c] for c in sorted(bitsets, key=rank.__getitem__)]
    live = ends[0]
    out = [n - live.bit_length()]
    for k in range(2, k_max + 1):
        shifted = live >> 1
        for e in ends:
            live = shifted & e
            if live:
                break
        if not live:
            # Slices of the text translated to ranks compare by code point,
            # so as rank lists.  Bit n - 1 - (p + k - 1) = n - k - p marks the
            # window that starts at p, so the starts' digits, first start
            # first, read as the bitset of their ends.
            r = text.translate({c: chr(rank[c]) for c in bitsets})
            starts = range(n - k + 1)
            least = min(r[p : p + k] for p in starts)
            live = int("".join("1" if r[p : p + k] == least else "0" for p in starts), 2)
        out.append(n - live.bit_length() - k + 1)
    return out


def _least_window(text: str, rank: Sequence[int], k: int) -> tuple[str, list[int]]:
    """The least length-``k`` window of ``text`` and the chain's starts up to ``k``."""
    starts = minimal_window_positions(text, rank, k)
    return text[starts[-1] : starts[-1] + k], starts


def _least_factor(w: WordStream, rank: tuple[int, ...], k: int, n: int) -> str:
    """The least length-``k`` factor of ``w`` under ``rank``, from the memo of min(w).

    ``n`` is ``w.exact_horizon(k)``.  Least factors of an infinite word nest,
    so one word per order answers every shorter length.  A longer ``k`` runs
    the chain once, to ``max(k, 2 * held)``, outside the lock, over that
    length's exact prefix; the longer of its word and the one held is kept,
    together with the chain's starts, the first occurrence of each of its
    prefixes in ``w``.
    """
    held = w._minima.get(rank, ("", ()))[0]
    if len(held) < k:
        depth = max(k, 2 * len(held))
        text = w._text(n if depth == k else w.exact_horizon(depth))
        deeper, starts = _least_window(text, rank, depth)
        with w._lock:
            held = w._minima.get(rank, ("", ()))[0]
            if len(deeper) > len(held):
                w._minima[rank] = (deeper, tuple(starts))
                held = deeper
    return held[:k]


def _held_within(w: WordStream, rank: tuple[int, ...], k: int, n: int) -> str | None:
    """min(w)[:k] from the memo when its first occurrence ends within ``n`` letters, else ``None``.

    Every window of the first ``n`` letters is a factor of ``w``, so none is
    less than min(w)[:k]; when that word occurs among them, it is their least.
    """
    letters, starts = w._minima.get(rank, ("", ()))
    if len(letters) >= k and starts[k - 1] + k <= n:
        return letters[:k]
    return None


def _extremal(w: Word | WordStream, k: int, order: LexOrder, horizon: int | None, invert: bool) -> ExtremalResult:
    """Check a query's arguments, then answer it from the one :func:`scan_length` of it."""
    if k < 0:
        raise ValueError("factor length must be >= 0")
    if w.alphabet is not order.alphabet and w.alphabet != order.alphabet:
        raise AlphabetError("order alphabet does not match the word alphabet")
    if horizon is not None and horizon < k:
        raise LengthError(f"horizon {horizon} is smaller than factor length {k}")
    n, exact = scan_length(w, k, horizon)
    if horizon is None:
        horizon = n
    if k == 0:
        return ExtremalResult(
            word=Word._trusted(w.alphabet, ""), k=0, order=order, horizon=horizon, exact=True
        )
    # The greatest factors are the least under the reversed order.
    rank = order._reversed_ranks if invert else order.ranks
    letters = None
    if isinstance(w, WordStream):
        # Only an exact query fills the memo; a horizon-limited one only reads it.
        letters = _least_factor(w, rank, k, n) if exact else _held_within(w, rank, k, n)
    if letters is None:
        # A horizon-limited query the memo cannot answer, or a finite word,
        # whose least factors do not nest (in ``ba`` the least is ``a``, then
        # ``ba``): scan what the query reads.
        text = w._text(n)
        if len(text) < k:
            raise LengthError(f"factor length {k} exceeds word length {len(text)}")
        letters = _least_window(text, rank, k)[0]
    return ExtremalResult(
        word=Word._trusted(w.alphabet, letters),
        k=k,
        order=order,
        horizon=horizon,
        exact=exact,
    )


def min_factor(w: Word | WordStream, k: int, order: LexOrder, horizon: int | None = None) -> ExtremalResult:
    """The lexicographically least length-``k`` factor seen within the horizon.

    The result is exact when the horizon reaches ``w.exact_horizon(k)``, which
    is also the default horizon; the reported ``horizon`` is still the one
    requested.  An exact answer on a stream is read from the stream's memo of
    min(t), one word per order, at most twice the longest ``k`` asked.  A
    horizon short of the bound is read from the memo too when the memo holds
    min(t)[:k] and its first occurrence ends within the horizon: no window of
    the prefix is less than a least factor of t, so that word is the prefix's
    least.  Only exact queries fill the memo.  Any other horizon-limited
    query scans ``horizon`` letters.  A finite word states its length as its
    bound, so a ``k`` longer than the word raises :class:`LengthError`
    whatever the horizon.  A word with no stated structure is asked as its
    finite prefix, ``Word(alphabet, letters)``, and the answer is exact for
    that prefix.
    """
    return _extremal(w, k, order, horizon, invert=False)


def max_factor(w: Word | WordStream, k: int, order: LexOrder, horizon: int | None = None) -> ExtremalResult:
    """The lexicographically greatest length-``k`` factor seen within the horizon."""
    return _extremal(w, k, order, horizon, invert=True)


def _limit_word(w: WordStream, order: LexOrder, horizon: int, invert: bool) -> Word:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return _extremal(w, max(1, horizon // 2), order, None, invert).word


def min_stream(w: WordStream, order: LexOrder, horizon: int) -> Word:
    """The longest prefix of the limit of minimal factors the horizon supports.

    The chain of minima extends letter by letter, so its element at length
    ``horizon // 2`` is that prefix: :func:`min_factor` at that length with
    no horizon, which reads the stream's bound for it and is exact, with the
    same checks and errors.
    """
    return _limit_word(w, order, horizon, invert=False)


def max_stream(w: WordStream, order: LexOrder, horizon: int) -> Word:
    """Mirror of :func:`min_stream` for the greatest factors."""
    return _limit_word(w, order, horizon, invert=True)
