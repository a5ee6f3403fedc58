"""Standard episturmian word generation from directive words.

A directive word is an eventually periodic letter sequence.  Iterating the
palindromic right-closure over its letters produces a growing chain of
palindromic prefixes whose limit is the standard word.  The engine grows the
chain with the last-occurrence rule (each step extends the current prefix by
a computable suffix of itself), which is linear in the output; the closure
operator itself is kept as a separate, directly-testable operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .morphisms import PureEpistandardMorphism, image_length
from .words import Alphabet, Word, WordStream, _check_indices, _grow_by

__all__ = [
    "DirectiveWord",
    "DirectiveStream",
    "InternalConsistencyError",
    "NothingToDecompose",
    "StrictnessReport",
    "builder_word",
    "decompose_nonstrict",
    "exact_horizon",
    "image_length",
    "infer_eventually_periodic",
    "palindromic_closure",
    "palindromic_prefixes",
    "prefix_morphism",
    "recover_directive_letters",
    "shift_chain",
    "standard_word",
    "strictness",
]


class NothingToDecompose(ValueError):
    """The directive is already strict; there is no morphic shell to peel."""


class InternalConsistencyError(RuntimeError):
    """Two construction paths that must agree did not: an engine bug."""


@dataclass(frozen=True)
class DirectiveWord:
    """An eventually periodic letter sequence ``preperiod . period^infinity``."""

    alphabet: Alphabet
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("directive period must be non-empty")
        _check_indices(self.alphabet, self.preperiod + self.period)

    @classmethod
    def parse(cls, alphabet: Alphabet, preperiod: str | Sequence[str], period: str | Sequence[str]) -> "DirectiveWord":
        pre, per = alphabet.word(preperiod), alphabet.word(period)
        return cls(alphabet, tuple(map(ord, pre.text)), tuple(map(ord, per.text)))

    def letter(self, i: int) -> int:
        """The i-th directive letter, 1-indexed."""
        if i < 1:
            raise ValueError("directive letters are 1-indexed")
        i -= 1
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def shift(self, m: int) -> "DirectiveWord":
        """Drop the first ``m`` letters."""
        if m <= len(self.preperiod):
            return DirectiveWord(self.alphabet, self.preperiod[m:], self.period)
        r = (m - len(self.preperiod)) % len(self.period)
        return DirectiveWord(self.alphabet, (), self.period[r:] + self.period[:r])

    def alph(self) -> frozenset[int]:
        return frozenset(self.preperiod) | frozenset(self.period)

    def ult(self) -> frozenset[int]:
        """Letters occurring infinitely often; exact for eventually periodic sequences."""
        return frozenset(self.period)

    def exact_horizon(self, k: int) -> int:
        """The bound :func:`exact_horizon` gives the standard word this directive directs."""
        return exact_horizon(self, k)

    def __str__(self) -> str:
        return f"{Word(self.alphabet, self.preperiod)}({Word(self.alphabet, self.period)})"

    def __repr__(self) -> str:
        return f"DirectiveWord({str(self)!r})"


def palindromic_closure(w: Word) -> Word:
    """The shortest palindrome having ``w`` as a prefix.

    Computed as ``w`` followed by the mirror of what precedes its longest
    palindromic suffix; that suffix is found with a failure-function pass over
    ``reversal(w) # w``.
    """
    n = len(w)
    if n <= 1:
        return w
    text = w.text
    combined: list[str | None] = [*text[::-1], None, *text]
    fail = [0] * len(combined)
    k = 0
    for i in range(1, len(combined)):
        while k > 0 and combined[i] != combined[k]:
            k = fail[k - 1]
        if combined[i] == combined[k]:
            k += 1
        fail[i] = k
    lps = fail[-1]  # length of the longest palindromic suffix of w
    return Word._trusted(w.alphabet, text + text[: n - lps][::-1])


def _next_prefix_length(lengths: list[int], last: dict[int, int], x: int) -> int:
    """The last-occurrence rule: append |u_n| to ``lengths`` = [|u_0|, ..., |u_{n-1}|] and return it.

    ``x`` is directive letter n and ``last`` maps each letter to its last
    directive position j: |u_n| = 2|u_{n-1}| - |u_{j-1}|, or 2|u_{n-1}| + 1
    for a new letter (Justin-Pirillo 2002, TCS 276).
    """
    j = last.get(x)
    lengths.append(2 * lengths[-1] + 1 if j is None else 2 * lengths[-1] - lengths[j - 1])
    last[x] = len(lengths) - 1
    return lengths[-1]


class DirectiveStream(WordStream):
    """The standard episturmian word directed by an eventually periodic sequence.

    ``_buf`` holds a prefix of the word, as text; ``_lengths[i]`` is the
    length of the (i+1)-th palindromic prefix (the first has length 0) and
    ``_last`` maps each letter to its last directive position.  One step
    consumes one directive letter x and appends x, then the last
    |u_n| - |u_{n-1}| - 1 letters of the old prefix u_{n-1}, the lengths
    coming from the last-occurrence rule: ``buf + chr(x) +
    buf[2*old+1-new:old]``.

    Constant tail y: once a tail letter is consumed, at prefix length L,
    every step appends the q = L - L_prev letters the previous step
    appended, so the word is mu_m(y)^omega (Justin-Pirillo 2002, TCS 276)
    and its palindromic prefixes past L are L + q, L + 2q, ....  Stepping
    then stops: ``_lengths`` ends at L, ``_tail`` is (L, q), and ``_extend``
    appends whole q-letter blocks, as many as reach the read or fit in twice
    the memo (:func:`~epilex.words._grow_by`).

    The stream keeps each bound :func:`exact_horizon` gives
    (``WordStream._kept_bound``), so a warm stream asks the engine once per k.
    """

    def __init__(self, directive: DirectiveWord) -> None:
        super().__init__(directive.alphabet)
        self._directive = directive
        self._lengths: list[int] = [0]
        self._last: dict[int, int] = {}
        constant = len(set(directive.period)) == 1
        self._tail_from = len(directive.preperiod) + 2 if constant else None
        self._tail: tuple[int, int] | None = None

    def _step(self, n: int) -> None:
        """Step until the memo holds ``n`` letters or the constant tail starts.  Called under the lock."""
        buf, lengths = self._buf, self._lengths
        while self._tail is None and lengths[-1] < n:
            old = lengths[-1]
            x = self._directive.letter(len(lengths))
            new = _next_prefix_length(lengths, self._last, x)
            buf += chr(x) + buf[2 * old + 1 - new : old]
            if len(lengths) == self._tail_from:
                self._tail = (new, new - old)
        self._buf = buf

    def _extend(self, n: int) -> None:
        self._step(n)
        buf = self._buf
        if len(buf) < n:
            q = self._tail[1]
            self._buf = buf + buf[-q:] * _grow_by(len(buf), n, q)

    def directive(self) -> DirectiveWord:
        return self._directive

    def exact_horizon(self, k: int) -> int:
        return self._kept_bound(k, self._directive.exact_horizon)

    def palindromic_prefix_lengths(self, up_to: int) -> list[int]:
        """Lengths of the palindromic prefixes not exceeding ``up_to``."""
        with self._lock:
            self._step(up_to)
            lengths = [n for n in self._lengths if n <= up_to]
            if self._tail is not None:
                end, q = self._tail
                lengths += range(end + q, up_to + 1, q)
            return lengths


def standard_word(directive: DirectiveWord) -> DirectiveStream:
    """The limit of the palindromic-prefix chain of ``directive``."""
    return DirectiveStream(directive)


def palindromic_prefixes(directive: DirectiveWord, n: int) -> list[Word]:
    """The first ``n`` palindromic prefixes, built by iterating the closure."""
    if n < 1:
        raise ValueError("need at least one prefix")
    out = [directive.alphabet.empty()]
    for i in range(1, n):
        x = Word(directive.alphabet, (directive.letter(i),))
        out.append(palindromic_closure(out[-1] + x))
    return out


def prefix_morphism(directive: DirectiveWord, n: int) -> PureEpistandardMorphism:
    """Composition of the generator morphisms of the first ``n`` directive letters."""
    if n < 0:
        raise ValueError("morphism index must be >= 0")
    return PureEpistandardMorphism(
        directive.alphabet, tuple(directive.letter(i) for i in range(1, n + 1))
    )


def builder_word(directive: DirectiveWord, n: int) -> Word:
    """Image of directive letter n+1 under the n-th prefix morphism.

    These words are prefixes of the standard word, and concatenating them in
    reverse order yields the palindromic prefixes.
    """
    if n < 0:
        raise ValueError("builder index must be >= 0")
    mu = prefix_morphism(directive, n)
    return mu.apply_word(Word(directive.alphabet, (directive.letter(n + 1),)))


@dataclass(frozen=True)
class StrictnessReport:
    """Which letters the directive uses, which recur forever, and where the tail starts."""

    alph: frozenset[str]
    ult: frozenset[str]
    strict_over: frozenset[str] | None
    m: int

    @property
    def strict(self) -> bool:
        return self.strict_over is not None


def strictness(directive: DirectiveWord) -> StrictnessReport:
    """Strictness analysis of a directive.

    ``m`` is the length of the shortest directive prefix containing every
    letter that does not recur forever; past it the tail uses exactly the
    recurring letters.
    """
    alph_idx = directive.alph()
    ult_idx = directive.ult()
    toks = directive.alphabet.letters
    alph = frozenset(toks[i] for i in alph_idx)
    ult = frozenset(toks[i] for i in ult_idx)
    vanishing = alph_idx - ult_idx
    # Vanishing letters live only in the preperiod; m is the position of the
    # last of their occurrences, so that the tail past m uses exactly Ult.
    m = 0
    for pos, c in enumerate(directive.preperiod, start=1):
        if c in vanishing:
            m = pos
    strict_over = ult if alph_idx == ult_idx else None
    return StrictnessReport(alph=alph, ult=ult, strict_over=strict_over, m=m)


def decompose_nonstrict(directive: DirectiveWord) -> tuple[PureEpistandardMorphism, DirectiveWord]:
    """Split a non-strict directive into its morphic shell and strict core.

    Returns the prefix morphism over the shortest prefix holding all vanishing
    letters, together with the correspondingly shifted directive; applying the
    morphism to the core's standard word rebuilds the original one.
    """
    report = strictness(directive)
    if report.strict:
        raise NothingToDecompose(f"directive {directive} is already strict")
    mu = prefix_morphism(directive, report.m)
    return mu, directive.shift(report.m)


def shift_chain(directive: DirectiveWord, i: int, horizon: int) -> list[str]:
    """Check shift-chain links 1..``i`` within ``horizon`` letters; returns the peeled letters.

    Link j maps the j-th shifted word back through the generator of directive
    letter j and checks that it matches the (j-1)-th.  Link j's shifted word
    is link j+1's parent, so each one is built once: ``i`` + 1 standard words.
    The generator maps a finite prefix of the shifted word
    (:meth:`PureEpistandardMorphism._map_text`), not the engine on the
    prepended directive, so the check stays independent of the engine; it is
    non-erasing, so ``horizon`` letters of the shifted word map to at least
    ``horizon`` letters.

    Raises :class:`InternalConsistencyError` at the first link that
    diverges: the two construction paths must agree letter for letter.
    """
    if i < 1:
        raise ValueError("shift index must be >= 1")
    letters = []
    parent = standard_word(directive)
    for j in range(1, i + 1):
        child = standard_word(directive.shift(j))
        x = directive.letter(j)
        image = PureEpistandardMorphism(directive.alphabet, (x,))._map_text(child._letters(0, horizon))
        if parent._letters(0, horizon) != image[:horizon]:
            raise InternalConsistencyError(
                f"shift chain link {j} of {directive} diverges within horizon {horizon}"
            )
        letters.append(directive.alphabet.letters[x])
        parent = child
    return letters


def as_directive(stream: WordStream) -> DirectiveWord | None:
    """The directive ``stream`` states (see :meth:`~epilex.words.WordStream.directive`)."""
    return stream.directive()


@lru_cache(maxsize=4096)
def exact_horizon(directive: DirectiveWord, k: int) -> int:
    """A prefix length at which every length-``k`` factor has appeared.

    Derived from the Justin-Pirillo decomposition s_D = mu_n(s_{T^n D})
    (Justin-Pirillo 2002, TCS 276): mu_n composes the generators of the
    first n directive letters d_1..d_n, T^n D drops them, and u_j are the
    palindromic prefixes.  By the last-occurrence rule,
    |mu_n(x)| = |u_n| - |u_{j-1}|, with j <= n the last position of x among
    d_1..d_n, or |u_n| + 1 when x is not among them.

    With at least two recurring letters:

    1. Let n be the least index at which |mu_n(x)| >= k for every letter x
       of T^n D.  A length-k window of s_D that starts inside the image of a
       letter of s' = s_{T^n D} ends inside the image of the next one, so it
       lies inside mu_n(x x') for a length-2 factor x x' of s', and starts
       inside mu_n(x).
    2. y = d_{n+1} separates s' = psi_y(s_{T^{n+1} D}): its length-2 factors
       are yz and zy for every other letter z of T^n D, and yy exactly when
       y occurs in T^{n+1} D.  The palindromic prefixes u'_i of s' start and
       end with y, and u'_i is followed by d_{n+i+1}, so a new letter
       z = d_{n+i} gives yz and zy by |u'_{i-1}| + 2 <= |u'_i| and a
       second y gives yy by |u'_{i-1}| + 1.  Let J be the first index at
       which d_{n+1}..d_{n+J} holds every letter of T^n D, and y twice when
       yy is needed: the first occurrence of every length-2 factor of s'
       starts within u'_J, or within u'_{J-1} when d_{n+J} = y.
    3. u_{n+j} = mu_n(u'_j) u_n, so |mu_n(u'_j)| = |u_{n+j}| - |u_n|, and
       every window starts before that many letters and ends within k - 1
       more: the bound is |u_{n+J}| - |u_n| + k - 1, or
       |u_{n+J-1}| - |u_n| + k - 1 when d_{n+J} = y.

    With one recurring letter y the word is mu_m(y)^omega, with m the
    position of the last vanishing letter (see :class:`DirectiveStream`), so
    every factor starts within the first period and the bound is
    |mu_m(y)| + k - 1.

    Both are read off palindromic-prefix lengths and letter counts
    (:func:`image_length`); no word and no letter image is built, and a
    lookup takes n + J steps of the rule.  The brute-force test
    ``tests/test_extremal.py::test_exact_horizons_hold_every_factor`` and
    the Droubay-Justin-Pirillo complexity test try to falsify it.
    """
    if k <= 0:
        return 1
    if len(directive.ult()) < 2:
        m = strictness(directive).m
        return image_length(prefix_morphism(directive, m), directive.letter(m + 1)) + k - 1
    pre, ult = directive.preperiod, directive.ult()
    lengths: list[int] = [0]
    last: dict[int, int] = {}
    n = 0
    while any(
        lengths[n] + 1 < k if x not in last else lengths[n] - lengths[last[x] - 1] < k
        for x in ult.union(pre[n:])  # the letters of T^n D
    ):
        n += 1
        _next_prefix_length(lengths, last, directive.letter(n))
    y = directive.letter(n + 1)
    need = dict.fromkeys(ult.union(pre[n:]), 1)
    need[y] = 2 if y in ult.union(pre[n + 1 :]) else 1
    left, end = sum(need.values()), n
    while left:
        end += 1
        x = directive.letter(end)
        _next_prefix_length(lengths, last, x)
        if need[x]:
            need[x] -= 1
            left -= 1
    return lengths[end - 1 if x == y else end] - lengths[n] + k - 1


def recover_directive_letters(text: str) -> list[int]:
    """Read the directive letters of a standard word off one of its prefixes.

    ``text`` is the prefix's ``chr`` text (``WordStream._text``), so letter
    indices must be at most ``sys.maxunicode``; the letters come back as
    indices.  Each directive letter sits immediately after the previous
    palindromic prefix; lengths advance by the same last-occurrence rule the
    engine uses.  While directive letter x repeats, every |u_n| grows by the
    same q = |u_{n-1}| - |u_{n-2}| (Justin-Pirillo 2002, TCS 276; see
    :class:`DirectiveStream`), so a run of x after |u_n| = L is the leading
    x's of ``text[L::q]``, read with one ``lstrip`` and appended at once.
    Content is not revalidated here, so callers must check any inferred
    directive by regeneration.
    """
    lengths = [0]
    last: dict[int, int] = {}
    letters: list[int] = []
    while lengths[-1] < len(text):
        c = text[lengths[-1]]
        x = ord(c)
        length = _next_prefix_length(lengths, last, x)
        q = length - lengths[-2]
        run = text[length::q]
        r = len(run) - len(run.lstrip(c))
        letters += [x] * (r + 1)
        lengths += range(length + q, length + r * q + 1, q)
        last[x] = len(lengths) - 1
    return letters


_MAX_PERIOD = 64


def infer_eventually_periodic(alphabet: Alphabet, letters: Sequence[int]) -> DirectiveWord:
    """Smallest eventually periodic directive consistent with the observed letters.

    A candidate needs two full periods of evidence beyond the preperiod and a
    periodic tail covering at least half the observation, so an observation
    that merely ends in a repeated letter is not mistaken for an eventually
    constant directive.  Raises ``ValueError`` when no period up to
    ``_MAX_PERIOD`` fits.
    """
    n = len(letters)
    for q in range(1, min(_MAX_PERIOD, max(n // 2, 1)) + 1):
        r = 0
        for i in range(n - q - 1, -1, -1):
            if letters[i] != letters[i + q]:
                r = i + 1
                break
        if r + 2 * q <= n and r <= n // 2:
            return DirectiveWord(alphabet, tuple(letters[:r]), tuple(letters[r : r + q]))
    raise ValueError("no eventually periodic directive fits the observed letters")
