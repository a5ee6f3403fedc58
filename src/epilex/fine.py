"""Fineness: words whose minimal factors share one tail under every order.

A word is fine (up to a checked depth) when there is a single word s such
that, for every order on its letters, the minimal length-k factor is the
least letter followed by a prefix of s.  Structurally the fine words are the
strict standard episturmian words and the skew words assembled by
:func:`construct_skew`; :func:`classify` decides which, and cross-checks the
structural verdict against the empirical scan.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass, replace
from enum import Enum
from itertools import compress, count
from operator import add, ne

from .engine import (
    DirectiveWord,
    InternalConsistencyError,
    infer_eventually_periodic,
    recover_directive_letters,
    standard_word,
    strictness,
)
from .morphisms import PureEpistandardMorphism, psi
from .words import (
    MAX_LETTERS,
    Alphabet,
    ConcatStream,
    LengthError,
    LexOrder,
    LiteralPeriodicStream,
    Word,
    WordStream,
    all_orders,
    scan_length,
)
from .extremal import _letter_bitsets, _window_chain

__all__ = [
    "Classification",
    "FinenessVerdict",
    "NotFine",
    "NotSkewForm",
    "SkewSpec",
    "SpecError",
    "Witness",
    "classify",
    "construct_skew",
    "is_fine_empirical",
    "reconstruct_skew",
    "verify_min_transfer",
]


class SpecError(ValueError):
    """A skew-word specification violates its invariants."""


class NotSkewForm(ValueError):
    """The scanned word cannot be peeled into the skew normal form."""


class NotFine(NotSkewForm):
    """The word failed the fineness scan, so it is no skew word."""


@dataclass(frozen=True)
class SkewSpec:
    """Data of a skew word: ``suffix . morphism(core)``.

    ``directive`` directs the recurrent core, which must be strict over its
    own letters B; ``x`` is the one letter outside B.  The word prepended to
    the morphic image is the suffix, of length ``suffix_len``, of the morphism
    applied to (mirrored core prefix of length ``p``) followed by ``x``.
    Storing the length instead of the suffix itself keeps the suffix condition
    true by construction.
    """

    directive: DirectiveWord
    x: str
    p: int
    morphism: PureEpistandardMorphism
    suffix_len: int

    @property
    def alphabet(self) -> Alphabet:
        return self.morphism.alphabet

    def seed_word(self) -> Word:
        """The morphic image of the mirrored core prefix followed by ``x``."""
        core = standard_word(self.directive)
        mirrored = core.prefix(self.p).reversal()
        marker = Word(self.alphabet, (self.alphabet.index(self.x),))
        return self.morphism.apply(mirrored + marker)

    def seed_length(self) -> int:
        """``len(self.seed_word())``, from the core prefix's letter counts and
        the letter image lengths, so no image is built."""
        text = standard_word(self.directive)._text(self.p) + chr(self.alphabet.index(self.x))
        return self.morphism._image_size(text)

    def exact_horizon(self, k: int) -> int:
        """The bound of the word ``construct_skew(self)``: the suffix length
        plus the bound of its morphic core image, so no seed is built."""
        return self.suffix_len + skew_common_word(self).exact_horizon(k)

    def suffix_word(self) -> Word:
        seed = self.seed_word()
        return seed[len(seed) - self.suffix_len :]

    def validate(self) -> None:
        if self.p < 0:
            raise SpecError("mirrored prefix length must be >= 0")
        if self.directive.alphabet != self.alphabet:
            raise SpecError("core directive and morphism must share an alphabet")
        if self.x not in self.alphabet:
            raise SpecError(f"letter {self.x!r} is not in the alphabet")
        x_idx = self.alphabet.index(self.x)
        core = self.directive.alph()
        if x_idx in core:
            raise SpecError(f"letter {self.x!r} must stay out of the recurrent core")
        report = strictness(self.directive)
        if not report.strict:
            raise SpecError(f"core directive {self.directive} is not strict")
        if any(z != x_idx and z not in core for z in self.morphism.letters):
            raise SpecError("morphism generators must stay inside the word's letters")
        seed_len = self.seed_length()
        if not 1 <= self.suffix_len <= seed_len:
            raise SpecError(
                f"suffix length {self.suffix_len} out of range 1..{seed_len}"
            )


def construct_skew(spec: SkewSpec) -> ConcatStream:
    """The stream ``suffix . morphism(core)`` described by ``spec``."""
    spec.validate()
    return ConcatStream(spec.suffix_word(), skew_common_word(spec))


def skew_common_word(spec: SkewSpec) -> WordStream:
    """The word shared by all minimal factors of the skew word: the morphic
    core image, which the core states as a standard word (``DirectiveStream._image``)."""
    return spec.morphism.apply(standard_word(spec.directive))


class Classification(Enum):
    STRICT_EPISTURMIAN = "StrictEpisturmian"
    SKEW_EPISTURMIAN = "SkewEpisturmian"
    NOT_FINE = "NotFine"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Witness:
    """A reproducible refutation of fineness at one order and length."""

    order: LexOrder
    k: int
    factor: Word
    required: Word
    reason: str  # "smaller-factor" or "required-missing"


@dataclass(frozen=True)
class FinenessVerdict:
    classification: Classification
    depth: int
    strict_alphabet: frozenset[str] | None = None
    skew: SkewSpec | None = None
    s_prefix: Word | None = None
    witness: Witness | None = None

    @property
    def fine_to_depth(self) -> bool:
        return self.classification is not Classification.NOT_FINE


def _present_tokens(stream: Word | WordStream, seen: Container[int]) -> list[str]:
    toks = stream.alphabet.letters
    return [toks[i] for i in range(len(toks)) if i in seen]


def _chain_mismatch(text: str, chain: list[int], expected: str) -> tuple[int, str] | None:
    """The first k at which min(text|k) differs from ``expected[:k]``, with that factor.

    Both are ``chr`` texts.  ``chain`` is ``minimal_window_positions(text,
    rank, depth)`` for the order in question; ``None`` means the two agree
    at every k the chain reaches.
    The chain rescans at length k+1 exactly when its first least k-window
    ends at the last letter, ``chain[k-1] + k == len(text)``.  Without such a
    k the least windows nest, so each min(text|k) is a prefix of the last and
    one comparison of that word with ``expected`` finds the first k, in
    O(depth); otherwise each k is compared in turn.  A scan to the exact
    bound of ``depth`` never takes the second path: every length-``depth``
    factor, min(t)[:depth] among them, occurs within the bound, so for each
    k < depth some least k-window is followed by a letter of ``text``.
    """
    if not chain:
        return None
    if len(text) not in map(add, chain[:-1], count(1)):
        p, depth = chain[-1], len(chain)
        word = text[p : p + depth]
        k = next(compress(count(1), map(ne, word, expected)), len(expected) + 1)
        return (k, word[:k]) if k <= depth else None
    for k, p in enumerate(chain, start=1):
        actual = text[p : p + k]
        if actual != expected[:k]:
            return k, actual
    return None


def is_fine_empirical(t: Word | WordStream, depth: int) -> FinenessVerdict:
    """Scan every order on the letters of ``t`` for a shared minimal-factor tail.

    Returns ``UNKNOWN`` with the common tail when the word is fine up to
    ``depth``, else ``NOT_FINE`` with the first offending (order, length,
    factor) found.  The number of orders is factorial in the number of
    distinct letters; keep alphabets small.  The letter bitsets of the
    minimal-factor chain depend on the scanned prefix alone, so they are
    built once per scan and shared by every order; each order runs only the
    chain's loop (see :func:`~epilex.extremal.minimal_window_positions`).

    The scan reads ``t.exact_horizon(depth)`` letters: every length-k
    factor with k <= depth is a prefix of a length-``depth`` factor, and all
    of those have occurred by then.  A question about a prefix passes the
    prefix, ``t.prefix(h)`` for a word or a stream: a finite
    :class:`~epilex.words.Word` states its length as its bound, so the
    verdict is exact for that prefix, and a word shorter than ``depth``
    raises :class:`~epilex.words.LengthError`.

    The tail is the common s of min(t) = a·s.  Over two letters a < b,
    Pirillo's characterization also asks max(t) = b·s.  The greatest factors
    under an order are the least under the reversed one, which this scan
    covers as well, so that pairing is already checked.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = t.exact_horizon(depth)
    if n < depth:
        raise LengthError(f"depth {depth} exceeds word length {n}")
    text = t._text(n)
    bitsets = _letter_bitsets(text)
    orders = all_orders(t.alphabet, subset=_present_tokens(t, bitsets))
    s_ref: str | None = None
    for order in orders:
        rank = order.ranks
        chain = _window_chain(text, bitsets, rank, depth)
        a_idx = min(bitsets, key=rank.__getitem__)
        if s_ref is None:
            p = chain[depth - 1]
            s_ref = text[p + 1 : p + depth]
        required = chr(a_idx) + s_ref
        mismatch = _chain_mismatch(text, chain, required)
        if mismatch is not None:
            k, actual = mismatch
            required = required[:k]
            ranked = {c: chr(rank[c]) for c in bitsets}
            reason = "smaller-factor" if actual.translate(ranked) < required.translate(ranked) else "required-missing"
            return FinenessVerdict(
                classification=Classification.NOT_FINE,
                depth=depth,
                witness=Witness(
                    order=order,
                    k=k,
                    factor=Word._trusted(t.alphabet, actual),
                    required=Word._trusted(t.alphabet, required),
                    reason=reason,
                ),
            )
    assert s_ref is not None
    return FinenessVerdict(
        classification=Classification.UNKNOWN,
        depth=depth,
        s_prefix=Word._trusted(t.alphabet, s_ref),
    )


def verify_min_transfer(
    t1: WordStream, s1: WordStream, z: str, a: str, depth: int, horizon: int
) -> bool:
    """Check the transfer of minimal factors through one generator morphism.

    For every order: the source pair satisfies min = a . s1 exactly when the
    image pair satisfies min = (z a . s) or (a . s), the first branch when z
    ranks below a.  Returns whether the two sides agree under all orders.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if t1.alphabet != s1.alphabet:
        raise ValueError("both streams must share an alphabet")
    alphabet = t1.alphabet
    a_idx = alphabet.index(a)
    z_idx = alphabet.index(z)
    gen = psi(alphabet, z)
    # The image side maps prefixes through the generator, as shift_chain does,
    # apart from the image streams; n letters map to at least n.
    n = scan_length(gen.apply(t1), depth, horizon)[0]
    t_text = gen._map_text(t1._text(n))[:n]
    s_img = gen._map_text(s1._text(depth + 2))[: depth + 2]
    t1_text = t1._text(scan_length(t1, depth, horizon)[0])
    lhs_expected = chr(a_idx) + s1._text(depth + 1)
    t_bits = _letter_bitsets(t_text)
    t1_bits = _letter_bitsets(t1_text)

    def matches(text: str, bitsets: dict[int, int], rank: tuple[int, ...], expected: str) -> bool:
        # A chain short of depth (the scan read fewer letters) never matches.
        chain = _window_chain(text, bitsets, rank, depth)
        return len(chain) >= depth and _chain_mismatch(text, chain, expected) is None

    for order in all_orders(alphabet):
        rank = order.ranks
        lhs = matches(t1_text, t1_bits, rank, lhs_expected)
        rhs_expected = chr(z_idx) * (rank[z_idx] < rank[a_idx]) + chr(a_idx) + s_img
        rhs = matches(t_text, t_bits, rank, rhs_expected)
        if lhs != rhs:
            return False
    return True


def _cross_checked(emp: FinenessVerdict, s: WordStream, claim: str, **fields) -> FinenessVerdict:
    """The structural verdict ``fields``, once the empirical one agrees with it.

    ``claim`` names the structure that says the word is fine with tail ``s``;
    the empirical verdict ``emp`` must be fine with ``s`` as its common tail,
    or the two decision paths disagree and :class:`InternalConsistencyError`
    is raised.
    """
    if not emp.fine_to_depth:
        raise InternalConsistencyError(f"{claim} failed the empirical scan: {emp.witness}")
    if emp.s_prefix != s.prefix(emp.depth - 1):
        raise InternalConsistencyError(f"{claim}: common tail differs from the structural one")
    return replace(emp, **fields)


def classify(
    spec: DirectiveWord | SkewSpec | LiteralPeriodicStream,
    depth: int,
    horizon: int | None = None,
) -> FinenessVerdict:
    """Exact fineness classification of a structured description.

    A fine word is a strict episturmian word or a strict skew episturmian
    word, so there are two fine claims: a strict directive (or a one-letter
    literal word, the degenerate strict case) and a skew specification.  A
    literal ultimately periodic word reaches the skew claim by peeling
    (:func:`reconstruct_skew`).  One empirical scan serves every kind: each
    fine claim is cross-checked against it, and a disagreement raises
    :class:`InternalConsistencyError` rather than being swallowed; a word the
    scan refutes gets the scan's own ``NOT_FINE`` verdict and witness.  A
    non-strict directive is ``NOT_FINE`` whatever the scan finds, and a fine
    literal word that does not peel is ``UNKNOWN``.

    Every kind states its exact bound, and the scan reads exactly that many
    letters; ``horizon`` only sets the letters a literal word is peeled from,
    at least ``4 * bound + 4 * depth + 4``.  A peel past
    :data:`~epilex.words.MAX_LETTERS` letters raises
    :class:`~epilex.words.LengthError` before the scan.
    """
    h = strict_over = skew = None
    if isinstance(spec, DirectiveWord):
        t = tail = standard_word(spec)
        report = strictness(spec)
        if report.strict:
            claim, strict_over = f"strict directive {spec}", report.strict_over
    elif isinstance(spec, SkewSpec):
        t = construct_skew(spec)
        tail, skew = t.tail, spec
    elif isinstance(spec, LiteralPeriodicStream):
        t = tail = spec
        # Not an exactness bound: enough letters for reconstruct_skew to peel.
        h = max(horizon or 0, 4 * t.exact_horizon(depth) + 4 * depth + 4)
        if h > MAX_LETTERS:
            raise LengthError(f"classify peels {h} letters, which exceeds the limit of {MAX_LETTERS} letters")
        letters = {*t.head, *t.cycle}
        if len(letters) == 1:
            # The one-letter periodic word is the degenerate strict case: s is the word.
            claim, strict_over = f"one-letter word {t.head}({t.cycle})", frozenset(letters)
    else:
        raise TypeError(f"cannot classify {type(spec).__name__}")
    emp = is_fine_empirical(t, depth)
    if h is not None and strict_over is None and emp.fine_to_depth:
        # A literal word makes its skew claim by peeling; the spec's word is
        # the literal word, so the scan above is its scan.
        try:
            skew = reconstruct_skew(t, 0, h)
        except NotSkewForm:
            return emp
        tail = skew_common_word(skew)
    if strict_over is not None:
        return _cross_checked(
            emp, tail, claim, classification=Classification.STRICT_EPISTURMIAN, strict_alphabet=strict_over
        )
    if skew is not None:
        return _cross_checked(
            emp, tail, f"skew spec {skew}", classification=Classification.SKEW_EPISTURMIAN, skew=skew
        )
    # A non-strict directive never yields a fine word; the scan supplies the
    # witness when one exists within the checked depth.
    return emp if not emp.fine_to_depth else FinenessVerdict(Classification.NOT_FINE, depth)


def _separates_text(z: str, text: str, letters: set[str]) -> bool:
    """Whether every length-2 factor of ``text`` contains the character ``z``.

    ``letters`` is ``set(text)``.  ``z`` separates exactly when no factor
    ``xy`` of two other letters occurs, and each ``in`` is one C-level
    search that stops at its first hit.
    """
    others = letters - {z}
    return all(x + y not in text for x in others for y in others)


def _peel_text(text: str, z: str, letters: set[str]) -> str:
    """Invert the generator of ``z`` on a text known to have ``z`` separating.

    ``letters`` is ``set(text)``.  The generator maps ``z`` to ``z`` and
    every other y to ``zy``.  With ``z`` prepended when the text starts
    inside an image, every image starts with ``z`` and no two other letters
    touch, so replacing each ``zy`` by ``y`` leaves one letter per image.  A
    trailing lone ``z`` is ambiguous (it may be a truncated two-letter
    image) and is dropped.
    """
    if not text.startswith(z):
        text = z + text
    for y in letters - {z}:
        text = text.replace(z + y, y)
    return text[:-1] if text.endswith(z) else text


def reconstruct_skew(t: WordStream, depth: int, horizon: int) -> SkewSpec:
    """Recover a skew specification from a stream by peeling separating letters.

    Peels one generator at a time until some letter occurs exactly once in the
    scanned prefix, reads the core directive off the remainder, and chooses
    the longest seed suffix that regenerates the scanned prefix.  ``depth``
    (when positive) runs the empirical fineness scan first as a cheap gate,
    which raises :class:`NotFine` with the scan's witness; it runs before
    the ``horizon`` letters are read, so a refuted word costs only the scan.
    Raises :class:`NotSkewForm` whenever any stage fails.

    The prefix is read once as its ``chr`` text (``t._text(horizon)``;
    letter indices at most ``sys.maxunicode``), and each peel level runs
    C-level string operations on it: a letter occurs once when ``find`` and
    ``rfind`` agree; a separating letter lies in every length-2 factor, so
    only the first two letters can separate (:func:`_separates_text`); the
    peel is one ``replace`` per letter (:func:`_peel_text`).  The core
    directive is read off the text past the unique letter by the
    last-occurrence rule (Justin-Pirillo 2002, TCS 276;
    :func:`~epilex.engine.recover_directive_letters`).  The seed suffix is
    matched against slices of the prefix's text.
    """
    if depth > 0:
        # The scan reads the exact bound, so a fine word is not refuted for
        # want of letters however short the horizon.
        gate = is_fine_empirical(t, depth)
        if not gate.fine_to_depth:
            raise NotFine(f"not fine within depth {depth}: {gate.witness}")
    scanned = text = t._text(horizon)
    alphabet = t.alphabet
    gens: list[int] = []
    for _ in range(64):
        letters = set(text)
        unique = [c for c in letters if text.find(c) == text.rfind(c)]
        if len(unique) > 1:
            raise NotSkewForm("several letters occur exactly once in the scanned prefix")
        if len(unique) == 1:
            x = unique[0]
            i = text.index(x)
            head, tail = text[:i], text[i + 1 :]
            if len(tail) <= len(head) or len(tail) < 4:
                raise NotSkewForm("horizon too short past the unique letter")
            if head != tail[: len(head)][::-1]:
                raise NotSkewForm("prefix before the unique letter does not mirror the core")
            return _assemble_spec(alphabet, gens, ord(x), i, tail, scanned)
        seps = [z for z in set(text[:2]) if _separates_text(z, text, letters)]
        if not seps:
            raise NotSkewForm("no separating letter to peel")
        if len(seps) > 1:
            raise NotSkewForm("prefix alternates two letters; periodic, not skew")
        z = seps[0]
        text = _peel_text(text, z, letters)
        gens.append(ord(z))
        if len(text) < 8:
            raise NotSkewForm("horizon exhausted while peeling")
    raise NotSkewForm("peeling did not terminate")


def _assemble_spec(
    alphabet: Alphabet, gens: list[int], x: int, p: int, tail: str, seq: str
) -> SkewSpec:
    """The spec with core directive read off ``tail``, the ``chr`` text past
    the unique letter ``x`` at position ``p``, and the longest seed suffix
    that regenerates ``seq``, the scanned prefix's text."""
    try:
        core = infer_eventually_periodic(alphabet, recover_directive_letters(tail))
    except ValueError as exc:
        raise NotSkewForm(str(exc)) from None
    morphism = PureEpistandardMorphism(alphabet, tuple(gens))
    base = SkewSpec(
        directive=core,
        x=alphabet.letters[x],
        p=p,
        morphism=morphism,
        suffix_len=1,
    )
    try:
        base.validate()
    except SpecError as exc:
        raise NotSkewForm(str(exc)) from None
    seed = base.seed_word().text
    image = skew_common_word(base)
    for ell in range(len(seed), 0, -1):
        if seed[len(seed) - ell :] != seq[:ell]:
            continue
        if image._letters(0, len(seq) - ell) == seq[ell:]:
            return replace(base, suffix_len=ell)
    raise NotSkewForm("no suffix of the seed regenerates the scanned prefix")
