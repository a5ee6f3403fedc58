import random

import pytest
from hypothesis import given, settings, strategies as st

from epilex import (
    Alphabet,
    AlphabetError,
    ConcatStream,
    DirectiveStream,
    DirectiveWord,
    LiteralPeriodicStream,
    MorphicImageStream,
    PureEpistandardMorphism,
    Word,
    WordStream,
    all_orders,
    complexity,
    construct_skew,
    factors,
    palindromic_prefixes,
    psi,
    standard_word,
)
from epilex.textio import ParseError, parse_directive, parse_literal, parse_skew
from epilex.words import MAX_LETTERS, LengthError, _chr_text

from helpers import letter_images

AB = Alphabet.of("a", "b")
ABC = Alphabet.of("a", "b", "c")


def fib(alphabet=AB):
    return standard_word(parse_directive(alphabet, "(ab)"))


def trib():
    return standard_word(parse_directive(ABC, "(abc)"))


# --- alphabets and words ---------------------------------------------------

def test_alphabet_rejects_duplicates_and_reserved():
    with pytest.raises(ValueError):
        Alphabet.of("a", "a")
    with pytest.raises(ValueError):
        Alphabet.of("a", "b,c")
    with pytest.raises(ValueError):
        Alphabet(())


def test_word_basics():
    w = AB.word("abaab")
    assert len(w) == 5
    assert str(w) == "abaab"
    assert w[0] == "a"
    assert str(w[1:3]) == "ba"
    assert str(w + AB.word("ba")) == "abaabba"
    with pytest.raises(AlphabetError):
        AB.word("abc")


def test_multichar_alphabet_words_are_comma_separated():
    big = Alphabet.of("aa", "bb")
    w = big.word("aa,bb,aa")
    assert str(w) == "aa,bb,aa"
    assert tuple(w) == ("aa", "bb", "aa")


def test_reversal_and_palindromes():
    assert str(AB.word("abaa").reversal()) == "aaba"
    assert AB.word("").is_palindrome()
    assert AB.word("abaaba").is_palindrome()
    assert not AB.word("ab").is_palindrome()


@given(st.lists(st.integers(0, 2), max_size=30))
def test_reversal_is_involutive(indices):
    w = Word(ABC, tuple(indices))
    assert w.reversal().reversal() == w


def test_all_orders_enumeration_is_deterministic():
    described = [o.describe() for o in all_orders(ABC)]
    assert described[0] == "a<b<c"
    assert described == sorted(set(described), key=described.index)
    assert len(described) == 6


def test_all_orders_returns_a_fresh_list():
    first = all_orders(ABC, subset=["a", "c"])
    expected = list(first)
    first.reverse()
    first.append(first[0])
    assert all_orders(ABC, subset=["a", "c"]) == expected
    assert all_orders(ABC, subset=("a", "c")) == expected
    assert [o.describe() for o in expected] == ["a<c<b", "c<a<b"]


# --- factors ----------------------------------------------------------------

def test_factors_examples():
    got = {str(f) for f in factors(AB.word("abaab"), 2)}
    assert got == {"ab", "ba", "aa"}
    assert factors(AB.word("abaab"), 0) == {AB.word("")}
    assert {str(f) for f in factors(fib().prefix(20), 3)} == {"aab", "aba", "baa", "bab"}
    assert factors(AB.word("ab"), 5) == set()


@given(st.lists(st.integers(0, 1), min_size=1, max_size=25), st.integers(0, 6))
def test_factors_reversal_invariance(indices, k):
    w = Word(AB, tuple(indices))
    left = {f.reversal() for f in factors(w, k)}
    assert left == factors(w.reversal(), k)


# --- streams ----------------------------------------------------------------

def test_prefix_examples():
    assert str(fib().prefix(14)) == "abaababaabaaba"
    assert fib().prefix(0) == AB.word("")
    ababa = LiteralPeriodicStream(AB.word(""), AB.word("ab"))
    assert str(ababa.prefix(5)) == "ababa"
    # A finite word cuts its prefixes as a stream does, up to its length.
    w = fib().prefix(40)
    for n in (0, 1, 17, 40):
        assert w.prefix(n) == fib().prefix(n) and w.raw(n) == fib().raw(n)
    for n in (-1, 41):
        with pytest.raises(LengthError):
            w.prefix(n)


@pytest.mark.parametrize(
    "letters",
    [
        ("a", "b", "c"),
        ("\u00e9", "b", "\u00df"),
        tuple(chr(0x4E00 + i) for i in range(255)),
        tuple(chr(0x4E00 + i) for i in range(256)),
        tuple(chr(0x4E00 + i) for i in range(300)),
        ("aa", "b", "cc"),
    ],
    ids=["ascii", "latin-1", "255-letters", "256-letters", "300-letters", "multi-character"],
)
def test_word_str_is_the_token_join(letters):
    alphabet = Alphabet(letters)
    rng = random.Random(len(letters))
    w = Word(alphabet, tuple(rng.randrange(len(letters)) for _ in range(500)) + (0, len(letters) - 1))
    sep = "" if all(len(t) == 1 for t in letters) else ","
    assert str(w) == sep.join(w)
    assert str(w[:0]) == ""


def test_text_is_the_chr_join_for_every_index_chr_takes():
    assert _chr_text((0x10FFFF, 0xD800, 0, 0xDFFF)) == "".join(map(chr, (0x10FFFF, 0xD800, 0, 0xDFFF)))
    # Indices past 255 and in the surrogate range, through every stream
    # kind, against letters worked out from index tuples apart from any text.
    wide = Alphabet(tuple(f"t{i}" for i in range(0xE001)))
    head_idx, cycle_idx = (0xD800, 300, 0xDFFF, 0, 0xDBFF), (0xDC00, 256, 0xE000, 255, 0xD7FF)
    head, cycle = Word(wide, head_idx), Word(wide, cycle_idx)
    literal = LiteralPeriodicStream(head, cycle)
    m = PureEpistandardMorphism(wide, (0xD800, 300))
    image = MorphicImageStream(m, literal)
    directive = DirectiveWord(wide, (0xD800, 300), (0xDFFF, 256))
    letters = head_idx + cycle_idx * 70
    images = letter_images(m)
    closed = palindromic_prefixes(directive, 12)[-1]
    expected = {
        literal: letters,
        ConcatStream(cycle, literal): cycle_idx + letters,
        image: tuple(x for c in letters for x in images[c]),
        DirectiveStream(directive): closed.raw(len(closed)),
    }
    for t, want in expected.items():
        assert len(want) >= 333
        for n in (0, 1, 7, 333):
            assert t._text(n) == "".join(map(chr, want[:n]))
            assert t.raw(n) == list(want[:n]) and t.prefix(n) == Word(wide, want[:n])
    assert image.prefix(333) == image.morphism.apply(literal.prefix(333))[:333]


def _block(stream):
    """The letters a memo grows by at a time: a literal's cycle, else one."""
    return len(stream.cycle) if isinstance(stream, LiteralPeriodicStream) else 1


def test_memo_growth_is_geometric(monkeypatch):
    # A memo is a str, replaced whole on each growth, so reading in small
    # steps stays linear only if each growth at least doubles it: 2*10**6
    # letters in 1,000-letter steps take O(log n) growths, not n / 1000.
    import epilex.words as words

    def literal():
        return LiteralPeriodicStream(ABC.word("ab"), ABC.word("cab"))

    makers = (
        literal,
        lambda: ConcatStream(ABC.word("ba"), literal()),
        lambda: MorphicImageStream(psi(ABC, "c"), literal()),
    )
    grown: dict[WordStream, list[int]] = {}
    for kind in (LiteralPeriodicStream, ConcatStream, MorphicImageStream):
        extend = kind._extend

        def counting(self, n, extend=extend):
            extend(self, n)
            grown.setdefault(self, []).append(len(self._buf))

        monkeypatch.setattr(kind, "_extend", counting)
    n, step = 2 * 10**6, 1000
    for make in makers:
        want = make()._text(n)
        grown.clear()
        t = make()
        assert "".join(t._letters(i, i + step) for i in range(0, n, step)) == want
        # the outer stream and, for a concatenation or an image, its literal
        # source: the image reads the literal that states it, not the inner one
        assert len(grown) == (1 if type(t) is LiteralPeriodicStream else 2)
        for s, lengths in grown.items():
            assert len(lengths) <= n.bit_length(), lengths
            assert max(lengths) < min(2 * n, MAX_LETTERS) + _block(s)
    # Growth doubles the memo only up to MAX_LETTERS, which a literal memo,
    # grown in whole cycles, may pass by less than one cycle.
    monkeypatch.setattr(words, "MAX_LETTERS", 50_000)
    for make in makers:
        grown.clear()
        t = make()
        for i in range(0, 40_000, step):
            t._letters(i, i + step)
        assert all(max(lengths) < 50_000 + _block(s) for s, lengths in grown.items())
        assert max(grown[t]) > 40_000


@st.composite
def strict_directives(draw):
    # Every letter of the directive recurs: the preperiod draws from the period's letters.
    size = draw(st.integers(1, 4))
    period = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=5))
    pre = draw(st.lists(st.sampled_from(period), max_size=5))
    return DirectiveWord(Alphabet(tuple("abcd"[:size])), tuple(pre), tuple(period))


@settings(max_examples=300, deadline=None)
@given(strict_directives(), st.integers(1, 120))
def test_strict_words_have_the_droubay_justin_pirillo_complexity(d, k):
    # Droubay-Justin-Pirillo (TCS 255, 2001): a standard episturmian word
    # whose directive is strict over m letters has (m - 1)k + 1 factors of
    # each length k.  complexity() with no horizon counts the factors within
    # exact_horizon(k), so a bound too short to hold them all counts fewer:
    # this tries to falsify the bound.
    m = len(d.ult())
    assert complexity(standard_word(d), k) == (m - 1) * k + 1


def test_literal_stream_requires_nonempty_cycle():
    with pytest.raises(ValueError):
        LiteralPeriodicStream(AB.word("a"), AB.word(""))


def test_stream_prefixes_are_monotone_and_deterministic():
    s = fib()
    p30 = s.prefix(30)
    assert s.prefix(12) == p30[:12]
    assert s.prefix(30) == p30


def test_complexity_examples():
    assert complexity(fib(), 5) == complexity(fib(), 5, 200) == 6
    assert complexity(trib(), 10, 2000) == 21
    assert complexity(fib(), 0, 1) == 1
    with pytest.raises(ValueError, match="factor length must be >= 0"):
        complexity(fib(), -1, 10)


def test_complexity_formulas_at_spec_horizons():
    f = fib()
    assert all(complexity(f, n, 5000) == n + 1 for n in range(1, 51))
    t = trib()
    assert all(complexity(t, n, 20000) == 2 * n + 1 for n in range(1, 51))


def test_concurrent_stream_extension_is_safe():
    import sys
    import threading

    import epilex

    # One fresh stream of every exported kind; a skew word is a ConcatStream
    # over a directive stream.
    fresh = {
        DirectiveStream: trib,
        LiteralPeriodicStream: lambda: LiteralPeriodicStream(ABC.word("ab"), ABC.word("cab")),
        ConcatStream: lambda: construct_skew(parse_skew(ABC, "skew v=(ab) x=c p=4 mu=psi:c suffix=full")),
        MorphicImageStream: lambda: MorphicImageStream(psi(ABC, "c"), trib()),
    }
    kinds = {
        value
        for value in vars(epilex).values()
        if isinstance(value, type) and issubclass(value, WordStream) and value is not WordStream
    }
    assert kinds == fresh.keys()
    work = [("prefix", 500 + 37 * i, 0) for i in range(12)]
    work += [("range", 41 * i, 41 * i + 300 * (i % 7)) for i in range(12)]
    work += [("text", 900 + 53 * i, 0) for i in range(12)]

    def ask(t, kind, a, b):
        if kind == "prefix":
            return t.prefix(a).raw(a)
        if kind == "range":
            return list(map(ord, t._letters(a, b)))
        return [ord(c) for c in t._text(a)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for kind, make in fresh.items():
            shared, serial = make(), make()
            assert type(shared) is kind
            want = {q: list(ask(serial, *q)) for q in work}
            results = []
            start = threading.Barrier(8, timeout=60)

            def reader(seed):
                mine = work[:]
                random.Random(seed).shuffle(mine)
                start.wait()
                for q in mine:
                    results.append((q, list(ask(shared, *q))))

            threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
            assert not any(th.is_alive() for th in threads), kind
            assert len(results) == 8 * len(work), kind
            for q, got in results:
                assert got == want[q], (kind, q)
    finally:
        sys.setswitchinterval(interval)


# --- where letters are checked ------------------------------------------------

def test_every_entry_point_still_refuses_out_of_range_letters():
    for bad in ((3,), (-1,), (0, 1, 7)):
        with pytest.raises(AlphabetError):
            Word(ABC, bad)
        with pytest.raises(AlphabetError):
            DirectiveWord(ABC, (), bad)
        with pytest.raises(AlphabetError):
            PureEpistandardMorphism(ABC, bad)
    with pytest.raises(AlphabetError):
        ABC.word("abd")
    with pytest.raises((ParseError, AlphabetError)):
        parse_directive(ABC, "a(bd)")
    with pytest.raises((ParseError, AlphabetError)):
        parse_literal(ABC, "ab(d)")


def test_stream_prefixes_are_ordinary_words_built_without_a_recheck(monkeypatch):
    import epilex.words as words

    fib3 = standard_word(parse_directive(ABC, "(ab)"))
    streams = (
        standard_word(parse_directive(ABC, "c(ab)")),
        LiteralPeriodicStream(ABC.word("ab"), ABC.word("cab")),
        construct_skew(parse_skew(ABC, "skew v=(ab) x=c p=4 mu=psi:c suffix=full")),
        psi(ABC, "c").apply(fib3),
    )
    expected = [(n, Word(ABC, tuple(s.raw(n)))) for s in streams for n in (0, 1, 57)]
    checks = []
    check = words._check_indices
    monkeypatch.setattr(words, "_check_indices", lambda alphabet, indices: checks.append(indices) or check(alphabet, indices))
    got = [(n, s.prefix(n)) for s in streams for n in (0, 1, 57)]
    assert checks == []
    for (n, want), (_, w) in zip(expected, got):
        assert type(w) is Word and len(w) == n
        assert w == want and hash(w) == hash(want)
        assert w[2:9] == want[2:9] and w.reversal() == want.reversal() and w + want == want + w
    assert checks == []
