import random

import pytest
from hypothesis import given, settings, strategies as st

from epilex import (
    Alphabet,
    AlphabetError,
    ConcatStream,
    DirectiveWord,
    LengthError,
    LiteralPeriodicStream,
    MorphicImageStream,
    PureEpistandardMorphism,
    Word,
    identity,
    psi,
    standard_word,
)
from epilex.fine import _separates_text
from epilex.textio import parse_directive

from helpers import all_words, as_text, brute_preimage_exists, letter_images, separates_by_pairs

AB = Alphabet.of("a", "b")
ABC = Alphabet.of("a", "b", "c")


def fib(alphabet=AB):
    return standard_word(parse_directive(alphabet, "(ab)"))


# --- generator morphisms -----------------------------------------------------

def test_psi_on_letters():
    pa = psi(AB, "a")
    assert str(pa.apply_word(AB.word("b"))) == "ab"
    assert str(pa.apply_word(AB.word("a"))) == "a"
    assert str(psi(ABC, "c").apply_word(ABC.word("ab"))) == "cacb"


def test_apply_to_streams():
    img = psi(AB, "a").apply(fib())
    assert str(img.prefix(19)) == "aabaaabaabaaabaaaba"
    from epilex import ConcatStream

    cf = ConcatStream(ABC.word("c"), fib(ABC))
    assert str(psi(ABC, "c").apply(cf).prefix(29)) == "ccacbcacacbcacbcacacbcacacbca"
    ident = identity(AB)
    assert ident.apply(AB.word("abab")) == AB.word("abab")
    assert ident.apply(fib()).prefix(10) == fib().prefix(10)


_LETTERS = st.lists(st.integers(0, 2), max_size=4)
_PERIOD = st.lists(st.integers(0, 2), min_size=1, max_size=4)
_DIRECTIVE_STREAMS = st.builds(
    lambda pre, per: standard_word(DirectiveWord(ABC, tuple(pre), tuple(per))), _LETTERS, _PERIOD
)
_LITERAL_STREAMS = st.builds(
    lambda u, v: LiteralPeriodicStream(Word(ABC, tuple(u)), Word(ABC, tuple(v))), _LETTERS, _PERIOD
)
_BASE_STREAMS = st.one_of(
    _DIRECTIVE_STREAMS,
    _LITERAL_STREAMS,
    st.builds(lambda head, tail: ConcatStream(Word(ABC, tuple(head)), tail), _LETTERS, _DIRECTIVE_STREAMS),
    st.builds(lambda head, tail: ConcatStream(Word(ABC, tuple(head)), tail), _LETTERS, _LITERAL_STREAMS),
)
_INNER_STREAMS = st.one_of(
    _BASE_STREAMS,
    st.builds(lambda gens, inner: MorphicImageStream(PureEpistandardMorphism(ABC, tuple(gens)), inner),
              _LETTERS, _BASE_STREAMS),
)


@settings(deadline=None, max_examples=60)
@given(_LETTERS, _INNER_STREAMS, st.lists(st.integers(1, 9000), min_size=1, max_size=6))
def test_morphic_image_grown_in_uneven_steps(gens, inner, steps):
    # Every kind of inner stream, an image among them, against the image of
    # its prefix mapped letter by letter.
    m = PureEpistandardMorphism(ABC, tuple(gens))
    image = MorphicImageStream(m, inner)
    n = 0
    for step in steps:
        n += step
        # images are non-empty, so n inner letters map to at least n letters
        assert image.prefix(n) == m.apply_word(inner.prefix(n))[:n]
    # The bound the image states holds every factor of a long mapped prefix.
    for k in (1, 2, 5, 13):
        bound = image.exact_horizon(k)
        text = m.apply_word(inner.prefix(8 * bound + 8 * k)).text
        seen = {text[i : i + k] for i in range(bound - k + 1)}
        assert all(text[i : i + k] in seen for i in range(len(text) - k + 1)), (k, bound)


def test_apply_returns_the_image_each_kind_states():
    # ``apply`` returns the stream its argument states as its image, of the
    # argument's own kind; a MorphicImageStream reads through to the same
    # letters, bounds and directive, and holds its source's memo itself.
    m = PureEpistandardMorphism(ABC, (2, 0))
    literal = LiteralPeriodicStream(ABC.word("c"), ABC.word("ab"))
    sources = {
        "directive": fib(ABC),
        "literal": literal,
        "concatenation over a directive": ConcatStream(ABC.word("cb"), fib(ABC)),
        "concatenation over a literal": ConcatStream(ABC.word("cc"), literal),
        "image of an image": psi(ABC, "b").apply(psi(ABC, "c").apply(fib(ABC))),
        "image of an image of a literal": psi(ABC, "a").apply(psi(ABC, "b").apply(literal)),
        "wrapped image": MorphicImageStream(psi(ABC, "c"), literal),
    }
    n = 10**4
    for name, s in sources.items():
        image, wrapped = m.apply(s), MorphicImageStream(m, s)
        assert type(image) is type(getattr(s, "_source", s)) and type(image) is not MorphicImageStream, name
        assert image._text(n) == wrapped._text(n) == m.apply_word(s.prefix(n)).text[:n], name
        assert wrapped._buf is wrapped._source._buf, name
        bounds = [image.exact_horizon(k) for k in range(1, 31)]
        assert bounds == [wrapped.exact_horizon(k) for k in range(1, 31)], name
        assert image.directive() == wrapped.directive(), name
    with pytest.raises(AlphabetError):
        m.apply(fib(AB))


def test_morphic_image_maps_no_letter_as_it_grows(monkeypatch):
    # An image reads the stream its inner stream states; a literal or a
    # concatenation maps its finite parts once, when the image is built.
    m = PureEpistandardMorphism(ABC, (2, 0, 1))
    literal = LiteralPeriodicStream(ABC.word("c"), ABC.word("ab"))
    images = [m.apply(inner) for inner in (fib(ABC), literal, ConcatStream(ABC.word("cc"), literal))]
    images.append(psi(ABC, "b").apply(images[-1]))
    monkeypatch.setattr(PureEpistandardMorphism, "_map_text", lambda self, text: pytest.fail("a letter was mapped"))
    for image in images:
        assert len(image.prefix(100_000)) == 100_000


def test_oversized_finite_images_are_refused_before_they_are_built(monkeypatch):
    m = PureEpistandardMorphism(AB, (0, 1) * 20)  # every letter image is past MAX_LETTERS

    def mapped(self, text):
        assert not text, "an image was built"
        return text

    monkeypatch.setattr(PureEpistandardMorphism, "_map_text", mapped)
    for inner in (AB.word("b"), LiteralPeriodicStream(AB.empty(), AB.word("b")), ConcatStream(AB.word("a"), fib())):
        with pytest.raises(LengthError, match="exceeds the limit"):
            m.apply(inner)
    # a standard word's image is a standard word, generated as it is read:
    # here (ab)^20 prepended to the directive (ab) directs the same word
    assert m.apply(fib()).prefix(1000) == fib().prefix(1000)


def test_compose():
    pa, pb = psi(ABC, "a"), psi(ABC, "b")
    assert identity(ABC).compose(pa) == pa
    assert pa.compose(identity(ABC)) == pa
    ab = pa.compose(pb)
    assert str(ab.apply_word(ABC.word("c"))) == "abac"
    assert str(ab.apply_word(ABC.word("a"))) == "aba"


@given(st.lists(st.integers(0, 2), max_size=4), st.lists(st.integers(0, 2), max_size=4),
       st.lists(st.integers(0, 2), max_size=8))
def test_compose_is_application_composition(gens1, gens2, word):
    m1 = PureEpistandardMorphism(ABC, tuple(gens1))
    m2 = PureEpistandardMorphism(ABC, tuple(gens2))
    w = Word(ABC, tuple(word))
    assert m1.compose(m2).apply_word(w) == m1.apply_word(m2.apply_word(w))


def test_images_are_nonerasing_and_start_with_outer_generator():
    rng = random.Random(3)
    for _ in range(40):
        gens = tuple(rng.randrange(3) for _ in range(rng.randint(1, 5)))
        m = PureEpistandardMorphism(ABC, gens)
        for i in range(3):
            img = letter_images(m)[i]
            assert len(img) >= 1
            assert img[0] == gens[0]
        w = Word(ABC, tuple(rng.randrange(3) for _ in range(rng.randint(0, 10))))
        assert len(m.apply_word(w)) >= len(w)


def test_nonerasing_equality_cases():
    pa = psi(AB, "a")
    assert len(pa.apply_word(AB.word(""))) == 0
    assert len(pa.apply_word(AB.word("aaa"))) == 3  # every letter fixed
    assert len(pa.apply_word(AB.word("ab"))) > 2
    assert len(identity(AB).apply_word(AB.word("ab"))) == 2


# --- images and separating letters -------------------------------------------

def test_image_characterization_small():
    # Among words ending in the generator letter (or empty), membership in the
    # image is equivalent to: separating letter and matching first letter.
    for alphabet, max_len in ((AB, 8), (ABC, 6)):
        for tok in alphabet.letters:
            gen = psi(alphabet, tok)
            z = alphabet.index(tok)
            for w in all_words(alphabet, max_len):
                if len(w) and w.indices[-1] != z:
                    continue
                text = as_text(w.indices)
                structural = (not len(w)) or (
                    w.indices[0] == z and _separates_text(chr(z), text, set(text))
                )
                assert structural == brute_preimage_exists(gen, w), (tok, str(w))


def test_is_separating():
    for tok, w, expected in (
        ("a", fib().prefix(100), True),
        ("b", AB.word("abaab"), False),
        ("c", ABC.word("ccacbcacacbcacbcacacbcacacbca"), True),
        ("a", ABC.word("a"), True),  # short words are trivially fine
        ("a", ABC.word(""), True),
    ):
        text = as_text(w.indices)
        assert _separates_text(chr(w.alphabet.index(tok)), text, set(text)) is expected, (tok, str(w))


@st.composite
def separator_cases(draw):
    """A letter and a sequence: free, or the image of a random preimage under
    the letter's generator, maybe started inside an image or with one letter
    changed.  Indices start at 0 or at 300, past the one-byte range."""
    size = draw(st.integers(1, 5))
    offset = draw(st.sampled_from((0, 300)))
    letter = st.integers(0, size - 1)
    a = draw(letter)
    if draw(st.booleans()):
        seq = draw(st.lists(letter, max_size=30))
    else:
        seq = [c for y in draw(st.lists(letter, max_size=20)) for c in ((a,) if y == a else (a, y))]
        seq = seq[draw(st.integers(0, 1)) :]
        if seq and draw(st.booleans()):
            seq[draw(st.integers(0, len(seq) - 1))] = draw(letter)
    return a + offset, [c + offset for c in seq]


@settings(max_examples=400, deadline=None)
@given(separator_cases())
def test_separates_matches_the_pairwise_oracle(case):
    a, seq = case
    text = as_text(seq)
    assert _separates_text(chr(a), text, set(text)) == separates_by_pairs(a, seq)
