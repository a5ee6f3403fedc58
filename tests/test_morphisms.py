import random

from hypothesis import given, settings, strategies as st

from epilex import (
    Alphabet,
    ConcatStream,
    DirectiveStream,
    DirectiveWord,
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

from helpers import all_words, as_text, brute_preimage_exists, separates_by_pairs

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
_INNER_STREAMS = st.one_of(
    st.builds(
        lambda pre, per: standard_word(DirectiveWord(ABC, tuple(pre), tuple(per))),
        _LETTERS, _PERIOD,
    ),
    st.builds(
        lambda u, v: LiteralPeriodicStream(Word(ABC, tuple(u)), Word(ABC, tuple(v))),
        _LETTERS, _PERIOD,
    ),
    st.builds(
        lambda head, pre, per: ConcatStream(
            Word(ABC, tuple(head)), standard_word(DirectiveWord(ABC, tuple(pre), tuple(per)))
        ),
        _LETTERS, _LETTERS, _PERIOD,
    ),
)


@settings(deadline=None, max_examples=60)
@given(_LETTERS, _INNER_STREAMS, st.lists(st.integers(1, 9000), min_size=1, max_size=6))
def test_morphic_image_grown_in_uneven_steps(gens, inner, steps):
    # steps up to 9000 letters cross both the 64- and the 4096-letter chunk edges
    m = PureEpistandardMorphism(ABC, tuple(gens))
    image = MorphicImageStream(m, inner)
    n = 0
    for step in steps:
        n += step
        # images are non-empty, so n inner letters map to at least n letters
        assert image.prefix(n) == m.apply_word(inner.prefix(n))[:n]


def test_morphic_image_reads_each_inner_letter_once():
    source = standard_word(parse_directive(ABC, "(ab)"))
    read = []

    class Counting(DirectiveStream):
        # A morphic image reads its inner stream through the private
        # range reader, which every public reader goes through too.
        def _letters(self, start, stop):
            out = super()._letters(start, stop)
            read.append((start, start + len(out)))
            return out

    m = PureEpistandardMorphism(ABC, (2, 0))
    image = MorphicImageStream(m, Counting(source.directive()))
    lengths = [len(m.images[c]) for c in source.raw(400000)]
    longest, had = max(lengths), 0
    for n in (1, 100, 5000, 5001, 60000, 60100, 200000):
        image.prefix(n)
        # The ranges read follow one another from 0: no letter is read twice.
        assert read[0][0] == 0 and all(stop == start for (_, stop), (start, _) in zip(read, read[1:]))
        # The memo is the image of exactly the letters read, so none is
        # skipped or read and dropped.
        assert len(image._buf) == sum(lengths[: read[-1][1]])
        # It grows to n or to twice its length, whichever is more, and passes
        # that by less than one letter's image.
        assert n <= len(image._buf) < max(n, 2 * had) + longest
        had = len(image._buf)


def test_morphic_image_builds_no_letter_image():
    # The longest letter image sizes the image's reads and its bound; it is
    # taken from letter counts, and no image of a letter is built for it.
    m = PureEpistandardMorphism(AB, (0, 1) * 12)
    image = MorphicImageStream(m, fib())
    assert "images" not in vars(m)
    assert image._longest == max(map(len, m.images)) == 121393


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
            img = m.images[i]
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
