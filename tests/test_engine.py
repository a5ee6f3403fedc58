import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from epilex import (
    Alphabet,
    DirectiveWord,
    LiteralPeriodicStream,
    NothingToDecompose,
    PureEpistandardMorphism,
    Word,
    builder_word,
    decompose_nonstrict,
    exact_horizon,
    palindromic_closure,
    palindromic_prefixes,
    prefix_morphism,
    psi,
    shift_chain,
    standard_word,
    strictness,
)
from epilex.engine import (
    as_directive,
    image_length,
    infer_eventually_periodic,
    recover_directive_letters,
)
from epilex.textio import parse_directive

from helpers import as_text, brute_closure, directive_letters_by_steps, letter_images, random_directive, run_limited

AB = Alphabet.of("a", "b")
ABC = Alphabet.of("a", "b", "c")


# --- palindromic closure -----------------------------------------------------

def test_closure_examples():
    assert palindromic_closure(AB.word("")) == AB.word("")
    assert str(palindromic_closure(AB.word("ab"))) == "aba"
    assert str(palindromic_closure(AB.word("abaa"))) == "abaaba"


@given(st.lists(st.integers(0, 2), max_size=40))
def test_closure_matches_brute_oracle(indices):
    w = Word(ABC, tuple(indices))
    got = palindromic_closure(w)
    assert got == brute_closure(w)
    assert got.is_palindrome()
    assert got.indices[: len(w)] == w.indices


@given(st.lists(st.integers(0, 2), max_size=12))
def test_closure_is_minimal(indices):
    # no shorter palindrome has this prefix
    from itertools import product

    w = Word(ABC, tuple(indices))
    got = palindromic_closure(w)
    for n in range(len(w), len(got)):
        for extra in product(range(3), repeat=n - len(w)):
            c = w.indices + extra
            assert c != c[::-1]


# --- palindromic prefixes and the standard word --------------------------------

def test_palindromic_prefix_examples():
    got = [str(u) for u in palindromic_prefixes(parse_directive(AB, "(ab)"), 5)]
    assert got == ["", "a", "aba", "abaaba", "abaababaaba"]
    got = [str(u) for u in palindromic_prefixes(parse_directive(ABC, "(abc)"), 4)]
    assert got == ["", "a", "aba", "abacaba"]
    got = [str(u) for u in palindromic_prefixes(parse_directive(AB, "(a)"), 4)]
    assert got == ["", "a", "aa", "aaa"]


def test_standard_word_examples():
    assert str(standard_word(parse_directive(AB, "(ab)")).prefix(14)) == "abaababaabaaba"
    # two construction paths for the same word
    lifted = standard_word(parse_directive(ABC, "c(ab)"))
    assert str(lifted.prefix(10)) == "cacbcacacb"
    image = psi(ABC, "c").apply(standard_word(parse_directive(ABC, "(ab)")))
    assert lifted.prefix(10) == image.prefix(10)
    assert str(standard_word(parse_directive(AB, "(a)")).prefix(5)) == "aaaaa"


def test_stream_agrees_with_closure_iteration():
    rng = random.Random(17)
    for _ in range(25):
        d = random_directive(rng)
        ups = palindromic_prefixes(d, 10)
        st_ = standard_word(d)
        for u in ups:
            assert st_.prefix(len(u)) == u
            assert u.is_palindrome()
        lens = st_.palindromic_prefix_lengths(len(ups[-1]))
        assert lens == [len(u) for u in ups][: len(lens)]


def test_builder_words():
    d = parse_directive(AB, "(ab)")
    assert str(builder_word(d, 0)) == "a"
    assert str(builder_word(d, 1)) == "ab"
    assert str(builder_word(d, 2)) == "aba"


def test_builder_recurrences():
    # the next palindromic prefix is the builder word followed by the current
    # one, and the n-th prefix is the product of builders in reverse order
    rng = random.Random(23)
    for _ in range(15):
        d = random_directive(rng)
        ups = palindromic_prefixes(d, 10)
        for n in range(1, 9):
            h = builder_word(d, n - 1)
            assert h + ups[n - 1] == ups[n]
        for n in range(2, 10):
            prod = d.alphabet.empty()
            for i in range(n - 2, -1, -1):
                prod = prod + builder_word(d, i)
            assert prod == ups[n - 1]


# --- strictness and decomposition ----------------------------------------------

def test_strictness_examples():
    rep = strictness(parse_directive(AB, "(ab)"))
    assert rep.strict and rep.strict_over == frozenset("ab") and rep.m == 0
    rep = strictness(parse_directive(ABC, "c(ab)"))
    assert not rep.strict and rep.ult == frozenset("ab") and rep.m == 1
    rep = strictness(parse_directive(ABC, "(abc)"))
    assert rep.strict and rep.strict_over == frozenset("abc") and rep.m == 0
    assert strictness(parse_directive(Alphabet.of("a", "b", "c", "d"), "bacb(ddd)")).m == 4


def test_ult_subset_of_alph():
    rng = random.Random(29)
    for _ in range(50):
        d = random_directive(rng)
        rep = strictness(d)
        assert rep.ult <= rep.alph


def test_decompose_examples():
    mu, rest = decompose_nonstrict(parse_directive(ABC, "c(ab)"))
    assert mu.generator_tokens() == ("c",) and str(rest) == "(ab)"
    mu, rest = decompose_nonstrict(parse_directive(ABC, "cab(ab)"))
    assert mu.generator_tokens() == ("c",) and str(rest) == "ab(ab)"
    mu, rest = decompose_nonstrict(parse_directive(ABC, "ca(b)"))
    assert mu.generator_tokens() == ("c", "a") and str(rest) == "(b)"
    with pytest.raises(NothingToDecompose):
        decompose_nonstrict(parse_directive(AB, "(ab)"))


def test_decompose_rebuilds_the_word():
    rng = random.Random(31)
    cases = 0
    while cases < 12:
        d = random_directive(rng)
        if strictness(d).strict:
            continue
        cases += 1
        mu, rest = decompose_nonstrict(d)
        direct = standard_word(d)
        lifted = mu.apply(standard_word(rest))
        n = 10_000
        assert direct.prefix(n) == lifted.prefix(n)


# --- shift chain -----------------------------------------------------------------

def test_shift_chain_examples():
    assert shift_chain(parse_directive(AB, "(ab)"), 1, 100) == ["a"]
    assert shift_chain(parse_directive(ABC, "c(ab)"), 1, 100) == ["c"]
    assert shift_chain(parse_directive(ABC, "c(ab)"), 4, 100) == ["c", "a", "b", "a"]
    # the peeled core of c(ab) is the plain two-letter standard word
    assert standard_word(parse_directive(ABC, "c(ab)").shift(1)).prefix(14) == standard_word(
        parse_directive(ABC, "(ab)")
    ).prefix(14)
    assert shift_chain(parse_directive(AB, "(a)"), 1, 10) == ["a"]


def test_first_letter_is_separating():
    from epilex.fine import _separates_text

    rng = random.Random(37)
    for _ in range(40):
        d = random_directive(rng)
        text = as_text(standard_word(d).raw(300))
        assert _separates_text(chr(d.letter(1)), text, set(text))


# --- directive recovery -------------------------------------------------------------

def test_recover_directive_letters_round_trip():
    # the observed prefix must expose preperiod + two periods of directive
    # letters before the periodic representation is trusted
    rng = random.Random(41)
    for _ in range(40):
        d = random_directive(rng)
        seq = standard_word(d).raw(8000)
        letters = recover_directive_letters(as_text(seq))
        assert letters == [d.letter(i) for i in range(1, len(letters) + 1)]
        inferred = infer_eventually_periodic(d.alphabet, letters)
        assert standard_word(inferred).raw(8000) == seq


@st.composite
def run_sequences(draw):
    """Sequences made of runs of one letter, up to 80 long."""
    size = draw(st.integers(1, 4))
    runs = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(1, 80)), max_size=12))
    return [c for c, r in runs for _ in range(r)]


@settings(max_examples=300, deadline=None)
@given(run_sequences())
def test_recover_directive_letters_reads_runs_like_single_steps(seq):
    assert recover_directive_letters(as_text(seq)) == directive_letters_by_steps(seq)


def test_recover_directive_letters_on_long_directive_runs():
    # directives whose letters come in runs of up to 12, so every run of the
    # standard word is read in bulk; prefixes of every length up to 6000
    rng = random.Random(43)
    for _ in range(60):
        size = rng.randint(1, 3)
        alphabet = Alphabet(tuple("abc"[:size]))

        def runs(count: int) -> tuple[int, ...]:
            return tuple(c for _ in range(count) for c in [rng.randrange(size)] * rng.randint(1, 12))

        d = DirectiveWord(alphabet, runs(rng.randint(0, 4)), runs(rng.randint(1, 3)))
        seq = standard_word(d).raw(rng.randint(1, 6000))
        letters = recover_directive_letters(as_text(seq))
        assert letters == directive_letters_by_steps(seq)
        assert letters == [d.letter(i) for i in range(1, len(letters) + 1)]


def test_as_directive_normalizes_morphic_images():
    inner = standard_word(parse_directive(ABC, "(ab)"))
    image = psi(ABC, "c").apply(inner)
    d = as_directive(image)
    assert d is not None and str(d) == "c(ab)"
    assert as_directive(psi(ABC, "a").apply(image)) is not None


def test_streams_state_their_directive():
    from epilex import ConcatStream, MorphicImageStream

    d = parse_directive(ABC, "b(ab)")
    t = standard_word(d)
    assert t.directive() is d
    once = psi(ABC, "c").apply(t)
    twice = MorphicImageStream(PureEpistandardMorphism(ABC, (0, 2)), once)
    assert str(once.directive()) == "cb(ab)" and str(twice.directive()) == "accb(ab)"
    for m, inner, image in ((psi(ABC, "c"), t, once), (twice.morphism, once, twice)):
        # the image and the word its stated directive generates are the
        # inner stream mapped letter by letter
        want = m.apply_word(inner.prefix(300))[:300]
        assert image.prefix(300) == want == standard_word(image.directive()).prefix(300)
    # an image of a purely periodic directive word states a preperiod
    image = psi(ABC, "c").apply(standard_word(parse_directive(ABC, "(ab)")))
    assert str(image.directive()) == "c(ab)"
    assert str(psi(ABC, "a").apply(image).directive()) == "ac(ab)"
    literal = LiteralPeriodicStream(ABC.word("c"), ABC.word("ab"))
    others = [
        literal,
        psi(ABC, "c").apply(literal),
        ConcatStream(ABC.word("c"), t),
    ]
    for stream in others:
        assert stream.directive() is None


@st.composite
def directives_and_k(draw):
    """Preperiod of 0-8 letters over 1-4 letters; the period either one letter
    repeated (one recurring letter) or free (usually two or more)."""
    size = draw(st.integers(1, 4))
    letter = st.integers(0, size - 1)
    preperiod = tuple(draw(st.lists(letter, max_size=8)))
    if draw(st.booleans()):
        period = (draw(letter),) * draw(st.integers(1, 3))
    else:
        period = tuple(draw(st.lists(letter, min_size=1, max_size=4)))
    alphabet = Alphabet(tuple("abcd"[:size]))
    return DirectiveWord(alphabet, preperiod, period), draw(st.integers(1, 20))


@settings(max_examples=80, deadline=None)
@given(directives_and_k())
def test_exact_horizon_matches_closure_built_lengths(case):
    # The derived bound recomputed from words built independently: letter
    # images by composing generators, the shifted word's palindromic
    # prefixes u'_j by iterated closure, and |mu_n(u'_j)| by summing the
    # images of its letters.
    d, k = case
    if len(d.ult()) < 2:
        m = strictness(d).m
        expected = len(letter_images(prefix_morphism(d, m))[d.letter(m + 1)]) + k - 1
    else:
        n = 0
        while min(len(letter_images(prefix_morphism(d, n))[x]) for x in d.shift(n).alph()) < k:
            n += 1
        y = d.letter(n + 1)
        need = Counter(d.shift(n).alph())
        if y in d.shift(n + 1).alph():
            need[y] = 2  # yy is a factor of the shifted word
        seen, j = Counter(), 0
        while seen & need != need:
            j += 1
            seen[d.letter(n + j)] += 1
        u = palindromic_prefixes(d.shift(n), j + 1)[j - 1 if d.letter(n + j) == y else j]
        images = letter_images(prefix_morphism(d, n))
        expected = sum(len(images[x]) for x in u.indices) + k - 1
    assert exact_horizon(d, k) == expected
    mu = prefix_morphism(d, len(d.preperiod))
    assert [image_length(mu, y) for y in range(d.alphabet.size)] == [len(w) for w in letter_images(mu)]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), max_size=8), st.integers(0, k - 1))
    )
)
def test_image_length_matches_built_images(case):
    # any composition of generators, not only the prefix morphisms of directives
    k, letters, y = case
    mu = PureEpistandardMorphism(Alphabet(tuple("abcd"[:k])), tuple(letters))
    assert image_length(mu, y) == len(letter_images(mu)[y])


def test_exact_horizon_never_builds_the_word():
    # Bounds past 10^15, reached through k: building the prefix (or the
    # letter image) they are computed from would exhaust the 512 MiB cap
    # long before the timeout.
    code = (
        "import time\n"
        "from epilex import Alphabet, exact_horizon\n"
        "from epilex.textio import parse_directive\n"
        "abc = Alphabet.of('a', 'b', 'c')\n"
        "began = time.perf_counter()\n"
        "bounds = [exact_horizon(parse_directive(abc, 'ab' * 40 + tail), 10**15) for tail in ('(ab)', '(c)')]\n"
        "print(time.perf_counter() - began, *bounds)\n"
    )
    done = run_limited(["-c", code], timeout=30, memory=512 << 20)
    assert done.returncode == 0, done.stderr
    elapsed, *bounds = done.stdout.split()
    assert float(elapsed) < 1.0
    assert all(int(b) > 10**15 for b in bounds)


def test_exact_horizon_is_stable():
    rng = random.Random(43)
    from epilex.extremal import minimal_window_positions
    from epilex import all_orders

    for _ in range(12):
        d = random_directive(rng)
        st_ = standard_word(d)
        for k in (2, 7, 19):
            h = exact_horizon(d, k)
            big = st_._text(3 * h)
            small = big[:h]
            for order in all_orders(d.alphabet):
                p1 = minimal_window_positions(small, order.ranks, k)[-1]
                p2 = minimal_window_positions(big, order.ranks, k)[-1]
                assert small[p1 : p1 + k] == big[p2 : p2 + k]


def test_shift_chain_catches_divergence(monkeypatch):
    from epilex import InternalConsistencyError

    d = parse_directive(AB, "(ab)")
    assert shift_chain(d, 2, 64) == ["a", "b"]
    with pytest.raises(ValueError):
        shift_chain(d, 0, 10)
    # feeding a deliberately wrong link must raise, not pass silently: the
    # planted image of link 2 (generator b) flips the letter at position 40
    real = PureEpistandardMorphism._map_text

    def planted(morphism, text):
        image = real(morphism, text)
        if morphism.letters == (1,) and len(image) > 40:
            image = image[:40] + chr(ord(image[40]) ^ 1) + image[41:]
        return image

    monkeypatch.setattr(PureEpistandardMorphism, "_map_text", planted)
    assert shift_chain(d, 2, 40) == ["a", "b"]  # the planted letter lies past this horizon
    assert shift_chain(d, 1, 41) == ["a"]  # link 1 is not planted
    with pytest.raises(InternalConsistencyError) as raised:
        shift_chain(d, 2, 41)
    assert str(raised.value) == "shift chain link 2 of (ab) diverges within horizon 41"


# --- bulk fill of a constant tail ------------------------------------------------

@st.composite
def eventually_constant_directives(draw):
    k = draw(st.integers(2, 4))
    alphabet = Alphabet(tuple("abcd"[:k]))
    pre = draw(st.lists(st.integers(0, k - 1), max_size=6))
    y = draw(st.integers(0, k - 1))
    return DirectiveWord(alphabet, tuple(pre), (y,) * draw(st.integers(1, 3)))


_READS = st.lists(
    st.tuples(st.sampled_from(("range", "lengths")), st.integers(0, 400), st.integers(0, 400)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(eventually_constant_directives(), _READS)
def test_constant_tail_fill_matches_closure_iteration(d, reads):
    # reference: palindromic prefixes built by iterating the closure, until
    # they cover the longest read
    need = max(max(a, b) for _, a, b in reads)
    count = len(d.preperiod) + 2
    ups = palindromic_prefixes(d, count)
    while len(ups[-1]) < need:
        count *= 2
        ups = palindromic_prefixes(d, count)
    letters = ups[-1].indices
    t = standard_word(d)
    reached = read = 0
    for kind, a, b in reads:
        if kind == "range":
            start, stop = sorted((a, b))
            assert list(map(ord, t._letters(start, stop))) == list(letters[start:stop])
            reached, read = max(reached, stop), max(read, stop)
        else:
            assert t.palindromic_prefix_lengths(a) == [len(u) for u in ups if len(u) <= a]
            reached = max(reached, a)
        if t._tail is None:
            # stepping stops at the first palindromic prefix reaching the read
            assert len(t._buf) == t._lengths[-1] == min(len(u) for u in ups if len(u) >= reached)
        else:
            # past the tail start L, the memo holds whole q-blocks
            end, q = t._tail
            p = len(d.preperiod)
            assert (end, q) == (len(ups[p + 1]), len(ups[p + 1]) - len(ups[p]))
            assert t._lengths[-1] == end and len(t._buf) >= read and (len(t._buf) - end) % q == 0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(0, k - 1), max_size=6),
            st.lists(st.integers(0, k - 1), min_size=1, max_size=5),
        )
    ),
    st.lists(st.tuples(st.integers(0, 300), st.integers(0, 300)), min_size=1, max_size=8),
)
def test_literal_fill_matches_repeated_cycle(word, reads):
    head, cycle = (Word(Alphabet.of("a", "b", "c", "d"), tuple(part)) for part in word)
    t = LiteralPeriodicStream(head, cycle)
    letters = list(head.indices) + list(cycle.indices) * 301
    for a, b in reads:
        start, stop = sorted((a, b))
        assert list(map(ord, t._letters(start, stop))) == letters[start:stop]
    # once read, the buffer holds the head and whole cycles only
    assert not t._buf or (len(t._buf) - len(head)) % len(cycle) == 0


def test_constant_tail_is_filled_without_stepping(monkeypatch):
    import epilex.engine as engine

    # each step applies the last-occurrence rule once; the fill does not
    steps = []
    rule = engine._next_prefix_length

    def counting(lengths, last, x):
        steps.append(len(lengths))
        return rule(lengths, last, x)

    monkeypatch.setattr(engine, "_next_prefix_length", counting)
    d = parse_directive(AB, "ab(b)")
    word = standard_word(d).raw(10**5)
    assert len(steps) <= len(d.preperiod) + 3
    # the word is mu_m(y)^omega, mu_m the morphism of the preperiod
    block = letter_images(prefix_morphism(d, len(d.preperiod)))[d.period[0]]
    assert word == (list(block) * (10**5 // len(block) + 1))[: 10**5]


def test_constant_tail_small_step_reads_grow_the_memo_geometrically(monkeypatch):
    import epilex.engine as engine

    calls = []
    extend = engine.DirectiveStream._extend

    def counting(self, n):
        calls.append(n)
        extend(self, n)

    monkeypatch.setattr(engine.DirectiveStream, "_extend", counting)
    d = parse_directive(AB, "ab(b)")
    t = standard_word(d)
    text = "".join(t._letters(i - 1000, i) for i in range(1000, 10**6 + 1, 1000))
    # one growth per doubling of the memo, not one per read
    assert len(calls) <= 25
    assert len(t._buf) <= 2 * 10**6
    block = letter_images(prefix_morphism(d, len(d.preperiod)))[d.period[0]]
    assert list(map(ord, text)) == (list(block) * (10**6 // len(block) + 1))[: 10**6]


def test_constant_tail_fill_is_shared_safely_across_threads():
    import sys
    import threading

    d = parse_directive(AB, "ab(b)")
    work = [("range", 37 * i, 37 * i + 1000 * (i % 11)) for i in range(60)]
    work += [("lengths", 5003 * i, 0) for i in range(20)]

    def ask(t, kind, a, b):
        return list(map(ord, t._letters(a, b))) if kind == "range" else t.palindromic_prefix_lengths(a)

    serial = {q: ask(standard_word(d), *q) for q in work}
    shared = standard_word(d)
    results = []
    start = threading.Barrier(8, timeout=60)

    def worker(seed):
        mine = work[:]
        random.Random(seed).shuffle(mine)
        start.wait()
        for q in mine:
            results.append((q, ask(shared, *q)))

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(results) == 8 * len(work)
    for q, got in results:
        assert got == serial[q]


def test_streams_keep_the_bounds_they_looked_up():
    # A stream keeps no bound of its own: the engine's cache is the one memo
    # of bounds, so a second exact query at the same k misses it no more.
    from epilex import LexOrder, MorphicImageStream, min_factor

    t = standard_word(parse_directive(ABC, "a(bca)"))
    image = MorphicImageStream(psi(ABC, "c"), t)
    order = LexOrder.default(ABC)
    for stream in (t, image):
        assert min_factor(stream, 9, order).exact
        misses = exact_horizon.cache_info().misses
        for _ in range(2):
            assert min_factor(stream, 9, order).exact
            assert stream.exact_horizon(9) == exact_horizon(stream.directive(), 9)
        assert exact_horizon.cache_info().misses == misses


def test_bounds_are_shared_safely_across_threads():
    import sys
    import threading

    d = parse_directive(ABC, "ab(cab)")
    ks = list(range(200))
    serial = [exact_horizon(d, k) for k in ks]
    shared = standard_word(d)
    results = []
    start = threading.Barrier(8, timeout=60)

    def worker(seed):
        mine = ks[:]
        random.Random(seed).shuffle(mine)
        start.wait()
        results.extend((k, shared.exact_horizon(k)) for k in mine)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(results) == 8 * len(ks)
    assert all(got == serial[k] for k, got in results)
