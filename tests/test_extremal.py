import random
from functools import cache
from itertools import groupby

import pytest
from hypothesis import example, given, settings, strategies as st

from epilex import (
    Alphabet,
    AlphabetError,
    Classification,
    ConcatStream,
    DirectiveWord,
    LengthError,
    LexOrder,
    LiteralPeriodicStream,
    MorphicImageStream,
    PureEpistandardMorphism,
    Word,
    all_orders,
    construct_skew,
    exact_horizon,
    is_fine_empirical,
    max_factor,
    max_stream,
    min_factor,
    min_stream,
    psi,
    standard_word,
)
from epilex.textio import parse_directive, parse_skew

from helpers import (
    LETTERS,
    as_text,
    oracle_max,
    oracle_min,
    random_canonical_skew,
    random_directive,
    random_strict_directive,
)

AB = Alphabet.of("a", "b")
ABC = Alphabet.of("a", "b", "c")


def fib(alphabet=AB):
    return standard_word(parse_directive(alphabet, "(ab)"))


def trib():
    return standard_word(parse_directive(ABC, "(abc)"))


def test_min_factor_examples():
    assert str(min_factor(fib(), 3, LexOrder.default(AB), 500).word) == "aab"
    assert str(min_factor(fib(), 1, LexOrder.from_letters(AB, "ba"), 500).word) == "b"
    assert str(min_factor(trib(), 3, LexOrder.default(ABC), 2000).word) == "aab"


def test_max_factor_examples():
    assert str(max_factor(fib(), 4, LexOrder.default(AB), 500).word) == "baba"
    assert str(max_factor(trib(), 2, LexOrder.default(ABC), 2000).word) == "ca"
    # length 1: the greatest letter occurring
    assert str(max_factor(trib(), 1, LexOrder.default(ABC), 50).word) == "c"


def test_oracle_examples():
    assert str(oracle_min(AB.word("abaab"), 2, LexOrder.default(AB))) == "aa"
    w = AB.word("babab")
    assert oracle_min(w, len(w), LexOrder.default(AB)) == w
    # frozen from an oracle run
    assert str(oracle_min(ABC.word("ccacbcacacb"), 3, LexOrder.default(ABC))) == "aca"
    assert str(oracle_max(ABC.word("ccacbcacacb"), 3, LexOrder.default(ABC))) == "cca"


def test_length_errors():
    with pytest.raises(LengthError):
        min_factor(AB.word("ab"), 3, LexOrder.default(AB))
    with pytest.raises(LengthError):
        oracle_min(AB.word("ab"), 3, LexOrder.default(AB))
    with pytest.raises(LengthError):
        min_factor(fib(), 10, LexOrder.default(AB), 5)


def test_length_errors_past_a_finite_word():
    # A horizon past a finite word is cut at the word's length, and that
    # length must still hold the factor.
    order = LexOrder.default(AB)
    for fn in (min_factor, max_factor):
        with pytest.raises(LengthError):
            fn(AB.word("ab"), 3, order, 3)
        with pytest.raises(LengthError):
            fn(AB.word(""), 1, order, 3)
        res = fn(AB.word(""), 0, order, 3)
        assert res.word == AB.word("") and res.exact and res.horizon == 3
        res = fn(AB.word("ab"), 2, order, 7)
        assert res.word == AB.word("ab") and res.exact and res.horizon == 7


def test_min_and_oracle_agree_on_random_streams():
    rng = random.Random(47)
    for _ in range(60):
        d = random_directive(rng)
        stream = standard_word(d)
        k = rng.randint(1, 12)
        horizon = rng.randint(2 * k + 5, 400)
        orders = all_orders(d.alphabet)
        order = orders[rng.randrange(len(orders))]
        snapshot = stream.prefix(horizon)
        assert min_factor(stream, k, order, horizon).word == oracle_min(snapshot, k, order)
        assert max_factor(stream, k, order, horizon).word == oracle_max(snapshot, k, order)


def test_prefix_chain_on_streams():
    for stream, alphabet in ((fib(), AB), (trib(), ABC)):
        for order in all_orders(alphabet):
            prev = None
            for k in range(1, 60):
                cur = min_factor(stream, k, order, 4000).word
                if prev is not None:
                    assert cur.indices[: k - 1] == prev.indices
                prev = cur


def test_min_stream_examples():
    got = min_stream(fib(), LexOrder.default(AB), 200)
    assert got == Word(AB, (0,)) + fib().prefix(99)
    image = psi(ABC, "c").apply(fib(ABC))
    assert min_stream(image, LexOrder.default(ABC), 200) == Word(ABC, (0,)) + image.prefix(99)
    fprime = standard_word(parse_directive(ABC, "(bc)"))
    lifted = psi(ABC, "a").apply(fprime)
    assert min_stream(lifted, LexOrder.default(ABC), 200) == ABC.word("ab") + lifted.prefix(98)
    assert max_stream(fib(), LexOrder.default(AB), 200) == Word(AB, (1,)) + fib().prefix(99)


def test_min_stream_checks_as_min_factor_does():
    # A finite word shorter than horizon // 2, and an order over other letters.
    for fn in (min_stream, max_stream):
        with pytest.raises(LengthError):
            fn(AB.word("ba"), LexOrder.default(AB), 10)
        with pytest.raises(AlphabetError):
            fn(fib(), LexOrder.default(ABC), 10)


def test_min_and_max_stream_look_up_the_bound_once_per_call():
    class Counting(LiteralPeriodicStream):
        calls = 0

        def exact_horizon(self, k):
            Counting.calls += 1
            return super().exact_horizon(k)

    t = Counting(AB.word("b"), AB.word("aab"))
    for fn in (min_stream, max_stream):
        for order in all_orders(AB):
            fn(t, order, 200)  # fills the memo: the scan reads its own bound
    for fn in (min_stream, max_stream):
        for order in all_orders(AB):
            Counting.calls = 0
            fn(t, order, 20)
            assert Counting.calls == 1, (fn, order)
    assert str(min_stream(t, LexOrder.default(AB), 20)) == "aabaabaaba"


def test_chain_holds_one_length_of_starts_at_a_time():
    import tracemalloc

    from epilex.extremal import minimal_window_positions

    # a(b) directs (ab)^ω, whose least windows under b < a start at every
    # odd position, so holding every length's starts would take n * k_max / 2.
    text = standard_word(parse_directive(AB, "a(b)"))._text(1200)
    tracemalloc.start()
    try:
        chain = minimal_window_positions(text, (1, 0), 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 19
    assert chain == [1] * 600


@st.composite
def chain_cases(draw):
    """A sequence of at most 30 letters over 2-3 letters, and an order.

    Besides free sequences: ones ending in the only occurrence of the least
    letter, whose chain rescans from length 2 on, and prefixes of standard
    words cut short of their exact horizon.
    """
    alphabet = Alphabet(tuple("abc"[: draw(st.integers(2, 3))]))
    order = draw(st.sampled_from(all_orders(alphabet)))
    letter = st.integers(0, alphabet.size - 1)
    kind = draw(st.sampled_from(("free", "flush", "prefix")))
    if kind == "free":
        seq = draw(st.lists(letter, min_size=1, max_size=30))
    elif kind == "flush":
        least = order.ranks.index(0)
        others = st.sampled_from([c for c in range(alphabet.size) if c != least])
        seq = draw(st.lists(others, max_size=29)) + [least]
    else:
        d = DirectiveWord(
            alphabet,
            tuple(draw(st.lists(letter, max_size=3))),
            tuple(draw(st.lists(letter, min_size=1, max_size=3))),
        )
        seq = standard_word(d).raw(draw(st.integers(1, 30)))
    return Word(alphabet, tuple(seq)), order


@settings(max_examples=300, deadline=None)
@given(chain_cases())
@example((AB.word("bba"), LexOrder.default(AB)))
def test_chain_starts_are_first_occurrences_of_the_least_windows(case):
    from epilex.extremal import minimal_window_positions

    w, order = case
    seq = w.indices
    chain = minimal_window_positions(as_text(seq), order.ranks, len(seq))
    assert len(chain) == len(seq)
    for k, start in enumerate(chain, 1):
        least = oracle_min(w, k, order).indices
        first = next(p for p in range(len(seq) - k + 1) if seq[p : p + k] == least)
        assert start == first, (str(w), order.describe(), k)


def long_chain_case(rng: random.Random, kind: str) -> tuple[list[int], list[int], int]:
    """A sequence of 200-3000 letters, the ranks of an order, and a chain length.

    ``periodic`` and ``one-letter`` sequences keep a fixed share of their
    windows live at every length, until the windows near the end drop out.
    ``flush`` ends a free sequence with a run of its least letter longer
    than any before it, so the least windows become few, then end flush and
    are compared anew.  ``prefix`` is a prefix of a standard word,
    mostly short of the exact horizon of the chain length, and ``wide``
    draws its letters from 300, so that indices exceed 255.
    """
    n = rng.randint(200, 3000)
    if kind == "prefix":
        directive = random_directive(rng, min_alpha=2)
        size = directive.alphabet.size
    else:
        size = {"one-letter": 1, "wide": 300}.get(kind, rng.randint(2, 4))
    ranks = list(range(size))
    rng.shuffle(ranks)
    least = ranks.index(0)
    if kind == "periodic":
        period = [rng.randrange(size) for _ in range(rng.randint(1, 6))]
        seq = (period * n)[:n]
    elif kind == "flush":
        seq = [rng.randrange(size) for _ in range(n)]
        longest = max((len(list(run)) for c, run in groupby(seq) if c == least), default=0)
        seq += [least] * (longest + 1)
    elif kind == "prefix":
        seq = standard_word(directive).raw(n)
    elif kind == "wide":
        pool = rng.sample(range(256, size), 1) + rng.sample(range(size), rng.randint(1, size - 1))
        seq = [rng.choice(pool) for _ in range(n)]
    else:
        seq = [0] * n if kind == "one-letter" else [rng.randrange(size) for _ in range(n)]
    k_max = rng.randint(1, len(seq) if kind in ("periodic", "one-letter") else min(len(seq), 300))
    return seq, ranks, k_max


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("free", "periodic", "flush", "prefix", "one-letter", "wide")), st.integers(0, 2**32))
def test_long_chains_match_a_brute_force_first_occurrence(kind, seed):
    from epilex.extremal import minimal_window_positions

    rng = random.Random(seed)
    seq, ranks, k_max = long_chain_case(rng, kind)
    chain = minimal_window_positions(as_text(seq), ranks, k_max)
    assert len(chain) == k_max
    r = [ranks[c] for c in seq]
    # Every short length, and a sample of the long ones: the brute force
    # costs O(n * k) per length.
    ks = sorted({*range(1, min(k_max, 24) + 1), *rng.sample(range(1, k_max + 1), min(k_max, 6)), k_max})
    for k in ks:
        first = min(range(len(r) - k + 1), key=lambda p: r[p : p + k])
        assert chain[k - 1] == first, (kind, seed, k)


@cache
def _alphabet_from(base: int) -> Alphabet:
    """Room for four letters from index ``base`` on; built once per base."""
    return Alphabet(tuple(f"x{i}" for i in range(base + 4)))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(("free", "periodic", "standard", "flush")),
    st.integers(1, 4),
    st.sampled_from((0, 300, 0xD800)),
    st.integers(0, 2**32),
)
def test_one_bitset_build_serves_every_order(kind, size, base, seed):
    # One build of the letter bitsets, then the chain's loop under every
    # order of the letters present, against the one-call form and the
    # brute-force least window.  "flush" ends the prefix with a run of one
    # letter longer than any before it, so under the orders where that
    # letter is least the chain rescans; "standard" cuts a standard word
    # short of its exact horizon.  Base 0xD800 puts the letters in the
    # surrogate range, through both the text chain and the rescan's
    # translation to ranks.
    from itertools import permutations

    from epilex.extremal import _letter_bitsets, _window_chain, minimal_window_positions

    rng = random.Random(seed)
    n = rng.randint(1, 40)
    if kind == "periodic":
        seq = [rng.randrange(size) for _ in range(rng.randint(1, 5))] * n
    elif kind == "standard":
        seq = standard_word(random_directive(rng, max_alpha=size, min_alpha=size)).raw(n)
    else:
        seq = [rng.randrange(size) for _ in range(n)]
        if kind == "flush":
            seq += [rng.randrange(size)] * rng.randint(1, 12)
    seq = [base + c for c in seq[:60]]
    alphabet = _alphabet_from(base)
    text = as_text(seq)
    bitsets = _letter_bitsets(text)
    present = sorted(bitsets)
    assert present == sorted(set(seq))
    for perm in permutations(range(len(present))):
        # the letters present take ranks 0.., the others rank above them:
        # those below ``base`` first, then the rest of the four from ``base``
        rank_of = dict(zip(present, perm))
        m = len(present)
        others = iter(range(m + base, alphabet.size))
        top = (rank_of[c] if c in rank_of else next(others) for c in range(base, alphabet.size))
        order = LexOrder(alphabet, (*range(m, m + base), *top))
        k_max = rng.randint(1, len(seq) + 2)
        chain = _window_chain(text, bitsets, order.ranks, k_max)
        assert chain == minimal_window_positions(text, order.ranks, k_max)
        assert len(chain) == min(k_max, len(seq))
        r = [rank_of[c] for c in seq]
        for k, p in enumerate(chain, start=1):
            first = min(range(len(r) - k + 1), key=lambda q: r[q : q + k])
            assert p == first, (kind, seq, order.ranks[base : base + 4], k)


def test_exactness_labels_for_directive_streams():
    d = parse_directive(AB, "(ab)")
    stream = standard_word(d)
    order = LexOrder.default(AB)
    k = 5
    h = exact_horizon(d, k)
    assert min_factor(stream, k, order, h).exact
    assert not min_factor(stream, k, order, h - 1).exact
    # the guaranteed-exact scan matches a much deeper one
    assert min_factor(stream, k, order, h).word == min_factor(stream, k, order, 20 * h).word


def test_exactness_stability_for_literal_streams():
    order = LexOrder.default(AB)
    # b(ba)^...: the first "ab" only shows up at position 2; a horizon of 3
    # sees {bb, ba}, short of the bound |u| + |v| + k - 1 = 4
    t = LiteralPeriodicStream(AB.word("b"), AB.word("ba"))
    res = min_factor(t, 2, order, 3)
    assert not res.exact
    res = min_factor(t, 2, order, 12)
    assert res.exact
    assert str(res.word) == "ab"
    # b^50(a)^...: doubling a horizon of 20 still sees only b
    t = LiteralPeriodicStream(AB.word("b" * 50), AB.word("a"))
    assert not min_factor(t, 1, order, 20).exact
    res = min_factor(t, 1, order, 51)
    assert res.exact
    assert str(res.word) == "a"


@given(
    st.lists(st.integers(0, 2), max_size=6),
    st.lists(st.integers(0, 2), min_size=1, max_size=6),
    st.integers(1, 8),
    st.integers(0, 24),
)
def test_exact_literal_results_match_the_complete_prefix(u, v, k, extra):
    t = LiteralPeriodicStream(Word(ABC, tuple(u)), Word(ABC, tuple(v)))
    bound = len(u) + len(v) + k - 1
    complete = t.prefix(bound)
    deeper = t.prefix(bound + 3 * len(v))
    h = k + extra
    for order in all_orders(ABC):
        lo = min_factor(t, k, order, h)
        hi = max_factor(t, k, order, h)
        assert lo.exact == hi.exact == (h >= bound)
        if lo.exact:
            assert lo.word == oracle_min(complete, k, order) == oracle_min(deeper, k, order)
            assert hi.word == oracle_max(complete, k, order) == oracle_max(deeper, k, order)


def test_exactness_for_skew_streams():
    core = standard_word(parse_directive(ABC, "(ab)"))
    t = ConcatStream(ABC.word("c"), core)
    assert t.exact_horizon(4) == 1 + core.exact_horizon(4)
    res = min_factor(t, 4, LexOrder.default(ABC), 300)
    assert res.exact
    assert str(res.word) == "aaba"


def test_exactness_for_morphic_images_of_non_directive_streams():
    # psi_c(c . Fib) has no composed directive; its bound is the longest letter
    # image (2) times the inner concatenation's bound
    core = standard_word(parse_directive(ABC, "(ab)"))
    t = psi(ABC, "c").apply(ConcatStream(ABC.word("c"), core))
    for k in (1, 2, 4, 9):
        bound = t.exact_horizon(k)
        assert bound == 2 * (1 + core.exact_horizon(k))
        deeper = t.prefix(20 * bound)
        for order in all_orders(ABC):
            lo = min_factor(t, k, order, bound)
            hi = max_factor(t, k, order, bound)
            assert lo.exact and hi.exact
            assert lo.word == oracle_min(deeper, k, order)
            assert hi.word == oracle_max(deeper, k, order)
            assert not min_factor(t, k, order, bound - 1).exact


def test_min_never_below_letter_extension_bound():
    # the standard-word inequality: (least letter).s_{k-1} <= min(s|k), every
    # order, on a small random corpus
    rng = random.Random(53)
    for _ in range(20):
        d = random_directive(rng)
        stream = standard_word(d)
        h = max(exact_horizon(d, 60), 400)
        seq = stream.raw(h)
        for order in all_orders(d.alphabet):
            ranks = order.ranks
            a = min(set(seq), key=lambda i: ranks[i])
            for k in (1, 2, 5, 13, 34, 60):
                m = min_factor(stream, k, order, h).word
                required = [a] + seq[: k - 1]
                assert [ranks[c] for c in required] <= [ranks[c] for c in m.indices]


# --- scans stop at the exact bound ---------------------------------------------


@st.composite
def bounded_streams(draw):
    """A stream that states an exact horizon: a directive stream (strict,
    or with preperiod letters that vanish from the period; 2-4 letters)
    under up to two layers of morphic images and concatenations, or a
    literal ultimately periodic word."""
    size = draw(st.integers(2, 4))
    alphabet = Alphabet(tuple(LETTERS[:size]))
    letters = st.lists(st.integers(0, size - 1), max_size=5)
    if draw(st.booleans()):
        head, cycle = draw(letters), draw(letters.filter(bool))
        return LiteralPeriodicStream(Word(alphabet, tuple(head)), Word(alphabet, tuple(cycle)))
    kind = draw(st.sampled_from(("strict", "vanishing", "free")))
    if kind == "strict":
        period = tuple(draw(st.permutations(range(size))))  # every letter recurs
    elif kind == "vanishing":
        # the period avoids the last letter, which the preperiod holds
        period = tuple(draw(st.lists(st.integers(0, size - 2), min_size=1, max_size=4)))
    else:
        period = tuple(draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4)))
    preperiod = tuple(draw(st.lists(st.integers(0, size - 1), max_size=2)))
    if kind == "vanishing":
        preperiod += (size - 1,) + tuple(draw(st.lists(st.integers(0, size - 2), max_size=2)))
    stream = standard_word(DirectiveWord(alphabet, preperiod, period))
    for layer in draw(st.lists(st.sampled_from(("morphic", "concat")), max_size=2)):
        if layer == "morphic":
            gens = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=2))
            stream = MorphicImageStream(PureEpistandardMorphism(alphabet, tuple(gens)), stream)
        else:
            stream = ConcatStream(Word(alphabet, tuple(draw(letters))), stream)
    return stream


@settings(max_examples=200, deadline=None)
@given(bounded_streams(), st.integers(1, 100))
def test_exact_horizons_hold_every_factor(t, k):
    # Falsification test for every exact_horizon that scans stop at: no
    # length-k factor may first occur past the bound, checked by brute force
    # over a prefix of 8 * bound + 8 * k letters.
    bound = t.exact_horizon(k)
    assert bound is not None and bound >= k
    text = t._text(8 * bound + 8 * k)
    seen = {text[i : i + k] for i in range(bound - k + 1)}
    for i in range(len(text) - k + 1):
        assert text[i : i + k] in seen, f"a length-{k} factor first ends at {i + k}, past the bound {bound}"


def _stream_cases(rng):
    """Directive, morphic-image, skew and literal streams, each with a factor length."""
    for case in range(24):
        kind = case % 4
        if kind == 0:
            t = standard_word(random_directive(rng, max_alpha=3, min_alpha=2))
        elif kind == 1:
            d = random_directive(rng, max_alpha=3, min_alpha=2)
            gens = tuple(rng.randrange(d.alphabet.size) for _ in range(rng.randint(1, 2)))
            t = MorphicImageStream(PureEpistandardMorphism(d.alphabet, gens), standard_word(d))
        elif kind == 2:
            t = construct_skew(random_canonical_skew(rng, max_alpha=3))
        else:
            d = random_directive(rng, max_alpha=3, min_alpha=2)
            size = d.alphabet.size
            head = Word(d.alphabet, tuple(rng.randrange(size) for _ in range(rng.randint(0, 5))))
            cycle = Word(d.alphabet, tuple(rng.randrange(size) for _ in range(rng.randint(1, 5))))
            t = LiteralPeriodicStream(head, cycle)
        yield t, rng.randint(1, 8)


def test_scans_to_the_exact_bound_never_rescan():
    # The chain rescans at length j+1 exactly when its first least j-window
    # ends at the last letter.  A scan to exact_horizon(k) holds every
    # length-k factor, min(t)[:k] among them, so for each j < k some least
    # j-window is followed by a letter of the scan and extends.
    from epilex.extremal import minimal_window_positions

    cases = 0
    for seed in (71, 73):
        for t, _ in _stream_cases(random.Random(seed)):
            for k in range(1, 41):
                text = t._text(t.exact_horizon(k))
                for order in all_orders(t.alphabet):
                    chain = minimal_window_positions(text, order.ranks, k)
                    assert len(chain) == k
                    assert all(chain[j - 1] + j != len(text) for j in range(1, k)), (t, k, order)
                    cases += 1
    assert cases > 1000
    # A horizon-limited scan can end with its only least window: in abaab,
    # the least 3-window under a<b, aab, ends at the last letter.
    text = fib()._text(5)
    assert minimal_window_positions(text, (0, 1), 4)[2] + 3 == len(text)


def test_capped_scans_match_the_oracle_over_the_requested_prefix():
    # Past the bound the scan stops, yet the answer is the extremum of the
    # whole prefix the caller asked for.  Short of it, the answer is that of
    # the finite prefix itself: a word with no stated structure is asked as
    # its prefix.
    rng = random.Random(61)
    for t, k in _stream_cases(rng):
        bound = t.exact_horizon(k)
        for h in (max(k, bound // 2), bound, 4 * bound + 7):
            requested = t.prefix(h)
            for order in all_orders(t.alphabet):
                lo = min_factor(t, k, order, h)
                hi = max_factor(t, k, order, h)
                assert lo.exact is hi.exact is (h >= bound) and lo.horizon == hi.horizon == h
                assert lo.word == min_factor(requested, k, order).word == oracle_min(requested, k, order)
                assert hi.word == max_factor(requested, k, order).word == oracle_max(requested, k, order)


def test_not_fine_witness_is_the_least_factor_of_the_requested_prefix():
    rng = random.Random(67)
    depth = 8
    witnesses = 0
    for t, _ in _stream_cases(rng):
        # Short of the bound, the verdict is that of the finite prefix itself;
        # past it, that of the stream.
        bound = t.exact_horizon(depth)
        for h in (max(2 * depth, bound // 2), 4 * bound + 7):
            verdict = is_fine_empirical(t.prefix(h), depth)
            if verdict.classification is Classification.NOT_FINE:
                w = verdict.witness
                assert w.factor == oracle_min(t.prefix(h), w.k, w.order)
                witnesses += 1
        assert verdict == is_fine_empirical(t, depth)
    assert witnesses > 0


def test_min_factor_generates_no_letter_past_the_bound():
    class Recording(LiteralPeriodicStream):
        longest = 0  # the most letters any extension asked for

        def _extend(self, n):
            self.longest = max(self.longest, n)
            super()._extend(n)

    order = LexOrder.default(AB)
    t = Recording(AB.word("ab"), AB.word("aab"))
    assert t.exact_horizon(50) == 54
    res = min_factor(t, 50, order, 10**5)
    assert res.exact and res.horizon == 10**5
    assert t.longest <= 54
    assert res.word == oracle_min(t.prefix(200), 50, order)


# (stream kind, horizon) -> the (letters read, exact) of a scan for factors
# of length 4.  The bounded stream states 16 letters, the finite word has 16.
_SCAN_RULE = [
    ("bounded", None, (16, True)),
    ("bounded", 9, (9, False)),
    ("bounded", 16, (16, True)),
    ("bounded", 40, (16, True)),
    ("word", None, (16, True)),
    ("word", 9, (9, False)),
    ("word", 16, (16, True)),
    ("word", 40, (16, True)),
]


def test_every_scan_reads_what_scan_length_says():
    from epilex.words import scan_length

    reads = []

    def recording(cls):
        class Recording(cls):
            def _text(self, n):
                reads.append(n)
                return super()._text(n)

        return Recording

    make = {
        "bounded": lambda: recording(LiteralPeriodicStream)(AB.word("babaababaa"), AB.word("bab")),
        "word": lambda: recording(Word)(AB, (0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0)),
    }
    assert make["bounded"]().exact_horizon(4) == 16
    k, order = 4, LexOrder.from_letters(AB, "ba")
    for kind, horizon, want in _SCAN_RULE:
        row = (kind, horizon)
        t = make[kind]()
        reads.clear()
        n, exact = want
        assert scan_length(t, k, horizon) == want, row
        assert reads == [], row  # the rule reads no letter
        # A prefix short of the bound is scanned as that finite word, whose
        # own reads are recorded: ``prefix`` itself reads through no ``_text``.
        is_fine_empirical(t if exact else recording(Word)(AB, t.prefix(horizon).indices), k)
        assert max(reads) == n, row
        reads.clear()
        res = min_factor(make[kind](), k, order, horizon)
        assert max(reads) == n, row
        assert res.exact is exact and res.horizon == (n if horizon is None else horizon), row
        if horizon is not None and horizon // 2 == k:
            # min_stream at this horizon scans for length k with no horizon,
            # so it reads the bound however short the horizon
            reads.clear()
            min_stream(make[kind](), order, horizon)
            assert max(reads) == 16, row


# --- one memo of min(t) per (stream, order) -----------------------------------


def _memo_stream(seed):
    """A stream that states an exact horizon, built alike from the same seed:
    a strict or non-strict directive stream, a morphic image, a skew word or
    a literal ultimately periodic word."""
    rng = random.Random(seed)
    kind = seed % 5
    if kind == 0:
        return standard_word(random_strict_directive(rng, max_alpha=3, max_pre=2, max_per=2))
    if kind == 1:
        # the letter c occurs in the preperiod only, so the directive is not strict
        per = (0, 1) + tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
        pre = tuple(rng.randrange(3) for _ in range(rng.randint(0, 2))) + (2,)
        return standard_word(DirectiveWord(ABC, pre, per))
    if kind == 2:
        d = random_directive(rng, max_alpha=3, max_pre=2, max_per=3, min_alpha=2)
        gens = tuple(rng.randrange(d.alphabet.size) for _ in range(rng.randint(1, 2)))
        return MorphicImageStream(PureEpistandardMorphism(d.alphabet, gens), standard_word(d))
    if kind == 3:
        return construct_skew(random_canonical_skew(rng, max_alpha=3))
    size = rng.randint(2, 3)
    alphabet = Alphabet(tuple(LETTERS[:size]))
    head = tuple(rng.randrange(size) for _ in range(rng.randint(0, 5)))
    cycle = tuple(rng.randrange(size) for _ in range(rng.randint(1, 5)))
    return LiteralPeriodicStream(Word(alphabet, head), Word(alphabet, cycle))


_QUERIES = {"min_factor": min_factor, "max_factor": max_factor, "min_stream": min_stream, "max_stream": max_stream}


def _scanned_extremum(t, fn, k, order, horizon):
    """The oracle's answer over the prefix the query is documented to read."""
    bound = t.exact_horizon(k)
    n = bound if horizon is None or fn.endswith("stream") else min(horizon, bound)
    oracle = oracle_max if fn.startswith("max") else oracle_min
    return oracle(t.prefix(n), k, order)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.lists(
        st.tuples(st.sampled_from(sorted(_QUERIES)), st.integers(0, 5), st.integers(1, 24), st.integers(-30, 30)),
        min_size=1,
        max_size=8,
    ),
)
def test_memo_answers_equal_fresh_streams_and_the_oracle(seed, queries):
    t = _memo_stream(seed)
    orders = all_orders(t.alphabet)
    for fn, o, k, shift in queries:
        order = orders[o % len(orders)]
        if fn.endswith("stream"):
            horizon = 2 * k + (shift % 2)
            got = _QUERIES[fn](t, order, horizon)
            assert got == _QUERIES[fn](_memo_stream(seed), order, horizon)
        else:
            # shift < 0: horizon-limited, below the bound; 0: no horizon; > 0: past it
            bound = t.exact_horizon(k)
            horizon = None if shift == 0 else max(k, bound + shift)
            res = _QUERIES[fn](t, k, order, horizon)
            assert res == _QUERIES[fn](_memo_stream(seed), k, order, horizon)
            got = res.word
        assert got == _scanned_extremum(t, fn, k, order, horizon)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.lists(
        st.tuples(
            st.sampled_from(("min_factor", "max_factor")),
            st.integers(0, 5),
            st.integers(1, 30),
            st.integers(1, 60),
            st.integers(0, 10**6),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_horizon_limited_answers_from_a_warm_memo_equal_fresh_scans(seed, queries):
    # The shared stream's memo is filled by exact queries at a random depth,
    # under the query's order and its reversal; the fresh stream holds none,
    # so it scans.  k <= h < bound: every query is horizon-limited.
    t = _memo_stream(seed)
    orders = all_orders(t.alphabet)
    for fn, o, k, warm, frac in queries:
        order = orders[o % len(orders)]
        for each in (order, order.reversed()):
            assert min_factor(t, warm, each).exact
        bound = t.exact_horizon(k)
        if bound <= k:
            continue
        h = k + frac % (bound - k)
        held = dict(t._minima)
        got = _QUERIES[fn](t, k, order, h)
        assert not got.exact and got.horizon == h
        fresh = _memo_stream(seed)
        assert got == _QUERIES[fn](fresh, k, order, h)
        # a horizon-limited query only reads the memo
        assert t._minima == held and not fresh._minima


def test_first_exact_query_looks_up_the_bound_once():
    class Counting(LiteralPeriodicStream):
        calls = 0

        def exact_horizon(self, k):
            Counting.calls += 1
            return super().exact_horizon(k)

    t = Counting(AB.word("b"), AB.word("aab"))
    order = LexOrder.default(AB)
    for _ in range(2):  # a miss, then a memo hit
        Counting.calls = 0
        assert min_factor(t, 6, order).exact
        assert Counting.calls == 1


def test_least_factors_of_a_finite_word_do_not_nest():
    order = LexOrder.default(AB)
    w = AB.word("ba")
    assert str(min_factor(w, 1, order).word) == "a"
    assert str(min_factor(w, 2, order).word) == "ba"
    assert str(min_factor(w, 1, order, 5).word) == "a"
    assert str(max_factor(w, 1, order.reversed()).word) == "a"
    assert str(max_factor(w, 2, order.reversed()).word) == "ba"
    assert str(min_stream(w, order, 2)) == "a"
    assert str(min_stream(w, order, 4)) == "ba"


def test_max_factor_is_min_factor_under_the_reversed_order():
    # Both read one memo entry, keyed by the reversed order's ranks.
    builders = {
        "directive": trib,
        "literal": lambda: LiteralPeriodicStream(ABC.word("cb"), ABC.word("abcab")),
        "concat": lambda: ConcatStream(ABC.word("cca"), trib()),
        "image": lambda: psi(ABC, "c").apply(trib()),
        "image of a literal": lambda: psi(ABC, "b").apply(LiteralPeriodicStream(ABC.word("c"), ABC.word("ab"))),
        "skew": lambda: construct_skew(parse_skew(ABC, "skew v=(ab) x=c p=4 mu=psi:c suffix=full")),
    }
    w = ABC.word("cabcacbbaccab")
    for order in all_orders(ABC):
        reverse = order.reversed()
        assert reverse.reversed() == order
        for name, build in builders.items():
            t = build()
            for k in (1, 5, 12):
                got, want = max_factor(t, k, order), min_factor(t, k, reverse)
                assert (got.word, got.exact, got.horizon) == (want.word, want.exact, want.horizon), (name, k)
            assert t._minima.keys() == {reverse.ranks}, name
        for k in range(1, len(w) + 1):
            assert max_factor(w, k, order).word == min_factor(w, k, reverse).word == oracle_max(w, k, order)


def test_exact_queries_within_the_memo_run_no_chain(monkeypatch):
    import epilex.extremal as extremal

    depths = []
    chain = extremal.minimal_window_positions

    def counting(seq, rank, k_max):
        depths.append(k_max)
        return chain(seq, rank, k_max)

    monkeypatch.setattr(extremal, "minimal_window_positions", counting)
    t = trib()
    order = LexOrder.from_letters(ABC, "bca")
    min_factor(t, 20, order)
    assert depths == [20]
    depths.clear()
    for k in range(1, 21):
        assert min_factor(t, k, order).exact
        min_factor(t, k, order, 10**6)
    min_stream(t, order, 41)
    # the greatest factor under an order is the least under its reversal
    max_factor(t, 20, order.reversed(), 10**6)
    max_stream(t, order.reversed(), 40)
    assert depths == []
    # a longer factor deepens the memo to twice what it held
    min_factor(t, 21, order)
    assert depths == [40]
    # a horizon short of the bound that holds the first occurrence of the
    # memo's word runs no chain and answers as a fresh stream's scan does
    starts = t._minima[order.ranks][1]
    horizons = range(starts[4] + 5, t.exact_horizon(5))
    assert horizons
    depths.clear()
    read = [min_factor(t, 5, order, h) for h in horizons]
    assert depths == []
    assert read == [min_factor(trib(), 5, order, h) for h in horizons]
    assert not any(res.exact for res in read)
    # one that ends before it scans: in b^50 a^w under a < b the memo holds
    # a^5, first at 50, but the least window of the first 20 letters is b^5
    u = LiteralPeriodicStream(AB.word("b" * 50), AB.word("a"))
    under = LexOrder.default(AB)
    assert str(min_factor(u, 20, under).word) == "a" * 20
    depths.clear()
    assert str(min_factor(u, 5, under, 20).word) == "bbbbb"
    assert depths == [5]


def test_memo_is_shared_safely_across_threads(monkeypatch):
    import sys
    import threading
    import time

    import epilex.extremal as extremal

    # Record the depth of every chain the memo runs, per stream: the chain
    # runs inside the memo lookup, in the same thread.
    computed = []
    local = threading.local()
    lookup, chain = extremal._least_factor, extremal.minimal_window_positions

    def looking_up(w, *args):
        local.stream = w
        return lookup(w, *args)

    def recording(seq, rank, k_max):
        computed.append((local.stream, tuple(rank), k_max))
        time.sleep(0.001)  # let the other threads run between the scan and the publish
        return chain(seq, rank, k_max)

    def ask(t, fn, order, k):
        return _QUERIES[fn](t, order, 2 * k) if fn.endswith("stream") else _QUERIES[fn](t, k, order)

    skew_spec = parse_skew(ABC, "skew v=(ab) x=c p=4 mu=psi:c suffix=full")
    builders = {"directive": trib, "skew": lambda: construct_skew(skew_spec)}
    queries = [(fn, order, k) for fn in sorted(_QUERIES) for order in all_orders(ABC) for k in (1, 3, 7, 12, 20)]
    work = [(name, q) for name in builders for q in queries]
    serial = {(name, q): ask(builders[name](), *q) for name, q in work}

    monkeypatch.setattr(extremal, "_least_factor", looking_up)
    monkeypatch.setattr(extremal, "minimal_window_positions", recording)
    shared = {name: build() for name, build in builders.items()}
    results = []
    start = threading.Barrier(8, timeout=60)

    def worker(seed):
        mine = work[:]
        random.Random(seed).shuffle(mine)
        start.wait()
        for name, q in mine:
            results.append(((name, q), ask(shared[name], *q)))

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
    for key, got in results:
        assert got == serial[key]
    for name, t in shared.items():
        longest = {}
        for stream, ranks, depth in computed:
            if stream is t:
                longest[ranks] = max(longest.get(ranks, 0), depth)
        assert t._minima.keys() == longest.keys()
        for ranks, (letters, starts) in t._minima.items():
            assert len(letters) == longest[ranks]
            assert letters == min_factor(builders[name](), len(letters), LexOrder(ABC, ranks)).word.text
            fresh = builders[name]()
            assert list(starts) == chain(fresh._text(fresh.exact_horizon(len(letters))), ranks, len(letters))


def test_memo_keeps_the_longer_word_when_fills_race(monkeypatch):
    import threading

    import epilex.extremal as extremal

    chain = extremal.minimal_window_positions
    short_running, long_published = threading.Event(), threading.Event()

    def pausing(seq, rank, k_max):
        if k_max == 5:  # the short fill waits until the long one has published
            short_running.set()
            assert long_published.wait(10)
        return chain(seq, rank, k_max)

    monkeypatch.setattr(extremal, "minimal_window_positions", pausing)
    t = trib()
    order = LexOrder.default(ABC)
    out = {}
    short = threading.Thread(target=lambda: out.setdefault("short", min_factor(t, 5, order)))
    short.start()
    assert short_running.wait(10)
    out["long"] = min_factor(t, 20, order)
    long_published.set()
    short.join(timeout=60)
    assert not short.is_alive()
    assert t._minima.keys() == {order.ranks}
    letters, starts = t._minima[order.ranks]
    assert letters == out["long"].word.text
    assert list(starts) == chain(trib()._text(trib().exact_horizon(20)), order.ranks, 20)
    assert out["short"].word.indices == out["long"].word.indices[:5]
