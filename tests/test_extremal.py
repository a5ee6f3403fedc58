import random

import pytest
from hypothesis import given, strategies as st

from epilex import (
    Alphabet,
    CallbackStream,
    ConcatStream,
    Exactness,
    LengthError,
    LexOrder,
    LiteralPeriodicStream,
    Word,
    all_orders,
    exact_horizon,
    max_factor,
    max_stream,
    min_factor,
    min_stream,
    oracle_max,
    oracle_min,
    psi,
    standard_word,
)
from epilex.textio import parse_directive

from helpers import random_directive

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


def test_exactness_labels_for_directive_streams():
    d = parse_directive(AB, "(ab)")
    stream = standard_word(d)
    order = LexOrder.default(AB)
    k = 5
    h = exact_horizon(d, k)
    assert min_factor(stream, k, order, h).exactness is Exactness.EXACT
    assert min_factor(stream, k, order, h - 1).exactness is Exactness.HORIZON_LIMITED
    # the guaranteed-exact scan matches a much deeper one
    assert min_factor(stream, k, order, h).word == min_factor(stream, k, order, 20 * h).word


def test_exactness_stability_for_literal_streams():
    order = LexOrder.default(AB)
    # b(ba)^...: the first "ab" only shows up at position 2; a horizon of 3
    # sees {bb, ba}, short of the bound |u| + |v| + k - 1 = 4
    t = LiteralPeriodicStream(AB.word("b"), AB.word("ba"))
    res = min_factor(t, 2, order, 3)
    assert res.exactness is Exactness.HORIZON_LIMITED
    res = min_factor(t, 2, order, 12)
    assert res.exactness is Exactness.EXACT
    assert str(res.word) == "ab"
    # b^50(a)^...: doubling a horizon of 20 still sees only b
    t = LiteralPeriodicStream(AB.word("b" * 50), AB.word("a"))
    assert min_factor(t, 1, order, 20).exactness is Exactness.HORIZON_LIMITED
    res = min_factor(t, 1, order, 51)
    assert res.exactness is Exactness.EXACT
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


def test_callback_streams_are_horizon_limited():
    t = CallbackStream(AB, lambda n: [i % 2 for i in range(n)])
    assert t.exact_horizon(3) is None
    assert min_factor(t, 3, LexOrder.default(AB), 1000).exactness is Exactness.HORIZON_LIMITED
    assert min_stream(t, LexOrder.default(AB), 20) == AB.word("ababababab")
    with pytest.raises(ValueError):
        min_factor(t, 3, LexOrder.default(AB))


def test_exactness_for_skew_streams():
    core = standard_word(parse_directive(ABC, "(ab)"))
    t = ConcatStream(ABC.word("c"), core)
    assert t.exact_horizon(4) == 1 + core.exact_horizon(4)
    res = min_factor(t, 4, LexOrder.default(ABC), 300)
    assert res.exactness is Exactness.EXACT
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
            assert min_factor(t, k, order, bound - 1).exactness is Exactness.HORIZON_LIMITED


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
