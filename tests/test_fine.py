import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from epilex import (
    Alphabet,
    Classification,
    ConcatStream,
    DirectiveWord,
    LengthError,
    LiteralPeriodicStream,
    NotFine,
    NotSkewForm,
    SkewSpec,
    SpecError,
    Word,
    all_orders,
    classify,
    construct_skew,
    factors,
    identity,
    is_fine_empirical,
    psi,
    reconstruct_skew,
    standard_word,
    verify_min_transfer,
)
from epilex.extremal import minimal_window_positions
from epilex.fine import _chain_mismatch, _peel_text, _separates_text, skew_common_word
from epilex.morphisms import MorphicImageStream
from epilex.textio import parse_directive, parse_skew
from epilex.words import scan_length

from helpers import (
    as_text,
    chain_mismatch_by_length,
    letter_images,
    peel_by_splitting,
    random_canonical_skew,
    random_directive,
    random_strict_directive,
    separates_by_pairs,
)

AB = Alphabet.of("a", "b")
ABC = Alphabet.of("a", "b", "c")

FIB = parse_directive(AB, "(ab)")
FIB3 = parse_directive(ABC, "(ab)")


# --- construction ---------------------------------------------------------------

def test_construct_skew_golden_examples():
    t = construct_skew(parse_skew(ABC, "skew v=(ab) x=c p=0 mu=id suffix=full"))
    assert str(t.prefix(15)) == "cabaababaabaaba"
    t = construct_skew(parse_skew(ABC, "skew v=(ab) x=c p=4 mu=id suffix=full"))
    assert str(t.prefix(19)) == "aabacabaababaabaaba"
    t = construct_skew(parse_skew(ABC, "skew v=(ab) x=c p=4 mu=psi:c suffix=full"))
    assert str(t.prefix(33)) == "cacacbcaccacbcacacbcacbcacacbcaca"


def test_construct_skew_rejects_bad_specs():
    with pytest.raises(SpecError):  # core not strict
        construct_skew(SkewSpec(parse_directive(ABC, "a(b)"), "c", 0, identity(ABC), 1))
    with pytest.raises(SpecError):  # marker letter inside the core
        construct_skew(SkewSpec(FIB3, "a", 0, identity(ABC), 1))
    with pytest.raises(SpecError):  # suffix length out of range
        construct_skew(SkewSpec(FIB3, "c", 0, identity(ABC), 2))
    abcd = Alphabet.of("a", "b", "c", "d")
    with pytest.raises(SpecError):  # generator outside the word's letters
        construct_skew(
            SkewSpec(parse_directive(abcd, "(ab)"), "c", 0, psi(abcd, "d"), 1)
        )


def test_suffix_word_is_a_seed_suffix_by_construction():
    spec = parse_skew(ABC, "skew v=(ab) x=c p=4 mu=psi:c suffix=3")
    seed = spec.seed_word()
    assert spec.suffix_word().indices == seed.indices[-3:]


def test_seed_length_counts_the_seed_without_building_it():
    rng = random.Random(61)
    for _ in range(200):
        spec = random_canonical_skew(rng)
        assert spec.seed_length() == len(spec.seed_word())


# --- empirical fineness ------------------------------------------------------------

def test_fibonacci_is_fine_with_itself_as_tail():
    v = is_fine_empirical(standard_word(FIB).prefix(500), 50)
    assert v.fine_to_depth
    assert v.s_prefix == standard_word(FIB).prefix(49)


def test_lifted_word_is_not_fine_with_reproducible_witness():
    t = standard_word(parse_directive(ABC, "c(ab)"))
    v = is_fine_empirical(t.prefix(500), 10)
    assert v.classification is Classification.NOT_FINE
    w = v.witness
    assert w is not None
    assert w.order.describe() == "c<a<b" and w.k == 2
    assert str(w.required) == "cc" and w.reason == "required-missing"
    # reproducible: the required word really is absent
    assert ABC.word("cc") not in factors(t.prefix(500), 2)
    assert str(w.factor) == "ca"


def test_prepended_word_is_fine():
    t = ConcatStream(ABC.word("c"), standard_word(FIB3))
    v = is_fine_empirical(t.prefix(500), 50)
    assert v.fine_to_depth
    assert v.s_prefix == standard_word(FIB3).prefix(49)


def test_is_fine_empirical_preconditions():
    with pytest.raises(ValueError):
        is_fine_empirical(standard_word(FIB), 0)
    # A finite word shorter than the depth is refused before it is read.
    for text in ("a", "ab", "abaab"):
        for depth in range(len(text) + 1, 9):
            with pytest.raises(LengthError):
                is_fine_empirical(AB.word(text), depth)


def test_is_fine_empirical_reads_the_bound_without_a_horizon():
    # The bound may lie below twice the depth; it still holds every factor.
    t = LiteralPeriodicStream(AB.word(""), AB.word("ab"))
    assert t.exact_horizon(10) < 20
    assert is_fine_empirical(t, 10) == is_fine_empirical(t.prefix(40), 10)
    # Without a horizon the scan reads the bound, past which no horizon
    # changes the verdict.
    fib = standard_word(FIB)
    assert fib.exact_horizon(10) > 20
    assert is_fine_empirical(fib, 10) == is_fine_empirical(fib.prefix(10**6), 10)


# --- structural classification ------------------------------------------------------

def test_classify_directives():
    v = classify(parse_directive(ABC, "(abc)"), 25)
    assert v.classification is Classification.STRICT_EPISTURMIAN
    assert v.strict_alphabet == frozenset("abc")
    v = classify(parse_directive(ABC, "c(ab)"), 25)
    assert v.classification is Classification.NOT_FINE and v.witness is not None
    v = classify(parse_directive(AB, "a(ab)"), 25)
    assert v.classification is Classification.STRICT_EPISTURMIAN


def test_classify_skew_spec():
    spec = parse_skew(ABC, "skew v=(ab) x=c p=4 mu=psi:c suffix=full")
    v = classify(spec, 25)
    assert v.classification is Classification.SKEW_EPISTURMIAN
    assert v.skew == spec
    assert v.s_prefix == skew_common_word(spec).prefix(24)


def test_classify_literal_words():
    v = classify(LiteralPeriodicStream(AB.word(""), AB.word("a")), 10)
    assert v.classification is Classification.STRICT_EPISTURMIAN
    assert v.strict_alphabet == frozenset("a")
    # ba(ab): the skew word with marker a, core b^..., one-generator shell
    v = classify(LiteralPeriodicStream(AB.word("ba"), AB.word("ab")), 12)
    assert v.classification is Classification.SKEW_EPISTURMIAN
    assert v.skew is not None and v.skew.x == "a" and v.skew.p == 1
    assert v.skew.morphism.generator_tokens() == ("a",)
    # c(ab): periodic with a lone marker but a non-strict core, not fine
    v = classify(LiteralPeriodicStream(ABC.word("c"), ABC.word("ab")), 12)
    assert v.classification is Classification.NOT_FINE and v.witness is not None


def test_classify_literal_scans_once_when_not_fine(monkeypatch):
    # every branch of classify makes one scan and at most one peel
    import epilex.fine as fine

    calls, peels = [], []
    scan, peel = fine.is_fine_empirical, fine.reconstruct_skew

    def counting(*args):
        calls.append(args[1:])
        return scan(*args)

    def counting_peel(*args):
        peels.append(args)
        return peel(*args)

    monkeypatch.setattr(fine, "is_fine_empirical", counting)
    monkeypatch.setattr(fine, "reconstruct_skew", counting_peel)
    t = LiteralPeriodicStream(ABC.word("cacbcacacbcacbcac"), ABC.word("acbcacacbcacbcac"))
    v = classify(t, 8)
    assert v.classification is Classification.NOT_FINE and v.witness is not None
    assert (calls, peels) == ([(8,)], [])
    cases = [
        (parse_directive(ABC, "(abc)"), 12, Classification.STRICT_EPISTURMIAN, 0),
        (parse_directive(ABC, "c(ab)"), 12, Classification.NOT_FINE, 0),
        (parse_directive(ABC, "ababab(c)"), 5, Classification.NOT_FINE, 0),
        (SKEW_SPEC, 12, Classification.SKEW_EPISTURMIAN, 0),
        (LiteralPeriodicStream(AB.word("ba"), AB.word("ab")), 12, Classification.SKEW_EPISTURMIAN, 1),
        (ONE_LETTER, 12, Classification.STRICT_EPISTURMIAN, 0),
        (LiteralPeriodicStream(ABC.word("c"), ABC.word("ab")), 12, Classification.NOT_FINE, 0),
        (LiteralPeriodicStream(AB.word("bab"), AB.word("aba")), 4, Classification.UNKNOWN, 1),
    ]
    for spec, depth, label, peeled in cases:
        calls.clear()
        peels.clear()
        assert classify(spec, depth).classification is label, spec
        assert (len(calls), len(peels)) == (1, peeled), spec


def test_classify_literal_skew_word_scans_once(monkeypatch):
    calls = []
    _plant(monkeypatch, lambda t, verdict: calls.append(t) or verdict)
    v = classify(LiteralPeriodicStream(AB.word("ba"), AB.word("a")), 8)
    assert v.classification is Classification.SKEW_EPISTURMIAN and v.skew is not None
    assert len(calls) == 1


def test_classify_rejects_unknown_types():
    with pytest.raises(TypeError):
        classify("not a spec", 10)


def test_classify_unary_degenerate():
    one = Alphabet.of("a")
    v = classify(parse_directive(one, "(a)"), 10)
    assert v.classification is Classification.STRICT_EPISTURMIAN
    assert v.strict_alphabet == frozenset("a")


# --- a structural verdict the empirical scan contradicts is an internal error ---

SKEW_SPEC = parse_skew(ABC, "skew v=(ab) x=c p=4 mu=psi:c suffix=full")
ONE_LETTER = LiteralPeriodicStream(AB.word("a"), AB.word("a"))


def _plant(monkeypatch, disagree):
    """Route every empirical scan ``classify`` runs through ``disagree(t, verdict)``."""
    import epilex.fine as fine

    scan = fine.is_fine_empirical
    monkeypatch.setattr(fine, "is_fine_empirical", lambda t, *a, **kw: disagree(t, scan(t, *a, **kw)))


def _refuted(t, verdict):
    from dataclasses import replace

    from epilex import LexOrder, Witness

    first = t.prefix(1)
    witness = Witness(order=LexOrder.default(t.alphabet), k=1, factor=first, required=first, reason="smaller-factor")
    return replace(verdict, classification=Classification.NOT_FINE, s_prefix=None, witness=witness)


def _wrong_tail(t, verdict):
    from dataclasses import replace

    # the alphabet's last letter throughout: no fine word's tail in these cases
    return replace(verdict, s_prefix=Word(t.alphabet, (t.alphabet.size - 1,) * (verdict.depth - 1)))


def test_classify_raises_when_the_empirical_scan_disagrees(monkeypatch):
    from dataclasses import replace

    import epilex.fine as fine
    from epilex import InternalConsistencyError

    claims = ((FIB, "strict directive \\(ab\\)"), (SKEW_SPEC, "skew spec"), (ONE_LETTER, "one-letter word"))
    for spec, claim in claims:
        with monkeypatch.context() as m:
            _plant(m, _refuted)
            with pytest.raises(InternalConsistencyError, match=claim):
                classify(spec, 12)
    for spec, claim in claims[:2]:
        with monkeypatch.context() as m:
            _plant(m, _wrong_tail)
            with pytest.raises(InternalConsistencyError, match=claim):
                classify(spec, 12)
    # a non-strict directive reported strict: its scan finds the witness
    with monkeypatch.context() as m:
        strictness = fine.strictness
        m.setattr(fine, "strictness", lambda d: replace(strictness(d), strict_over=frozenset("ab")))
        with pytest.raises(InternalConsistencyError, match="strict directive c\\(ab\\)"):
            classify(parse_directive(ABC, "c(ab)"), 12)


def test_one_letter_literal_checks_its_common_tail(monkeypatch):
    from epilex import InternalConsistencyError

    _plant(monkeypatch, _wrong_tail)
    with pytest.raises(InternalConsistencyError):
        classify(ONE_LETTER, 12)


def test_structural_and_empirical_verdicts_cohere():
    # the two decision paths must agree on 300 random structured specs:
    # a structural Strict/Skew verdict is cross-checked inside classify (a
    # disagreement raises), and a structural NotFine must show an empirical
    # witness by depth 60
    from helpers import random_canonical_skew, random_directive

    rng = random.Random(97)
    depth = 60
    for case in range(300):
        if case % 3 == 2:
            spec = random_canonical_skew(rng, max_alpha=3)
        else:
            spec = random_directive(rng, max_alpha=3, max_pre=2, max_per=4)
        verdict = classify(spec, depth)
        if verdict.classification is Classification.NOT_FINE:
            assert verdict.witness is not None, f"no witness within depth for {spec}"
            assert verdict.witness.k <= depth
        else:
            assert verdict.classification in (
                Classification.STRICT_EPISTURMIAN,
                Classification.SKEW_EPISTURMIAN,
            )


# --- the common tail -----------------------------------------------------------------

def test_common_s_examples():
    s = is_fine_empirical(standard_word(FIB).prefix(300), 30).s_prefix
    assert s == standard_word(FIB).prefix(29)
    t = ConcatStream(ABC.word("c"), standard_word(FIB3))
    s = is_fine_empirical(t.prefix(300), 30).s_prefix
    assert s == standard_word(FIB3).prefix(29)
    one = Alphabet.of("a")
    aaa = standard_word(parse_directive(one, "(a)"))
    s = is_fine_empirical(aaa.prefix(20), 10).s_prefix
    assert s is not None and str(s) == "a" * 9


def test_common_s_absent_for_unfine_words():
    assert is_fine_empirical(standard_word(parse_directive(ABC, "c(ab)")).prefix(200), 20).s_prefix is None


# --- transfer of minimal factors -------------------------------------------------------

def test_min_transfer_examples():
    f = standard_word(FIB)
    assert verify_min_transfer(f, f, "a", "a", 30, 400)
    fprime = standard_word(parse_directive(ABC, "(bc)"))
    assert verify_min_transfer(fprime, fprime, "a", "b", 30, 400)
    # mismatched tail: both sides fail under every order, so they still agree
    trib = standard_word(parse_directive(ABC, "(abc)"))
    f3 = standard_word(FIB3)
    assert verify_min_transfer(f3, trib, "a", "a", 20, 400)
    # a scan shorter than the depth matches on neither side, so the sides agree
    cc = standard_word(parse_directive(ABC, "cc(ba)"))
    assert verify_min_transfer(cc, cc, "b", "c", 15, 3)
    # at depth 0 every empty chain would match, whatever the words
    with pytest.raises(ValueError, match="depth must be >= 1"):
        verify_min_transfer(f3, trib, "a", "a", 0, 400)


def test_min_transfer_on_random_pairs():
    rng = random.Random(59)
    for _ in range(15):
        d = random_strict_directive(rng, max_alpha=3)
        t1 = standard_word(d)
        z = d.alphabet.letters[rng.randrange(d.alphabet.size)]
        a = d.alphabet.letters[rng.randrange(d.alphabet.size)]
        assert verify_min_transfer(t1, t1, z, a, 20, 600)


def test_witnesses_and_tails_are_frozen_on_a_random_corpus():
    # Frozen golden vector: the sha256 of these lines as the earlier code,
    # with one chain loop per caller, printed them.  Witness (order, k,
    # factor, required, reason), common tail and transfer verdict must all
    # stay the same now that the callers share one chain check.
    import hashlib
    from collections import Counter

    from helpers import random_directive

    rng = random.Random(2027)
    lines = []
    for case in range(90):
        if case % 3 == 0:
            t = standard_word(random_directive(rng, max_alpha=3, max_pre=3, max_per=4))
        elif case % 3 == 1:
            t = construct_skew(random_canonical_skew(rng, max_alpha=3))
        else:
            size = rng.randint(2, 3)
            alphabet = Alphabet(tuple("abc"[:size]))
            head = tuple(rng.randrange(size) for _ in range(rng.randint(0, 4)))
            cyc = tuple(rng.randrange(size) for _ in range(rng.randint(1, 5)))
            t = LiteralPeriodicStream(Word(alphabet, head), Word(alphabet, cyc))
        v = is_fine_empirical(t.prefix(400), 12)
        w = v.witness
        wit = f"{w.order.describe()} {w.k} {w.factor} {w.required} {w.reason}" if w else "-"
        lines.append(f"{v.classification.value} {v.s_prefix} {wit} {is_fine_empirical(t.prefix(400), 12).s_prefix}")
    for case in range(30):
        d = random_directive(rng, max_alpha=3, max_pre=2, max_per=4) if case % 2 else random_strict_directive(rng, max_alpha=3)
        t1 = standard_word(d)
        s1 = t1 if case % 3 else standard_word(random_directive(rng, max_alpha=3))
        if s1.alphabet != t1.alphabet:
            s1 = t1
        z, a = (d.alphabet.letters[rng.randrange(d.alphabet.size)] for _ in range(2))
        lines.append(str(verify_min_transfer(t1, s1, z, a, 15, rng.choice((20, 60, 400)))))
    assert Counter(line.split()[0] for line in lines) == {"Unknown": 58, "NotFine": 32, "True": 29, "False": 1}
    assert Counter(line.split()[-2] for line in lines[:90] if line.startswith("NotFine")) == {
        "smaller-factor": 23,
        "required-missing": 9,
    }
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "04a91c2b12dec3c717b9e76c20f53007660ccd827b7bcd10f1fc173202a72dab"


def fine_by_order(t, depth, horizon):
    """is_fine_empirical's verdict, one full chain call per order."""
    seq = t.raw(scan_length(t, depth, horizon)[0])
    seen = set(seq)
    s_ref = None
    for order in all_orders(t.alphabet, subset=[x for i, x in enumerate(t.alphabet.letters) if i in seen]):
        chain = minimal_window_positions(as_text(seq), order.ranks, depth)
        a = min(seen, key=order.ranks.__getitem__)
        if s_ref is None:
            s_ref = seq[chain[depth - 1] + 1 : chain[depth - 1] + depth]
        mismatch = chain_mismatch_by_length(seq, chain, [a] + s_ref)
        if mismatch is not None:
            return order, mismatch[0], tuple(mismatch[1])
    return tuple(s_ref)


def transfer_by_order(t1, s1, z, a, depth, horizon):
    """verify_min_transfer's verdict, one full chain call per order and side."""
    gen = psi(t1.alphabet, z)
    t = MorphicImageStream(gen, t1)
    z, a = t1.alphabet.index(z), t1.alphabet.index(a)
    sides = [
        (t1.raw(scan_length(t1, depth, horizon)[0]), lambda rank: [a] + s1.raw(depth + 1)),
        (
            t.raw(scan_length(t, depth, horizon)[0]),
            lambda rank: [z] * (rank[z] < rank[a]) + [a] + MorphicImageStream(gen, s1).raw(depth + 2),
        ),
    ]
    for order in all_orders(t1.alphabet):
        verdicts = set()
        for seq, expected in sides:
            chain = minimal_window_positions(as_text(seq), order.ranks, depth)
            verdicts.add(len(chain) >= depth and chain_mismatch_by_length(seq, chain, expected(order.ranks)) is None)
        if len(verdicts) > 1:
            return False
    return True


def test_shared_bitsets_give_the_per_order_verdicts():
    # Scans short of the exact bound (horizon 2 * depth, often below it)
    # make the chains rescan; the witness must be the first order's first k.
    rng = random.Random(2031)
    for case in range(90):
        if case % 3 == 0:
            t = standard_word(random_directive(rng, max_alpha=4, max_pre=3, max_per=4))
        elif case % 3 == 1:
            t = construct_skew(random_canonical_skew(rng, max_alpha=3))
        else:
            size = rng.randint(1, 3)
            alphabet = Alphabet(tuple("abc"[:size]))
            head = tuple(rng.randrange(size) for _ in range(rng.randint(0, 4)))
            cyc = tuple(rng.randrange(size) for _ in range(rng.randint(1, 5)))
            t = LiteralPeriodicStream(Word(alphabet, head), Word(alphabet, cyc))
        depth = rng.randint(1, 14)
        horizon = rng.choice((2 * depth, 3 * depth, 400))
        v = is_fine_empirical(t.prefix(horizon), depth)
        expected = fine_by_order(t, depth, horizon)
        if v.fine_to_depth:
            assert v.s_prefix.indices == expected
        else:
            w = v.witness
            assert (w.order, w.k, w.factor.indices) == expected
    for case in range(30):
        d = random_directive(rng, max_alpha=3, max_pre=2, max_per=4)
        t1 = standard_word(d)
        s1 = t1 if case % 3 else standard_word(random_directive(rng, max_alpha=3, min_alpha=3))
        if s1.alphabet != t1.alphabet:
            s1 = t1
        z, a = (d.alphabet.letters[rng.randrange(d.alphabet.size)] for _ in range(2))
        args = (t1, s1, z, a, rng.randint(1, 15), rng.choice((3, 20, 60, 400)))
        assert verify_min_transfer(*args) == transfer_by_order(*args), args


def test_one_bitset_build_per_scanned_prefix(monkeypatch):
    import epilex.extremal as extremal
    import epilex.fine as fine

    builds = []
    build = extremal._letter_bitsets

    def counting(seq):
        builds.append(len(seq))
        return build(seq)

    monkeypatch.setattr(extremal, "_letter_bitsets", counting)
    monkeypatch.setattr(fine, "_letter_bitsets", counting)
    trib = standard_word(parse_directive(ABC, "(abc)"))
    assert is_fine_empirical(trib.prefix(400), 20).fine_to_depth  # all six orders
    assert len(builds) == 1
    builds.clear()
    assert not is_fine_empirical(standard_word(parse_directive(ABC, "c(ab)")).prefix(400), 10).fine_to_depth
    assert len(builds) == 1
    builds.clear()
    verify_min_transfer(trib, trib, "a", "b", 20, 400)
    assert len(builds) == 2


# --- reconstruction ---------------------------------------------------------------------

def test_reconstruct_plain_prepend():
    t = ConcatStream(ABC.word("c"), standard_word(FIB3))
    spec = reconstruct_skew(t, 10, 4000)
    assert spec.x == "c" and spec.p == 0 and spec.morphism.is_identity
    assert construct_skew(spec).raw(2000) == t.raw(2000)


def test_reconstruct_mirrored_prefix():
    t = ConcatStream(ABC.word("aabac"), standard_word(FIB3))
    spec = reconstruct_skew(t, 10, 4000)
    assert spec.x == "c" and spec.p == 4 and spec.morphism.is_identity
    assert construct_skew(spec).raw(2000) == t.raw(2000)


def test_reconstruct_through_a_morphic_shell():
    inner = ConcatStream(ABC.word("aabac"), standard_word(FIB3))
    t = psi(ABC, "c").apply(inner)
    spec = reconstruct_skew(t, 10, 16000)
    assert spec.x == "c" and spec.p == 4
    assert spec.morphism.generator_tokens() == ("c",)
    assert construct_skew(spec).raw(2000) == t.raw(2000)


def test_reconstruct_gate_refutes_a_word_that_is_not_fine():
    # c(ab) is not strict, so its standard word is not fine: the gate raises
    # before any peel, with the witness the scan to the same depth returns.
    t = standard_word(parse_directive(ABC, "c(ab)"))
    verdict = is_fine_empirical(t, 10)
    assert verdict.classification is Classification.NOT_FINE
    with pytest.raises(NotFine) as raised:
        reconstruct_skew(t, 10, 4000)
    assert isinstance(raised.value, NotSkewForm)
    assert str(raised.value) == f"not fine within depth 10: {verdict.witness}"
    # The gate runs before the prefix is read, so at a huge horizon the
    # refuted word's buffer holds no more than the gate's own scan.
    huge, gated = (standard_word(parse_directive(ABC, "c(ab)")) for _ in range(2))
    with pytest.raises(NotFine):
        reconstruct_skew(huge, 10, 2_000_000)
    is_fine_empirical(gated, 10)
    assert len(huge._buf) <= len(gated._buf) < 10_000


def test_reconstruct_rejects_recurrent_words():
    with pytest.raises(NotSkewForm):
        reconstruct_skew(standard_word(FIB), 0, 3000)
    # alternating periodic word, peeled without the empirical gate
    with pytest.raises(NotSkewForm):
        reconstruct_skew(LiteralPeriodicStream(AB.word(""), AB.word("ab")), 0, 500)


def test_reconstruct_round_trips_canonical_specs():
    rng = random.Random(61)
    for _ in range(12):
        spec = random_canonical_skew(rng, max_alpha=3)
        t = construct_skew(spec)
        budget = (2 ** len(spec.morphism.letters)) * 2400 + 4 * spec.suffix_len + 64
        rec = reconstruct_skew(t, 0, budget)
        assert rec.x == spec.x and rec.p == spec.p
        assert len(rec.morphism.letters) == len(spec.morphism.letters)
        assert construct_skew(rec).raw(2000) == t.raw(2000)


def test_peel_reads_the_letter_after_each_separator():
    rng = random.Random(71)
    for _ in range(500):
        size = rng.randint(2, 4)
        z = rng.randrange(size)
        others = [c for c in range(size) if c != z]
        seq: list[int] = []
        for _ in range(rng.randint(1, 40)):  # images of a random preimage
            seq += [z] if rng.random() < 0.4 else [z, rng.choice(others)]
        if seq[0] == z and len(seq) > 1 and seq[1] != z and rng.random() < 0.5:
            seq = seq[1:]  # starts inside an image, with a letter other than z
        seq += [[], [z], [z, z]][rng.randrange(3)]
        text = as_text(seq)
        assert _separates_text(chr(z), text, set(text))
        assert list(map(ord, _peel_text(text, chr(z), set(text)))) == peel_by_splitting(seq, z), (seq, z)


@st.composite
def peel_cases(draw):
    """A separating letter and the image of a random preimage under its
    generator, maybe started inside an image, ending in no, one or two lone
    separators; indices start at 0 or at 300, past the one-byte range."""
    size = draw(st.integers(2, 5))
    offset = draw(st.sampled_from((0, 300)))
    z = draw(st.integers(0, size - 1))
    preimage = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=30))
    seq = [c for y in preimage for c in ((z,) if y == z else (z, y))]
    if len(seq) > 1 and seq[1] != z and draw(st.booleans()):
        seq = seq[1:]
    seq += draw(st.sampled_from(([], [z], [z, z])))
    return z + offset, [c + offset for c in seq]


@settings(max_examples=400, deadline=None)
@given(peel_cases())
def test_text_peel_matches_splitting_image_by_image(case):
    z, seq = case
    assert separates_by_pairs(z, seq)
    text = as_text(seq)
    assert list(map(ord, _peel_text(text, chr(z), set(text)))) == peel_by_splitting(seq, z)


def test_reconstruct_round_trips_random_skew_specs():
    # Up to four letters, so one- to three-letter cores; a one-letter core
    # gives one long run of one directive letter.  A shorter suffix may start
    # the word inside an image, where only the second letter separates; its
    # spec need not come back, but its word must.
    rng = random.Random(79)
    for _ in range(40):
        spec = random_canonical_skew(rng, max_alpha=4)
        budget = (2 ** len(spec.morphism.letters)) * 2400 + 4 * spec.suffix_len + 64
        t = construct_skew(spec)
        rec = reconstruct_skew(t, 0, budget)
        assert (rec.x, rec.p, rec.morphism) == (spec.x, spec.p, spec.morphism)
        core = standard_word(spec.directive).raw(budget)
        assert standard_word(rec.directive).raw(budget) == core
        assert construct_skew(rec).raw(budget) == t.raw(budget)
        t = construct_skew(replace(spec, suffix_len=rng.randint(1, spec.suffix_len)))
        assert construct_skew(reconstruct_skew(t, 0, budget)).raw(budget) == t.raw(budget)


def test_chain_mismatch_matches_the_per_length_loop():
    # prefixes of standard words short of their exact bound, some ending in a
    # run of one letter, so that many chains rescan where the least windows
    # end flush with the prefix
    rng = random.Random(83)
    rescans = 0
    for _ in range(300):
        d = random_directive(rng, max_alpha=3, min_alpha=2)
        seq = standard_word(d).raw(rng.randint(1, 120))
        if rng.random() < 0.4:
            seq += [rng.randrange(d.alphabet.size)] * rng.randint(1, 12)
        text = as_text(seq)
        for order in all_orders(d.alphabet):
            chain = minimal_window_positions(text, order.ranks, rng.randint(1, len(seq) + 2))
            rescans += any(p + k == len(seq) for k, p in enumerate(chain[:-1], start=1))
            last = seq[chain[-1] : chain[-1] + len(chain)]
            noise = [rng.randrange(d.alphabet.size) for _ in range(len(chain) + 2)]
            cut = rng.randint(0, len(last))
            for expected in (last, last[:cut], last + noise[:2], last[:cut] + noise, noise):
                want = chain_mismatch_by_length(seq, chain, expected)
                assert _chain_mismatch(text, chain, as_text(expected)) == (
                    None if want is None else (want[0], as_text(want[1]))
                ), (seq, order.ranks, len(chain), expected)
    assert rescans >= 100


def test_skew_common_word_is_the_morphic_image_of_the_core():
    rng = random.Random(73)
    for _ in range(30):
        spec = random_canonical_skew(rng)
        tail = skew_common_word(spec)
        core = standard_word(spec.directive)
        # the engine's image against the core's prefix mapped letter by letter
        assert tail.prefix(5000) == spec.morphism.apply_word(core.prefix(5000))[:5000]
        image = spec.morphism.apply(core)
        assert image.prefix(5000) == tail.prefix(5000) and tail.directive() == image.directive()
        assert all(tail.exact_horizon(k) == image.exact_horizon(k) for k in range(1, 41))
        stream = construct_skew(spec)
        assert all(spec.exact_horizon(k) == stream.exact_horizon(k) for k in range(1, 41))


# --- structural invariants ----------------------------------------------------------------

def test_marker_occurs_once_when_morphism_avoids_it():
    rng = random.Random(67)
    checked = 0
    while checked < 10:
        spec = random_canonical_skew(rng)
        x_idx = spec.alphabet.index(spec.x)
        if x_idx in spec.morphism.letters:
            continue
        checked += 1
        t = construct_skew(spec)
        window = t.raw(10 * spec.suffix_len + 1000)
        assert window.count(x_idx) == 1


def test_two_letter_specs_match_the_sturmian_skew_pattern():
    # over two letters the word is suffix . cycle^..., the cycle being the
    # image of the recurring letter
    rng = random.Random(71)
    for _ in range(50):
        spec = random_canonical_skew(rng, max_alpha=2)
        t = construct_skew(spec)
        y = next(iter(spec.directive.ult()))
        cycle = list(letter_images(spec.morphism)[y])
        v = list(spec.suffix_word().indices)
        n = 600
        repeated = (cycle * (n // len(cycle) + 1))[: n - len(v)]
        assert t.raw(n) == (v + repeated)
        seed = spec.morphism.apply_word(
            Word(spec.alphabet, (y,) * spec.p + (spec.alphabet.index(spec.x),))
        )
        assert v == list(seed.indices[len(seed) - spec.suffix_len :])
        assert classify(spec, 15).classification is Classification.SKEW_EPISTURMIAN


def test_skew_factors_occur_in_standard_words():
    # every short factor of the golden skew words appears in some standard
    # word directed by the core directive with the marker letter inserted
    golden = [
        parse_skew(ABC, "skew v=(ab) x=c p=0 mu=id suffix=full"),
        parse_skew(ABC, "skew v=(ab) x=c p=4 mu=id suffix=full"),
        parse_skew(ABC, "skew v=(ab) x=c p=0 mu=psi:c suffix=full"),
        parse_skew(ABC, "skew v=(ab) x=c p=4 mu=psi:c suffix=full"),
    ]
    for spec in golden:
        t = construct_skew(spec)
        pool: set[tuple[int, ...]] = set()
        for insert_at in range(0, 15):
            pre = tuple(spec.directive.letter(i) for i in range(1, insert_at + 1))
            shell = spec.morphism.letters + pre + (ABC.index(spec.x),)
            candidate = DirectiveWord(ABC, shell, spec.directive.shift(insert_at).period)
            seq = standard_word(candidate).raw(3000)
            for k in range(1, 13):
                pool.update(tuple(seq[i : i + k]) for i in range(len(seq) - k + 1))
        seq = t.raw(400)
        for k in range(1, 13):
            for i in range(len(seq) - k + 1):
                assert tuple(seq[i : i + k]) in pool, (str(t.prefix(30)), k, i)
