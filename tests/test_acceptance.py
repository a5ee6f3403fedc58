"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print; every expected value is either a frozen golden vector or produced by
an independent brute-force oracle.
"""

import random
import time
from itertools import product

from epilex import (
    Alphabet,
    Classification,
    ConcatStream,
    DirectiveWord,
    LiteralPeriodicStream,
    NotSkewForm,
    Word,
    all_orders,
    builder_word,
    classify,
    complexity,
    construct_skew,
    exact_horizon,
    is_fine_empirical,
    max_factor,
    min_factor,
    palindromic_closure,
    psi,
    reconstruct_skew,
    standard_word,
    strictness,
    verify_min_transfer,
)
from epilex.extremal import minimal_window_positions
from epilex.textio import parse_directive, parse_skew

from helpers import (
    as_text,
    chain_words,
    fine_by_sorting,
    oracle_max,
    oracle_min,
    random_canonical_skew,
    random_directive,
    random_strict_directive,
)

SEED = 20250810
DEPTH = 200

AB = Alphabet.of("a", "b")
ABC = Alphabet.of("a", "b", "c")

GOLDEN = [
    ("abaababaabaaba", "directive (ab)"),
    ("cabaababaabaaba", "skew p=0 mu=id"),
    ("aabacabaababaabaaba", "skew p=4 mu=id"),
    ("aabaaabaabaaabaaaba", "image of f under the a-generator"),
    ("ccacbcacacbcacbcacacbcacacbca", "skew p=0 mu=psi:c"),
    ("cacacbcaccacbcacacbcacbcacacbcaca", "skew p=4 mu=psi:c"),
]


def _report(num: int, ok: bool, label: str, elapsed: float | None = None) -> None:
    stamp = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {label}{stamp}")


def _golden_streams():
    fib3 = standard_word(parse_directive(ABC, "(ab)"))
    return [
        standard_word(parse_directive(AB, "(ab)")),
        construct_skew(parse_skew(ABC, "skew v=(ab) x=c p=0 mu=id suffix=full")),
        construct_skew(parse_skew(ABC, "skew v=(ab) x=c p=4 mu=id suffix=full")),
        psi(AB, "a").apply(standard_word(parse_directive(AB, "(ab)"))),
        psi(ABC, "c").apply(ConcatStream(ABC.word("c"), fib3)),
        psi(ABC, "c").apply(ConcatStream(ABC.word("aabac"), fib3)),
    ]


# --- criterion 1: golden vectors -------------------------------------------------


def test_criterion_1_golden_vectors():
    ok = False
    start = time.perf_counter()
    try:
        streams = _golden_streams()
        for stream, (expected, _label) in zip(streams, GOLDEN):
            assert str(stream.prefix(len(expected))) == expected
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        ok = True
    finally:
        _report(1, ok, "six golden words reproduce byte-exactly", time.perf_counter() - start)


# --- criterion 2: golden classification ------------------------------------------


def test_criterion_2_golden_classification():
    ok = False
    start = time.perf_counter()
    try:
        # empirical: all six are fine at depth 60 on their first 2000 letters
        for stream, (expected, label) in zip(_golden_streams(), GOLDEN):
            verdict = is_fine_empirical(stream.prefix(2000), 60)
            assert verdict.fine_to_depth, label

        # structural: the plain word and the a-generator image are strict
        # (their directives recur over their whole alphabets); the other four
        # take the suffix-plus-morphic-core form
        v = classify(parse_directive(AB, "(ab)"), 60)
        assert v.classification is Classification.STRICT_EPISTURMIAN
        v = classify(parse_directive(AB, "a(ab)"), 60)
        assert v.classification is Classification.STRICT_EPISTURMIAN
        for text in (
            "skew v=(ab) x=c p=0 mu=id suffix=full",
            "skew v=(ab) x=c p=4 mu=id suffix=full",
            "skew v=(ab) x=c p=0 mu=psi:c suffix=full",
            "skew v=(ab) x=c p=4 mu=psi:c suffix=full",
        ):
            v = classify(parse_skew(ABC, text), 60)
            assert v.classification is Classification.SKEW_EPISTURMIAN, text

        # the lifted non-strict word is not fine, with a reproducible witness
        v = classify(parse_directive(ABC, "c(ab)"), 60)
        assert v.classification is Classification.NOT_FINE
        w = v.witness
        assert w is not None and w.k <= 10
        assert w.order.describe() == "c<a<b" and str(w.required) == "cc"

        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        ok = True
    finally:
        _report(2, ok, "golden words fine (empirical + structural); lifted word refuted", time.perf_counter() - start)


# --- criteria 3 and 4: the standard-word inequality and its equality case --------


def _corpus():
    rng = random.Random(SEED)
    return [random_directive(rng) for _ in range(100)]


def _u_len_at_least(stream, target, extra):
    bound = 4 * target + 64
    while True:
        lens = stream.palindromic_prefix_lengths(bound)
        idxs = [i for i, n in enumerate(lens) if n >= target]
        if idxs and len(lens) > idxs[0] + extra:
            return lens[idxs[0] + extra]
        bound *= 2


def _chain_final(seq, ranks, depth):
    """min(seq|depth) with the extension chain verified along the way."""
    chain = minimal_window_positions(as_text(seq), ranks, depth)
    for k in range(1, len(chain)):
        p, q = chain[k - 1], chain[k]
        assert seq[q : q + k] == seq[p : p + k], "minima stopped extending; horizon too small"
    p = chain[-1]
    return seq[p : p + len(chain)]


_SCAN_CACHE: dict[int, tuple] = {}


def _corpus_scans():
    if _SCAN_CACHE:
        return _SCAN_CACHE
    for i, d in enumerate(_corpus()):
        stream = standard_word(d)
        if len(d.ult()) == 1:
            horizon = exact_horizon(d, DEPTH)
        else:
            horizon = _u_len_at_least(stream, 2 * DEPTH, 2)
        seq = stream.raw(horizon)
        minima = {}
        for order in all_orders(d.alphabet):
            minima[order] = _chain_final(seq, order.ranks, DEPTH)
        _SCAN_CACHE[i] = (d, seq, minima)
    return _SCAN_CACHE


def test_criterion_3_standard_word_inequality():
    ok = False
    start = time.perf_counter()
    try:
        scans = _corpus_scans()
        assert len(scans) == 100
        violations = 0
        for d, seq, minima in scans.values():
            for order, m in minima.items():
                ranks = order.ranks
                a = min(set(seq), key=lambda c: ranks[c])
                required = [a] + seq[: DEPTH - 1]
                if [ranks[c] for c in required] > [ranks[c] for c in m]:
                    violations += 1
        assert violations == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
        ok = True
    finally:
        _report(3, ok, "least-letter tail bounds every minimal factor (100 directives, k<=200)", time.perf_counter() - start)


def test_criterion_4_equality_exactly_for_strict():
    ok = False
    start = time.perf_counter()
    try:
        scans = _corpus_scans()
        strict_count = nonstrict_count = 0
        for d, seq, minima in scans.values():
            report = strictness(d)
            stream = standard_word(d)
            if report.strict:
                strict_count += 1
                # make sure the bound word itself has appeared, growing the
                # scan if needed, then demand equality under every order
                horizon = len(seq)
                hay = "".join(d.alphabet.letters[c] for c in seq)
                cap = max(exact_horizon(d, DEPTH), horizon)
                s_str = hay[: DEPTH - 1] if len(hay) >= DEPTH else hay
                grown = seq
                for tok in sorted(report.alph):
                    target = tok + s_str
                    while hay.find(target) < 0 and horizon < cap:
                        horizon = min(2 * horizon, cap)
                        grown = stream.raw(horizon)
                        hay = "".join(d.alphabet.letters[c] for c in grown)
                    assert hay.find(target) >= 0, (str(d), tok)
                for order in all_orders(d.alphabet):
                    m = (
                        minima[order]
                        if horizon == len(seq)
                        else _chain_final(grown, order.ranks, DEPTH)
                    )
                    a = min(set(grown), key=lambda c: order.ranks[c])
                    assert m == [a] + grown[: DEPTH - 1], (str(d), order.describe())
            else:
                nonstrict_count += 1
                horizon50 = exact_horizon(d, 50)
                seq50 = stream.raw(horizon50)
                found = False
                for order in all_orders(d.alphabet):
                    m = _chain_final(seq50, order.ranks, 50)
                    a = min(set(seq50), key=lambda c: order.ranks[c])
                    if m != [a] + seq50[: len(m) - 1]:
                        found = True
                        break
                assert found, f"no equality violation for non-strict {d}"
        assert strict_count > 0 and nonstrict_count > 0
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
        ok = True
    finally:
        _report(4, ok, "equality iff strict (both corpus populations non-empty)", time.perf_counter() - start)


# --- criterion 5: the two construction identities ----------------------------------


def _brute_closure_str(s: str) -> str:
    for d in range(len(s) + 1):
        tail = s[d:]
        if tail == tail[::-1]:
            return s + s[:d][::-1]
    raise AssertionError("unreachable")


def _u_words(stream, count):
    bound = 64
    while True:
        lens = stream.palindromic_prefix_lengths(bound)
        if len(lens) >= count:
            return [stream.prefix(n) for n in lens[:count]]
        bound *= 4


def test_criterion_5_construction_identities():
    ok = False
    start = time.perf_counter()
    try:
        for d in _corpus():
            stream = standard_word(d)
            ups = _u_words(stream, 16)
            for n in range(1, 16):
                u, nxt = ups[n - 1], ups[n]
                x = d.alphabet.letters[d.letter(n)]
                assert nxt.is_palindrome()
                # closure identity against the brute-force oracle
                assert _brute_closure_str(str(u) + x) == str(nxt), (str(d), n)
                assert palindromic_closure(u + d.alphabet.word(x)) == nxt
            # product identity: each prefix is the reversed product of builders
            for n in range(2, 16):
                prod = d.alphabet.empty()
                for i in range(n - 2, -1, -1):
                    prod = prod + builder_word(d, i)
                assert prod == ups[n - 1], (str(d), n)
        ok = True
    finally:
        _report(5, ok, "closure and builder-product identities, n<=15, zero violations", time.perf_counter() - start)


# --- criterion 6: transfer through one generator -----------------------------------


def _min_chain_ok(seq, ranks, expected, depth):
    return all(w == expected[:k] for k, w in enumerate(chain_words(seq, ranks, depth), 1))


def test_criterion_6_transfer_and_branch():
    ok = False
    start = time.perf_counter()
    try:
        rng = random.Random(SEED + 6)
        hold_pop = fail_pop = 0
        for i in range(50):
            kind = i % 10
            if kind < 5:
                d = random_strict_directive(rng, max_alpha=3)
                t1 = s1 = standard_word(d)
            elif kind < 8:
                d = random_strict_directive(rng, max_alpha=3)
                while True:
                    d2 = random_strict_directive(rng, max_alpha=3)
                    if d2.alphabet == d.alphabet and d2 != d:
                        break
                t1, s1 = standard_word(d), standard_word(d2)
            else:
                d = random_directive(rng, max_alpha=3, min_alpha=2)
                t1 = s1 = standard_word(d)
            size = d.alphabet.size
            z = d.alphabet.letters[rng.randrange(size)]
            while z not in strictness(d).alph:
                z = d.alphabet.letters[rng.randrange(size)]
            a = d.alphabet.letters[rng.randrange(size)]
            depth = 25
            lifted = DirectiveWord(d.alphabet, (d.alphabet.index(z),) + d.preperiod, d.period)
            horizon = max(exact_horizon(lifted, depth + 2), exact_horizon(d, depth + 2), 2 * depth)
            assert verify_min_transfer(t1, s1, z, a, depth, horizon), (str(d), z, a)
            seq1 = t1.raw(horizon)
            expected = [d.alphabet.index(a)] + s1.raw(depth)
            if any(_min_chain_ok(seq1, o.ranks, expected, depth) for o in all_orders(d.alphabet)):
                hold_pop += 1
            else:
                fail_pop += 1
        assert hold_pop > 0 and fail_pop > 0

        # branch check: the image's minima gain the generator letter exactly
        # when it ranks below the old least letter
        rng = random.Random(SEED + 64)
        for _ in range(50):
            size = rng.randint(2, 4)
            alphabet = Alphabet(tuple("abcd"[:size]))
            bsz = rng.randint(1, size - 1) if rng.random() < 0.6 else size
            core = sorted(rng.sample(range(size), bsz))
            while True:
                per = [rng.choice(core) for _ in range(rng.randint(1, 4))]
                if set(per) == set(core):
                    break
            pre = [rng.choice(core) for _ in range(rng.randint(0, 2))]
            d = DirectiveWord(alphabet, tuple(pre), tuple(per))
            t1 = standard_word(d)
            z = alphabet.letters[rng.randrange(size)]
            zi = alphabet.index(z)
            depth = 100
            lifted = DirectiveWord(alphabet, (zi,) + d.preperiod, d.period)
            horizon = max(exact_horizon(lifted, depth + 2), exact_horizon(d, depth + 2))
            image = psi(alphabet, z).apply(t1)
            seq1 = t1.raw(horizon)
            seq = image.raw(horizon)
            img_tail = image.raw(depth + 1)
            present = sorted(set(seq1))
            for order in all_orders(alphabet):
                ranks = order.ranks
                a_idx = min(present, key=lambda c: ranks[c])
                assert _min_chain_ok(seq1, ranks, [a_idx] + seq1[:depth], depth)
                if ranks[zi] < ranks[a_idx]:
                    expected = [zi, a_idx] + img_tail
                else:
                    expected = [a_idx] + img_tail
                assert _min_chain_ok(seq, ranks, expected, depth), (str(d), z, order.describe())
        ok = True
    finally:
        _report(6, ok, "transfer equivalence (50) and image-branch check (50, depth 100)", time.perf_counter() - start)


# --- criterion 7: complexity formulas ------------------------------------------------


def test_criterion_7_complexity():
    ok = False
    start = time.perf_counter()
    try:
        trib = parse_directive(ABC, "(abc)")
        stream = standard_word(trib)
        for n in range(1, 51):
            assert complexity(stream, n, exact_horizon(trib, n)) == 2 * n + 1
        fib = parse_directive(AB, "(ab)")
        stream = standard_word(fib)
        for n in range(1, 51):
            assert complexity(stream, n, exact_horizon(fib, n)) == n + 1
        ok = True
    finally:
        _report(7, ok, "complexity 2n+1 / n+1 for n<=50, exact", time.perf_counter() - start)


# --- criterion 8: oracle equivalence and the extension chain --------------------------


def test_criterion_8_oracle_agreement_and_chain():
    ok = False
    start = time.perf_counter()
    try:
        rng = random.Random(SEED + 8)
        for case in range(200):
            kind = case % 3
            if kind == 0:
                d = random_directive(rng)
                stream = standard_word(d)
            elif kind == 1:
                spec = random_canonical_skew(rng)
                stream = construct_skew(spec)
            else:
                d = random_directive(rng)
                head = Word(d.alphabet, tuple(rng.randrange(d.alphabet.size) for _ in range(rng.randint(0, 4))))
                cycle = Word(d.alphabet, tuple(rng.randrange(d.alphabet.size) for _ in range(rng.randint(1, 5))))
                stream = LiteralPeriodicStream(head, cycle)
            k = rng.randint(1, 12)
            horizon = rng.randint(2 * k + 5, 400)
            orders = all_orders(stream.alphabet)
            order = orders[rng.randrange(len(orders))]
            snapshot = stream.prefix(horizon)
            assert min_factor(stream, k, order, horizon).word == oracle_min(snapshot, k, order)
            assert max_factor(stream, k, order, horizon).word == oracle_max(snapshot, k, order)

        for stream in _golden_streams():
            for order in all_orders(stream.alphabet):
                prev_min = prev_max = None
                for k in range(1, 101):
                    lo = min_factor(stream, k, order, 4000).word
                    hi = max_factor(stream, k, order, 4000).word
                    if prev_min is not None:
                        assert lo[: k - 1] == prev_min
                        assert hi[: k - 1] == prev_max
                    prev_min, prev_max = lo, hi
        ok = True
    finally:
        _report(8, ok, "200 oracle agreements; min/max chains extend to k=100", time.perf_counter() - start)


# --- criterion 9: reconstruction round trip --------------------------------------------


def test_criterion_9_reconstruction_round_trip():
    ok = False
    start = time.perf_counter()
    try:
        rng = random.Random(SEED + 9)
        for _ in range(50):
            spec = random_canonical_skew(rng)
            stream = construct_skew(spec)
            budget = (2 ** len(spec.morphism.letters)) * 2600 + 4 * spec.suffix_len + 64
            recovered = reconstruct_skew(stream, 0, budget)
            assert recovered.x == spec.x
            assert recovered.p == spec.p
            assert len(recovered.morphism.letters) == len(spec.morphism.letters)
            assert construct_skew(recovered).raw(2000) == stream.raw(2000)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"
        ok = True
    finally:
        _report(9, ok, "50 skew specs reconstruct: same shape, identical 2000-letter prefix", time.perf_counter() - start)


# --- criterion 10: the theorem, exhaustively at small sizes -----------------------------


def _primitive(v: tuple[int, ...]) -> bool:
    n = len(v)
    return all(v != v[d:] + v[:d] for d in range(1, n) if n % d == 0)


def test_criterion_10_theorem_exhaustive_at_small_sizes():
    # Fine <=> strict episturmian or strict skew, on every canonical literal
    # u(v) over {a, b, c} with |u| <= 3 and |v| <= 4 (v primitive; u empty or
    # not ending in v's last letter) and every directive with
    # |pre| + |per| <= 4, against an oracle that sorts windows.  A change in
    # the pinned counts is a correctness change.
    ok = False
    start = time.perf_counter()
    depth = 24
    literal_counts = dict.fromkeys(Classification, 0)
    directive_counts = {True: 0, False: 0}
    try:
        for v in (v for n in range(1, 5) for v in product(range(3), repeat=n) if _primitive(v)):
            for u in (u for n in range(4) for u in product(range(3), repeat=n) if not u or u[-1] != v[-1]):
                t = LiteralPeriodicStream(Word(ABC, u), Word(ABC, v))
                verdict = classify(t, depth)
                literal_counts[verdict.classification] += 1
                # every length-depth factor starts before |u| + |v|
                seq = (u + v * (depth // len(v) + 2))[: len(u) + len(v) + depth - 1]
                fine = fine_by_sorting(seq, len(u) + len(v), depth)
                structural = verdict.classification in (Classification.STRICT_EPISTURMIAN, Classification.SKEW_EPISTURMIAN)
                assert fine == structural, (u, v, verdict.classification)
                # The peel horizon 2|u| + 8|v| is a claim, not a derived bound:
                # a spec exactly for the fine words with two letters, whose
                # word is the literal's far past the letters peeled.
                horizon = 2 * len(u) + 8 * len(v)
                try:
                    peeled = reconstruct_skew(t, 0, horizon)
                except NotSkewForm:
                    peeled = None
                assert (peeled is not None) == (fine and len({*u, *v}) == 2), (u, v)
                for spec in (peeled, verdict.skew):
                    if spec is not None:
                        assert construct_skew(spec)._text(20 * horizon) == t._text(20 * horizon), (u, v, spec)
        assert [literal_counts[c] for c in Classification] == [3, 108, 2724, 0], literal_counts

        for n in range(1, 5):
            for letters in product(range(3), repeat=n):
                for q in range(1, n + 1):
                    d = DirectiveWord(ABC, letters[: n - q], letters[n - q :])
                    bound = exact_horizon(d, depth)
                    fine = fine_by_sorting(standard_word(d).raw(bound), bound - depth + 1, depth)
                    strict = classify(d, depth).classification is Classification.STRICT_EPISTURMIAN
                    assert fine == strict == strictness(d).strict, str(d)
                    directive_counts[strict] += 1
        assert (directive_counts[True], directive_counts[False]) == (228, 198), directive_counts
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        print(
            "[criterion 10] literals |u|<=3 |v|<=4: "
            + " / ".join(f"{n} {c.name}" for c, n in literal_counts.items())
            + "; 2-letter fine words peel at 2|u|+8|v|"
        )
        print(f"[criterion 10] directives |pre|+|per|<=4: {directive_counts[True]} strict and fine / "
              f"{directive_counts[False]} neither")
        _report(10, ok, "fine <=> strict or skew, exhaustively at small sizes", elapsed)
