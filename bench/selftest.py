"""Self-test of the benchmark's output checks: ``python3 bench/selftest.py``.

Every check must accept a right answer and reject a planted wrong one.  The
right answers come from :mod:`reference`, so this runs without ``epilex``.
Exit status 0 means every check behaved.
"""

from __future__ import annotations

import sys

import reference as ref
import workloads as wl

FIB = {"key": "fibonacci", "kind": "directive", "letters": "ab", "pre": "", "per": "ab", "strict": True}
CAB = {"key": "c(ab)", "kind": "directive", "letters": "abc", "pre": "c", "per": "ab", "strict": False}
LIT = {"key": "ab(aab)", "kind": "literal", "letters": "ab", "u": "ab", "v": "aab"}
FAULT = {"key": "b50(a)", "kind": "literal", "letters": "ab", "u": "b" * 50, "v": "a"}
SKEW = wl._skew_fields("abc", "", "ab", "c", 4, "c")


def _prefixes(*streams) -> wl._Prefixes:
    pre = wl._Prefixes()
    for s in streams:
        pre.add(s["key"], wl._reference_gen(s))
    return pre


def _flip(word: str, letters: str) -> str:
    """``word`` with its last letter replaced by another letter."""
    return word[:-1] + next(c for c in letters if c != word[-1])


def cases():
    """(name, check, right answer, planted wrong answer)."""
    pre = _prefixes(FIB, CAB, LIT, FAULT)
    least = ref.extremes(pre.windows("ab(aab)", 500, 4), "ab")[0]
    yield ("extremal: least window of the scanned prefix",
           lambda d: wl._check_extremal(LIT, pre, "ab", 4, 500, False, d),
           (least, True, 500), (_flip(least, "ab"), True, 500))
    # Fibonacci's prefix of length 5, 'abaab', has least 4-window 'abaa';
    # the strict property says the true minimum is 'a' + 'aba'.
    yield ("extremal: strict property of an exact answer",
           lambda d: wl._check_extremal(FIB, pre, "ab", 4, 5, False, d),
           ("abaa", False, 5), ("abaa", True, 5))
    yield ("extremal: literal exact answer over the complete prefix",
           lambda d: wl._check_extremal(FAULT, pre, "ab", 1, 20, False, d),
           ("b", False, 20), ("b", True, 20))
    h, k = _unstable_scan(pre)
    word = ref.extremes(pre.windows("c(ab)", h, k), "abc")[0]
    yield ("extremal: non-strict exact answer survives a longer scan",
           lambda d: wl._check_extremal(CAB, pre, "abc", k, h, False, d),
           (word, False, h), (word, True, h))
    yield ("extremal: reported horizon",
           lambda d: wl._check_extremal(LIT, pre, "ab", 4, 500, False, d),
           (least, False, 500), (least, False, 1000))
    limit = "b" + pre.prefix("fibonacci", 49)
    yield ("min_stream / max_stream: limit prefix",
           lambda d: wl._check_limit(FIB, pre, "ab", 100, True, d),
           limit, _flip(limit, "ab"))

    n = wl.EXTREMAL_N
    results = []
    for order in ref.present_orders("ab"):
        w = ref.extremes(pre.windows("ab(aab)", n, 10), order)[0]
        results.append({"word": w, "k": 10, "order": "<".join(order), "horizon": n, "exact": True})
    wrong = [dict(r) for r in results]
    wrong[1]["word"] = _flip(wrong[1]["word"], "ab")
    yield ("cli --all-orders: every order, each answer",
           lambda d: wl._check_cli_all_orders(LIT, pre, False, d),
           (0, {"results": results}), (0, {"results": wrong}))
    yield ("cli --all-orders: every order is present",
           lambda d: wl._check_cli_all_orders(LIT, pre, False, d),
           (0, {"results": results}), (0, {"results": results[:1]}))

    word = ref.skew_prefix(SKEW["pre"], SKEW["per"], "c", 4, "c", SKEW["suffix_len"], 300, "abc")
    yield ("stream-roundtrip: skew prefix",
           lambda w: wl._expect(w == wl._skew_ref(SKEW, 300), "differs"),
           word, _flip(word, "abc"))
    fields = dict(SKEW)
    yield ("stream-roundtrip: reconstruction regenerates the word",
           lambda d: wl._check_reconstruction(SKEW, d),
           (fields, True), (fields, False))
    yield ("stream-roundtrip: reconstruction keeps the marker and p",
           lambda d: wl._check_reconstruction(SKEW, d),
           (fields, True), (dict(fields, p=3), True))
    yield ("stream-roundtrip: reconstructed spec spells the same word",
           lambda d: wl._check_reconstruction(SKEW, d),
           (fields, True), (dict(fields, suffix_len=fields["suffix_len"] - 1), True))
    rec = {"directive": "(ab)", "x": "c", "p": 4, "morphism": "psi:c", "suffix_len": SKEW["suffix_len"]}
    yield ("cli verify --skew: round trip",
           lambda d: wl._check_cli_verify_skew(SKEW, d),
           (0, {"checks": [{"ok": True, "recovered": rec}]}), (2, "internal consistency failure"))
    yield ("cli verify --skew: recovered spec",
           lambda d: wl._check_cli_verify_skew(SKEW, d),
           (0, {"checks": [{"ok": True, "recovered": rec}]}),
           (0, {"checks": [{"ok": True, "recovered": dict(rec, directive="(ba)")}]}))

    depth = wl.FINE_DEPTH
    h = wl.FINE_HORIZON_PER_DEPTH["directive"] * depth
    h_lit = wl.FINE_HORIZON_PER_DEPTH["literal"] * depth
    fib_d = {"letters": "ab", "pre": "", "per": "ab", "strict": True}
    s = ref.standard_prefix("", "ab", depth - 1, "ab")
    strict = {"classification": "StrictEpisturmian", "s_prefix": s, "witness": None, "skew": None}
    yield ("fineness: strict directive label",
           lambda v: wl._check_verdict("directive", fib_d, depth, h, v),
           strict, dict(strict, classification="NotFine"))
    yield ("fineness: strict directive common tail",
           lambda v: wl._check_verdict("directive", fib_d, depth, h, v),
           strict, dict(strict, s_prefix=_flip(s, "ab")))
    cab_d = {"letters": "abc", "pre": "c", "per": "ab", "strict": False}
    witness = _witness(ref.standard_prefix("c", "ab", h, "abc"), depth)
    notfine = {"classification": "NotFine", "s_prefix": None, "witness": witness, "skew": None}
    yield ("fineness: non-strict directive label",
           lambda v: wl._check_verdict("directive", cab_d, depth, h, v),
           notfine, dict(notfine, classification="StrictEpisturmian"))
    yield ("fineness: witness factor is the least window",
           lambda v: wl._check_verdict("directive", cab_d, depth, h, v),
           notfine, dict(notfine, witness=dict(witness, factor=_flip(witness["factor"], "abc"))))
    flipped = "required-missing" if witness["reason"] == "smaller-factor" else "smaller-factor"
    yield ("fineness: witness reason agrees with the order",
           lambda v: wl._check_verdict("directive", cab_d, depth, h, v),
           notfine, dict(notfine, witness=dict(witness, reason=flipped)))
    core = ref.skew_core_image("", "ab", "c", depth - 1, "abc")
    skew = {"classification": "SkewEpisturmian", "s_prefix": core, "witness": None, "skew": None}
    yield ("fineness: canonical skew label",
           lambda v: wl._check_verdict("skew", SKEW, depth, h, v),
           skew, dict(skew, classification="Unknown"))
    yield ("fineness: skew common tail",
           lambda v: wl._check_verdict("skew", SKEW, depth, h, v),
           skew, dict(skew, s_prefix=_flip(core, "abc")))
    ba = {"letters": "ab", "u": "ba", "v": "ab"}
    spec = wl._skew_fields("ab", "", "b", "a", 1, "a")
    spec["suffix_len"] = 2
    fine_lit = {"classification": "SkewEpisturmian", "s_prefix": None, "witness": None, "skew": spec}
    yield ("fineness: fine literal label",
           lambda v: wl._check_verdict("literal", ba, depth, h_lit, v),
           fine_lit, dict(fine_lit, classification="NotFine"))
    yield ("fineness: fine literal's skew spec spells it",
           lambda v: wl._check_verdict("literal", ba, depth, h_lit, v),
           fine_lit, dict(fine_lit, skew=dict(spec, suffix_len=1)))
    lit = {"letters": "ab", "u": "ab", "v": "aab"}
    lit_w = _witness(ref.literal_prefix("ab", "aab", h_lit), depth)
    not_fine_lit = {"classification": "NotFine", "s_prefix": None, "witness": lit_w, "skew": None}
    yield ("fineness: literal that is not fine",
           lambda v: wl._check_verdict("literal", lit, depth, h_lit, v),
           not_fine_lit, dict(not_fine_lit, classification="Unknown"))
    d3 = {"letters": "abc", "pre": "c", "per": "ab"}
    checks = [{"check": "shift-chain", "i": i, "letter": c, "ok": True} for i, c in enumerate("cab", 1)]
    yield ("cli verify --directive: peeled letters",
           lambda d: wl._check_cli_verify_directive(d3, d),
           (0, {"checks": checks}), (0, {"checks": checks[::-1]}))


def _unstable_scan(pre: wl._Prefixes) -> tuple[int, int]:
    """A (horizon, k) at which the least window of c(ab) is not yet final."""
    for k in range(2, 40):
        for h in range(k, 200):
            if ref.extremes(pre.windows("c(ab)", h, k), "abc")[0] != ref.extremes(pre.windows("c(ab)", 4 * h, k), "abc")[0]:
                return h, k
    raise AssertionError("c(ab) has no short unstable scan")


def _witness(word: str, depth: int) -> dict:
    """The first order and length at which ``word`` breaks fineness, as classify reports it."""
    orders = ref.present_orders(word)
    s_ref = ref.extremes(ref.windows(word, depth), orders[0])[0][1:]
    for order in orders:
        for k in range(1, depth + 1):
            least = ref.extremes(ref.windows(word, k), order)[0]
            required = order[0] + s_ref[: k - 1]
            if least != required:
                reason = "smaller-factor" if ref.least_before(least, required, order) else "required-missing"
                return {"order": "<".join(order), "k": k, "factor": least, "required": required, "reason": reason}
    raise AssertionError("the word is fine to this depth")


def main() -> int:
    bad = 0
    for name, check, right, wrong in cases():
        accepted = check(right)
        rejected = check(wrong)
        ok = accepted is None and rejected is not None
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {name}" + ("" if ok else f": right -> {accepted!r}, wrong -> {rejected!r}"))
    print(f"{bad} check(s) misbehaved" if bad else "every check accepts the right answer and rejects the planted one")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
