"""The benchmark's three workloads: seeded corpora, operations and output checks.

Each workload has three stages:

* ``corpus(seed)`` draws the inputs as text, with no library code involved;
* ``setup(lib, corpus)`` parses them with ``epilex.textio``, builds the
  streams and warms their lazy caches; this is what ``setup_s`` times;
* ``operations(lib, corpus, state)`` lists the timed operations.  Each one
  calls the library through module attributes, so the tracer's wrappers are
  seen, and carries a check that compares its output with
  :mod:`reference`, which shares no code with ``epilex``.

``lib`` is a namespace of the ``epilex`` modules (see ``run.load_library``).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import reference as ref

# Sized operations run at n and at 4n; ``scale_4x`` divides their times.
EXTREMAL_N = 500
EXTREMAL_KS = (1, 4, 16, 40)
STREAM_HORIZON = 100  # min_stream / max_stream horizon for directive-backed streams
LITERAL_STREAM_HORIZON = 40  # the same for literal streams, whose scan deepens by doubling
ROUNDTRIP_N = 25_000
FINE_DEPTH = 8
FINE_COPIES = 3  # seeded draws per corpus slot in fineness-corpus
# classify scans depth * this many letters: past every corpus directive's
# exact horizon, and less for literal words, whose complete prefix is short,
# so that their O(horizon * depth) chains do not outweigh everything else.
FINE_HORIZON_PER_DEPTH = {"directive": 128, "skew": 128, "literal": 32}


@dataclass
class Op:
    """One timed call into the library.

    ``run`` makes the call and returns its output; ``digest`` turns that
    output into a small comparable value outside the timed region; ``check``
    returns ``None`` for a correct digest and a description otherwise.
    ``size`` is ``"n"`` or ``"4n"`` for the sized operations.  ``known_fault``
    marks the operations whose wrong answer is a known library fault; they
    count as failed, not as a benchmark error.
    """

    name: str
    run: Callable[[], Any]
    digest: Callable[[Any], Any]
    check: Callable[[Any], str | None]
    size: str | None = None
    known_fault: bool = False


@dataclass
class Workload:
    corpus: Callable[[int], dict]
    setup: Callable[[Any, dict], dict]
    operations: Callable[[Any, dict, dict], list[Op]]


# --- seeded text inputs -------------------------------------------------------


def _strict_directive(rng: random.Random, letters: str, per_len: int, pre_len: int) -> tuple[str, str]:
    """A directive whose period holds every letter, so every letter recurs."""
    per = list(letters) + [rng.choice(letters) for _ in range(per_len - len(letters))]
    rng.shuffle(per)
    pre = [rng.choice(letters) for _ in range(pre_len)]
    return "".join(pre), "".join(per)


def _nonstrict_directive(rng: random.Random, letters: str, vanishing: str, per_len: int, pre_len: int) -> tuple[str, str]:
    """A directive whose preperiod holds ``vanishing`` letters the period lacks."""
    core = "".join(c for c in letters if c not in vanishing)
    _, per = _strict_directive(rng, core, per_len, 0)
    pre = list(vanishing) + [rng.choice(letters) for _ in range(pre_len - len(vanishing))]
    rng.shuffle(pre)
    return "".join(pre), per


def _canonical_skew(rng: random.Random, letters: str, n_gens: int, per_len: int, pre_len: int) -> dict:
    """A skew spec in the form a reconstruction gives back.

    The core period covers the core letters, the morphism is a power of the
    marker's generator (so it ends with the marker letter, and every core
    letter's image has length ``n_gens + 1``), and the suffix is the whole
    seed.  The shape (letters, morphism length, period and preperiod lengths)
    is fixed by the caller, so the cost of a slot varies little from seed to
    seed.
    """
    x = rng.choice(letters)
    core = "".join(c for c in letters if c != x)
    pre, per = _strict_directive(rng, core, per_len, pre_len)
    gens = x * n_gens
    return _skew_fields(letters, pre, per, x, rng.randint(0, 6), gens)


def _skew_text(s: dict) -> str:
    mu = "psi:" + s["gens"] if s["gens"] else "id"
    return f"skew v={s['pre']}({s['per']}) x={s['x']} p={s['p']} mu={mu} suffix=full"


def _skew_fields(letters: str, pre: str, per: str, x: str, p: int, gens: str) -> dict:
    seed_len = len(ref.skew_seed(pre, per, x, p, gens, letters))
    return {"letters": letters, "pre": pre, "per": per, "x": x, "p": p, "gens": gens, "suffix_len": seed_len}


def _literal(rng: random.Random, letters: str, u_len: int, v_len: int) -> tuple[str, str]:
    """``u(v)`` using every letter, with ``v`` primitive so its period is ``v_len``."""
    while True:
        u = "".join(rng.choice(letters) for _ in range(u_len))
        v = "".join(rng.choice(letters) for _ in range(v_len))
        if set(u + v) == set(letters) and len(set(v)) > 1 and (v + v).find(v, 1) == v_len:
            return u, v


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# --- helpers shared by the operations ------------------------------------------


def _cli(lib, argv: list[str]) -> tuple[int, str]:
    """``epilex.cli.main(argv)`` in-process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _cli_json(result: tuple[int, str]) -> tuple[int, Any]:
    code, text = result
    try:
        return code, json.loads(text)
    except ValueError:
        return code, text.strip()


def _expect(ok: bool, message: str) -> str | None:
    return None if ok else message


class _Prefixes:
    """Reference prefixes and window sets, computed once per run and memoised."""

    def __init__(self) -> None:
        self._text: dict[str, str] = {}
        self._gen: dict[str, Callable[[int], str]] = {}
        self._windows: dict[tuple[str, int, int], set[str]] = {}

    def add(self, key: str, gen: Callable[[int], str]) -> None:
        self._gen[key] = gen

    def prefix(self, key: str, n: int) -> str:
        text = self._text.get(key, "")
        if len(text) < n:
            text = self._gen[key](max(n, 2 * len(text)))
            self._text[key] = text
        return text[:n]

    def windows(self, key: str, n: int, k: int) -> set[str]:
        wkey = (key, n, k)
        if wkey not in self._windows:
            self._windows[wkey] = ref.windows(self.prefix(key, n), k)
        return self._windows[wkey]


# --- extremal-orders ----------------------------------------------------------


def extremal_corpus(seed: int) -> dict:
    rng = _rng("extremal-orders", seed)
    streams = [
        {"key": "fibonacci", "kind": "directive", "letters": "ab", "pre": "", "per": "ab", "strict": True},
        {"key": "tribonacci", "kind": "directive", "letters": "abc", "pre": "", "per": "abc", "strict": True},
    ]
    pre, per = _strict_directive(rng, "abc", 4, 1)
    streams.append({"key": "strict3", "kind": "directive", "letters": "abc", "pre": pre, "per": per, "strict": True})
    pre, per = _strict_directive(rng, "abcd", 5, 0)
    streams.append({"key": "strict4", "kind": "directive", "letters": "abcd", "pre": pre, "per": per, "strict": True})
    streams.append({"key": "c(ab)", "kind": "directive", "letters": "abc", "pre": "c", "per": "ab", "strict": False})
    pre, per = _nonstrict_directive(rng, "abc", rng.choice("abc"), 3, 2)
    streams.append({"key": "nonstrict3", "kind": "directive", "letters": "abc", "pre": pre, "per": per, "strict": False})
    _, per = _strict_directive(rng, "abc", 3, 0)
    streams.append({"key": "morphic", "kind": "morphic", "letters": "abc", "gens": rng.choice("abc"), "pre": "", "per": per, "strict": True})
    # Literal words stay fixed: how fast a periodic scan thins its occurrence
    # lists depends so much on the word that seeded ones moved ops_per_s by
    # 14% from seed to seed.
    streams.append({"key": "ab(aab)", "kind": "literal", "letters": "ab", "u": "ab", "v": "aab"})
    streams.append({"key": "bc(aaacb)", "kind": "literal", "letters": "abc", "u": "bc", "v": "aaacb"})
    streams.append({"key": "b(bbaa)", "kind": "literal", "letters": "ab", "u": "b", "v": "bbaa"})
    # Known fault: the doubling check labels this scan exact although the
    # first 'a' sits past the horizon.  Fixed, so every seed fails it alike.
    fault = {"key": "b50(a)", "kind": "literal", "letters": "ab", "u": "b" * 50, "v": "a"}
    return {"streams": streams, "fault": fault, "cli": ["tribonacci", "nonstrict3", "bc(aaacb)"]}


def _stream_text(s: dict) -> str:
    """``u(v)`` for a literal word, ``pre(per)`` for a directive."""
    return f"{s['u']}({s['v']})" if "u" in s else f"{s['pre']}({s['per']})"


def _reference_gen(s: dict) -> Callable[[int], str]:
    letters = s["letters"]
    if s["kind"] == "literal":
        return lambda n: ref.literal_prefix(s["u"], s["v"], n)
    if s["kind"] == "morphic":
        return lambda n: ref.apply_morphism(s["gens"], ref.standard_prefix(s["pre"], s["per"], n, letters), letters)[:n]
    return lambda n: ref.standard_prefix(s["pre"], s["per"], n, letters)


def _build_stream(lib, s: dict):
    alphabet = lib.textio.parse_alphabet(",".join(s["letters"]))
    if s["kind"] == "literal":
        head, cycle = lib.textio.parse_literal(alphabet, _stream_text(s))
        return alphabet, lib.words.LiteralPeriodicStream(head, cycle)
    stream = lib.engine.standard_word(lib.textio.parse_directive(alphabet, _stream_text(s)))
    if s["kind"] == "morphic":
        morphism = lib.textio.parse_morphism(alphabet, "psi:" + s["gens"])
        stream = lib.morphisms.MorphicImageStream(morphism, stream)
    return alphabet, stream


def extremal_setup(lib, corpus: dict) -> dict:
    state: dict[str, Any] = {}
    n4 = 4 * EXTREMAL_N
    for s in corpus["streams"] + [corpus["fault"]]:
        alphabet, stream = _build_stream(lib, s)
        orders = {o: lib.textio.parse_order(alphabet, "<".join(o)) for o in ref.present_orders(s["letters"])}
        # Warm the prefix memo (twice the largest horizon covers the doubling
        # check of literal streams) and the exact-horizon cache.
        stream.raw(2 * n4)
        directive = lib.engine.as_directive(stream)
        if directive is not None:
            for k in EXTREMAL_KS + (STREAM_HORIZON // 2,):
                lib.engine.exact_horizon(directive, k)
        state[s["key"]] = (stream, orders)
    return state


def _extreme(pre: _Prefixes, key: str, n: int, k: int, order: str, greatest: bool) -> str:
    """The least (or greatest) length-``k`` window of the reference prefix of length ``n``."""
    least, most = ref.extremes(pre.windows(key, n, k), order)
    return most if greatest else least


def _check_extremal(s: dict, pre: _Prefixes, order: str, k: int, h: int, greatest: bool, digest) -> str | None:
    word, exact, horizon = digest
    key = s["key"]
    if horizon != h:
        return f"horizon {horizon} reported for a scan of {h}"
    want = _extreme(pre, key, h, k, order, greatest)
    if word != want:
        return f"{word!r} is not the {'greatest' if greatest else 'least'} window {want!r} of the scanned prefix"
    if not exact:
        return None
    if s["kind"] == "literal":
        complete = len(s["u"]) + len(s["v"]) + k - 1
        want = _extreme(pre, key, complete, k, order, greatest)
        return _expect(word == want, f"exact {word!r} differs from {want!r} over the complete prefix {complete}")
    if s["strict"]:
        # Strict episturmian: min = (least letter) . s and max = (greatest letter) . s.
        want = (order[-1] if greatest else order[0]) + pre.prefix(key, k - 1)
        return _expect(word == want, f"exact {word!r} breaks the strict property, expected {want!r}")
    # Non-strict directive: an exact answer must survive a much longer scan.
    want = _extreme(pre, key, 4 * h, k, order, greatest)
    return _expect(word == want, f"exact {word!r} changes to {want!r} within {4 * h} letters")


def _check_limit(s: dict, pre: _Prefixes, order: str, h: int, greatest: bool, word: str) -> str | None:
    """min_stream / max_stream: the extremal factor of length h // 2 of the whole word."""
    key = s["key"]
    k = max(1, h // 2)
    if s["kind"] == "literal":
        want = _extreme(pre, key, len(s["u"]) + len(s["v"]) + k - 1, k, order, greatest)
    elif s["strict"]:
        want = (order[-1] if greatest else order[0]) + pre.prefix(key, k - 1)
    else:
        want = _extreme(pre, key, 64 * h, k, order, greatest)
    return _expect(word == want, f"limit prefix {word!r} differs from {want!r}")


def extremal_operations(lib, corpus: dict, state: dict) -> list[Op]:
    pre = _Prefixes()
    ops: list[Op] = []

    def result_digest(r):
        return (str(r.word), r.exact, r.horizon)

    for s in corpus["streams"]:
        pre.add(s["key"], _reference_gen(s))
        stream, orders = state[s["key"]]
        for size, h in (("n", EXTREMAL_N), ("4n", 4 * EXTREMAL_N)):
            for order, lex in orders.items():
                for k in EXTREMAL_KS:
                    for greatest in (False, True):
                        fn = "max_factor" if greatest else "min_factor"
                        ops.append(Op(
                            name=f"{fn} {s['key']} {order} k={k} h={h}",
                            run=(lambda fn=fn, stream=stream, k=k, lex=lex, h=h: getattr(lib.extremal, fn)(stream, k, lex, h)),
                            digest=result_digest,
                            check=(lambda d, s=s, order=order, k=k, h=h, g=greatest: _check_extremal(s, pre, order, k, h, g, d)),
                            size=size,
                        ))
        h = LITERAL_STREAM_HORIZON if s["kind"] == "literal" else STREAM_HORIZON
        for order, lex in orders.items():
            for greatest in (False, True):
                fn = "max_stream" if greatest else "min_stream"
                ops.append(Op(
                    name=f"{fn} {s['key']} {order} h={h}",
                    run=(lambda fn=fn, stream=stream, lex=lex, h=h: getattr(lib.extremal, fn)(stream, lex, h)),
                    digest=str,
                    check=(lambda d, s=s, order=order, h=h, g=greatest: _check_limit(s, pre, order, h, g, d)),
                ))

    fault = corpus["fault"]
    pre.add(fault["key"], _reference_gen(fault))
    stream, orders = state[fault["key"]]
    for order, lex in orders.items():
        for greatest in (False, True):
            # Wrong today exactly when the extremal letter only occurs past the horizon.
            wrong = (order[-1] if greatest else order[0]) == "a"
            fn = "max_factor" if greatest else "min_factor"
            for k in (1, 2, 3):
                ops.append(Op(
                    name=f"{fn} {fault['key']} {order} k={k} h=20",
                    run=(lambda fn=fn, stream=stream, k=k, lex=lex: getattr(lib.extremal, fn)(stream, k, lex, 20)),
                    digest=result_digest,
                    check=(lambda d, order=order, k=k, g=greatest: _check_extremal(fault, pre, order, k, 20, g, d)),
                    known_fault=wrong,
                ))
            fn = "max_stream" if greatest else "min_stream"
            ops.append(Op(
                name=f"{fn} {fault['key']} {order} h=20",
                run=(lambda fn=fn, stream=stream, lex=lex: getattr(lib.extremal, fn)(stream, lex, 20)),
                digest=str,
                check=(lambda d, order=order, g=greatest: _check_limit(fault, pre, order, 20, g, d)),
                known_fault=wrong,
            ))

    by_key = {s["key"]: s for s in corpus["streams"]}
    for key in corpus["cli"]:
        s = by_key[key]
        flag = "--literal" if s["kind"] == "literal" else "--directive"
        for cmd in ("min", "max"):
            argv = [cmd, "--alphabet", ",".join(s["letters"]), flag, _stream_text(s), "--all-orders",
                    "--k", "10", "--horizon", str(EXTREMAL_N), "--output", "json"]
            ops.append(Op(
                name=f"cli {cmd} --all-orders {key}",
                run=(lambda argv=argv: _cli(lib, argv)),
                digest=_cli_json,
                check=(lambda d, s=s, g=(cmd == "max"): _check_cli_all_orders(s, pre, g, d)),
            ))
    return ops


def _check_cli_all_orders(s: dict, pre: _Prefixes, greatest: bool, digest) -> str | None:
    code, payload = digest
    if code != 0 or not isinstance(payload, dict):
        return f"exit {code}: {payload!r}"
    results = payload["results"]
    orders = ["".join(r["order"].split("<")) for r in results]
    if sorted(orders) != sorted(ref.present_orders(s["letters"])):
        return f"orders {orders} are not every order on {s['letters']}"
    for r, order in zip(results, orders):
        problem = _check_extremal(s, pre, order, r["k"], EXTREMAL_N, greatest, (r["word"], r["exact"], r["horizon"]))
        if problem:
            return f"order {order}: {problem}"
    return None


# --- stream-roundtrip ---------------------------------------------------------


def roundtrip_corpus(seed: int) -> dict:
    rng = _rng("stream-roundtrip", seed)
    directives = [
        {"key": "fibonacci", "letters": "ab", "pre": "", "per": "ab"},
        {"key": "tribonacci", "letters": "abc", "pre": "", "per": "abc"},
    ]
    pre, per = _strict_directive(rng, "abc", 4, 1)
    directives.append({"key": "strict3", "letters": "abc", "pre": pre, "per": per})
    pre, per = _strict_directive(rng, "abcd", 5, 1)
    directives.append({"key": "strict4", "letters": "abcd", "pre": pre, "per": per})
    pre, per = _nonstrict_directive(rng, "abc", rng.choice("abc"), 3, 2)
    directives.append({"key": "nonstrict3", "letters": "abc", "pre": pre, "per": per})
    skews = [
        _skew_fields("abc", "", "ab", "c", 4, "c"),
        _canonical_skew(rng, "abc", 1, 3, 1),
        _canonical_skew(rng, "abc", 2, 2, 0),
        _canonical_skew(rng, "ab", 1, 1, 0),
    ]
    for i, s in enumerate(skews):
        s["key"] = f"skew{i}"
    literals = []
    for i, letters in enumerate(("ab", "abc")):
        u, v = _literal(rng, letters, 3, 5)
        literals.append({"key": f"literal{i}", "letters": letters, "u": u, "v": v})
    return {"directives": directives, "skews": skews, "literals": literals}


def _skew_budget(s: dict) -> int:
    """Horizon a reconstruction needs: longer for every peeled generator."""
    return (2 ** len(s["gens"])) * 2400 + 4 * s["suffix_len"] + 64


def roundtrip_setup(lib, corpus: dict) -> dict:
    state: dict[str, Any] = {}
    for d in corpus["directives"]:
        alphabet = lib.textio.parse_alphabet(",".join(d["letters"]))
        state[d["key"]] = lib.textio.parse_directive(alphabet, _stream_text(d))
    for s in corpus["skews"]:
        alphabet = lib.textio.parse_alphabet(",".join(s["letters"]))
        spec = lib.textio.parse_skew(alphabet, _skew_text(s))
        spec.validate()  # computes the seed, warming the morphism image cache
        state[s["key"]] = spec
    for s in corpus["literals"]:
        alphabet = lib.textio.parse_alphabet(",".join(s["letters"]))
        state[s["key"]] = lib.textio.parse_literal(alphabet, _stream_text(s))
    return state


def _skew_ref(s: dict, n: int) -> str:
    return ref.skew_prefix(s["pre"], s["per"], s["x"], s["p"], s["gens"], s["suffix_len"], n, s["letters"])


def _spec_fields(spec) -> dict:
    toks = spec.alphabet.letters
    return {
        "letters": "".join(toks),
        "pre": "".join(toks[i] for i in spec.directive.preperiod),
        "per": "".join(toks[i] for i in spec.directive.period),
        "x": spec.x,
        "p": spec.p,
        "gens": "".join(spec.morphism.generator_tokens()),
        "suffix_len": spec.suffix_len,
    }


def _check_reconstruction(s: dict, digest) -> str | None:
    fields, regenerated = digest
    h = _skew_budget(s)
    if not regenerated:
        return "the reconstructed spec does not regenerate the scanned prefix"
    if (fields["x"], fields["p"], len(fields["gens"])) != (s["x"], s["p"], len(s["gens"])):
        return f"reconstructed {fields} lost the marker, p or the morphism length of {s}"
    if _skew_ref(fields, h) != _skew_ref(s, h):
        return f"reconstructed {fields} spells a different word within {h} letters"
    return None


def roundtrip_operations(lib, corpus: dict, state: dict) -> list[Op]:
    ops: list[Op] = []
    n4 = 4 * ROUNDTRIP_N
    for size, n in (("n", ROUNDTRIP_N), ("4n", n4)):
        for d in corpus["directives"]:
            ops.append(Op(
                name=f"prefix {d['key']} n={n}",
                run=(lambda dw=state[d["key"]], n=n: lib.engine.standard_word(dw).prefix(n)),
                digest=str,
                check=(lambda w, d=d, n=n: _expect(w == ref.standard_prefix(d["pre"], d["per"], n, d["letters"]), "prefix differs")),
                size=size,
            ))
        for s in corpus["skews"]:
            ops.append(Op(
                name=f"construct_skew {s['key']} n={n}",
                run=(lambda spec=state[s["key"]], n=n: lib.fine.construct_skew(spec).prefix(n)),
                digest=str,
                check=(lambda w, s=s, n=n: _expect(w == _skew_ref(s, n), "skew prefix differs")),
                size=size,
            ))
        for s in corpus["literals"]:
            ops.append(Op(
                name=f"literal prefix {s['key']} n={n}",
                run=(lambda uv=state[s["key"]], n=n: lib.words.LiteralPeriodicStream(*uv).prefix(n)),
                digest=str,
                check=(lambda w, s=s, n=n: _expect(w == ref.literal_prefix(s["u"], s["v"], n), "literal prefix differs")),
                size=size,
            ))

    def reconstruct(spec, h):
        t = lib.fine.construct_skew(spec)
        rec = lib.fine.reconstruct_skew(t, 0, h)
        return rec, lib.fine.construct_skew(rec).raw(h) == t.raw(h)

    for s in corpus["skews"]:
        h = _skew_budget(s)
        ops.append(Op(
            name=f"reconstruct_skew {s['key']} h={h}",
            run=(lambda spec=state[s["key"]], h=h: reconstruct(spec, h)),
            digest=(lambda r: (_spec_fields(r[0]), r[1])),
            check=(lambda d, s=s: _check_reconstruction(s, d)),
        ))
        text = _skew_text(s)
        argv = ["construct", "--alphabet", ",".join(s["letters"]), "--skew", text,
                "--prefix", str(ROUNDTRIP_N), "--output", "json"]
        ops.append(Op(
            name=f"cli construct {s['key']}",
            run=(lambda argv=argv: _cli(lib, argv)),
            digest=_cli_json,
            check=(lambda d, s=s: _expect(d[0] == 0 and isinstance(d[1], dict) and d[1]["word"] == _skew_ref(s, ROUNDTRIP_N),
                                          f"construct printed {str(d)[:200]}")),
        ))
        argv = ["verify", "--alphabet", ",".join(s["letters"]), "--skew", text,
                "--horizon", str(h), "--output", "json"]
        ops.append(Op(
            name=f"cli verify --skew {s['key']}",
            run=(lambda argv=argv: _cli(lib, argv)),
            digest=_cli_json,
            check=(lambda d, s=s: _check_cli_verify_skew(s, d)),
        ))
    return ops


def _check_cli_verify_skew(s: dict, digest) -> str | None:
    code, payload = digest
    if code != 0 or not isinstance(payload, dict):
        return f"exit {code}: {str(payload)[:200]}"
    (check,) = payload["checks"]
    fields = _skew_json_fields(s["letters"], check["recovered"])
    h = _skew_budget(s)
    return _expect(check["ok"] and _skew_ref(fields, h) == _skew_ref(s, h), f"verify recovered {fields}")


def _skew_json_fields(letters: str, d: dict) -> dict:
    """A skew spec as the command line prints it, in the benchmark's own form."""
    pre, per = d["directive"][:-1].split("(")
    gens = "" if d["morphism"] == "id" else d["morphism"].split(":", 1)[1]
    return {"letters": letters, "pre": pre, "per": per, "x": d["x"], "p": d["p"], "gens": gens,
            "suffix_len": d["suffix_len"]}


# --- fineness-corpus ----------------------------------------------------------


def fineness_corpus(seed: int) -> dict:
    """Fixed golden items, then ``FINE_COPIES`` seeded draws of every seeded slot.

    Classifying a word that is not fine stops at its first witness, so the
    cost of one draw varies a lot; several draws per slot keep the sums
    steady from seed to seed.
    """
    rng = _rng("fineness-corpus", seed)
    directives = [
        {"letters": "ab", "pre": "", "per": "ab", "strict": True},
        {"letters": "abc", "pre": "", "per": "abc", "strict": True},
        {"letters": "abc", "pre": "c", "per": "ab", "strict": False},
    ]
    skews = [_skew_fields("abc", "", "ab", "c", 4, "c")]
    literals = [{"letters": "ab", "u": "ba", "v": "ab"}, {"letters": "ab", "u": "ab", "v": "aab"}]
    for _ in range(FINE_COPIES):
        for letters, core_per_len in (("ab", 1), ("abc", 3)):
            pre, per = _strict_directive(rng, letters, len(letters) + 2, 1)
            directives.append({"letters": letters, "pre": pre, "per": per, "strict": True})
            pre, per = _nonstrict_directive(rng, letters, rng.choice(letters), core_per_len, 2)
            directives.append({"letters": letters, "pre": pre, "per": per, "strict": False})
        skews += [_canonical_skew(rng, "abc", 1, 3, 1), _canonical_skew(rng, "ab", 2, 1, 0)]
        for letters in ("ab", "abc"):
            # Fine by construction: a skew word whose core is one letter repeated
            # (an ultimately periodic fine word uses at most two letters).
            x, y = rng.sample(letters, 2)
            gens = rng.choice((x, y)) * rng.randint(0, 1) + x
            s = _skew_fields(letters, "", y, x, rng.randint(0, 6), gens)
            u = _skew_ref(s, s["suffix_len"])
            literals.append({"letters": letters, "u": u, "v": ref.apply_morphism(gens, y, letters)})
            # Not fine, drawn until the brute-force scan says so.
            while True:
                u, v = _literal(rng, letters, 2, 3)
                if not ref.literal_is_fine(u, v, FINE_DEPTH):
                    break
            literals.append({"letters": letters, "u": u, "v": v})
            # Of unknown form: whatever the draw gives, decided by the scan alone.
            u, v = _literal(rng, letters, 2, 4)
            literals.append({"letters": letters, "u": u, "v": v})
    return {"directives": directives, "skews": skews, "literals": literals}


def fineness_setup(lib, corpus: dict) -> dict:
    state: dict[str, Any] = {"directives": [], "skews": [], "literals": []}
    for d in corpus["directives"]:
        alphabet = lib.textio.parse_alphabet(",".join(d["letters"]))
        state["directives"].append(lib.textio.parse_directive(alphabet, _stream_text(d)))
    for s in corpus["skews"]:
        alphabet = lib.textio.parse_alphabet(",".join(s["letters"]))
        spec = lib.textio.parse_skew(alphabet, _skew_text(s))
        spec.validate()
        state["skews"].append(spec)
    for s in corpus["literals"]:
        alphabet = lib.textio.parse_alphabet(",".join(s["letters"]))
        state["literals"].append(lib.textio.parse_literal(alphabet, _stream_text(s)))
    for dw in state["directives"]:
        for depth in (FINE_DEPTH, 4 * FINE_DEPTH):
            lib.engine.exact_horizon(dw, depth)
    return state


def _verdict_digest(v) -> dict:
    out = {"classification": v.classification.value,
           "s_prefix": None if v.s_prefix is None else str(v.s_prefix),
           "witness": None, "skew": None}
    if v.witness is not None:
        w = v.witness
        out["witness"] = {"order": w.order.describe(), "k": w.k, "factor": str(w.factor),
                          "required": str(w.required), "reason": w.reason}
    if v.skew is not None:
        out["skew"] = _spec_fields(v.skew)
    return out


def _check_witness(w: dict, scanned: str) -> str | None:
    """A NotFine witness names the true extremum of the scanned prefix and a different required word."""
    order = "".join(w["order"].split("<"))
    order = "".join(c for c in order if c in scanned)
    k = w["k"]
    least, _ = ref.extremes(ref.windows(scanned, k), order)
    if w["factor"] != least:
        return f"witness factor {w['factor']!r} is not the least window {least!r}"
    if w["required"] == w["factor"] or len(w["required"]) != k or w["required"][0] != order[0]:
        return f"witness required word {w['required']!r} is not (least letter).s of length {k}"
    smaller = ref.least_before(w["factor"], w["required"], order)
    if (w["reason"] == "smaller-factor") != smaller:
        return f"witness reason {w['reason']!r} contradicts the order"
    return None


def _check_verdict(kind: str, item: dict, depth: int, horizon: int, v: dict) -> str | None:
    label = v["classification"]
    letters = item["letters"]
    if kind == "directive":
        word = ref.standard_prefix(item["pre"], item["per"], horizon, letters)
        if item["strict"]:
            if label != "StrictEpisturmian":
                return f"strict directive labelled {label}"
            return _expect(v["s_prefix"] == word[: depth - 1], "common tail is not the word itself")
        if label != "NotFine":
            return f"non-strict directive labelled {label}"
        return None if v["witness"] is None else _check_witness(v["witness"], word)
    if kind == "skew":
        if label != "SkewEpisturmian":
            return f"canonical skew spec labelled {label}"
        core = ref.skew_core_image(item["pre"], item["per"], item["gens"], depth - 1, letters)
        return _expect(v["s_prefix"] == core, "common tail is not the morphic core image")
    u, uv = item["u"], item["v"]
    if not ref.literal_is_fine(u, uv, depth):
        if label != "NotFine":
            return f"literal word not fine to depth {depth} labelled {label}"
        return None if v["witness"] is None else _check_witness(v["witness"], ref.literal_prefix(u, uv, horizon))
    if label == "NotFine":
        return f"literal word fine to depth {depth} labelled NotFine"
    if label == "StrictEpisturmian":
        return _expect(len(set(u + uv)) == 1, "a literal word over several letters labelled StrictEpisturmian")
    if label == "SkewEpisturmian":
        spec = v["skew"]
        return _expect(_skew_ref(spec, horizon) == ref.literal_prefix(u, uv, horizon),
                       f"skew spec {spec} does not spell the literal word")
    return None


def _spec_flag(kind: str, item: dict) -> tuple[str, str]:
    """The command-line flag and text that describe a corpus item."""
    if kind == "skew":
        return "--skew", _skew_text(item)
    return f"--{kind}", _stream_text(item)


def fineness_operations(lib, corpus: dict, state: dict) -> list[Op]:
    ops: list[Op] = []
    items = (
        [("directive", d, dw) for d, dw in zip(corpus["directives"], state["directives"])]
        + [("skew", s, spec) for s, spec in zip(corpus["skews"], state["skews"])]
        + [("literal", s, uv) for s, uv in zip(corpus["literals"], state["literals"])]
    )
    for size, depth in (("n", FINE_DEPTH), ("4n", 4 * FINE_DEPTH)):
        for kind, item, parsed in items:
            h = FINE_HORIZON_PER_DEPTH[kind] * depth
            if kind == "literal":
                run = (lambda uv=parsed, depth=depth, h=h: lib.fine.classify(lib.words.LiteralPeriodicStream(*uv), depth, h))
            else:
                run = (lambda spec=parsed, depth=depth, h=h: lib.fine.classify(spec, depth, h))
            text = _spec_flag(kind, item)[1]
            ops.append(Op(
                name=f"classify {kind} {text} depth={depth}",
                run=run,
                digest=_verdict_digest,
                check=(lambda v, kind=kind, item=item, depth=depth, h=h: _check_verdict(kind, item, depth, h, v)),
                size=size,
            ))
    n_dir = len(corpus["directives"])
    for kind, item, _ in (items[1], items[2], items[n_dir + 1], items[-1]):
        h = FINE_HORIZON_PER_DEPTH[kind] * FINE_DEPTH
        flag, text = _spec_flag(kind, item)
        argv = ["classify", "--alphabet", ",".join(item["letters"]), flag, text,
                "--depth", str(FINE_DEPTH), "--horizon", str(h), "--output", "json"]
        ops.append(Op(
            name=f"cli classify {kind} {text}",
            run=(lambda argv=argv: _cli(lib, argv)),
            digest=_cli_json,
            check=(lambda d, kind=kind, item=item, h=h: _check_cli_classify(kind, item, h, d)),
        ))
    h = FINE_HORIZON_PER_DEPTH["directive"] * FINE_DEPTH
    for d in corpus["directives"]:
        text = _stream_text(d)
        argv = ["verify", "--alphabet", ",".join(d["letters"]), "--directive", text,
                "--i", "3", "--horizon", str(h), "--output", "json"]
        ops.append(Op(
            name=f"cli verify --directive {text}",
            run=(lambda argv=argv: _cli(lib, argv)),
            digest=_cli_json,
            check=(lambda r, d=d: _check_cli_verify_directive(d, r)),
        ))
    return ops


def _check_cli_classify(kind: str, item: dict, horizon: int, digest) -> str | None:
    code, payload = digest
    if code != 0 or not isinstance(payload, dict):
        return f"exit {code}: {str(payload)[:200]}"
    v = {"classification": payload["classification"], "s_prefix": payload["s_prefix"],
         "witness": payload["witness"],
         "skew": None if payload["skew"] is None else _skew_json_fields(item["letters"], payload["skew"])}
    return _check_verdict(kind, item, FINE_DEPTH, horizon, v)


def _check_cli_verify_directive(d: dict, digest) -> str | None:
    code, payload = digest
    if code != 0 or not isinstance(payload, dict):
        return f"exit {code}: {str(payload)[:200]}"
    letters = [c["letter"] for c in payload["checks"]]
    want = [ref.directive_letter(d["pre"], d["per"], i) for i in (1, 2, 3)]
    ok = letters == want and all(c["ok"] for c in payload["checks"])
    return _expect(ok, f"verify peeled {letters}, expected {want}")


WORKLOADS = {
    "extremal-orders": Workload(extremal_corpus, extremal_setup, extremal_operations),
    "stream-roundtrip": Workload(roundtrip_corpus, roundtrip_setup, roundtrip_operations),
    "fineness-corpus": Workload(fineness_corpus, fineness_setup, fineness_operations),
}
