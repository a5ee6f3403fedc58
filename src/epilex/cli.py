"""Batch command line: generate words, scan extremal factors, classify fineness.

Exit status is 0 on success, 1 on any parse or validation error, and 2 when
an internal consistency check fails (two construction paths disagreeing is a
bug, never a user error).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial
from typing import Any

from .engine import (
    InternalConsistencyError,
    shift_chain,
    standard_word,
    strictness,
)
from .extremal import max_factor, min_factor
from .fine import (
    NotFine,
    NotSkewForm,
    construct_skew,
    classify,
    reconstruct_skew,
)
from .textio import (
    MAX_LETTERS,
    parse_alphabet,
    parse_directive,
    parse_literal,
    parse_order,
    parse_skew,
    result_to_dict,
    skew_to_dict,
    strictness_to_dict,
    verdict_to_dict,
)
from .words import LiteralPeriodicStream, WordStream, all_orders

DEFAULT_DEPTH = 50
DEFAULT_HORIZON = 1000
MAX_ORDER_LETTERS = 6


class CLIError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CLIError(message)


def _letter_count(text: str) -> int:
    """An integer letter count no larger than :data:`MAX_LETTERS`."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n > MAX_LETTERS:
        raise argparse.ArgumentTypeError(f"{n} exceeds the limit of {MAX_LETTERS} letters")
    return n


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alphabet", required=True, help="comma-separated letters, e.g. a,b,c")
    sub.add_argument("--output", choices=("text", "json"), default="text")
    sub.add_argument("--horizon", type=_letter_count, default=DEFAULT_HORIZON, help=f"scan horizon (default {DEFAULT_HORIZON})")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--directive", help="directive word u(v), e.g. \"c(ab)\"")
    group.add_argument("--literal", help="literal ultimately periodic word u(v)")
    group.add_argument("--skew", help="skew spec, e.g. \"skew v=(ab) x=c p=4 mu=psi:c suffix=full\"")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every later call.

    Parsing leaves it unchanged: its defaults are constants, the horizon's
    :data:`DEFAULT_HORIZON` among them.
    """
    parser = _Parser(prog="epilex", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="emit a prefix of a word")
    _add_common(gen)
    gen.add_argument("--prefix", type=_letter_count, default=50, help="prefix length to emit")
    gen.set_defaults(run=_cmd_generate)

    for name in ("min", "max"):
        sub = subs.add_parser(name, help=f"{name}imal factor of the given length")
        _add_common(sub)
        sub.add_argument("--k", type=_letter_count, required=True, help="factor length")
        ordergroup = sub.add_mutually_exclusive_group(required=True)
        ordergroup.add_argument("--order", help="total order, e.g. \"a<b<c\"")
        ordergroup.add_argument("--all-orders", action="store_true", help="scan every order")
        sub.set_defaults(run=partial(_cmd_extremal, greatest=name == "max"))

    cls = subs.add_parser("classify", help="fineness classification of a structured spec")
    _add_common(cls)
    cls.add_argument("--depth", type=_letter_count, default=DEFAULT_DEPTH)
    cls.set_defaults(run=_cmd_classify)

    con = subs.add_parser("construct", help="build a skew word and emit a prefix")
    con.add_argument("--alphabet", required=True)
    con.add_argument("--output", choices=("text", "json"), default="text")
    con.add_argument("--skew", required=True)
    con.add_argument("--prefix", type=_letter_count, default=50)
    con.set_defaults(run=_cmd_construct)

    ver = subs.add_parser("verify", help="run internal consistency checks")
    _add_common(ver)
    ver.add_argument("--i", type=int, default=3, help="verify shift-chain links 1..i (directives)")
    ver.add_argument("--depth", type=_letter_count, default=20)
    ver.set_defaults(run=_cmd_verify)

    return parser


def _check_scan(bound: int, depth: int) -> None:
    """Refuse a fineness scan whose exact bound is past :data:`MAX_LETTERS`."""
    if bound > MAX_LETTERS:
        raise CLIError(f"--depth {depth} scans {bound} letters, which exceeds the limit of {MAX_LETTERS} letters")


def _stream_and_echo(alphabet, args) -> tuple[WordStream, dict[str, Any]]:
    if args.directive is not None:
        d = parse_directive(alphabet, args.directive)
        return standard_word(d), {"kind": "directive", "text": str(d)}
    if args.literal is not None:
        head, cycle = parse_literal(alphabet, args.literal)
        return LiteralPeriodicStream(head, cycle), {"kind": "literal", "text": args.literal.strip()}
    spec = parse_skew(alphabet, args.skew)
    return construct_skew(spec), {"kind": "skew", "spec": skew_to_dict(spec)}


def _emit(args, payload: dict[str, Any], text: str) -> None:
    if args.output == "json":
        print(json.dumps(payload))
    else:
        print(text)


def _cmd_generate(args) -> int:
    alphabet = parse_alphabet(args.alphabet)
    if args.prefix < 0:
        raise CLIError("--prefix must be >= 0")
    stream, echo = _stream_and_echo(alphabet, args)
    word = stream.prefix(args.prefix)
    text = str(word)
    _emit(
        args,
        {"word": text, "length": len(word), "alphabet": list(alphabet.letters), "spec": echo},
        text,
    )
    return 0


def _cmd_extremal(args, greatest: bool) -> int:
    alphabet = parse_alphabet(args.alphabet)
    if args.k > args.horizon:
        raise CLIError("--k must not exceed the horizon")
    stream, echo = _stream_and_echo(alphabet, args)
    if args.all_orders:
        if alphabet.size > MAX_ORDER_LETTERS:
            raise CLIError(f"--all-orders supports at most {MAX_ORDER_LETTERS} letters")
        orders = all_orders(alphabet)
    else:
        orders = [parse_order(alphabet, args.order)]
    results = [
        (max_factor if greatest else min_factor)(stream, args.k, order, args.horizon)
        for order in orders
    ]
    if args.all_orders:
        payload: dict[str, Any] = {"spec": echo, "results": [result_to_dict(r) for r in results]}
        text = "\n".join(f"{r.order.describe()}\t{r.word}" for r in results)
    else:
        payload = {"spec": echo, **result_to_dict(results[0])}
        text = str(results[0].word)
    _emit(args, payload, text)
    return 0


def _cmd_classify(args) -> int:
    alphabet = parse_alphabet(args.alphabet)
    if args.depth > args.horizon:
        raise CLIError("--depth must not exceed the horizon")
    if alphabet.size > MAX_ORDER_LETTERS:
        raise CLIError(f"classify supports at most {MAX_ORDER_LETTERS} letters")
    if args.directive is not None:
        spec: Any = parse_directive(alphabet, args.directive)
    elif args.literal is not None:
        spec = LiteralPeriodicStream(*parse_literal(alphabet, args.literal))
    else:
        spec = parse_skew(alphabet, args.skew)
    _check_scan(spec.exact_horizon(args.depth), args.depth)
    verdict = classify(spec, args.depth, args.horizon)
    payload = verdict_to_dict(verdict)
    if args.directive is not None:
        payload["strictness"] = strictness_to_dict(strictness(spec))
    lines = [f"classification: {verdict.classification.value}"]
    if verdict.strict_alphabet is not None:
        lines.append("strict over: " + ",".join(sorted(verdict.strict_alphabet)))
    if verdict.skew is not None:
        d = skew_to_dict(verdict.skew)
        lines.append(
            f"skew: v={d['directive']} x={d['x']} p={d['p']} mu={d['morphism']} suffix={d['suffix_len']}"
        )
    if verdict.s_prefix is not None:
        lines.append(f"s: {verdict.s_prefix}")
    if verdict.witness is not None:
        w = verdict.witness
        lines.append(
            f"witness: order={w.order.describe()} k={w.k} factor={w.factor} required={w.required} reason={w.reason}"
        )
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_construct(args) -> int:
    alphabet = parse_alphabet(args.alphabet)
    if args.prefix < 0:
        raise CLIError("--prefix must be >= 0")
    spec = parse_skew(alphabet, args.skew)
    stream = construct_skew(spec)
    word = stream.prefix(args.prefix)
    text = str(word)
    _emit(args, {"word": text, "length": len(word), "skew": skew_to_dict(spec)}, text)
    return 0


def _cmd_verify(args) -> int:
    alphabet = parse_alphabet(args.alphabet)
    checks: list[dict[str, Any]] = []
    if args.directive is not None:
        if args.i < 1:
            raise CLIError(f"--i must be >= 1, got {args.i}")
        if args.i * args.horizon > MAX_LETTERS:
            raise CLIError(
                f"--i {args.i} times horizon {args.horizon} exceeds the limit of {MAX_LETTERS} letters"
            )
        d = parse_directive(alphabet, args.directive)
        for i, letter in enumerate(shift_chain(d, args.i, args.horizon), start=1):
            checks.append({"check": "shift-chain", "i": i, "letter": letter, "ok": True})
    elif args.skew is not None:
        spec = parse_skew(alphabet, args.skew)
        _check_scan(spec.exact_horizon(args.depth), args.depth)
        stream = construct_skew(spec)
        # The spec is validated, so a fineness refutation is an engine bug;
        # past the gate, a failed peel means the prefix was too short.
        try:
            recovered = reconstruct_skew(stream, args.depth, args.horizon)
        except NotFine as exc:
            raise InternalConsistencyError(f"skew spec {spec} is {exc}") from None
        except NotSkewForm as exc:
            raise CLIError(
                f"--horizon {args.horizon} is too short to reconstruct the skew word: {exc}"
            ) from None
        same = construct_skew(recovered).raw(args.horizon) == stream.raw(args.horizon)
        if not same:
            raise InternalConsistencyError("round-trip regenerated a different word")
        checks.append(
            {"check": "skew-round-trip", "ok": True, "recovered": skew_to_dict(recovered)}
        )
    else:
        raise CLIError("verify needs --directive or --skew")
    payload = {"checks": checks}
    text = "\n".join(
        " ".join(f"{k}={v}" for k, v in c.items() if k != "recovered") for c in checks
    )
    _emit(args, payload, text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.run(args)
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
