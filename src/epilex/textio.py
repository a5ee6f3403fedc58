"""Text formats shared by the command line, JSON output, and tests.

Word text uses letters as UTF-8 tokens, written contiguously for single
character alphabets and comma-separated otherwise.  Streams and directives
use ``u(v)`` for an ultimately periodic sequence, morphisms ``psi:abc`` or
``psi(a)*psi(b)*psi(c)``, and skew words
``skew v=(ab) x=c p=4 mu=psi:c suffix=full``.
"""

from __future__ import annotations

from typing import Any

from .engine import DirectiveWord, StrictnessReport, image_length
from .extremal import ExtremalResult
from .fine import FinenessVerdict, SkewSpec, Witness
from .morphisms import PureEpistandardMorphism
from .words import MAX_LETTERS, Alphabet, AlphabetError, LexOrder, Word

__all__ = [
    "ParseError",
    "parse_alphabet",
    "parse_directive",
    "parse_literal",
    "parse_morphism",
    "parse_order",
    "parse_skew",
    "parse_word",
    "format_morphism",
    "result_to_dict",
    "skew_to_dict",
    "skew_from_dict",
    "strictness_to_dict",
    "verdict_to_dict",
]


class ParseError(ValueError):
    """Malformed text input; carries the position where parsing failed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


def parse_alphabet(text: str) -> Alphabet:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ParseError(f"empty alphabet: {text!r}")
    try:
        return Alphabet(tuple(tokens))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_word(alphabet: Alphabet, text: str) -> Word:
    try:
        return alphabet.word(text)
    except AlphabetError as exc:
        raise ParseError(str(exc)) from None


def parse_order(alphabet: Alphabet, text: str) -> LexOrder:
    tokens = [t.strip() for t in text.split("<")]
    try:
        return LexOrder.from_letters(alphabet, tokens)
    except (AlphabetError, ValueError) as exc:
        raise ParseError(f"bad order {text!r}: {exc}") from None


def _split_periodic(text: str) -> tuple[str, str]:
    open_at = text.find("(")
    if open_at < 0:
        raise ParseError(f"missing '(' in {text!r}", len(text))
    if not text.endswith(")"):
        raise ParseError(f"missing ')' in {text!r}", len(text))
    return text[:open_at], text[open_at + 1 : -1]


def parse_directive(alphabet: Alphabet, text: str) -> DirectiveWord:
    """``u(v)``: preperiod u, then v repeated forever."""
    pre, body = parse_literal(alphabet, text)
    return DirectiveWord(alphabet, tuple(map(ord, pre.text)), tuple(map(ord, body.text)))


def parse_literal(alphabet: Alphabet, text: str) -> tuple[Word, Word]:
    """``u(v)`` as a literal ultimately periodic word."""
    pre, body = _split_periodic(text.strip())
    if not body:
        raise ParseError(f"empty period in {text!r}")
    return parse_word(alphabet, pre), parse_word(alphabet, body)


def parse_morphism(alphabet: Alphabet, text: str) -> PureEpistandardMorphism:
    """``id``, ``psi:abc`` (unicode Psi accepted), or ``psi(a)*psi(b)``."""
    text = text.strip()
    if text.lower() in ("id", ""):
        return PureEpistandardMorphism(alphabet, ())
    lowered = text.replace("Ψ", "psi").replace("ψ", "psi")
    if lowered.lower().startswith("psi:"):
        body = lowered[4:]
        word = parse_word(alphabet, body)
        return PureEpistandardMorphism(alphabet, tuple(map(ord, word.text)))
    parts = [p.strip() for p in lowered.split("*")]
    letters = []
    for part in parts:
        if not (part.lower().startswith("psi(") and part.endswith(")")):
            raise ParseError(f"bad morphism factor {part!r} in {text!r}")
        tok = part[4:-1]
        letters.append(alphabet.index(tok))
    return PureEpistandardMorphism(alphabet, tuple(letters))


def format_morphism(m: PureEpistandardMorphism) -> str:
    if m.is_identity:
        return "id"
    toks = m.generator_tokens()
    if all(len(t) == 1 for t in m.alphabet.letters):
        return "psi:" + "".join(toks)
    return "psi:" + ",".join(toks)


def _skew_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"skew {key}={text} is not an integer") from None


def parse_skew(alphabet: Alphabet, text: str) -> SkewSpec:
    """``skew v=(ab) x=c p=4 mu=psi:c suffix=full``; mu defaults to id.

    A key other than these or given twice, a ``p`` that is negative or not
    an integer, a ``suffix`` that is neither ``full`` nor an integer, and a
    ``p``, letter image of ``mu`` or seed word that may be longer than
    :data:`MAX_LETTERS` raise :class:`ParseError` before any word is built.
    """
    parts = text.split()
    if not parts or parts[0] != "skew":
        raise ParseError(f"skew spec must start with 'skew': {text!r}", 0)
    fields: dict[str, str] = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ParseError(f"expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        if key not in ("v", "x", "p", "mu", "suffix"):
            raise ParseError(f"skew spec has an unknown key {key!r}; expected v, x, p, mu or suffix")
        if key in fields:
            raise ParseError(f"skew spec repeats the key {key!r}")
        fields[key] = value
    for key in ("v", "x"):
        if key not in fields:
            raise ParseError(f"skew spec is missing {key}=...: {text!r}")
    p = _skew_int("p", fields.get("p", "0"))
    if p < 0:
        raise ParseError(f"skew p={p} must be >= 0")
    suffix = fields.get("suffix", "full")
    suffix_len = None if suffix == "full" else _skew_int("suffix", suffix)
    directive = parse_directive(alphabet, fields["v"])
    x = fields["x"]
    if x not in alphabet:
        raise ParseError(f"letter {x!r} not in alphabet")
    morphism = parse_morphism(alphabet, fields.get("mu", "id"))
    if p > MAX_LETTERS:
        raise ParseError(f"skew p={p} exceeds the limit of {MAX_LETTERS} letters")
    lengths = [image_length(morphism, y) for y in range(alphabet.size)]
    if max(lengths) > MAX_LETTERS:
        raise ParseError(f"mu has an image that exceeds the limit of {MAX_LETTERS} letters")
    seed = p * max(lengths[c] for c in directive.alph()) + lengths[alphabet.index(x)]
    if seed > MAX_LETTERS:
        raise ParseError(f"skew seed may reach {seed} letters, which exceeds the limit of {MAX_LETTERS} letters")
    if suffix_len is None:
        spec = SkewSpec(directive=directive, x=x, p=p, morphism=morphism, suffix_len=1)
        suffix_len = spec.seed_length()
    return SkewSpec(directive=directive, x=x, p=p, morphism=morphism, suffix_len=suffix_len)


def skew_to_dict(spec: SkewSpec) -> dict[str, Any]:
    return {
        "directive": str(spec.directive),
        "x": spec.x,
        "p": spec.p,
        "morphism": format_morphism(spec.morphism),
        "suffix_len": spec.suffix_len,
    }


def skew_from_dict(alphabet: Alphabet, data: dict[str, Any]) -> SkewSpec:
    return SkewSpec(
        directive=parse_directive(alphabet, data["directive"]),
        x=data["x"],
        p=int(data["p"]),
        morphism=parse_morphism(alphabet, data["morphism"]),
        suffix_len=int(data["suffix_len"]),
    )


def _witness_to_dict(w: Witness) -> dict[str, Any]:
    return {
        "order": w.order.describe(),
        "k": w.k,
        "factor": str(w.factor),
        "required": str(w.required),
        "reason": w.reason,
    }


def verdict_to_dict(v: FinenessVerdict) -> dict[str, Any]:
    out: dict[str, Any] = {"classification": v.classification.value, "depth": v.depth}
    out["B"] = sorted(v.strict_alphabet) if v.strict_alphabet is not None else None
    out["skew"] = skew_to_dict(v.skew) if v.skew is not None else None
    out["s_prefix"] = str(v.s_prefix) if v.s_prefix is not None else None
    out["witness"] = _witness_to_dict(v.witness) if v.witness is not None else None
    return out


def result_to_dict(r: ExtremalResult) -> dict[str, Any]:
    return {
        "word": str(r.word),
        "k": r.k,
        "order": r.order.describe(),
        "horizon": r.horizon,
        "exact": r.exact,
    }


def strictness_to_dict(report: StrictnessReport) -> dict[str, Any]:
    return {
        "alph": sorted(report.alph),
        "ult": sorted(report.ult),
        "strict_over": sorted(report.strict_over) if report.strict_over is not None else None,
        "m": report.m,
    }
