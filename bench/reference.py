"""Reference computations the benchmark checks the library against.

Nothing here imports ``epilex``.  Words are plain strings of one-character
letters, and every answer is computed the slow, obvious way:

* standard episturmian prefixes as images ``psi_x1 ... psi_xm (x_{m+1})`` of
  one letter under the generator morphisms ``psi_z`` (``z`` fixed, every
  other letter ``c`` sent to ``zc``);
* skew words as ``suffix . mu(core)`` spelled out from their data;
* extremal factors by sorting every window of a prefix;
* fineness of an ultimately periodic word ``u(v)`` by scanning every order
  over its complete prefix ``|u| + |v| + k - 1``, which holds every
  length-``k`` factor.
"""

from __future__ import annotations

from itertools import permutations


def psi(z: str, word: str, letters: str) -> str:
    """The generator morphism of ``z``: ``z -> z`` and ``c -> zc`` otherwise."""
    return word.translate(str.maketrans({c: z + c for c in letters if c != z}))


def apply_morphism(gens: str, word: str, letters: str) -> str:
    """``psi_{gens[0]} o ... o psi_{gens[-1]}`` applied to ``word``."""
    for z in reversed(gens):
        word = psi(z, word, letters)
    return word


def directive_letter(pre: str, per: str, i: int) -> str:
    """The i-th letter (1-indexed) of the directive ``pre . per . per ...``."""
    if i <= len(pre):
        return pre[i - 1]
    return per[(i - len(pre) - 1) % len(per)]


def standard_prefix(pre: str, per: str, n: int, letters: str) -> str:
    """First ``n`` letters of the standard word directed by ``pre(per)``.

    With two or more recurring letters the word begins with
    ``psi_x1 ... psi_xm (x_{m+1})`` for every m, and those images grow without
    bound.  With one recurring letter ``y`` the word is ``mu(y)`` repeated,
    where ``mu`` is the morphism of the preperiod.
    """
    if n <= 0:
        return ""
    if len(set(per)) == 1:
        block = apply_morphism(pre, per[0], letters)
        return (block * (n // len(block) + 1))[:n]
    # |mu_m(c)| for every letter c, where mu_m = psi_x1 o ... o psi_xm.
    size = {c: 1 for c in letters}
    m = 0
    while size[directive_letter(pre, per, m + 1)] < n:
        m += 1
        x = directive_letter(pre, per, m)
        size = {c: size[c] if c == x else size[c] + size[x] for c in letters}
    gens = "".join(directive_letter(pre, per, i) for i in range(1, m + 1))
    return apply_morphism(gens, directive_letter(pre, per, m + 1), letters)[:n]


def skew_seed(pre: str, per: str, x: str, p: int, gens: str, letters: str) -> str:
    """``mu(reversal(core prefix of length p) . x)``: the word the skew suffix is cut from."""
    mirrored = standard_prefix(pre, per, p, letters)[::-1]
    return apply_morphism(gens, mirrored + x, letters)


def skew_prefix(pre: str, per: str, x: str, p: int, gens: str, suffix_len: int, n: int, letters: str) -> str:
    """First ``n`` letters of the skew word ``suffix . mu(core)``."""
    seed = skew_seed(pre, per, x, p, gens, letters)
    core = standard_prefix(pre, per, n, letters)
    return (seed[len(seed) - suffix_len :] + apply_morphism(gens, core, letters))[:n]


def skew_core_image(pre: str, per: str, gens: str, n: int, letters: str) -> str:
    """First ``n`` letters of ``mu(core)``, the word a skew word's minima share."""
    return apply_morphism(gens, standard_prefix(pre, per, n, letters), letters)[:n]


def literal_prefix(u: str, v: str, n: int) -> str:
    """First ``n`` letters of ``u . v . v ...``."""
    return (u + v * (n // len(v) + 1))[:n]


def windows(text: str, k: int) -> set[str]:
    """Every distinct length-``k`` window of ``text``."""
    return {text[i : i + k] for i in range(len(text) - k + 1)}


def rank_key(order: str):
    """Sort key comparing words letter by letter under ``order`` (least first)."""
    table = str.maketrans({c: chr(48 + r) for r, c in enumerate(order)})
    return lambda w: w.translate(table)


def extremes(candidates: set[str], order: str) -> tuple[str, str]:
    """Least and greatest of ``candidates`` under ``order``, by a full sort."""
    ranked = sorted(candidates, key=rank_key(order))
    return ranked[0], ranked[-1]


def least_before(w1: str, w2: str, order: str) -> bool:
    key = rank_key(order)
    return key(w1) < key(w2)


def present_orders(text: str) -> list[str]:
    """Every order on the letters occurring in ``text``, least letter first."""
    return ["".join(p) for p in permutations(sorted(set(text)))]


def literal_is_fine(u: str, v: str, depth: int) -> bool:
    """Whether one word s makes min_k = (least letter) . s[:k-1] for all orders and k <= depth."""
    s_ref: str | None = None
    for order in present_orders(u + v):
        for k in range(depth, 0, -1):
            least, _ = extremes(windows(literal_prefix(u, v, len(u) + len(v) + k - 1), k), order)
            if s_ref is None:
                s_ref = least[1:]
            if least != order[0] + s_ref[: k - 1]:
                return False
    return True
