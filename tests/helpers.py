"""Shared brute-force oracles and random generators for the test suite.

Everything here is deliberately naive and independent of the library's fast
paths: closures by trying candidate lengths, preimages by exhaustive search.
Expected values frozen in the tests were produced by these oracles.
"""

from __future__ import annotations

import random
from itertools import permutations, product

from epilex import (
    Alphabet,
    DirectiveWord,
    LengthError,
    LexOrder,
    PureEpistandardMorphism,
    SkewSpec,
    Word,
)

LETTERS = "abcd"


def brute_closure(w: Word) -> Word:
    """Shortest palindrome with prefix w: try candidates from shortest up."""
    idx = w.raw(len(w))
    for d in range(len(w) + 1):
        tail = idx[d:]
        if tail == tail[::-1]:
            return Word(w.alphabet, idx + idx[:d][::-1])
    raise AssertionError("unreachable: the doubled word is always a candidate")


def brute_preimage_exists(morphism: PureEpistandardMorphism, w: Word) -> bool:
    """Exhaustively search for a positive preimage of w, each candidate's
    image concatenated from :func:`letter_images`, not the library's map."""
    images, target = letter_images(morphism), tuple(w.raw(len(w)))
    for n in range(len(w) + 1):
        for combo in product(images, repeat=n):
            if sum(combo, ()) == target:
                return True
    return False


def letter_images(morphism: PureEpistandardMorphism) -> tuple[tuple[int, ...], ...]:
    """The image of every letter, indexed by letter: the generators composed
    one at a time, outermost first, on index tuples rather than text."""
    images = [(c,) for c in range(morphism.alphabet.size)]
    for z in morphism.letters:  # compose with the next inner generator
        head = images[z]
        images = [head if c == z else head + image for c, image in enumerate(images)]
    return tuple(images)


def oracle_min(w: Word, k: int, order: LexOrder) -> Word:
    """Brute-force reference: sort every window and take the first."""
    if k > len(w):
        raise LengthError(f"factor length {k} exceeds word length {len(w)}")
    if k == 0:
        return Word(w.alphabet, ())
    ranks, idx = order.ranks, w.raw(len(w))
    windows = [tuple(ranks[c] for c in idx[i : i + k]) for i in range(len(w) - k + 1)]
    least = sorted(windows)[0]
    inverse = {r: i for i, r in enumerate(ranks)}
    return Word(w.alphabet, tuple(inverse[r] for r in least))


def fine_by_sorting(seq, starts: int, depth: int) -> bool:
    """Whether an infinite word is fine to ``depth``, from its windows alone.

    ``seq`` holds the word's letter indices, and every length-``depth``
    factor starts before ``starts`` in it.  Least factors of an infinite word
    nest, so under each order on its letters the least of those windows is
    min(t)[:depth], sorted here by rank; the word is fine to ``depth`` when
    every order's least window has the same tail past its first letter.
    """
    windows = {tuple(seq[i : i + depth]) for i in range(starts)}
    tails = set()
    for perm in permutations(sorted(set(seq))):
        rank = {c: r for r, c in enumerate(perm)}
        tails.add(min(windows, key=lambda w: [rank[c] for c in w])[1:])
    return len(tails) == 1


def oracle_max(w: Word, k: int, order: LexOrder) -> Word:
    """Brute-force reference: the greatest window is the least under the reversed order."""
    return oracle_min(w, k, order.reversed())


def all_words(alphabet: Alphabet, max_len: int):
    for n in range(max_len + 1):
        for combo in product(range(alphabet.size), repeat=n):
            yield Word(alphabet, combo)


def random_directive(
    rng: random.Random,
    max_alpha: int = 4,
    max_pre: int = 3,
    max_per: int = 5,
    min_alpha: int = 1,
) -> DirectiveWord:
    """Eventually periodic directive whose alphabet is exactly its letters."""
    k = rng.randint(min_alpha, max_alpha)
    alphabet = Alphabet(tuple(LETTERS[:k]))
    while True:
        pre = [rng.randrange(k) for _ in range(rng.randint(0, max_pre))]
        per = [rng.randrange(k) for _ in range(rng.randint(1, max_per))]
        if set(pre) | set(per) == set(range(k)):
            return DirectiveWord(alphabet, tuple(pre), tuple(per))


def random_strict_directive(
    rng: random.Random, max_alpha: int = 4, max_pre: int = 3, max_per: int = 5
) -> DirectiveWord:
    """Directive with every letter recurring: the period covers the alphabet."""
    k = rng.randint(1, max_alpha)
    alphabet = Alphabet(tuple(LETTERS[:k]))
    while True:
        per = [rng.randrange(k) for _ in range(rng.randint(max(1, k), max_per + k))]
        if set(per) != set(range(k)):
            continue
        pre = [rng.randrange(k) for _ in range(rng.randint(0, max_pre))]
        return DirectiveWord(alphabet, tuple(pre), tuple(per))


def random_canonical_skew(rng: random.Random, max_alpha: int = 4) -> SkewSpec:
    """A skew spec in the canonical round-trippable form.

    The core period covers its letters, the morphism is empty or ends with the
    marker letter, and the suffix is the full seed: those are exactly the
    specs whose (p, marker, morphism length) survive a reconstruction.
    """
    k = rng.randint(2, max_alpha)
    alphabet = Alphabet(tuple(LETTERS[:k]))
    x_idx = rng.randrange(k)
    core_letters = [i for i in range(k) if i != x_idx]
    while True:
        per = [rng.choice(core_letters) for _ in range(rng.randint(1, 3))]
        if set(per) == set(core_letters):
            break
    pre = [rng.choice(core_letters) for _ in range(rng.randint(0, 2))]
    directive = DirectiveWord(alphabet, tuple(pre), tuple(per))
    p = rng.randint(0, 6)
    if rng.random() < 0.4:
        gens: tuple[int, ...] = ()
    else:
        gens = tuple(rng.randrange(k) for _ in range(rng.randint(0, 1))) + (x_idx,)
    morphism = PureEpistandardMorphism(alphabet, gens)
    spec = SkewSpec(
        directive=directive,
        x=alphabet.letters[x_idx],
        p=p,
        morphism=morphism,
        suffix_len=1,
    )
    full = len(spec.seed_word())
    return SkewSpec(
        directive=directive,
        x=alphabet.letters[x_idx],
        p=p,
        morphism=morphism,
        suffix_len=full,
    )


def chain_words(seq: list[int], ranks, depth: int) -> list[list[int]]:
    """min(seq|k) for k = 1..depth, via the library's position chain."""
    from epilex.extremal import minimal_window_positions

    chain = minimal_window_positions(as_text(seq), ranks, depth)
    return [seq[p : p + k] for k, p in enumerate(chain, start=1)]


def peel_by_splitting(seq: list[int], z: int) -> list[int]:
    """Invert the ``z`` generator by walking the prefix image block by image block.

    Every image starts with ``z``: ``z`` alone is the image of ``z``, ``z c``
    that of ``c``.  A trailing lone ``z`` may be a truncated image, so it is
    dropped; a letter other than ``z`` where a block should start raises.
    """
    if seq[0] != z:
        seq = [z] + seq
    out: list[int] = []
    i = 0
    n = len(seq)
    while i < n:
        if seq[i] != z:
            raise ValueError("peeling desynchronized; letter is not separating")
        if i + 1 >= n:
            break
        if seq[i + 1] == z:
            out.append(z)
            i += 1
        else:
            out.append(seq[i + 1])
            i += 2
    return out


def as_text(seq) -> str:
    """The ``chr`` text of a letter-index sequence, the encoding the scans and the skew reconstruction read."""
    return "".join(map(chr, seq))


def separates_by_pairs(a: int, seq: list[int]) -> bool:
    """Whether every length-2 factor of ``seq`` contains ``a``: each adjacent pair in turn."""
    return all(seq[i] == a or seq[i + 1] == a for i in range(len(seq) - 1))


def directive_letters_by_steps(seq: list[int]) -> list[int]:
    """The directive letters of a standard word read off a prefix, one step at a time.

    Letter n is the letter at |u_{n-1}|, and |u_n| = 2|u_{n-1}| - |u_{j-1}|
    with j the letter's last earlier directive position, or 2|u_{n-1}| + 1
    for a new letter (Justin-Pirillo 2002, TCS 276).
    """
    lengths = [0]
    last: dict[int, int] = {}
    letters: list[int] = []
    while lengths[-1] < len(seq):
        x = seq[lengths[-1]]
        letters.append(x)
        j = last.get(x)
        lengths.append(2 * lengths[-1] + 1 if j is None else 2 * lengths[-1] - lengths[j - 1])
        last[x] = len(lengths) - 1
    return letters


def exact_horizon_by_steps(d: DirectiveWord, k: int) -> int:
    """``engine.exact_horizon(d, k)`` transcribed from its derivation, step by step.

    Step 1 tests |mu_n(x)| >= k for every letter x of T^n D at each n in
    turn.  The letter images' lengths come from composing generators,
    mu_n = mu_{n-1} psi_{d_n}, and the palindromic prefixes' lengths from
    u_n = mu_{n-1}(d_n) u_{n-1}, not from the last-occurrence rule.  With one
    recurring letter the bound is |mu_m(d_{m+1})| + k - 1, with m the last
    position of a vanishing letter.
    """
    if k <= 0:
        return 1
    pre, per = d.preperiod, d.period
    # d_1 d_2 ...: each period grows every recurring letter's image, so
    # step 1 ends within k periods past the preperiod, and step 2 within 3 more.
    letters = pre + per * (k + 4)
    images = [1] * d.alphabet.size  # |mu_n(x)| for every letter x
    u = [0]  # |u_0|, ..., |u_n|

    def step() -> None:
        x = letters[len(u) - 1]
        u.append(u[-1] + images[x])
        images[:] = [m if c == x else images[x] + m for c, m in enumerate(images)]

    def tail_letters(n: int) -> set[int]:  # the letters of T^n D
        return set(pre[n:]) | set(per)

    if len(set(per)) < 2:
        m = max((i for i, x in enumerate(pre, start=1) if x not in per), default=0)
        for _ in range(m):
            step()
        return images[letters[m]] + k - 1
    n = 0
    while min(images[x] for x in tail_letters(n)) < k:
        step()
        n += 1
    # Step 2: J is the first index at which d_{n+1}..d_{n+J} holds every
    # letter of T^n D, and y = d_{n+1} twice when y recurs in T^{n+1} D.
    y = letters[n]
    need = dict.fromkeys(tail_letters(n), 1)
    if y in tail_letters(n + 1):
        need[y] = 2
    j = 0
    while any(need.values()):
        need[letters[n + j]] = max(0, need[letters[n + j]] - 1)
        j += 1
    while len(u) <= n + j:
        step()
    return u[n + j - 1 if letters[n + j - 1] == y else n + j] - u[n] + k - 1


def chain_mismatch_by_length(seq: list[int], chain: list[int], expected: list[int]):
    """The first k with ``seq[chain[k-1]:][:k] != expected[:k]``, with that window, or None."""
    for k, p in enumerate(chain, start=1):
        actual = seq[p : p + k]
        if actual != expected[:k]:
            return k, actual
    return None


def run_limited(args: list[str], timeout: float = 30.0, memory: int = 1 << 30):
    """``python *args`` in a child process with the library on its path.

    The child's address space is capped at ``memory`` bytes and it is killed
    after ``timeout`` seconds (``subprocess.TimeoutExpired``), so a runaway
    allocation fails the calling test instead of exhausting the host.
    """
    import os
    import resource
    import subprocess
    import sys

    import epilex

    src = os.path.dirname(os.path.dirname(os.path.abspath(epilex.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, preexec_fn=cap, env=env
    )
