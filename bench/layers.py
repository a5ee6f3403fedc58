"""Per-layer tracing from outside the library.

The tracer wraps the public entry points of each ``epilex`` module and
rebinds every module attribute that holds them, because the modules import
each other's functions by name (``fine`` binds ``minimal_window_positions``;
``extremal`` and ``fine`` bind ``exact_horizon``; ``cli`` binds most of
``fine`` and ``textio``).  Stream generation is traced by wrapping each
stream class's ``_extend``, and ``WordStream.raw`` is wrapped on the base
class to count the letters it copies.

A span's self time is its duration minus the time of the spans it encloses.
Counts are kept per round and, for the sized operations, per size.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Spans named ``module.attribute``: functions, and stream classes whose
# ``_extend`` is the span.
FUNCTION_SPANS = (
    "extremal.minimal_window_positions",
    "extremal.min_factor",
    "extremal.max_factor",
    "extremal.min_stream",
    "extremal.max_stream",
    "engine.exact_horizon",
    "fine.is_fine_empirical",
    "fine.reconstruct_skew",
    "fine.construct_skew",
    "fine.classify",
    "cli.main",
)
STREAM_SPANS = (
    "engine.DirectiveStream",
    "morphisms.MorphicImageStream",
    "words.ConcatStream",
    "words.LiteralPeriodicStream",
)
MODULES = ("words", "morphisms", "engine", "extremal", "fine", "textio", "cli")


class Tracer:
    """Span and counter collector; ``install`` wraps the library, ``uninstall`` restores it."""

    def __init__(self, lib) -> None:
        self.lib = lib
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.size: str | None = None  # size class of the operation running now
        self._stack: list[list] = []  # [name, start, time of enclosed spans]
        self._patches: list[tuple[object, str, object]] = []

    # -- bookkeeping ------------------------------------------------------------

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] += value
        if self.size is not None:
            self.counts[f"{name}_at_{self.size}"] += value

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, enclosed = self._stack.pop()
        elapsed = time.perf_counter() - start
        self.self_s[name] += elapsed - enclosed
        if self._stack:
            self._stack[-1][2] += elapsed

    def _span(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count(name + ".calls")
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return wrapper

    def _rebind(self, original, replacement) -> None:
        """Point every module attribute that holds ``original`` at ``replacement``."""
        for mod in [self.lib.package] + [getattr(self.lib, m) for m in MODULES]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- install / uninstall ------------------------------------------------------

    def install(self) -> None:
        lib = self.lib
        for name in FUNCTION_SPANS:
            mod, attr = name.split(".")
            original = getattr(getattr(lib, mod), attr)
            self._rebind(original, self._span(name, original))
        for fn_name in lib.textio.__all__:
            original = getattr(lib.textio, fn_name)
            if callable(original) and not isinstance(original, type):
                self._rebind(original, self._span("textio", original))
        tracer = self
        for name in STREAM_SPANS:
            mod, cls_name = name.split(".")
            cls = getattr(getattr(lib, mod), cls_name)
            self._patch(cls, "_extend", self._stream_span(name, cls.__dict__["_extend"]))

        raw = lib.words.WordStream.__dict__["raw"]
        inner_span = "morphisms.MorphicImageStream"

        def traced_raw(stream, n):
            out = raw(stream, n)
            tracer.count("words.raw.calls")
            tracer.count("words.raw.letters", len(out))
            if tracer._stack and tracer._stack[-1][0] == inner_span:
                tracer.count(inner_span + ".inner_letters", len(out))
            return out

        self._patch(lib.words.WordStream, "raw", traced_raw)

    def _stream_span(self, name: str, extend):
        tracer = self
        directive = name == "engine.DirectiveStream"

        def traced_extend(stream, n):
            before = len(stream._buf)
            tracer._enter(name)
            try:
                extend(stream, n)
            finally:
                tracer._exit()
            if directive:
                tracer.count(name + ".letters", len(stream._buf) - before)

        return traced_extend

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
