"""Benchmark entry point: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a source checkout.  The parent process starts fresh
interpreters and prints one JSON result as its last line:

* ``SETUP_PROBES`` set-up probes (after one uncounted probe that fills the
  bytecode cache), each timing import, parsing, stream building and cache
  warming; ``setup_s`` is their median;
* one measuring process that sets up the same way, runs one uncounted
  warm-up round, then whole rounds of the workload's operations for
  ``--seconds``, checking every output.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` rounds alternate untraced and traced, and the result holds the
per-layer metrics.  Exit status is 0 when a result was printed, also when a
check failed (``"correct": false``); anything else exits non-zero without a
result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

import timing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
DEADLINE_S = 170  # every run ends well within the 180 s a run may take


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_library(root: Path) -> SimpleNamespace:
    """Import ``epilex`` from ``root/src`` and return its modules."""
    src = root / "src"
    if not (src / "epilex" / "__init__.py").is_file():
        raise BenchError(f"no epilex sources under {src}")
    sys.path.insert(0, str(src))
    import epilex
    from epilex import cli, engine, extremal, fine, morphisms, textio, words

    if Path(epilex.__file__).resolve().parent != (src / "epilex").resolve():
        raise BenchError(f"imported epilex from {epilex.__file__}, not from {src}")
    return SimpleNamespace(package=epilex, words=words, morphisms=morphisms, engine=engine,
                           extremal=extremal, fine=fine, textio=textio, cli=cli)


def _ref_median(samples: int = 5) -> float:
    return statistics.median(timing.ref_loop() for _ in range(samples))


def timed_setup(workload, seed: int):
    """Import, parse, build and warm; returns (lib, corpus, state, raw seconds, normalised seconds)."""
    corpus = workload.corpus(seed)
    before = _ref_median()
    t0 = time.perf_counter()
    lib = load_library(ROOT)
    state = workload.setup(lib, corpus)
    raw = time.perf_counter() - t0
    after = _ref_median()
    norm = raw * timing.NOMINAL_REF_S / statistics.median([before, after])
    return lib, corpus, state, raw, norm


# --- the measuring process -------------------------------------------------------


class Round:
    """Raw and normalised times of one pass over the operations, and what went wrong.

    The first round keeps every output digest for the checks made after the
    last round, and a fingerprint of each; a later round only notes the
    operations whose fingerprint differs.  Times are kept in arrays, so the
    process's memory barely grows with the number of rounds.
    """

    def __init__(self, ops, first: "Round | None" = None, tracer=None) -> None:
        self.raw = array("d")
        refs = [timing.ref_loop()]
        self.errors: dict[int, str] = {}
        self.changed: list[int] = []
        self.digests: list = []
        self.prints: list[bytes | None] = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.size = op.size
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an operation that raises is reported as its failure
                self.errors[i] = f"{type(exc).__name__}: {exc}"
            self.raw.append(time.perf_counter() - t0)
            refs.append(timing.ref_loop())
            digest = fingerprint = None
            if i not in self.errors:
                try:
                    digest = op.digest(out)
                    fingerprint = hashlib.blake2b(repr(digest).encode(), digest_size=16).digest()
                except Exception as exc:  # output the digest cannot read is a failure too
                    self.errors[i] = f"unreadable output ({type(exc).__name__}: {exc})"
            if first is None:
                self.digests.append(digest)
                self.prints.append(fingerprint)
            elif i not in self.errors and fingerprint != first.prints[i]:
                self.changed.append(i)
        if tracer is not None:
            tracer.size = None
        self.norm = array("d", (r * f for r, f in zip(self.raw, timing.normalisers(refs))))
        self.factor = timing.NOMINAL_REF_S / statistics.median(refs)


def _check(op, digest) -> str | None:
    try:
        return op.check(digest)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return f"output of unexpected shape ({type(exc).__name__}: {exc}): {str(digest)[:200]}"


def check_rounds(ops, first: Round, rounds: list[Round]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every round.

    The first round's digests are checked against the reference; a later
    round passes or fails with it when its output fingerprint is the same.
    Only a known fault's wrong answer counts as failed; any other problem
    makes the run incorrect.
    """
    verdicts = [first.errors.get(i) or _check(op, first.digests[i]) for i, op in enumerate(ops)]
    attempted = failed = 0
    problems: list[str] = []
    for rnd in [first, *rounds]:
        changed = set(rnd.changed)
        for i, op in enumerate(ops):
            attempted += 1
            if i in rnd.errors:
                problem, fault = rnd.errors[i], False
            elif i in changed:
                problem, fault = "output differs from the first round's", False
            else:
                problem, fault = verdicts[i], op.known_fault and i not in first.errors
            if problem is None:
                continue
            if fault:
                failed += 1
            elif len(problems) < 20:
                problems.append(f"{op.name}: {problem}")
    return attempted, failed, problems


def _per_op_medians(rounds: list[Round], attr: str) -> list[float]:
    return [statistics.median(getattr(r, attr)[i] for r in rounds) for i in range(len(rounds[0].raw))]


def end_to_end(ops, rounds: list[Round]) -> tuple[dict, dict]:
    """Drift-cancelled end-to-end figures and their raw-second counterparts."""
    out, raw = {}, {}
    for attr, dest in (("norm", out), ("raw", raw)):
        med = _per_op_medians(rounds, attr)
        dest["ops_per_s"] = len(ops) / sum(med)
        dest["op_gmean_ms"] = 1000 * timing.geometric_mean([max(m, 1e-9) for m in med])
        at_n = sum(m for m, op in zip(med, ops) if op.size == "n")
        at_4n = sum(m for m, op in zip(med, ops) if op.size == "4n")
        dest["scale_4x"] = at_4n / at_n
    return out, raw


def per_layer(names: list[tuple[str, str]], plain: list[Round], traced: list[tuple[Round, dict, dict]]) -> dict:
    """Counts from the first traced round, self times as medians over traced rounds."""
    first_counts = traced[0][2]
    metrics = {}
    for name, unit in names:
        if name == "trace.overhead_s":
            value = (statistics.median(sum(r.norm) for r, _, _ in traced)
                     - statistics.median(sum(r.norm) for r in plain))
        elif unit == "s":
            span = name[: -len(".self_s")]
            value = statistics.median(selfs.get(span, 0.0) * r.factor for r, selfs, _ in traced)
        else:
            value = first_counts.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def measure(args) -> dict:
    workload = WORKLOADS[args.workload]
    lib, corpus, state, _, _ = timed_setup(workload, args.seed)
    ops = workload.operations(lib, corpus, state)
    tracer = None
    exact_horizon = lib.engine.exact_horizon
    if args.trace:
        from layers import Tracer

        tracer = Tracer(lib)
    gc.collect()
    first = Round(ops)  # warm-up: fills what set-up left lazy; not timed
    plain: list[Round] = []
    traced: list[tuple[Round, dict, dict]] = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds or (tracer and not traced):
        if tracer is not None and len(plain) > len(traced):
            tracer.reset()
            hits = exact_horizon.cache_info().hits
            tracer.install()
            try:
                rnd = Round(ops, first, tracer)
            finally:
                tracer.uninstall()
            counts = dict(tracer.counts)
            counts["engine.exact_horizon.cache_hits"] = exact_horizon.cache_info().hits - hits
            traced.append((rnd, dict(tracer.self_s), counts))
        else:
            plain.append(Round(ops, first))
    # Read before the checks, whose reference data is the benchmark's, not the library's.
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, problems = check_rounds(ops, first, plain + [r for r, _, _ in traced])
    detail = {"workload": args.workload, "seed": args.seed, "operations": len(ops),
              "rounds": 1 + len(plain) + len(traced), "problems": problems}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if tracer is None:
        metrics, raw = end_to_end(ops, plain)
        metrics["peak_rss_mib"] = rss_mib
        detail["raw"] = raw
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        metrics = per_layer([(m["name"], m["unit"]) for m in spec["per_layer"]], plain, traced)
        if any(c != traced[0][2] for _, _, c in traced):
            problems.append("per-layer counts differ between traced rounds")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}


# --- the parent process ---------------------------------------------------------


def _child(argv: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before all processes ran")
    try:
        # A fixed hash seed keeps dict and set layouts, and so timings, alike across runs.
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv],
                              capture_output=True, text=True, timeout=remaining, cwd=ROOT,
                              env=dict(os.environ, PYTHONHASHSEED="0"))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[:2]} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[:2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parent(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = [_child(["--phase", "setup", *common], deadline) for _ in range(SETUP_PROBES + 1)][1:]
    result = _child(["--phase", "measure", *common, "--seconds", str(args.seconds),
                     "--trace", str(args.trace)], deadline)
    detail = result.pop("detail")
    detail["setup_raw_s"] = statistics.median(p["raw"] for p in probes)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(p["norm"] for p in probes), "unit": "s"}
    print(json.dumps({"detail": detail}))
    if detail["problems"]:
        print("\n".join(detail["problems"]), file=sys.stderr)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.phase == "setup":
            *_, raw, norm = timed_setup(WORKLOADS[args.workload], args.seed)
            result = {"raw": raw, "norm": norm}
        elif args.phase == "measure":
            result = measure(args)
        else:
            result = parent(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
