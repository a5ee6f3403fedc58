"""Run sets of benchmark runs and check that two sets agree.

    python3 bench/compare.py collect --workload W --seeds 1-10 --out .bench_runs/a.jsonl [--trace 0]
    python3 bench/compare.py check .bench_runs/a.jsonl .bench_runs/b.jsonl

``collect`` runs ``bench/run.py`` once per seed, one after another, and
appends each result line to the output file.  ``check`` reads the bounds
from ``BENCHMARK.json`` and, per workload and end-to-end metric, reports the
median of each set, the spread (distance between the first and third
quartile over the median), and whether

* each spread except that of ``setup_s`` is within the metric's bound,
* the second median is not worse than the first by more than the bound,
* the share of failed operations is the same in both sets.

Exit status 0 when every test passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args) -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=200)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        *_, detail, last = proc.stdout.strip().splitlines()
        result = json.loads(last)
        result.update(json.loads(detail))
        result["workload"], result["seed"] = args.workload, seed
        with out.open("a") as fh:
            fh.write(json.dumps(result) + "\n")
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {values}")
    return 0


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = []
    for path in (args.first, args.second):
        runs: dict[str, list[dict]] = {}
        for line in Path(path).read_text().splitlines():
            r = json.loads(line)
            runs.setdefault(r["workload"], []).append(r)
        sets.append(runs)
    ok = True
    for workload in sorted(set(sets[0]) & set(sets[1])):
        a, b = sets[0][workload], sets[1][workload]
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in (a, b)]
        same_share = shares[0] == shares[1] and all(r["correct"] for r in a + b)
        ok &= same_share
        print(f"{workload}: failed share {shares[0]:.6f} / {shares[1]:.6f}, all correct: "
              f"{all(r['correct'] for r in a + b)} {'ok' if same_share else 'FAIL'}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(va), spread(vb)
            good = worse <= bound and (name == "setup_s" or (sa <= bound and sb <= bound))
            ok &= good
            print(f"  {name:14s} median {ma:10.5g} -> {mb:10.5g} ({worse:+.3f} worse, bound {bound}) "
                  f"spread {sa:.3f} / {sb:.3f} (target < {bound / 3:.3f}) {'ok' if good else 'FAIL'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, default=0)
    c.add_argument("--out", required=True)
    k = sub.add_parser("check")
    k.add_argument("first")
    k.add_argument("second")
    args = parser.parse_args()
    return collect(args) if args.cmd == "collect" else check(args)


if __name__ == "__main__":
    sys.exit(main())
