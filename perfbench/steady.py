"""Repeat-steadiness pass: run every workload on seeds 1-10 and judge spreads.

    python3 perfbench/steady.py --label a                # every workload, seeds 1-10
    python3 perfbench/steady.py --label b --against a    # same seeds, compare to a

For every end-to-end metric it prints the median over the seeds and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A spread
above the metric's bound in ``BENCHMARK.json`` fails; a spread above a third
of the bound is flagged.  With
``--against`` it also fails a median that is worse than the earlier one by
more than the bound, and any job whose output digest changed.  Results go
to ``perfbench/out/steady-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def _spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--against", help="label of an earlier steadiness pass")
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = []
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            printed = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
            runs[workload].append({"seed": seed, "printed": printed, "digests": record["digests"]})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in printed["metrics"].items())
                + f", failed {printed['failed']}/{printed['attempted']}, "
                  f"correct={printed['correct']}", flush=True)
    out = HERE / "out" / f"steady-{args.label}.json"
    out.write_text(json.dumps(runs, indent=1))

    earlier = None
    if args.against:
        earlier = json.loads((HERE / "out" / f"steady-{args.against}.json").read_text())
    ok = True
    for workload, results in runs.items():
        ok = ok and all(r["printed"]["correct"] for r in results)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["printed"]["metrics"][name]["value"] for r in results]
            med, spread = statistics.median(values), _spread(values)
            verdict = "ok"
            if spread > bound:
                verdict, ok = "SPREAD ABOVE BOUND", False
            elif spread > bound / 3:
                verdict = "spread above bound/3"
            line = (f"{workload:13s} {name:12s} median {med:10.5g} {metric['unit']:3s} "
                    f"spread {spread:6.3f} (bound {bound})")
            if earlier is not None and workload in earlier:
                old = statistics.median(r["printed"]["metrics"][name]["value"]
                                        for r in earlier[workload])
                change = (med - old) / old
                line += f" vs {args.against} {change:+.3f}"
                if change > bound:
                    verdict, ok = "MEDIAN WORSE THAN BOUND", False
            print(f"{line}  {verdict}")
        if earlier is not None and workload in earlier:
            before = {r["seed"]: r["digests"] for r in earlier[workload]}
            changed = [(r["seed"], jid) for r in results if r["seed"] in before
                       for jid, d in r["digests"].items() if before[r["seed"]].get(jid) != d]
            print(f"{workload:13s} stdout digests: "
                  + ("identical" if not changed else f"CHANGED {changed[:5]}"))
            ok = ok and not changed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
