"""dropqed benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload eom-bulk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload, untraced

Run from the repository root.  This process imports nothing from dropqed
or numpy: it pins the BLAS and dropqed thread counts, starts the workload
processes (``worker.py``), derives the metrics from their result files and
prints them.  The last line of stdout is the JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1``
its per-layer metrics.  A full record (environment, every job with its
latency, exit code, stdout digest and failure reasons, set-up samples,
spans summary) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DROPQED_THREADS")
THREADS = 1                  # no larger than nproc on any machine
# set-up-only processes started before and after the measuring process; the
# samples straddle the run, so a few slow seconds of the machine move the
# median little
SETUP_ONLY_BEFORE, SETUP_ONLY_AFTER = 3, 3
RUN_DEADLINE_S = 170         # a run gives up, without a result, after this


def _remaining(deadline: float) -> float:
    left = deadline - perf_counter()
    if left <= 0:
        raise RuntimeError(f"run exceeded {RUN_DEADLINE_S} s")
    return left


def _worker(workload: str, seed: int, seconds: float, mode: str, result: Path | None,
            deadline: float):
    """Start one workload process; return (set-up seconds, import seconds, proc)."""
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in PIN_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--root", str(ROOT)]
    if result is not None:
        cmd += ["--result", str(result)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], _remaining(deadline))
    except RuntimeError:
        readable = []
    line = proc.stdout.readline() if readable else ""
    setup_s = perf_counter() - t0
    if not line.startswith("READY "):
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{mode} process for {workload} did not get ready "
                           f"(exit {proc.returncode})")
    return setup_s, float(line.split()[1]), proc


def _finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.communicate(timeout=_remaining(deadline))
    except (subprocess.TimeoutExpired, RuntimeError):
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload process timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten jobs beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _outcome(result: dict, passes: list[list[dict]]) -> dict:
    """Counts, correctness and per-job digests over every job run."""
    records = [rec for run in passes for rec in run]
    first = {rec["jid"]: rec["digest"] for rec in passes[0]}
    wrong, unstable = [], []
    for rec in records:
        if rec["digest"] != first[rec["jid"]]:
            unstable.append(rec["jid"])
            rec["reasons"].append("stdout digest differs from the first pass")
        if rec["wrong"]:
            wrong.append(rec["jid"])
    failed = [rec for rec in records if rec["reasons"]]
    equal = {job["jid"] for job in result["jobs"] if job["equal_rate"]}
    return {
        # failed jobs count in fail_frac; only a wrong document (checks.py)
        # or output that changes between passes makes the run incorrect
        "correct": not wrong and not unstable,
        "attempted": len(records),
        "failed": len(failed),
        "failed_equal_rate": sum(rec["jid"] in equal for rec in failed),
        "equal_rate_share": len(equal) / len(result["jobs"]),
        "wrong_outputs": sorted(set(wrong)),
        "unstable_digests": sorted(set(unstable)),
        "failures": {rec["jid"]: {"code": rec["code"], "reasons": rec["reasons"],
                                  "stderr": rec["stderr"]} for rec in failed},
        "digests": first,
    }


def _end_to_end(result: dict, setup: list[float]) -> tuple[dict, dict]:
    passes = result["passes"]
    latencies = [rec["latency_s"] for run in passes for rec in run]
    tail, pct = _tail(latencies)
    outcome = _outcome(result, passes)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(r["latency_s"] for r in run) for run in passes),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    notes = {
        "passes": len(passes),
        "pass_wall_s": [sum(r["latency_s"] for r in run) for run in passes],
        "jobs_per_pass": len(passes[0]),
        "job_samples": len(latencies),
        "job_tail_percentile": pct,
        "fail_frac": outcome["failed"] / outcome["attempted"],
        "setup_samples_s": setup,
        "job_records": passes,
    }
    return values, {**notes, **outcome}


def _per_layer(result: dict, imports: list[float]) -> tuple[dict, dict]:
    funcs = result["functions"]
    values = {f"{name}.self_s": row["self_s"] for name, row in funcs.items()}
    values.update({f"{name}.calls": row["calls"] for name, row in funcs.items()})
    # cli.main covers parse, dispatch, emission and writing: all cli spans
    values["cli.main.self_s"] = sum(row["self_s"] for name, row in funcs.items()
                                    if name.startswith("cli."))
    poles = sum(n for rec in result["traced_pass"] for method, n in rec["rates"].items()
                if method in ("cnm", "det-interp"))
    nfev = sum(result["nfev"].values())
    values["eom.minimize.nfev_per_pole"] = nfev / poles if poles else 0.0
    untraced = sum(rec["latency_s"] for rec in result["passes"][0])
    traced = sum(rec["latency_s"] for rec in result["traced_pass"])
    values["trace.overhead_s"] = traced - untraced
    values["probe.import_s"] = statistics.median(imports)
    values.update(result["probes"])
    notes = {
        "functions": funcs,
        "nfev": nfev,
        "nfev_base_poles": poles,
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "span_count": result["span_count"],
        "spans_file": result["spans_file"],
        "probes_skipped": result["probes_skipped"],
        "import_samples_s": imports,
        "job_records": [result["passes"][0], result["traced_pass"]],
    }
    return values, {**notes, **_outcome(result, [result["traced_pass"]])}


def run_workload(spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (printed result, full record)."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    result_path = OUT / f"{stem}.worker.json"

    deadline = perf_counter() + RUN_DEADLINE_S
    setup, imports = [], []

    def start(mode: str, result: Path | None) -> None:
        setup_s, import_s, proc = _worker(workload, seed, seconds, mode, result, deadline)
        _finish(proc, deadline)
        setup.append(setup_s)
        imports.append(import_s)

    for _ in range(2 if trace else SETUP_ONLY_BEFORE):
        start("setup", None)
    start("trace" if trace else "measure", result_path)
    for _ in range(0 if trace else SETUP_ONLY_AFTER):
        start("setup", None)
    result = json.loads(result_path.read_text())
    result_path.unlink()

    if trace:
        values, notes = _per_layer(result, imports)
    else:
        values, notes = _end_to_end(result, setup)
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        # only the scipy boundary may vanish: a later version may not bind it
        value = values.get(name, 0.0 if name.startswith("eom.minimize.") else None)
        if value is None:
            raise RuntimeError(f"metric {name} was not measured")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    printed = {"correct": notes["correct"], "attempted": notes["attempted"],
               "failed": notes["failed"], "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": result["env"], "jobs": result["jobs"], "result": printed,
              "all_values": values, **notes}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return printed, record


def _describe(printed: dict, record: dict) -> None:
    w, env = record["workload"], record["env"]
    print(f"# {w} seed {record['seed']}: {env['machine']} nproc={env['nproc']} "
          f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"blas {env['numpy_blas']} threads={env['threads']}")
    for name, m in printed["metrics"].items():
        print(f"{w} {name} = {m['value']:.6g} {m['unit']}")
    if not record["trace"]:
        print(f"{w} job_tail_s is p{record['job_tail_percentile']:.1f} of "
              f"{record['job_samples']} jobs ({record['passes']} passes of "
              f"{record['jobs_per_pass']})")
    print(f"{w} fail_frac = {record['failed']}/{record['attempted']} "
          f"({record['failed_equal_rate']} of them equal-rate; equal-rate share of "
          f"the job list {record['equal_rate_share']:.3f}); correct={record['correct']}")
    for jid, failure in sorted(record["failures"].items()):
        print(f"{w}   {jid}: {'; '.join(failure['reasons'])[:160]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dropqed" / "__init__.py").is_file():
        print(f"error: no dropqed sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.all else [args.workload]
    if workloads == [None] or not set(workloads) <= set(names):
        parser.error(f"--workload must be one of {names}, or give --all")
    seconds = args.seconds or spec["run_seconds"]
    printed = None
    for workload in workloads:
        printed, record = run_workload(spec, workload, args.seed, seconds, bool(args.trace))
        _describe(printed, record)
    if not args.all:
        print(json.dumps(printed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
