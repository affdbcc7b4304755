"""One workload process: set up, run the job list, write a result file.

Started by ``run.py`` with the thread variables already pinned.  It prints
``READY <import seconds>`` once set-up is done (job generation, ``import
dropqed`` from ``src/``, one untimed warm-up job per CLI command) and then,
depending on ``--mode``:

* ``setup``: exits;
* ``measure``: runs the job list in closed loop, pass after pass, as many
  passes as ``jobs.pass_count`` gives for ``--seconds``;
* ``trace``: runs one untraced pass, one traced pass and the stage probes.

Every job runs in-process through ``dropqed.cli.main(argv)`` with stdout
and stderr captured in memory; its output is checked after the clock stops.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import jobs as jobgen  # noqa: E402

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DROPQED_THREADS")


def _call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    gc.collect()   # the previous job's garbage is not this job's cost
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a crash is one failed job, not the end of the run
        code = None
        err.write(traceback.format_exc())
    return perf_counter() - t0, code, out.getvalue(), err.getvalue()


def _run_job(cli, job):
    latency, code, stdout, stderr = _call(cli, job.argv)
    files = {}
    for role, path in job.files.items():
        if os.path.exists(path):
            with open(path) as handle:
                files[role] = handle.read()
            os.unlink(path)
    try:
        findings, rates = checks.check(job, code, stdout, files)
    except Exception as exc:  # a malformed document must not stop the run
        findings, rates = checks.Findings(), {}
        findings.append(f"check raised {exc!r}")
    if code is None:
        findings.append("exception", wrong=False)
    digest = hashlib.sha256(stdout.encode())
    for role in sorted(files):
        digest.update(f"\0{role}\0".encode() + files[role].encode())
    return {
        "jid": job.jid,
        "latency_s": latency,
        "code": code,
        "digest": digest.hexdigest(),
        "reasons": findings.reasons,
        "wrong": findings.wrong,
        "rates": rates,
        "stderr": stderr[-4000:] if findings.reasons else "",
    }


def _run_pass(cli, job_list, tracer=None):
    records = []
    for job in job_list:
        if tracer is not None:
            tracer.job = job.jid
        records.append(_run_job(cli, job))
    return records


def _environment():
    import numpy
    import scipy

    def blas(config):
        deps = config.get("Build Dependencies", {}).get("blas", {})
        return f"{deps.get('name')} {deps.get('version')}"

    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__.CONFIG),
        "scipy_blas": blas(scipy.__config__.CONFIG),
        "threads": {var: os.environ.get(var) for var in PIN_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(jobgen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--result")
    args = parser.parse_args()

    root = Path(args.root)
    file_dir = f"perfbench/out/files/{args.workload}-s{args.seed}"
    job_list = jobgen.GENERATORS[args.workload](args.seed, file_dir)

    src = root / "src"
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import dropqed
    from dropqed import cli
    import_s = perf_counter() - t0
    if Path(dropqed.__file__).resolve().parent != (src / "dropqed").resolve():
        print(f"error: imported dropqed from {dropqed.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    os.makedirs(file_dir, exist_ok=True)
    for argv in jobgen.WARMUPS[args.workload]:
        _, code, _, stderr = _call(cli, argv)
        if code != 0:
            print(f"warning: warm-up {argv[0]} exited {code}: {stderr.strip()}",
                  file=sys.stderr)
    print(f"READY {import_s!r}", flush=True)
    if args.mode == "setup":
        return 0

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "import_s": import_s,
        "jobs": [{"jid": j.jid, "stratum": j.stratum, "argv": j.argv,
                  "equal_rate": j.equal_rate} for j in job_list],
        "env": _environment(),
    }
    if args.mode == "measure":
        count = jobgen.pass_count(args.workload, args.seconds)
        result["passes"] = [_run_pass(cli, job_list) for _ in range(count)]
    else:
        from probes import SKIPPED, run as run_probes
        from tracing import Tracer

        result["passes"] = [_run_pass(cli, job_list)]
        tracer = Tracer()
        tracer.install()
        origin = perf_counter()
        try:
            result["traced_pass"] = _run_pass(cli, job_list, tracer)
        finally:
            tracer.uninstall()
        spans_path = f"perfbench/out/{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write(spans_path, origin)
        result["spans_file"] = spans_path
        result["span_count"] = len(tracer.spans)
        result["functions"] = tracer.summary()
        result["nfev"] = dict(tracer.nfev)
        result["probes"] = run_probes()
        result["probes_skipped"] = SKIPPED
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
