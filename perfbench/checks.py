"""Outside correctness checks on one job's output.

Nothing here calls into dropqed: the expected rate count, the trace rule
and the closed-form counts are computed from the job's own inputs.  The
disordered rates of a noisy network are redrawn from the documented noise
model (``gamma_n * (1 + epsilon * N(0, 1))`` from a Philox stream keyed by
(seed, qubit, axis), redrawn while not positive).

Every failed check makes the job fail.  A failure is also *wrong* when the
job exited 0 with a document that breaks what the program promises: a
wrong rate count, a report that did not pass, a trace-rule defect above the
tolerance the pole-search routes enforce themselves
(``1e-6 * max(1, N * sum_n N_n gamma_n)``, absolute), a broken closed form.
A smaller trace-rule defect above 1e-9 relative fails the job without being
wrong.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import xml.etree.ElementTree as ET
from functools import lru_cache

from jobs import Job

TRACE_RTOL = 1e-9
PROMISED_TRACE_TOL = 1e-6    # times max(1, N * sum_n N_n gamma_n), as the routes check


@lru_cache(maxsize=None)
def _noisy_rate_sum(dims: tuple[int, ...], gammas: tuple[float, ...],
                    epsilon: float, seed: int) -> float:
    import numpy as np

    total = 0.0
    for i in range(math.prod(dims)):
        for n, g in enumerate(gammas):
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(i, n))))
            while True:
                val = g * (1.0 + epsilon * rng.standard_normal())
                if val > 0.0:
                    break
            total += val
    return total


def expected_rate_sum(job: Job) -> float:
    """Sum of all collective rates: the total of the per-qubit rates."""
    if job.noise is not None and job.noise[0] > 0:
        return _noisy_rate_sum(job.dims, job.gammas, *job.noise)
    return job.n_rates * sum(job.gammas)


def expected_cluster_counts(dims: tuple[int, ...]) -> dict[str, int]:
    """count(k) = sum over k-subsets S of the axes of prod_{n not in S} (N_n - 1)."""
    d = len(dims)
    counts = {}
    for k in range(d + 1):
        counts[str(k)] = sum(
            math.prod(dims[n] - 1 for n in range(d) if n not in subset)
            for subset in itertools.combinations(range(d), k))
    return counts


def _parse(text: str, fmt: str) -> tuple[dict, list[tuple[str, list[dict]]]]:
    """(report, [(method, rows)]) from a JSON or CSV document."""
    if fmt == "json":
        doc = json.loads(text)
        return doc.get("report") or {}, [(s["method"], s["rates"]) for s in doc["spectra"]]
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["method", "re", "im", "tuple", "k"]:
        raise ValueError(f"unexpected CSV header {rows[0]}")
    spectra: dict[str, list[dict]] = {}
    for method, re, im, tup, k in rows[1:]:
        spectra.setdefault(method, []).append(
            {"re": float(re), "im": float(im), "tuple": tup or None,
             "k": int(k) if k else None})
    return {}, list(spectra.items())


class Findings:
    """Failed checks of one job; ``wrong`` marks a broken promise (see above)."""

    def __init__(self) -> None:
        self.reasons: list[str] = []
        self.wrong = False

    def append(self, reason: str, wrong: bool = True) -> None:
        self.reasons.append(reason)
        self.wrong = self.wrong or wrong


def check(job: Job, code, stdout: str, files: dict[str, str]) -> tuple[Findings, dict]:
    """(failed checks, rates emitted per spectrum method)."""
    reasons = Findings()
    if code != 0:
        # a job that reports its own failure is failed, not wrong
        reasons.append(f"exit code {code}", wrong=False)
    text = files["output"] if "output" in files else stdout
    if "output" in files and stdout:
        reasons.append("stdout not empty although --output was given")
    if not text:
        reasons.append("no output document", wrong=code == 0)
        return reasons, {}
    try:
        report, spectra = _parse(text, job.out_format)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        reasons.append(f"unparseable output: {exc}")
        return reasons, {}
    if report.get("passed") is False:
        reasons.append("report.passed is false", wrong=code == 0)
    _check_spectra(job, spectra, reasons, code)
    _check_report(job, report, spectra, reasons)
    if "svg" in files:
        try:
            root = ET.fromstring(files["svg"])
            if not root.tag.endswith("svg"):
                reasons.append(f"svg root element is {root.tag}")
        except ET.ParseError as exc:
            reasons.append(f"svg is not well-formed: {exc}")
    return reasons, {method: len(rows) for method, rows in spectra}


def _check_spectra(job: Job, spectra, reasons: Findings, code) -> None:
    expect_spectra = {"compare": 0 if job.sweep_count else 2, "noise": 2,
                      "scaling": 0, "bic": 0}.get(job.command, 1)
    if len(spectra) != expect_spectra:
        reasons.append(f"{len(spectra)} spectra emitted, expected {expect_spectra}")
        return
    if not spectra:
        return
    target = expected_rate_sum(job)
    promised = PROMISED_TRACE_TOL * max(
        1.0, job.n_rates * sum(n * g for n, g in zip(job.dims, job.gammas)))
    for method, rows in spectra:
        if len(rows) != job.n_rates:
            reasons.append(f"{method} spectrum holds {len(rows)} rates, expected {job.n_rates}",
                           wrong=code == 0)
            continue
        total = complex(math.fsum(r["re"] for r in rows), math.fsum(r["im"] for r in rows))
        defect = abs(total - target)
        if defect > TRACE_RTOL * target:
            reasons.append(f"{method} trace rule: sum {total:.12g} vs {target:.12g} "
                           f"(relative defect {defect / target:.2e})",
                           wrong=code == 0 and defect > promised)


def _check_report(job: Job, report: dict, spectra, reasons: Findings) -> None:
    if job.sweep_count is not None:
        rows = report.get("sweep", [])
        if len(rows) != job.sweep_count or not all(r["passed"] for r in rows):
            reasons.append(f"sweep rows {len(rows)} of {job.sweep_count}, not all passed")
    if job.command == "bic":
        expected = math.prod(n - 1 for n in job.dims)
        if report.get("nullity") != expected:
            reasons.append(f"bic nullity {report.get('nullity')}, expected {expected}")
    if job.command == "classify" and job.out_format == "json":
        expected = expected_cluster_counts(job.dims)
        if report.get("cluster_counts") != expected:
            reasons.append(f"cluster counts {report.get('cluster_counts')} vs {expected}")
        labels = [r["k"] for r in spectra[0][1]] if spectra else []
        tally = {str(k): labels.count(k) for k in range(len(job.dims) + 1)}
        if tally != expected:
            reasons.append(f"k labels tally {tally} vs {expected}")
    if job.command == "scaling":
        lo, hi, step = job.m_range
        if report.get("sizes") != list(range(lo, hi + 1, step)):
            reasons.append("scaling sizes do not match the sweep")
        mins = report.get("min_rates", [])
        if len(mins) != len(report.get("sizes", [])) or not all(
                v is not None and 0 < v < math.inf for v in mins):
            reasons.append("scaling min_rates missing or not positive")
        if not (isinstance(report.get("slope"), float) and report["slope"] < 0):
            reasons.append(f"scaling slope {report.get('slope')} is not negative")
