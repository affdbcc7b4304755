"""Stage probes: public dropqed functions timed at fixed sizes.

The sizes are N = 60 (5x3x4), 216 (6x6x6) and 512 (8x8x8) with rates
(1, 4, 2) at theta = pi/2, which is where the baseline table of the roadmap
was measured.  Each probe reports the median of a few repetitions.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

SIZES = {"n60": (5, 3, 4), "n216": (6, 6, 6), "n512": (8, 8, 8)}
REPS = {"n60": 5, "n216": 3, "n512": 1}
OFF_POLE = 0.123 + 0.456j          # a detuning that is not a pole
SKIPPED = {
    "probe.sigma_min.n512_s": "one dense SVD of the 3584 x 3584 full matrix takes "
                              "about 22.5 s on 2 threads",
}


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run() -> dict[str, float]:
    from dropqed import (NetworkSpec, all_poles_eig, assemble, chain_rates,
                         drop_spectrum, find_pole, sample_noise, sigma_min)

    out = {}
    for size, dims in SIZES.items():
        spec = NetworkSpec(dims=dims, gammas=(1.0, 4.0, 2.0), theta=math.pi / 2)
        reps = REPS[size]
        out[f"probe.assemble.{size}_s"] = _median_time(
            lambda: assemble(spec, OFF_POLE), max(reps, 2))
        out[f"probe.eig_novalidate.{size}_s"] = _median_time(
            lambda: all_poles_eig(spec, validate="none"), reps)
        if f"probe.sigma_min.{size}_s" not in SKIPPED:
            out[f"probe.sigma_min.{size}_s"] = _median_time(
                lambda: sigma_min(spec, OFF_POLE), reps)

    # one seeded refinement on the noisy acceptance-7 network
    acc7 = NetworkSpec(dims=(3, 2, 6), gammas=(1.0, 3.0, 2.0), theta=0.65 * math.pi)
    noisy = acc7.with_noise(sample_noise(acc7, 0.05, 7))
    seed = complex(drop_spectrum(noisy).rates[0]) / 2j
    out["probe.find_pole.n36_s"] = _median_time(lambda: find_pole(noisy, seed), 5)

    for n in (100, 400):
        out[f"probe.chain_rates.n{n}_s"] = _median_time(
            lambda: chain_rates(n, 0.5 * math.pi), 5)
    return out
