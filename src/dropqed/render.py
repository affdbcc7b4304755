"""Deterministic SVG scatter plots of complex spectra.

Output bytes depend only on the inputs (fixed canvas, fixed float
formatting), so rendered figures can be diffed across runs.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .analysis import SuperradianceReport
from .drop import Spectrum

_K_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
              "#8c564b", "#e377c2", "#17becf")
_SERIES_PALETTE = ("#1f77b4", "#000000", "#2ca02c", "#9467bd", "#ff7f0e")
_WIDTH, _HEIGHT = 640, 480     # canvas, in px


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _bounds(spectra: Sequence[Spectrum]) -> tuple[float, float, float, float]:
    rates = np.concatenate([s.rates for s in spectra])
    xs, ys = rates.real.tolist(), rates.imag.tolist()
    if not xs:
        return -1.0, 1.0, -1.0, 1.0
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    dx = (x1 - x0) or max(abs(x0), 1.0)
    dy = (y1 - y0) or max(abs(y0), 1.0)
    return x0 - 0.06 * dx, x1 + 0.06 * dx, y0 - 0.06 * dy, y1 + 0.06 * dy


def render_scatter(spectra: Sequence[Spectrum],
                   report: Optional[SuperradianceReport] = None) -> str:
    """Render one or more spectra in the complex plane as SVG 1.1 text.

    Each spectrum gets a per-provenance glyph (circles for Cartesian-sum
    spectra, crosses for solver output).  When a superradiance report is
    supplied, the rates of the spectrum carrying index tuples are colored by
    their superradiance dimension k.
    """
    if len(spectra) == 0:
        raise ValueError("need at least one spectrum")
    left, right, top, bottom = 64.0, _WIDTH - 24.0, 28.0, _HEIGHT - 52.0
    x0, x1, y0, y1 = _bounds(spectra)

    # on floats, or elementwise on arrays
    def sx(x: float) -> float:
        return left + (x - x0) / (x1 - x0) * (right - left)

    def sy(y: float) -> float:
        return bottom - (y - y0) / (y1 - y0) * (bottom - top)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    out.append(
        f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(right - left)}" '
        f'height="{_fmt(bottom - top)}" fill="none" stroke="#444444" stroke-width="1"/>'
    )
    # ticks
    for i in range(5):
        fx = x0 + (x1 - x0) * i / 4
        px = sx(fx)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(bottom)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(bottom + 5)}" stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_fmt(bottom + 18)}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{_fmt(fx)}</text>'
        )
        fy = y0 + (y1 - y0) * i / 4
        py = sy(fy)
        out.append(
            f'<line x1="{_fmt(left - 5)}" y1="{_fmt(py)}" x2="{_fmt(left)}" '
            f'y2="{_fmt(py)}" stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(left - 8)}" y="{_fmt(py + 4)}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{_fmt(fy)}</text>'
        )
    out.append(
        f'<text x="{_fmt((left + right) / 2)}" y="{_fmt(_HEIGHT - 12.0)}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif">Re &#915;</text>'
    )
    out.append(
        f'<text x="14" y="{_fmt((top + bottom) / 2)}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 14 {_fmt((top + bottom) / 2)})">Im &#915;</text>'
    )

    k_colored = None
    if report is not None:
        for s in spectra:
            if s.has_tuples and len(report.k_labels) == len(s):
                k_colored = s
                break

    for si, s in enumerate(spectra):
        color = _SERIES_PALETTE[si % len(_SERIES_PALETTE)]
        # sx and sy of the whole spectrum at once (the same IEEE
        # operations); %.6g writes what _fmt writes
        px, py = sx(s.rates.real), sy(s.rates.imag)
        if s.method == "drop" or s.has_tuples:
            colors = [color] * len(s)
            if s is k_colored:
                palette = np.array(_K_PALETTE, dtype=object)
                colors = palette[np.asarray(report.k_labels) % len(_K_PALETTE)].tolist()
            circle = ('<circle cx="%.6g" cy="%.6g" r="4" fill="none" '
                      'stroke="%s" stroke-width="1.5"/>')
            out += map(circle.__mod__, zip(px.tolist(), py.tolist(), colors))
        else:
            cross = (f'<path d="M %.6g %.6g L %.6g %.6g M %.6g %.6g L %.6g %.6g" '
                     f'stroke="{color}" stroke-width="1.5" fill="none"/>')
            lo_x, lo_y = (px - 4).tolist(), (py - 4).tolist()
            hi_x, hi_y = (px + 4).tolist(), (py + 4).tolist()
            out += map(cross.__mod__, zip(lo_x, lo_y, hi_x, hi_y, lo_x, hi_y, hi_x, lo_y))
        out.append(
            f'<text x="{_fmt(right - 6)}" y="{_fmt(top + 16 + 14 * si)}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif" fill="{color}">{s.method}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
