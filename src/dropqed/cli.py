"""Command-line interface: config ingestion, dispatch, stable result emission.

Every command emits the same JSON schema::

    {"config": {...},
     "spectra": [{"method": ..., "rates": [{"re":, "im":, "tuple":, "k":}]}],
     "report": {...}}

or CSV with columns ``method,re,im,tuple,k``.  Rates are sorted by
(Re, Im) and printed with 12 significant digits, so repeated runs with the
same configuration (including the noise seed) are byte-identical.  The
sort is on the unrounded values, so rows whose printed Re is equal can
appear out of Im order: ``eom-eig --dims 3,3 --gammas 1,0.4
--theta-over-pi 0.5`` prints Im 1.852, -1.852, -0.794, 0.794 at Re 0.7,
whose unrounded Re differ in round-off.  Files
are written atomically (temp file + rename) with the mode a plain open()
gives; a path that cannot be written is a config error.

Rate rows are written from fixed row templates, one ``%`` over the
floats (Re, Im), the index tuple and the int k of each row, and the
document is one join of its pieces, because ``json.dumps(indent=2)``
falls back to the json module's pure-Python encoder and spent most of a
large ``drop`` job.  The bytes are exactly those of
``json.dumps(doc, indent=2)`` over one dict per rate, and of
``csv.writer`` (``\\r\\n`` line ends), with each value rounded to 12
significant digits as ``_sig`` rounds it.  Re and Im are formatted by
``%.12g`` inside the row template:

* that text is the CSV field, and no CSV field needs quoting (method names
  hold no comma or quote);
* it is the JSON number too, unless a vectorized, conservative mask
  (``_text_path``: not finite, zero, |x| < 1e-99 or >= 1e11, or within
  1e-11 |x| of an integer) takes that value.  Re and Im are masked each on
  its own, and each of the (up to four) kinds of row has its template,
  with ``%s`` for a masked part.  A masked zero is written ``0.0`` or
  ``-0.0``; any other masked value goes through its ``%.12g`` text and
  ``_json_numbers`` (integral texts such as ``3`` gain ``.0``, exponent
  forms that may be subnormal and ``nan``/``inf`` become
  ``float.__repr__(float(t))``, or ``NaN``, ``Infinity`` and
  ``-Infinity``).

The index columns are written by ``%s``, as the texts of 1..N_n
gathered by the index unravelled from the sort order, so no index tuple
is built.  ``config`` and ``report`` go through ``json.dumps(indent=2)``,
indented one level; a ``bic`` report holds at most four violation rows
per line.  The tests compare both formats byte for byte with that
reference writer, on named cases and on arbitrary float64 values.

Each command is one handler in ``_COMMANDS`` returning its spectra and
report; on a network it passes ``RunConfig.network`` its route's budget
check, run before noise is drawn.  A command takes only the flags (and
config-file fields) it reads, listed once in ``_FIELDS``; its ``config``
block records each of them, so the block is a config file that repeats the
run.  Exit codes: 0 success, 1 usage/config error (a phase outside an
analysis window too), 2 validation failure (a report with ``"passed":
false``), 3 solver failure (a solver error, or a ``LinAlgError`` from numpy
or scipy).  The propagation phase is always entered as a multiple of pi to
avoid decimal transcription drift.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import typing
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import analysis, eom
from .chain1d import _re_im_order, chain_rates
from .drop import (MatchReport, Spectrum, _check_rates, _index_columns, drop_spectrum,
                   match_spectra)
from .errors import ConfigError, DropQedError, ThetaOutOfRange, _check_budget, _decimal
from .lattice import NetworkSpec, sample_noise
from .render import render_scatter

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


@dataclass
class RunConfig:
    """One command's full configuration (mirrors the CLI surface)."""

    method: str
    dims: tuple[int, ...] = ()
    gammas: tuple[float, ...] = ()
    theta_over_pi: float = 0.5
    epsilon_max: Optional[float] = None
    noise_seed: Optional[int] = None
    match_tol: float = 1e-8          # relative to sum_n N_n gamma_n
    rank_tol: float = 1e-8
    solver_tol: float = 1e-10
    out_format: str = "json"
    output: Optional[str] = None
    svg_path: Optional[str] = None
    # per-command extras
    chain_n: Optional[int] = None
    eom_method: str = "eigen"
    theta_sweep: Optional[str] = None     # "start:stop:count" in units of pi
    scaling_d: Optional[int] = None
    m_min: Optional[int] = None
    m_max: Optional[int] = None
    m_step: int = 1
    bic_m: int = 1

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if not math.isfinite(self.theta_over_pi):
            raise ConfigError("theta_over_pi must be finite")
        if self.out_format not in ("json", "csv"):
            raise ConfigError(f"unknown output format {self.out_format!r}")
        if self.epsilon_max is not None and not (math.isfinite(self.epsilon_max)
                                                 and self.epsilon_max >= 0):
            raise ConfigError("epsilon_max must be finite and >= 0")
        if self.noise_seed is not None and self.noise_seed < 0:
            raise ConfigError(f"noise_seed must be >= 0, got {self.noise_seed}")
        if self.m_step == 0:
            raise ConfigError("m_step must not be 0")
        if self.eom_method not in _EOM_METHODS:
            raise ConfigError(f"unknown eom_method {self.eom_method!r}")
        if self.svg_path and self.theta_sweep:
            raise ConfigError("no spectra to render for --svg: a theta sweep emits none")
        if self.out_format == "csv" and self.theta_sweep:
            raise ConfigError("no rates to write for --format csv: a theta sweep emits none")
        if self.output and self.svg_path and (
                os.path.realpath(self.output) == os.path.realpath(self.svg_path)):
            raise ConfigError("output and svg_path name the same file")
        for name in ("match_tol", "rank_tol", "solver_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {value!r}")

    @property
    def theta(self) -> float:
        return self.theta_over_pi * math.pi

    def network(self, check: Callable[[NetworkSpec], None]) -> NetworkSpec:
        """The network, its noise drawn once ``check`` (the route's budget) admits it."""
        if not self.dims:
            raise ConfigError("this command needs --dims")
        gammas = self.gammas or (1.0,) * len(self.dims)
        if len(gammas) != len(self.dims):
            raise ConfigError(
                f"got {len(gammas)} rates for {len(self.dims)} axes"
            )
        try:
            spec = NetworkSpec(dims=self.dims, gammas=gammas, theta=self.theta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.epsilon_max is None and self.noise_seed is not None:
            raise ConfigError("noise_seed needs epsilon_max: no noise is drawn without it")
        if self.epsilon_max:
            # drawing the field takes about 4.5 us per qubit and axis, so an
            # oversized network is refused first
            check(spec)
            spec = spec.with_noise(
                sample_noise(spec, self.epsilon_max, self.noise_seed or 0)
            )
        return spec

    def as_dict(self) -> dict:
        """``method`` and every setting the command takes, under its config-file
        name: a config file that repeats the run."""
        return {"method": self.method,
                **{key: _recorded(getattr(self, key)) for key in _FIELDS[self.method]}}


def _recorded(value):
    """A setting as its config file holds it: floats to 12 significant digits."""
    return ([_recorded(v) for v in value] if isinstance(value, tuple)
            else _sig(value) if isinstance(value, float) else value)


def _sig(x: float) -> float:
    """Round to 12 significant digits (the emission precision)."""
    if x is None or not math.isfinite(x):
        return x
    return float(f"{x:.12g}")


# (spectrum, superradiance dimension per rate or None) pairs to emit
_Spectra = list[tuple[Spectrum, Optional[Sequence[int]]]]


def _columns(s: Spectrum, k_labels: Optional[Sequence[int]]) -> tuple[
        np.ndarray, np.ndarray, Optional[list[np.ndarray]], list[np.ndarray]]:
    """Re and Im of the rates of a nonempty spectrum in (Re, Im) order, one
    column per axis of its index tuples (None without tuples): the texts
    of 1..N_n gathered by the unravelled index, so no int is built or
    formatted per rate; and the columns that follow Re and Im in a row:
    the axes, then the k labels if any."""
    order = _re_im_order(s.rates)
    rates = s.rates[order]
    axes = None
    if s.has_tuples:
        axes = [np.array([str(i) for i in range(1, n + 1)], dtype=object)[axis]
                for n, axis in zip(s._shape, _index_columns(s, order))]
    ks = [] if k_labels is None else [np.asarray(k_labels, dtype=int)[order]]
    return rates.real, rates.imag, axes, [*(axes or ()), *ks]


# json.dumps writes these rounded rates otherwise than float.__repr__
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_numbers(texts: list[str]) -> list[str]:
    """The JSON number of each ``%.12g`` text, as json.dumps writes the
    rounded value.  A text with a point and no exponent, or with a
    two-digit negative exponent, is already ``float.__repr__`` of that
    value: repr also writes exponents below -4, and no shorter text rounds
    to the same normal double.  A text with neither point nor exponent is
    an integer of at most 12 digits (``-0`` too), which repr writes with
    ``.0``.  Any other (positive or three-digit exponents, which can be
    subnormal, and ``nan``/``inf``) goes through float()."""
    return [t if "." in t and "e" not in t or t[-4:-2] == "e-"
            else t + ".0" if "e" not in t and "n" not in t
            else _JSON_NONFINITE.get(t) or float(t).__repr__()
            for t in texts]


def _text_path(x: np.ndarray) -> np.ndarray:
    """Where the ``%.12g`` text of ``x`` might not be its JSON number.

    Off this mask x is finite with 1e-99 <= |x| < 1e11, so its text is in
    fixed notation or has a two-digit negative exponent, and x is farther
    than 1e-11 |x| from an integer.  Rounding to 12 significant digits
    moves x by at most 5e-12 |x|, so the text is not integral and holds a
    point when fixed: :func:`_json_numbers` keeps every such text.
    """
    size = np.abs(x)
    with np.errstate(invalid="ignore"):   # inf - inf
        integral = np.abs(x - np.rint(x)) <= 1e-11 * size
    return ~((size >= 1e-99) & (size < 1e11)) | integral


# the JSON numbers of exact zeros, indexed by sign bit
_JSON_ZEROS = np.array(["0.0", "-0.0"], dtype=object)


def _json_texts(x: np.ndarray) -> list[str]:
    """The JSON number of each value of ``x``: ``0.0`` or ``-0.0`` for an
    exact zero, which needs no formatting, and :func:`_json_numbers` of
    the ``%.12g`` text of any other value."""
    zero = x == 0
    if not zero.any():
        return _json_numbers(list(map("%.12g".__mod__, x.tolist())))
    texts = _JSON_ZEROS[np.signbit(x).astype(np.intp)]
    texts[~zero] = _json_numbers(list(map("%.12g".__mod__, x[~zero].tolist())))
    return texts.tolist()


def _rows(template: str, re: list, im: list, columns: list[np.ndarray]) -> list[str]:
    """One ``%`` of ``template`` per row over (re, im, *columns)."""
    return list(map(template.__mod__, zip(re, im, *(c.tolist() for c in columns))))


def _json_row(re: str, im: str, axes: Optional[list], has_k: bool) -> str:
    """Template of one rate row and its separator over (re, im, *tuple, k),
    with Re and Im in the formats ``re`` and ``im``, at the row's depth in
    the JSON document (json.dumps, indent=2)."""
    if axes is None:
        tuple_text = "null"
    else:
        tuple_text = "[" + ",".join(["\n            %s"] * len(axes)) + "\n          ]"
    return (f'        {{\n          "re": {re},\n          "im": {im},\n'
            f'          "tuple": {tuple_text},\n          "k": {"%d" if has_k else "null"}\n'
            '        },\n')


def _json_spectrum(s: Spectrum, k_labels: Optional[Sequence[int]]) -> list[str]:
    head = f'    {{\n      "method": {json.dumps(s.method)},\n      "rates": '
    if not len(s):
        return [head, "[]\n    }"]
    re, im, axes, columns = _columns(s, k_labels)
    # Re and Im take the text path each on its own: bit 0 of a row's kind
    # is its Re's, bit 1 its Im's, and each kind has a row template
    kind = _text_path(re) + 2 * _text_path(im)

    def kind_rows(k: int, at) -> list[str]:
        text = (k & 1, k & 2)
        template = _json_row(*["%s" if t else "%.12g" for t in text], axes, k_labels is not None)
        return _rows(template, *[_json_texts(part[at]) if t else part[at].tolist()
                                 for t, part in zip(text, (re, im))], [c[at] for c in columns])

    kinds = np.flatnonzero(np.bincount(kind)).tolist()
    if len(kinds) == 1:
        rows = kind_rows(kinds[0], slice(None))
    else:
        rows = np.empty(len(re), dtype=object)
        for k in kinds:
            rows[kind == k] = kind_rows(k, kind == k)
        rows = rows.tolist()
    rows[-1] = rows[-1][:-2]   # the last row takes no separator
    return [head, "[\n", *rows, "\n      ]\n    }"]


def _csv_spectrum(s: Spectrum, k_labels: Optional[Sequence[int]]) -> list[str]:
    # a %.12g text is already the CSV field; no field needs quoting
    if not len(s):
        return []
    re, im, axes, columns = _columns(s, k_labels)
    template = (s.method.replace("%", "%%") + ",%.12g,%.12g," + " ".join(["%s"] * len(axes or ()))
                + ("," if k_labels is None else ",%d") + "\r\n")
    return _rows(template, re.tolist(), im.tolist(), columns)


def _nested_json(value, depth: int = 1) -> str:
    """``value`` as json.dumps(indent=2) writes it ``depth`` levels deep."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _emit(config: RunConfig, spectra: _Spectra, report: Optional[dict]) -> str:
    if config.out_format == "csv":
        parts = ["method,re,im,tuple,k\r\n"]
        for s, k in spectra:
            parts += _csv_spectrum(s, k)
        return "".join(parts)
    parts = ['{\n  "config": ', _nested_json(config.as_dict()), ',\n  "spectra": ']
    if spectra:
        parts.append("[\n")
        for i, (s, k) in enumerate(spectra):
            if i:
                parts.append(",\n")
            parts += _json_spectrum(s, k)
        parts.append("\n  ]")
    else:
        parts.append("[]")
    parts += [',\n  "report": ', _nested_json(report), "\n}\n"]
    return "".join(parts)


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and a rename, with the
    mode a plain open() would give; an OSError becomes a ConfigError."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _eom_spectrum(spec: NetworkSpec, method: str, solver_tol: float) -> Spectrum:
    if method == "eigen":
        return eom.all_poles_eig(spec).poles
    if method == "cnm":
        return eom.all_poles_cnm(spec, tol=solver_tol).poles
    return eom.all_poles_det_interp(spec).poles


def _chain(config: RunConfig) -> tuple[_Spectra, None]:
    if config.chain_n is None:
        raise ConfigError("chain needs --n")
    result = chain_rates(config.chain_n, config.theta)
    return [(Spectrum(rates=result.z, method="chain"), None)], None


def _drop(config: RunConfig) -> tuple[_Spectra, None]:
    return [(drop_spectrum(config.network(_check_rates)), None)], None


def _eom(config: RunConfig) -> tuple[_Spectra, None]:
    method = {"eom-eig": "eigen", "eom-cnm": "cnm", "eom-det": "det-interp"}[config.method]
    return [(_eom_spectrum(config.network(eom._check_h), method, config.solver_tol), None)], None


def _match(config: RunConfig, spec: NetworkSpec) -> tuple[Spectrum, Spectrum, MatchReport]:
    """Cartesian-sum and EoM spectra of ``spec`` and their optimal pairing."""
    a = drop_spectrum(spec)
    b = _eom_spectrum(spec, config.eom_method, config.solver_tol)
    return a, b, match_spectra(a, b, config.match_tol * spec.rate_sum)


def _compare(config: RunConfig) -> tuple[_Spectra, dict]:
    if not config.theta_sweep:
        a, b, match = _match(config, config.network(eom._check_h))
        return [(a, None), (b, None)], {
            "max_abs_error": _sig(match.max_abs_error),
            "mean_abs_error": _sig(match.mean_abs_error),
            "tol": _sig(match.tol),
            "passed": match.passed,
        }
    fracs = _parse_sweep(config.theta_sweep)
    # the noise field does not depend on theta: one draw serves every point
    spec = config.network(eom._check_h)
    rows = []
    for frac in fracs:
        match = _match(config, replace(spec, theta=float(frac) * math.pi))[2]
        rows.append({
            "theta_over_pi": _sig(float(frac)),
            "max_abs_error": _sig(match.max_abs_error),
            "passed": match.passed,
        })
    return [], {
        "sweep": rows,
        "worst_max_abs_error": _sig(max(r["max_abs_error"] for r in rows)),
        "passed": all(r["passed"] for r in rows),
    }


def _classify(config: RunConfig) -> tuple[_Spectra, dict, analysis.SuperradianceReport]:
    spec = config.network(_check_rates)
    analysis._check_resonance_window(spec.theta)   # before the sum is built
    a = drop_spectrum(spec)
    cls = analysis.classify_superradiance(spec, a)
    expected = analysis.expected_cluster_counts(spec.dims)
    return [(a, cls.k_labels)], {
        "cluster_counts": {str(k): v for k, v in sorted(cls.cluster_counts.items())},
        "expected_counts": {str(k): v for k, v in sorted(expected.items())},
        "cluster_centers": {
            "+".join(str(a_) for a_ in axes) or "none":
                {"re": _sig(c.real), "im": _sig(c.imag)}
            for axes, c in cls.cluster_centers.items()
        },
        "passed": cls.cluster_counts == expected,
    }, cls


def _scaling(config: RunConfig) -> tuple[_Spectra, dict]:
    if config.scaling_d is None:
        raise ConfigError("scaling needs --d")
    defaults = sorted(analysis._DEFAULT_SWEEPS)   # the d with a default sweep
    if (config.m_min is None) != (config.m_max is None) or (
            config.m_min is None and config.scaling_d not in defaults):
        raise ConfigError("scaling needs both --m-min and --m-max, or neither at --d in "
                          f"{defaults}")
    m_range = None
    if config.m_min is not None:
        m_range = range(config.m_min, config.m_max + 1, config.m_step)
    fit = analysis.subradiance_scaling(config.scaling_d, config.theta, m_range)
    return [], {
        "d": config.scaling_d,
        "sizes": list(fit.sizes),
        "min_rates": [_sig(v) for v in fit.min_rates],
        "slope": _sig(fit.slope),
        "intercept": _sig(fit.intercept),
    }


def _noise(config: RunConfig) -> tuple[_Spectra, dict]:
    spec = replace(config, epsilon_max=None, noise_seed=None).network(eom._check_h)
    study = analysis.noise_study(spec, config.epsilon_max or 0.0,
                                 config.noise_seed or 0, tol=config.solver_tol)
    return [(study.drop_estimates, None), (study.refined_poles, None)], {
        "epsilon_max": _sig(study.epsilon_max),
        "seed": study.seed,
        "recovered_count": study.recovered_count,
        "expected_count": spec.n_qubits,
        "max_displacement": _sig(study.max_displacement),
        "median_displacement": _sig(study.median_displacement),
        "unconverged_seeds": list(study.unconverged),
        "passed": study.recovered_count == spec.n_qubits,
    }


def _bic(config: RunConfig) -> tuple[_Spectra, dict]:
    bic = analysis.bic_condition_check(config.network(eom._check_svd), m=config.bic_m,
                                       rank_tol=config.rank_tol)
    return [], {
        "m": bic.m,
        "nullity": bic.nullity,
        "expected_nullity": bic.expected_nullity,
        "max_violation": {k: _sig(v) for k, v in bic.max_violation.items()},
        "violations": [
            {"rule": v.rule, "axis": v.line.direction,
             "transverse": list(v.line.transverse), "value": _sig(v.value)}
            for v in bic.violations
        ],
        "passed": bic.nullity == bic.expected_nullity,
    }


# every command returns (spectra, report[, report for the SVG legend]); usage
# lists them in this order
_COMMANDS = {
    "drop": _drop, "eom-eig": _eom, "eom-cnm": _eom, "eom-det": _eom,
    "chain": _chain, "compare": _compare, "classify": _classify,
    "scaling": _scaling, "noise": _noise, "bic": _bic,
}
_METHODS = tuple(_COMMANDS)
_EOM_METHODS = ("eigen", "cnm", "det-interp")


def run(config: RunConfig) -> int:
    """Execute one configured command; returns the process exit code."""
    spectra, report, *svg_report = _COMMANDS[config.method](config)
    text = _emit(config, spectra, report)
    if config.output:
        _write_atomic(config.output, text)
    else:
        sys.stdout.write(text)
    if config.svg_path:
        svg = render_scatter([s for s, _ in spectra],
                             report=svg_report[0] if svg_report else None)
        _write_atomic(config.svg_path, svg)
    return EXIT_VALIDATION if report and report.get("passed") is False else EXIT_OK


def _parse_list(key: str, text: str) -> tuple:
    """The comma-separated flag of the tuple field ``key`` (dims, gammas)."""
    try:
        return tuple(map(typing.get_args(_CONFIG_TYPES[key])[0], text.split(",")))
    except ValueError as exc:
        raise ConfigError(f"bad {key} {text!r}: {exc}") from exc


# bytes one theta sweep point holds: its report row as a dict, json pieces and
# text (peak RSS of `compare --dims 1`, Python 3.11: 1004 B a point, 2k to 42k)
_SWEEP_POINT_BYTES = 1024


def _parse_sweep(text: str) -> np.ndarray:
    try:
        start, stop, count = text.split(":")
        count = int(count)
        _check_budget(count * _SWEEP_POINT_BYTES, f"the theta sweep's {_decimal(count)} points")
        values = np.linspace(float(start), float(stop), count)
    except ValueError as exc:
        raise ConfigError(f"bad theta sweep {text!r} (want start:stop:count): {exc}") from exc
    if len(values) < 1:
        raise ConfigError("theta sweep needs at least one point")
    return values


_CONFIG_TYPES = {k: v for k, v in typing.get_type_hints(RunConfig).items() if k != "method"}


def _is_a(kind: type, value) -> bool:
    # a JSON integer is a valid float, a JSON boolean is no number at all
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _config_value(path: str, key: str, value):
    """``value`` checked and converted to the type of RunConfig's ``key``."""
    hint = _CONFIG_TYPES[key]
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if isinstance(value, list) and all(_is_a(args[0], v) for v in value):
            return tuple(args[0](v) for v in value)
        wanted = f"a list of {args[0].__name__}"
    else:
        if value is None and type(None) in args:
            return None
        kind = args[0] if args else hint
        if _is_a(kind, value):
            return kind(value)
        wanted = f"of type {kind.__name__}"
    raise ConfigError(f"config {path!r}: {key} must be {wanted}, got {value!r}")


def _load_config_file(path: str, fields: Sequence[str]) -> dict:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r}: top level must be an object")
    out = {}
    for key, value in raw.items():
        if key == "method":
            continue
        if key not in fields:
            raise ConfigError(f"config {path!r}: unknown field {key!r}")
        out[key] = _config_value(path, key, value)
    return out


def _add_arguments(p: argparse.ArgumentParser, name: str) -> None:
    """The flags command ``name`` reads, and only those."""
    network = name not in ("chain", "scaling")
    p.add_argument("--config", help="JSON config file; flags override it")
    if network:
        p.add_argument("--dims", help="qubits per axis, e.g. 5,3,4")
        p.add_argument("--gammas", help="rate per axis, e.g. 1,4,2 (default all 1)")
    p.add_argument("--theta-over-pi", type=float, help="phase as a multiple of pi")
    if network:
        p.add_argument("--epsilon-max", type=float, help="noise level for the rates")
        p.add_argument("--noise-seed", type=int, help="noise RNG seed")
    if name == "compare":
        p.add_argument("--match-tol", type=float,
                       help="relative match tolerance (times sum_n N_n gamma_n)")
    if name == "bic":
        p.add_argument("--rank-tol", type=float, help="null-space rank tolerance")
    if name in ("eom-cnm", "noise"):
        p.add_argument("--solver-tol", type=float,
                       help="certificate bound of eom-cnm and noise (at most 1e-9)")
    spectra = name not in ("bic", "scaling")   # the rates of CSV rows and SVG glyphs
    if spectra:
        p.add_argument("--format", choices=("json", "csv"), dest="out_format")
    p.add_argument("--output", help="write results here (atomic)")
    if spectra:
        p.add_argument("--svg", dest="svg_path", help="also render an SVG scatter")
    if name == "chain":
        p.add_argument("--n", type=int, dest="chain_n", help="chain length")
    if name == "compare":
        p.add_argument("--eom-method", choices=_EOM_METHODS,
                       help="EoM route to compare against (default eigen)")
        p.add_argument("--theta-sweep", metavar="START:STOP:COUNT",
                       help="validate over a sweep of theta/pi values")
    if name == "scaling":
        p.add_argument("--d", type=int, dest="scaling_d", help="lattice dimension")
        p.add_argument("--m-min", type=int)
        p.add_argument("--m-max", type=int)
        p.add_argument("--m-step", type=int)
    if name == "bic":
        p.add_argument("--m", type=int, dest="bic_m", help="resonance order")


class _Parser(argparse.ArgumentParser):
    """argparse, but a usage error is one stderr line, without the usage block."""

    def error(self, message: str) -> typing.NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


# each command's settings, read and recorded alike: the RunConfig fields
# its flags set, in field order (filled in by _build_parser)
_FIELDS: dict[str, tuple[str, ...]] = {}


def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command and its flags; fills in ``_FIELDS``."""
    parser = _Parser(
        prog="dropqed",
        description="Collective decay rates of d-dimensional qubit networks.",
    )
    sub = parser.add_subparsers(dest="method", required=True)
    for name in _METHODS:
        p = sub.add_parser(name)
        _add_arguments(p, name)
        _FIELDS[name] = tuple(key for key in _CONFIG_TYPES if key in {a.dest for a in p._actions})
    return parser


# built once per process: parse_args keeps no state between calls
_PARSER = _build_parser()


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = _FIELDS[args.method]
    values = _load_config_file(args.config, fields) if args.config else {}
    for key in fields:
        value = getattr(args, key)
        if key in ("dims", "gammas"):
            value = _parse_list(key, value) if value else None
        if value is not None:
            values[key] = value
    return RunConfig(method=args.method, **values)   # every value type-checked


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        config = _config_from_args(args)
        return run(config)
    except (ConfigError, ThetaOutOfRange) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DropQedError, np.linalg.LinAlgError) as exc:
        # LinAlgError (a failed numpy/scipy factorization) is a ValueError
        print(f"error: solver: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
