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

The index columns are written by ``%s``: a ``drop_spectrum``'s as the
texts of 1..N_n gathered by the index unravelled from the sort order, so
no index tuple is built; any other spectrum's tuples are gathered as
ints.  ``config`` and
``report`` go through ``json.dumps(indent=2)``, indented one level, except
the violation rows of a ``bic`` report, which have a row template of their
own.  The tests compare both formats byte for byte with that reference
writer, on named cases and on arbitrary float64 values.

The parser registers only the command being invoked (all ten when none
is named), and names all ten in its usage, so ``--help``, usage and errors
are those of the full tree.

Each command is one handler in ``_COMMANDS`` returning its spectra and
report.  Exit codes: 0 success, 1 usage/config error, 2 validation failure
(a report with ``"passed": false``), 3 solver failure (a solver error, or
a ``LinAlgError`` from numpy or scipy).  The propagation
phase is always entered as a multiple of pi to avoid decimal transcription
drift.
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
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from . import analysis, eom
from .chain1d import _re_im_order, chain_rates
from .drop import (MatchReport, Spectrum, _check_rates, _index_columns, drop_spectrum,
                   match_spectra)
from .errors import ConfigError, DropQedError
from .lattice import NetworkSpec, sample_noise
from .render import render_scatter

_METHODS = ("drop", "eom-eig", "eom-cnm", "eom-det", "chain", "compare",
            "classify", "scaling", "noise", "bic")

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
        if self.epsilon_max is not None and self.epsilon_max < 0:
            raise ConfigError("epsilon_max must be >= 0")

    @property
    def theta(self) -> float:
        return self.theta_over_pi * math.pi

    def network(self) -> NetworkSpec:
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
        if self.epsilon_max:
            # drawing the field takes about 4.5 us per qubit and axis, so an
            # oversized network is refused first
            self._check_budget(spec)
            spec = spec.with_noise(
                sample_noise(spec, self.epsilon_max, self.noise_seed or 0)
            )
        return spec

    def _check_budget(self, spec: NetworkSpec) -> None:
        """The memory budget check of the command's route on ``spec``."""
        if self.method in ("drop", "classify"):
            _check_rates(spec)
        elif self.method == "bic":
            eom._check_svd(spec)
        else:     # the EoM commands hold H
            eom._check_h(spec)

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "dims": list(self.dims),
            "gammas": [_sig(g) for g in (self.gammas or ())],
            "theta_over_pi": _sig(self.theta_over_pi),
            "noise": None if self.epsilon_max is None else
                {"epsilon_max": _sig(self.epsilon_max), "seed": self.noise_seed or 0},
            "tolerances": {
                "match_tol": _sig(self.match_tol),
                "rank_tol": _sig(self.rank_tol),
                "solver_tol": _sig(self.solver_tol),
            },
            "output": {
                "format": self.out_format,
                "path": self.output,
                "svg_path": self.svg_path,
            },
        }


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
    column per axis of its index tuples (None without tuples; texts for a
    product enumeration, ints otherwise), and the columns that follow Re
    and Im in a row: the axes, then the k labels if any."""
    order = _re_im_order(s.rates)
    rates = s.rates[order]
    axes = _index_columns(s, order, texts=True) if s.has_tuples else None
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
    elif not axes:
        tuple_text = "[]"
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


def _violation_row(n_transverse: int) -> str:
    """Template of one ``bic`` violation over (rule, axis, *transverse,
    vector, value), at its depth in the JSON document (json.dumps, indent=2)."""
    transverse = "[" + ",".join(["\n          %d"] * n_transverse) + "\n        ]"
    return ('      {\n        "rule": %s,\n        "axis": %d,\n        "transverse": '
            + (transverse if n_transverse else "[]")
            + ',\n        "vector": %d,\n        "value": %s\n      }')


def _json_float(x: float) -> str:
    """A float as json.dumps writes it."""
    text = float.__repr__(x)
    return _JSON_NONFINITE.get(text, text)


_VIOLATION_FIELDS = itemgetter("rule", "axis", "transverse", "vector", "value")


def _report_json(report) -> str:
    """The report as json.dumps(indent=2) writes it one level deep.  A
    nonempty ``violations`` list (``bic``, hundreds of rows) is written from
    one row template per transverse length; its values are floats."""
    if not isinstance(report, dict) or not report.get("violations"):
        return _nested_json(report)
    violations = list(map(_VIOLATION_FIELDS, report["violations"]))
    rules = {rule: json.dumps(rule) for rule in {v[0] for v in violations}}
    templates = {n: _violation_row(n) for n in {len(v[2]) for v in violations}}
    rows = [templates[len(transverse)] % (rules[rule], axis, *transverse, vector, _json_float(value))
            for rule, axis, transverse, vector, value in violations]
    fields = [f"    {json.dumps(key)}: "
              + ("[\n" + ",\n".join(rows) + "\n    ]" if key == "violations"
                 else _nested_json(value, 2))
              for key, value in report.items()]
    return "{\n" + ",\n".join(fields) + "\n  }"


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
    parts += [',\n  "report": ', _report_json(report), "\n}\n"]
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
    if method == "det-interp":
        return eom.all_poles_det_interp(spec).poles
    raise ConfigError(f"unknown EoM method {method!r}")


def _chain(config: RunConfig) -> tuple[_Spectra, None]:
    if config.chain_n is None:
        raise ConfigError("chain needs --n")
    result = chain_rates(config.chain_n, config.theta)
    return [(Spectrum(rates=result.z, method="chain"), None)], None


def _drop(config: RunConfig) -> tuple[_Spectra, None]:
    return [(drop_spectrum(config.network()), None)], None


def _eom(config: RunConfig) -> tuple[_Spectra, None]:
    method = {"eom-eig": "eigen", "eom-cnm": "cnm", "eom-det": "det-interp"}[config.method]
    return [(_eom_spectrum(config.network(), method, config.solver_tol), None)], None


def _match(config: RunConfig, spec: NetworkSpec) -> tuple[Spectrum, Spectrum, MatchReport]:
    """Cartesian-sum and EoM spectra of ``spec`` and their optimal pairing."""
    a = drop_spectrum(spec)
    b = _eom_spectrum(spec, config.eom_method, config.solver_tol)
    return a, b, match_spectra(a, b, config.match_tol * spec.rate_sum)


def _compare(config: RunConfig) -> tuple[_Spectra, dict]:
    if not config.theta_sweep:
        a, b, match = _match(config, config.network())
        return [(a, None), (b, None)], {
            "max_abs_error": _sig(match.max_abs_error),
            "mean_abs_error": _sig(match.mean_abs_error),
            "tol": _sig(match.tol),
            "passed": match.passed,
        }
    fracs = _parse_sweep(config.theta_sweep)
    # the noise field does not depend on theta: one draw serves every point
    spec = config.network()
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
    spec = config.network()
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
    d = config.scaling_d if config.scaling_d is not None else (
        len(config.dims) if config.dims else None)
    if d is None:
        raise ConfigError("scaling needs --d")
    if (config.m_min is None) != (config.m_max is None):
        raise ConfigError("scaling needs both --m-min and --m-max, or neither")
    m_range = None
    if config.m_min is not None:
        m_range = range(config.m_min, config.m_max + 1, config.m_step)
    fit = analysis.subradiance_scaling(d, config.theta, m_range)
    return [], {
        "d": d,
        "sizes": list(fit.sizes),
        "min_rates": [_sig(v) for v in fit.min_rates],
        "slope": _sig(fit.slope),
        "intercept": _sig(fit.intercept),
    }


def _noise(config: RunConfig) -> tuple[_Spectra, dict]:
    spec = RunConfig(**{**config.__dict__, "epsilon_max": None}).network()
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
    bic = analysis.bic_condition_check(config.network(), m=config.bic_m,
                                       rank_tol=config.rank_tol)
    return [], {
        "m": bic.m,
        "nullity": bic.nullity,
        "expected_nullity": bic.expected_nullity,
        "max_violation": {k: _sig(v) for k, v in bic.max_violation.items()},
        "violations": [
            {"rule": v.rule, "axis": v.line.direction,
             "transverse": list(v.line.transverse), "vector": v.vector,
             "value": _sig(v.value)}
            for v in bic.violations
        ],
        "passed": bic.nullity == bic.expected_nullity,
    }


# every command returns (spectra, report[, report for the SVG legend])
_COMMANDS = {
    "chain": _chain, "drop": _drop, "eom-eig": _eom, "eom-cnm": _eom,
    "eom-det": _eom, "compare": _compare, "classify": _classify,
    "scaling": _scaling, "noise": _noise, "bic": _bic,
}


def run(config: RunConfig) -> int:
    """Execute one configured command; returns the process exit code."""
    spectra, report, *svg_report = _COMMANDS[config.method](config)
    if config.svg_path and not spectra:
        raise ConfigError("no spectra to render for --svg")
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


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad dims {text!r}: {exc}") from exc
    return dims


def _parse_gammas(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad gammas {text!r}: {exc}") from exc


def _parse_sweep(text: str) -> np.ndarray:
    try:
        start, stop, count = text.split(":")
        values = np.linspace(float(start), float(stop), int(count))
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


def _load_config_file(path: str) -> dict:
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
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"config {path!r}: unknown field {key!r}")
        out[key] = _config_value(path, key, value)
    return out


def _add_arguments(p: argparse.ArgumentParser, name: str) -> None:
    """The flags of command ``name``."""
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--dims", help="qubits per axis, e.g. 5,3,4")
    p.add_argument("--gammas", help="rate per axis, e.g. 1,4,2 (default all 1)")
    p.add_argument("--theta-over-pi", type=float, help="phase as a multiple of pi")
    p.add_argument("--epsilon-max", type=float, help="noise level for the rates")
    p.add_argument("--noise-seed", type=int, help="noise RNG seed")
    p.add_argument("--match-tol", type=float,
                   help="relative match tolerance (times sum_n N_n gamma_n)")
    p.add_argument("--rank-tol", type=float, help="null-space rank tolerance")
    p.add_argument("--solver-tol", type=float,
                   help="certificate bound of eom-cnm and noise (at most 1e-9)")
    p.add_argument("--format", choices=("json", "csv"), dest="out_format")
    p.add_argument("--output", help="write results here (atomic)")
    p.add_argument("--svg", dest="svg_path", help="also render an SVG scatter")
    if name == "chain":
        p.add_argument("--n", type=int, dest="chain_n", help="chain length")
    if name == "compare":
        p.add_argument("--eom-method", choices=("eigen", "cnm", "det-interp"),
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


def _build_parser(argv: Optional[Sequence[str]] = None) -> argparse.ArgumentParser:
    """The parser for ``argv`` (``sys.argv[1:]`` when None).

    When ``argv[0]`` names a command, only that command is registered:
    argparse hands all later arguments to it alone, and the metavar lists
    every command, so usage and errors are those of the full tree.  When
    ``argv[0]`` names no command, every command is registered with its
    flags.
    """
    if argv is None:
        argv = sys.argv[1:]
    invoked = argv[0] if argv and argv[0] in _METHODS else None
    parser = argparse.ArgumentParser(
        prog="dropqed",
        description="Collective decay rates of d-dimensional qubit networks.",
    )
    # None keeps argparse's own metavar, and with it the full tree's
    # "required: method" error
    metavar = None if invoked is None else "{" + ",".join(_METHODS) + "}"
    sub = parser.add_subparsers(dest="method", required=True, metavar=metavar)
    for name in _METHODS if invoked is None else (invoked,):
        _add_arguments(sub.add_parser(name), name)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_load_config_file(args.config))
    parsers = {"dims": _parse_dims, "gammas": _parse_gammas}
    for key in _CONFIG_TYPES:
        value = getattr(args, key, None)
        if key in parsers:
            value = parsers[key](value) if value else None
        if value is not None:
            values[key] = value
    try:
        return RunConfig(method=args.method, **values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        config = _config_from_args(args)
        return run(config)
    except ConfigError as exc:
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
