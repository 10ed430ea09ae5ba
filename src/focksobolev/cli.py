"""Command-line front end.

Subcommands: ``lattice`` (build and audit a separated lattice),
``carleson`` (classify a measure), ``compop`` (classify a symbol pair),
``verify-norms`` (closed-form norm checks), ``suite`` (run the curated
scenario suites and compare against expectations).

Structured inputs arrive as JSON, inline or ``@file``. Parsing is
strict: unknown keys are fatal, and the space parameters alpha, m, p, q
must all be spelled out (p and q accept the string "inf"). Reports are
emitted as sorted json-lines or csv with the run configuration echoed,
so identical invocations produce identical bytes.

Exit codes: 0 on success, 2 for configuration errors, 3 for input or
output failures, 4 when an integral diverges outside a verdict context.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from typing import Optional

import numpy as np

from . import __version__
from .carleson import classify_carleson
from .compop import (
    AffineMap,
    PolynomialMap,
    SymbolPair,
    classify_compop,
    log_berezin_compop,
    one,
)
from .funcspace import (
    EvaluationOverflow,
    Params,
    Polynomial,
    kernel,
    norm_with_error,
    polynomial,
)
from .geometry import make_lattice, verify_lattice
from .grid import to_complex
from .measures import AtomicMeasure, DensityMeasure
from .quadrature import DivergentIntegral
from .scenarios import (
    composition_suite,
    expected_measure_verdict,
    measure_suite,
)

__all__ = ["main", "ConfigError"]


class ConfigError(Exception):
    """Bad or incomplete configuration input."""


def _load_json_arg(text: str, label: str) -> dict:
    raw = text
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise _IOFailure(f"cannot read {label} file {text[1:]}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{label}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{label}: expected a JSON object")
    return data


class _IOFailure(Exception):
    pass


def _require_keys(data: dict, required: set, optional: set, label: str) -> None:
    keys = set(data)
    missing = required - keys
    if missing:
        raise ConfigError(f"{label}: missing required keys {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{label}: unknown keys {sorted(unknown)}")


def _exponent(value, label: str) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(f"{label}: exponent string must be 'inf', got {value!r}")
    return _real(value, label)


def _real(value, label: str) -> float:
    """A JSON number; bools, strings and every other type are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label}: expected a number, got {value!r}")
    return float(value)


def _integer(value, label: str) -> int:
    """A JSON integer or integral float; bools, strings and fractions are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ConfigError(f"{label}: expected an integer, got {value!r}")
    return int(value)


@contextmanager
def _reading(label: str):
    """Read an input: a TypeError or ValueError there is a ConfigError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{label}: {exc}") from exc


@_reading("params")
def parse_params(text: str) -> Params:
    data = _load_json_arg(text, "params")
    _require_keys(data, {"n", "alpha", "m", "p", "q"}, set(), "params")
    return Params(
        n=_integer(data["n"], "params.n"),
        alpha=_real(data["alpha"], "params.alpha"),
        m=_integer(data["m"], "params.m"),
        p=_exponent(data["p"], "params.p"),
        q=_exponent(data["q"], "params.q"),
    )


def _parse_points(raw, n: int, label: str) -> np.ndarray:
    """A list of points, each 2n reals (re/im per coordinate); [] has none."""
    if not (isinstance(raw, list)
            and all(isinstance(pt, list) and len(pt) == 2 * n for pt in raw)):
        raise ConfigError(f"{label}: each point needs {2 * n} reals (re/im per coordinate)")
    reals = [_real(x, label) for pt in raw for x in pt]
    return to_complex(np.array(reals).reshape(len(raw), 2 * n))


# the keys each measure kind requires, besides "kind"
_MEASURE_KEYS = {"atoms": {"locations"}, "lebesgue": set(), "gaussian": {"rate"},
                 "polygrowth": {"power"}, "ring": {"ring_radius", "ring_width"}}


@_reading("measure")
def parse_measure(text: str, n: int):
    data = _load_json_arg(text, "measure")
    if "kind" not in data:
        raise ConfigError("measure: missing 'kind'")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _MEASURE_KEYS:
        raise ConfigError(f"measure: unknown kind {kind!r}")
    optional = {"weights", "n"} if kind == "atoms" else {"n", "scale"}
    _require_keys(data, {"kind"} | _MEASURE_KEYS[kind], optional, "measure")
    mn = _integer(data.get("n", n), "measure.n")
    if kind == "atoms":
        loc = _parse_points(data["locations"], mn, "measure.locations")
        wts = [_real(w, "measure.weights") for w in data.get("weights", [1.0] * len(loc))]
        mu = AtomicMeasure(locations=loc, weights=wts, n=mn)
    else:
        mu = DensityMeasure(kind=kind, n=mn, **{
            key: _real(val, f"measure.{key}") for key, val in data.items()
            if key not in ("kind", "n")})
    if mu.n != n:
        raise ConfigError(f"measure dimension {mu.n} does not match params n={n}")
    return mu


def _parse_complex(value, label: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    return complex(*(_real(x, label) for x in parts))


def _parse_poly(data, n: int, label: str) -> Polynomial:
    if not isinstance(data, list):
        raise ConfigError(f"{label}: expected a list of coefficient entries")
    coeffs = {}
    for entry in data:
        if not isinstance(entry, dict):
            raise ConfigError(f"{label}: entries must be objects")
        _require_keys(entry, {"beta", "coeff"}, set(), label)
        beta = tuple(_integer(b, f"{label}.beta") for b in entry["beta"])
        coeffs[beta] = coeffs.get(beta, 0) + _parse_complex(entry["coeff"], label)
    try:
        return polynomial(coeffs, n)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


# the required and the optional keys of each weight kind, besides "kind"
_WEIGHT_KEYS = {"one": (set(), set()), "polynomial": ({"coeffs"}, set()),
                "kernel": ({"center"}, {"coeff", "normalized", "sobolev_scaled"})}


def _flag(data: dict, key: str, default: bool) -> bool:
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"symbol.u.{key}: expected true or false, got {value!r}")
    return value


def _parse_weight(data, n: int):
    if data is None:
        return one(n)
    if not isinstance(data, dict):
        raise ConfigError("symbol.u: expected a JSON object")
    if "kind" not in data:
        raise ConfigError("symbol.u: missing 'kind'")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _WEIGHT_KEYS:
        raise ConfigError(f"symbol.u: unknown kind {kind!r}")
    required, optional = _WEIGHT_KEYS[kind]
    _require_keys(data, {"kind"} | required, optional, "symbol.u")
    if kind == "one":
        return one(n)
    if kind == "polynomial":
        return _parse_poly(data["coeffs"], n, "symbol.u.coeffs")
    center = [_parse_complex(c, "symbol.u.center") for c in data["center"]]
    if len(center) != n:
        raise ConfigError(f"symbol.u.center needs {n} coordinates")
    return kernel(
        center,
        n=n,
        coeff=_parse_complex(data.get("coeff", 1.0), "symbol.u.coeff"),
        normalized=_flag(data, "normalized", True),
        sobolev_scaled=_flag(data, "sobolev_scaled", False),
    )


@_reading("symbol")
def parse_symbol(text: str, params: Params) -> SymbolPair:
    data = _load_json_arg(text, "symbol")
    n = params.n
    if "scenario" in data:
        _require_keys(data, {"scenario"}, set(), "symbol")
        wanted = data["scenario"]
        for scen in composition_suite(params):
            if scen.name == wanted:
                return scen.symbol
        names = [s.name for s in composition_suite(params)]
        raise ConfigError(f"symbol: unknown scenario {wanted!r}; pick from {names}")
    _require_keys(data, set(), {"matrix", "offset", "components", "u"}, "symbol")
    if ("matrix" in data) == ("components" in data):
        raise ConfigError("symbol: give exactly one of 'matrix' or 'components'")
    u = _parse_weight(data.get("u"), n)
    if "matrix" in data:
        rows = data["matrix"]
        if not (isinstance(rows, list) and len(rows) == n
                and all(isinstance(r, list) and len(r) == n for r in rows)):
            raise ConfigError(f"symbol.matrix must be {n}x{n}")
        mat = np.array(
            [[_parse_complex(v, "symbol.matrix") for v in row] for row in rows]
        )
        off = None
        if "offset" in data:
            vals = data["offset"]
            if not isinstance(vals, list) or len(vals) != n:
                raise ConfigError(f"symbol.offset needs {n} coordinates")
            off = np.array([_parse_complex(v, "symbol.offset") for v in vals])
        return SymbolPair(psi=AffineMap(mat, off), u=u)
    comps = data["components"]
    if "offset" in data:
        raise ConfigError("symbol: 'offset' only applies to matrix symbols")
    if not isinstance(comps, list) or len(comps) != n:
        raise ConfigError(f"symbol.components needs {n} entries")
    polys = tuple(_parse_poly(c, n, "symbol.components") for c in comps)
    return SymbolPair(psi=PolynomialMap(components=polys), u=u)


def _clean(obj):
    """JSON-safe deep copy: numpy scalars unboxed, non-finite floats named."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        # before int: bool is a subclass of int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    return obj


def _flatten(record: dict, prefix: str = "") -> dict:
    out = {}
    for key in sorted(record):
        val = record[key]
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            out.update(_flatten(val, name + "."))
        elif isinstance(val, list):
            out[name] = json.dumps(val, sort_keys=True, separators=(",", ":"))
        else:
            out[name] = val
    return out


def emit_report(records: list, config: dict, fmt: str, out: Optional[str]) -> None:
    """Serialise records deterministically and write them out."""
    config = _clean(config)
    records = [_clean(r) for r in records]
    buf = io.StringIO()
    if fmt == "json-lines":
        buf.write(json.dumps({"type": "config", **config}, sort_keys=True,
                             separators=(",", ":")) + "\n")
        for rec in records:
            buf.write(json.dumps({"type": "row", **rec}, sort_keys=True,
                                 separators=(",", ":")) + "\n")
    elif fmt == "csv":
        buf.write("# config: " + json.dumps(config, sort_keys=True,
                                            separators=(",", ":")) + "\n")
        flat = [_flatten(r) for r in records]
        header = sorted(set().union(*[set(f) for f in flat])) if flat else []
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for f in flat:
            writer.writerow([f.get(k, "") for k in header])
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    text = buf.getvalue()
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _IOFailure(f"cannot write {out}: {exc}") from exc


def _cmd_lattice(args) -> tuple:
    try:
        lat = make_lattice(args.domain_radius, args.r, args.n)
    except ValueError as exc:
        raise ConfigError(f"lattice: {exc}") from exc
    report = verify_lattice(lat, probe_count=args.probes, seed=args.seed)
    rec = {"n": lat.n, "r": lat.r, "domain_radius": lat.domain_radius,
           "construction": lat.construction, "centers": len(lat),
           **dataclasses.asdict(report)}
    config = {"n": args.n, "r": args.r, "domain_radius": args.domain_radius,
              "probes": args.probes, "seed": args.seed}
    return [rec], config


def _cmd_carleson(args) -> tuple:
    params = parse_params(args.params)
    mu = parse_measure(args.measure, params.n)
    verdict = classify_carleson(
        mu, params, t=args.t, r=args.ball_radius,
        probe_budget=args.probe_budget,
    )
    return [dataclasses.asdict(verdict)], {"params": dataclasses.asdict(params)}


def _cmd_compop(args) -> tuple:
    params = parse_params(args.params)
    sym = parse_symbol(args.symbol, params)
    verdict = classify_compop(sym, params, little_o_target=args.little_o)
    recs = [dataclasses.asdict(verdict)]
    for rho in args.radii or ():
        w = np.zeros(params.n, dtype=complex)
        w[0] = rho
        recs.append({"check": "transform-probe", "radius": rho,
                     "log_value": log_berezin_compop(sym, params, w)})
    config = {"params": dataclasses.asdict(params), "little_o": args.little_o,
              "radii": args.radii}
    return recs, config


def _norm_rows(params: Params, cells: Optional[int]) -> list:
    if cells is not None and cells < 2:
        raise ConfigError("--cells must be at least 2")
    if cells is not None and math.isinf(params.p):
        raise ConfigError("--cells caps the quadrature, which a sup norm (p = inf) "
                          "does not run")
    rows = []
    n, alpha = params.n, params.alpha

    def add(check: str, estimate: tuple, expected: float, tol: float) -> None:
        value, error_estimate, grid_cells = estimate
        err = abs(value - expected)
        rows.append({
            "check": check, "value": value,
            "expected": expected, "abs_error": err, "tol": tol,
            "passed": bool(err <= tol), "error_estimate": error_estimate,
            "cells": grid_cells,
        })

    unit = one(n)
    add("unit-norm", norm_with_error(unit, params, cells), _unit_norm_closed(params),
        1e-5)
    w0 = np.zeros(n, dtype=complex)
    w0[0] = 1.0
    flat = replace(params, m=0)
    add("kernel-unit-norm", norm_with_error(kernel(w0, n=n), flat, cells), 1.0, 1e-5)
    add(
        "kernel-growth-norm",
        norm_with_error(kernel(w0, n=n, normalized=False), flat, cells),
        math.exp(alpha * 0.5),
        1e-4,
    )
    if n == 1:
        add(
            "monomial-norm",
            norm_with_error(polynomial({(2,): 1.0}, 1), params, cells),
            _monomial_norm_closed(2, params),
            2e-4,
        )
    return rows


def _unit_norm_closed(params: Params) -> float:
    if not math.isinf(params.p):
        return 1.0
    m, alpha = params.m, params.alpha
    if m == 0:
        return 1.0
    return (m / alpha) ** (m / 2.0) * math.exp(-m / 2.0)


def _monomial_norm_closed(k: int, params: Params) -> float:
    m, alpha, p = params.m, params.alpha, params.p
    if math.isinf(p):
        d = m + k
        return (d / alpha) ** (d / 2.0) * math.exp(-d / 2.0)
    log_norm = (
        (k / 2.0) * math.log(2.0 / (alpha * p))
        + (math.lgamma((m + k) * p / 2.0 + 1.0) - math.lgamma(m * p / 2.0 + 1.0)) / p
    )
    return math.exp(log_norm)


def _cmd_verify_norms(args) -> tuple:
    params = parse_params(args.params)
    return _norm_rows(params, args.cells), {"params": dataclasses.asdict(params),
                                             "cells": args.cells}


def _cmd_suite(args) -> tuple:
    params = parse_params(args.params)
    rows = []
    for scen in composition_suite(params):
        row = {
            "kind": "compop", "name": scen.name,
            "expected_bounded": scen.expect_bounded,
            "expected_compact": scen.expect_compact,
        }
        try:
            verdict = classify_compop(scen.symbol, params)
        except EvaluationOverflow as exc:
            # an overflowing pullback weight is no verdict: the row says so,
            # claims no agreement, and the other scenarios still run
            row.update(bounded=None, compact=None, norm_estimate=None,
                       regime="pullback-overflow", note=str(exc), agreement=None)
        else:
            row.update(
                bounded=verdict.bounded, compact=verdict.compact,
                norm_estimate=verdict.norm_estimate, regime=verdict.regime,
                agreement=bool(
                    verdict.bounded == scen.expect_bounded
                    and verdict.compact == scen.expect_compact
                ),
            )
        rows.append(row)
    if not math.isinf(params.q):
        for mscen in measure_suite(params.n):
            verdict = classify_carleson(mscen.measure, params)
            expected = mscen.expect_carleson
            if expected is None:
                expected = expected_measure_verdict(mscen.measure, params)
            row = {
                "kind": "carleson", "name": mscen.name,
                "expected_carleson": expected,
                "is_carleson": verdict.is_carleson,
                "is_vanishing": verdict.is_vanishing,
                "regime": verdict.regime,
                "agreement": bool(verdict.is_carleson == expected),
            }
            if mscen.expect_vanishing is not None:
                row["expected_vanishing"] = mscen.expect_vanishing
                row["agreement"] = bool(
                    row["agreement"] and verdict.is_vanishing == mscen.expect_vanishing
                )
            rows.append(row)
    return rows, {"params": dataclasses.asdict(params)}


def _positive(convert, zero: bool = False):
    """argparse type: convert(text), finite and above zero, or at least zero
    when zero is set. Text that convert refuses is reported under convert's
    name, as type=convert would."""
    kind = "nonnegative" if zero else "positive"

    def parse(text: str):
        value = convert(text)
        above = value >= 0 if zero else value > 0
        if not (above and value < math.inf):
            raise argparse.ArgumentTypeError(f"expected a finite {kind} number, got {text!r}")
        return value

    parse.__name__ = convert.__name__
    return parse


def _radii(text: str) -> list:
    """argparse type: comma-separated finite nonnegative radii, sorted."""
    try:
        radii = sorted(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated floats, got {text!r}") from None
    if not all(0.0 <= r < math.inf for r in radii):
        raise argparse.ArgumentTypeError(f"expected finite nonnegative radii, got {text!r}")
    return radii


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="focksobolev",
        description="numerical embedding and composition-operator toolkit",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, params=True):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default="json-lines",
                       choices=["json-lines", "csv"])
        if params:
            p.add_argument("--params", required=True)

    p = sub.add_parser("lattice", help="build a lattice and audit separation/covering")
    common(p, params=False)
    p.add_argument("--n", type=int, required=True, choices=[1, 2])
    p.add_argument("--r", type=_positive(float), required=True)
    p.add_argument("--domain-radius", type=_positive(float), required=True)
    p.add_argument("--probes", type=_positive(int), default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("carleson", help="classify a measure for the (p,q) embedding")
    common(p)
    p.add_argument("--measure", required=True)
    p.add_argument("--t", type=_positive(float), default=None)
    p.add_argument("--ball-radius", type=_positive(float), default=1.0)
    p.add_argument("--probe-budget", type=_positive(int, zero=True), default=0)
    p.set_defaults(func=_cmd_carleson)

    p = sub.add_parser("compop", help="classify a weighted composition operator")
    common(p)
    p.add_argument("--symbol", required=True)
    p.add_argument("--little-o", action="store_true")
    p.add_argument("--radii", type=_radii, default=None,
                   help="comma-separated radii for extra transform probe rows")
    p.set_defaults(func=_cmd_compop)

    p = sub.add_parser("verify-norms", help="check norms against closed forms")
    common(p)
    p.add_argument("--cells", type=int, default=None)
    p.set_defaults(func=_cmd_verify_norms)

    p = sub.add_parser("suite", help="run the scenario suites against expectations")
    common(p)
    p.set_defaults(func=_cmd_suite)
    return ap


def main(argv: Optional[list] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        records, config = args.func(args)
        records = [{"command": args.command, **rec} for rec in records]
        config = {"command": args.command, **config, "version": __version__}
        emit_report(records, config, args.format, args.out)
    except (ConfigError, EvaluationOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivergentIntegral as exc:
        print(f"error: divergent integral: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
