"""The benchmark's workloads: inputs, operations and their checks.

A workload is built in ``build`` (the set-up that ``setup_s`` times) and
returns a list of operations. Each operation is one public call that the
``focksobolev`` CLI would make, plus a check of its output against
``oracles``. The suites take their inputs from the scenario catalog at a
fixed parameter set; the norms workload draws kernel centres and
polynomial coefficients from the seed, while its degrees, exponents and
grid sizes are fixed so that its cost does not depend on the seed.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

import focksobolev as fs

import oracles

SUITES = {
    # criterion 9's configuration of `focksobolev suite`
    "suite-n1": dict(n=1, alpha=1.0, m=0, p=2.0, q=2.0),
    # below the diagonal: operator verdicts go through the pullback measure
    "suite-below": dict(n=1, alpha=1.0, m=1, p=4.0, q=2.0),
    # the only workload on the D4 lattice and the n=2 transform grids
    "suite-n2": dict(n=2, alpha=1.0, m=0, p=2.0, q=2.0),
}
# Kernel centres are drawn uniformly from the ball of this radius, where
# acceptance criterion 2 checks kernel norms.
CENTRE_RADIUS = 2.0


class Op(NamedTuple):
    """One timed call and the check of its result (None when correct)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    digest: Callable[[object], str]


def build(workload: str, seed: int) -> list:
    if workload in SUITES:
        return _suite_ops(fs.Params(**SUITES[workload]))
    if workload == "norms":
        return _norm_ops(np.random.default_rng(seed))
    raise ValueError(f"unknown workload {workload!r}")


# --- suites ---------------------------------------------------------------

def _suite_ops(P) -> list:
    """The calls `focksobolev suite` makes, in its order."""
    ops = []
    for sc in fs.composition_suite(P):
        ops.append(Op(f"compop:{sc.name}", partial(fs.classify_compop, sc.symbol, P),
                      partial(_check_compop, sc.symbol, P), _compop_digest))
    for ms in fs.measure_suite(P.n):
        ops.append(Op(f"carleson:{ms.name}", partial(_carleson_row, ms, P),
                      partial(_check_carleson, ms.measure, P), _carleson_digest))
    return ops


def _carleson_row(ms, P):
    verdict = fs.classify_carleson(ms.measure, P)
    if ms.expect_carleson is None:
        fs.expected_measure_verdict(ms.measure, P)
    return verdict


def _weight_centre(u) -> Optional[np.ndarray]:
    """Centre c when u = k_c (u = 1 gives c = 0); None for other weights."""
    if isinstance(u, fs.Polynomial):
        if u.coeffs == (((0,) * u.n, 1.0),):
            return np.zeros(u.n)
        return None
    if len(u.terms) == 1:
        t = u.terms[0]
        if t.normalized and not t.sobolev_scaled and t.coeff == 1.0:
            return np.asarray(t.center, dtype=complex)
    return None


def _check_compop(sym, P, v) -> Optional[str]:
    u_zero = isinstance(sym.u, fs.Polynomial) and sym.u.is_zero()
    below = P.p > P.q
    if sym.is_affine:
        bounded, compact = oracles.affine_verdict(sym.psi.matrix, sym.psi.offset,
                                                  u_zero, below)
    else:
        bounded, compact = oracles.nonaffine_verdict(u_zero)
    if (v.bounded, v.compact) != (bounded, compact):
        return (f"bounded/compact {v.bounded}/{v.compact}, "
                f"expected {bounded}/{compact}")
    est = v.norm_estimate
    if not bounded:
        return None if est == math.inf else f"norm estimate {est!r}, expected inf"
    if u_zero:
        return None if est == 0.0 else f"norm estimate {est!r}, expected 0"
    if not math.isfinite(est):
        return f"norm estimate {est!r} for a bounded operator"
    centre = _weight_centre(sym.u)
    if not (sym.is_affine and P.p == P.q == 2.0 and P.m == 0 and centre is not None):
        return None
    exact = oracles.affine_norm_p2(sym.psi.matrix, sym.psi.offset, centre, P.alpha)
    if exact is None:
        return None
    if est > exact * (1.0 + oracles.TRANSFORM_REL_TOL):
        return f"norm estimate {est!r} exceeds the closed form {exact!r}"
    if est < exact * (1.0 - oracles.ESTIMATE_BAND):
        return f"norm estimate {est!r} below the closed form {exact!r} by over 2%"
    return None


def _check_carleson(mu, P, v) -> Optional[str]:
    kind = "atoms" if isinstance(mu, fs.AtomicMeasure) else mu.kind
    power = mu.power if kind == "polygrowth" else 0.0
    bounded, vanishing = oracles.measure_verdict(kind, power, P.n, P.m, P.p, P.q)
    if (v.is_carleson, v.is_vanishing) != (bounded, vanishing):
        return (f"carleson/vanishing {v.is_carleson}/{v.is_vanishing}, "
                f"expected {bounded}/{vanishing}")
    return None


def _compop_digest(v) -> str:
    return repr((v.bounded, v.compact, v.norm_estimate, sorted(v.criterion_values.items())))


def _carleson_digest(v) -> str:
    return repr((v.is_carleson, v.is_vanishing, sorted(v.criterion_values.items())))


# --- norms ----------------------------------------------------------------

def _norm_ops(rng: np.random.Generator) -> list:
    """57 norms with closed forms: 48 at n=1 (about 0.04 s each) and 9 at
    n=2 (0.3 to 2.5 s each). The random draws come in a fixed order."""
    ops = {1: [], 2: []}

    def add(label, f, n, m, p, expected, tol, relative=False):
        P = fs.Params(n=n, alpha=1.0, m=m, p=p, q=p)
        name = f"norm:{label} n={n} m={m} p={p:g}"
        ops[n].append(Op(name, partial(fs.fock_sobolev_norm, f, P),
                         partial(_check_close, expected, tol, relative), repr))

    for p in (1.0, 2.0, 4.0):
        for m in (0, 1, 2):
            add("unit", fs.one(1), 1, m, p, oracles.unit_norm(m, p, 1.0),
                oracles.UNIT_NORM_ABS_TOL)
            for k in (1, 2, 3):
                add(f"z^{k}", fs.polynomial({(k,): 1.0}, 1), 1, m, p,
                    oracles.monomial_norm_n1(k, m, p, 1.0), oracles.MONOMIAL_ABS_TOL)
    for p in (1.0, 2.0, 4.0):
        _add_kernels(add, rng, 1, p, (True, False))
    for m in (0, 1, 2):
        _add_random_polynomial(add, rng, 1, 3, m)
    for n in (1, 2):
        for m in (0, 1, 2):
            add("unit", fs.one(n), n, m, math.inf, oracles.unit_norm(m, math.inf, 1.0),
                oracles.UNIT_NORM_ABS_TOL)
    for p, m in ((1.0, 1), (2.0, 2), (4.0, 0)):
        add("unit", fs.one(2), 2, m, p, 1.0, oracles.UNIT_NORM_ABS_TOL)
    _add_kernels(add, rng, 2, 2.0, (True,))
    _add_kernels(add, rng, 2, 4.0, (False,))
    _add_random_polynomial(add, rng, 2, 1, 1)
    return _interleave(ops[1], ops[2])


def _interleave(short: list, long: list) -> list:
    """Spread the short norms evenly between the long ones, so that their
    median latency samples the whole pass rather than its first seconds."""
    out = []
    step = len(short) / (len(long) + 1)
    for i, op in enumerate(long):
        out.extend(short[round(i * step):round((i + 1) * step)])
        out.append(op)
    out.extend(short[round(len(long) * step):])
    return out


def _draw_centre(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(2 * n)
    v *= CENTRE_RADIUS * rng.random() ** (1.0 / (2 * n)) / np.linalg.norm(v)
    return v[0::2] + 1j * v[1::2]


def _add_kernels(add, rng, n: int, p: float, kinds) -> None:
    for normalized in kinds:
        w = _draw_centre(rng, n)
        expected = oracles.kernel_norm(w, 1.0, normalized)
        if normalized:
            add("kernel", fs.kernel(w, n=n), n, 0, p, expected, oracles.UNIT_NORM_ABS_TOL)
        else:
            add("kernel-unnormalised", fs.kernel(w, n=n, normalized=False), n, 0, p,
                expected, oracles.KERNEL_GROWTH_REL_TOL, relative=True)


def _add_random_polynomial(add, rng, n: int, degree: int, m: int) -> None:
    if n == 1:
        betas = [(d,) for d in range(degree + 1)]
    else:
        betas = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    coeffs = {b: complex(rng.standard_normal(), rng.standard_normal()) for b in betas}
    add(f"random-degree-{degree}", fs.polynomial(coeffs, n), n, m, 2.0,
        oracles.polynomial_norm_p2(coeffs, n, m, 1.0), oracles.MONOMIAL_ABS_TOL)


def _check_close(expected: float, tol: float, relative: bool, value) -> Optional[str]:
    err = abs(value - expected)
    if relative:
        err /= expected
    if err <= tol:
        return None
    kind = "relative" if relative else "absolute"
    return f"value {value!r}, closed form {expected!r}, {kind} error {err:.3g} > {tol:g}"
