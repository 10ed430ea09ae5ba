"""Weighted composition operators: f -> u * (f o psi) between the spaces.

The operator is probed through a composition transform: the q-th power
of the normalised kernel pulled through the symbol pair,

    B(w) = int |k_w(psi(z))|^q (1+|psi(z)|)^{-mq} |u(z)|^q |z|^{qm}
               exp(-q a |z|^2 / 2) dV(z),

together with its pullback measure, whose atoms sit at psi(z_i) and
reproduce B as a measure transform. All exponent arithmetic is done in
log space; affine symbols psi(z) = Az + b complete the square exactly,
so their z-integrals converge for every matrix, and unboundedness shows
up only in the growth of B along w. B is read at a batch of w at once.
At m = 0 with a constant or one-kernel weight (centre c, else c = 0),
log B(w) - kappa(w) with kappa(w) = (q a/2)(|A*w + c|^2 - |w|^2)
+ q a Re<b, w> is one sum per z-grid, and kappa one array expression;
other symbols are summed at each w, a non-affine one from w-free terms
kept per grid. A polynomial symbol of degree at most 1 is turned into
its affine map; those of higher degree get a staged z truncation check.

Boundedness and compactness are decided per exponent regime: sup and
decay of B at or above the diagonal, pullback measure classification
below it and for a sup-norm source, and the weight profile

    |z|^m |u(z)| (1+|psi(z)|)^{-m} exp((a/2)(|psi(z)|^2 - |z|^2))

for a sup-norm target. A radial pair (psi(z) = cUz, U unitary, under a
constant weight) pulls back to an exact radial density, any other pair
to the atoms of its z-grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Union

import numpy as np

from .carleson import (
    EXPANSION,
    GROWTH_TOL,
    STAGE_RADIUS,
    VANISH_TOL,
    CarlesonVerdict,
    classify_carleson,
    growth_divergent,
    stage_grew,
)
from .funcspace import (
    OVERFLOW_CAP,
    EntireFunction,
    EvaluationOverflow,
    Params,
    Polynomial,
    _field_norm,
    _kernel_centres,
    _poly_values,
    _weighted_field,
    fock_sobolev_norm,
    log_abs,
    log_weight,
    norm_integrand_field,
    polynomial,
    probe_family,
)
from .grid import centred_grid, directions
from .measures import AtomicMeasure, DensityMeasure
from .quadrature import ScalarField

__all__ = [
    "AffineMap",
    "PolynomialMap",
    "SymbolPair",
    "CompOpVerdict",
    "identity_symbol",
    "affine_symbol",
    "one",
    "log_berezin_compop",
    "transform_profile",
    "weight_profile",
    "pullback_measure",
    "classify_compop",
    "direct_operator_norm",
    "essential_norm_estimate",
    "linear_symbol_check",
]

# z-grid cells per axis of the transform and of its profile
_Z_CELLS = {1: 128, 2: 16}
# radii of a transform profile over its stage window
_PROFILE_RADII = {1: 31, 2: 21}
_POLY_Z_RADIUS = {1: 4.0, 2: 3.0}
# base stage of the weight profile in z, read at 40 radii
_Z_RADIUS = {1: 7.0, 2: 5.0}
_WEIGHT_LOG_CAP = 700.0


@dataclass(frozen=True)
class AffineMap:
    """z -> matrix @ z + offset on C^n; a scalar matrix is 1x1 and the
    offset defaults to zero. The one place a matrix/offset input is read."""

    matrix: np.ndarray
    offset: Optional[np.ndarray] = None

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim == 0:
            mat = mat.reshape(1, 1)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square")
        off = np.zeros(mat.shape[0]) if self.offset is None else self.offset
        off = np.array(off, dtype=complex).reshape(mat.shape[0])  # a contiguous copy
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "offset", off)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def apply(self, pts: np.ndarray) -> np.ndarray:
        return _times(pts, self.matrix, self.offset)

    def adjoint(self, w) -> np.ndarray:
        """A* w at one point (n,) or at each row of (k, n)."""
        return _times(np.asarray(w, dtype=complex), np.conj(self.matrix).T, 0.0)


def _times(pts: np.ndarray, mat: np.ndarray, offset) -> np.ndarray:
    """pts @ mat.T + offset column by column, without BLAS: a threaded product
    can stall a process for milliseconds. Entries act by their real and imaginary
    parts, so at n = 1 the bits are BLAS's (numpy's complex product's are not)."""
    out = np.empty(np.shape(pts)[:-1] + mat.shape[:1], dtype=complex)
    for k, row in enumerate(mat):
        terms = [pts[..., j] * p for j, m in enumerate(row) for p in (m.real, 1j * m.imag) if p]
        out[..., k] = sum(terms[1:], terms[0]) if terms else 0.0
    out += offset
    return out


@dataclass(frozen=True)
class PolynomialMap:
    """Component-wise polynomial map on C^n."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("a polynomial map needs at least one component")
        dims = {c.n for c in comps}
        if dims != {len(comps)}:
            raise ValueError("component count must match their variable count")
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        return len(self.components)

    def apply(self, pts: np.ndarray) -> np.ndarray:
        return np.stack([_poly_values(c, pts) for c in self.components], axis=1)

    @property
    def degree(self) -> int:
        return max(c.degree for c in self.components)


SymbolMap = Union[AffineMap, PolynomialMap]


def one(n: int) -> Polynomial:
    return polynomial({(0,) * n: 1.0}, n)


@dataclass(frozen=True)
class SymbolPair:
    """Composition symbol psi plus multiplier weight u."""

    psi: SymbolMap
    u: EntireFunction

    def __post_init__(self):
        if self.psi.n != self.u.n:
            raise ValueError("symbol and weight live on different dimensions")
        if isinstance(self.psi, PolynomialMap) and self.psi.degree <= 1:
            # a polynomial map of degree <= 1 is affine: it takes the exact
            # affine path, whose z-grid follows the integrand's peak at A*w
            n = self.psi.n
            coef = np.zeros((n, n + 1), dtype=complex)  # [A | b]
            for i, comp in enumerate(self.psi.components):
                for beta, c in comp.coeffs:
                    coef[i, beta.index(1) if any(beta) else n] = c
            object.__setattr__(self, "psi", AffineMap(coef[:, :n], coef[:, n]))

    @property
    def n(self) -> int:
        return self.psi.n

    @property
    def is_affine(self) -> bool:
        return isinstance(self.psi, AffineMap)


def identity_symbol(n: int) -> SymbolPair:
    return affine_symbol(np.eye(n))


def affine_symbol(matrix, offset=None, u: Optional[EntireFunction] = None) -> SymbolPair:
    psi = AffineMap(matrix, offset)
    return SymbolPair(psi=psi, u=one(psi.n) if u is None else u)


def _w_free_terms(sym: SymbolPair, params: Params, q: float, pts: np.ndarray) -> tuple:
    """psi(z), the log weight and the m > 0 discount: the w-free terms."""
    psi_v = sym.psi.apply(pts)
    L = log_weight(log_abs(sym.u, pts, params), pts, params, q)
    if params.m > 0:
        return psi_v, L, q * params.m * np.log1p(np.linalg.norm(psi_v, axis=1))
    return psi_v, L, 0.0


def _logsumexp(L: np.ndarray) -> float:
    """log sum exp(L) of a 1-d array, from the terms that can move it.

    Only the terms within log(2^-53 / L.size) of the max are kept: the rest
    add under 2^-53 of the sum, so the log moves by under 2^-53 beyond
    rounding, and no exp that underflows is taken. The kept terms take
    scipy's steps in its order, so the result is bit-identical to scipy's
    ``logsumexp`` of them: the entries at the max are counted and left out,
    the rest summed as exp(L - max), then log1p(sum / count) + log(count)
    + max. A max that is not finite is the result, as it is scipy's.
    """
    top = L.max()
    if not np.isfinite(top):
        return float(top)
    d = L[L >= top + math.log(2.0 ** -53 / L.size)] - top
    at_top = d == 0.0
    count = np.float64(np.count_nonzero(at_top))
    d[at_top] = -np.inf
    return float(np.log1p(np.exp(d).sum() / count) + np.log(count) + top)


def _folded_sum(terms: tuple, w: np.ndarray, qa: float, buf: tuple) -> float:
    """log sum over a z-grid of the log integrand at w, t = R^T (Re w, Im w)
    + L - q a |w|^2 / 2 - discount, from its w-free terms (R, L, discount),
    R = q a (Re psi, Im psi) as rows (2n, N); t is built in buf's arrays."""
    (R, L, discount), (t, tmp), c = terms, buf, w.view(float)
    np.multiply(R[0], c[0], out=t)
    for row, cj in zip(R[1:], c[1:]):
        t += np.multiply(row, cj, out=tmp)
    t += L
    t -= qa * float(np.vdot(w, w).real) / 2.0
    if np.ndim(discount):
        t -= discount
    return _logsumexp(t)


def _pullback_geometry(sym: SymbolPair, n: int) -> tuple:
    """Default z-grid for the pullback: radius covering the outer
    classification stage through psi, and the matching step.

    An affine map needs preimages of the whole outer stage ball, so the
    radius scales with the pseudoinverse; a cap keeps the atom count at
    desk scale and only bites where the weights are already negligible.
    """
    T2 = EXPANSION * STAGE_RADIUS[n]
    step = 0.25 if n == 1 else 0.45
    if not sym.is_affine:
        # tighter than the transform grid: pullback weights live in
        # linear scale, so the cube corner must stay under the exp cap
        # for a quadratic map
        return (3.5 if n == 1 else 2.4), step
    pinv_norm = float(np.linalg.norm(np.linalg.pinv(sym.psi.matrix), 2))
    rad = pinv_norm * (T2 + float(np.linalg.norm(sym.psi.offset))) + 1.0
    return max(2.0, min(rad, 12.0 if n == 1 else 7.0)), step


def _log_transform_at(sym: SymbolPair, params: Params, q: float, scale: float = 1.0):
    """Points w (k, n) -> the k logs of the composition transform, on one z-grid.

    The z-grid has ``scale * _Z_CELLS[n]`` cells per axis over ``scale``
    times the base radius, at the base step, built once. An affine grid is
    re-centred at A*w plus the weight envelope's centre (its tail radius
    plus pad is the radius), a non-affine one keeps its w-free terms; each
    sum is one :func:`_folded_sum`. Where log B - kappa is fixed (module
    docstring: no envelope growth nor pad) the first w alone is summed.
    """
    n, qa = params.n, q * params.alpha
    if isinstance(sym.u, Polynomial) and sym.u.is_zero():
        return lambda w: np.full(np.size(w) // n, -math.inf)  # the zero weight's transform
    env = norm_integrand_field(sym.u, params, q)
    radius = env.tail_radius + env.pad if sym.is_affine else _POLY_Z_RADIUS[n]
    offs, h = centred_grid(scale * radius, int(round(scale * _Z_CELLS[n])), n)
    shift = np.asarray(env.center or np.zeros(n), dtype=complex)
    rigid = sym.is_affine and env.growth == 0.0 and env.pad == 0.0
    buf, log_cell = (np.empty(len(offs)), np.empty(len(offs))), 2 * n * math.log(h)

    def fold(pts: np.ndarray) -> tuple:  # the terms of _folded_sum on the points
        psi_v, L, discount = _w_free_terms(sym, params, q, pts)
        return np.multiply(psi_v.view(float).T, qa, order="C"), L, discount

    terms = None if sym.is_affine else fold(offs)

    def at(w) -> np.ndarray:
        W = np.ascontiguousarray(w, dtype=complex).reshape(-1, n)
        C = sym.psi.adjoint(W) + shift if sym.is_affine else W  # grid centres, if re-centred
        sums = np.array([_folded_sum(terms or fold(offs + c), v, qa, buf)
                         for v, c in zip(W[:1] if rigid else W, C)]) + log_cell
        if rigid:
            Wr, Cr = W.view(float), C.view(float)
            kappa = qa * ((np.sum(Cr ** 2, axis=1) - np.sum(Wr ** 2, axis=1)) / 2.0
                          + np.sum(Wr * sym.psi.offset.view(float), axis=1))
            sums = np.concatenate([sums, kappa[1:] + (sums[0] - kappa[0])])
        return sums

    return at


def log_berezin_compop(sym: SymbolPair, params: Params, w) -> float:
    """log of the composition transform at w, with exponent params.q."""
    if math.isinf(params.q):
        raise ValueError("the transform needs a finite exponent q")
    return float(_log_transform_at(sym, params, params.q)(w)[0])


def _safe_exp(x: float) -> float:
    """exp(x), or inf past the float range."""
    return math.inf if x > OVERFLOW_CAP else math.exp(x)


def transform_profile(sym: SymbolPair, params: Params) -> tuple:
    """Directional maxima of log B over shells |w| = rho, with exponent params.q,
    on the stage window [0, EXPANSION * STAGE_RADIUS[n]]: 31 radii at n = 1,
    21 at n = 2.

    Returns (radii, log values, z-divergence flag). All (radius, direction)
    points are read in one call of the z-grid evaluator of
    :func:`log_berezin_compop`, ``_Z_CELLS[n]`` cells per axis. The
    z-staging runs for non-affine symbols only: their profile reads the
    grid enlarged by half, and the base grid point by point until the flag
    of a z-integral that grows beyond GROWTH_TOL between the two is set.
    """
    q, n = params.q, params.n
    radii = np.linspace(0.0, EXPANSION * STAGE_RADIUS[n], _PROFILE_RADII[n])
    dirs = directions(n)
    shells = [dirs if rho > 0 else dirs[:1] for rho in radii]
    W = np.array([rho * d for rho, ds in zip(radii, shells) for d in ds])
    base = _log_transform_at(sym, params, q)
    logs = (base if sym.is_affine else _log_transform_at(sym, params, q, 1.5))(W)
    z_divergent = not sym.is_affine and any(
        stage_grew(base(v)[0], value, GROWTH_TOL) for v, value in zip(W, logs))
    starts = np.cumsum([0] + [len(ds) for ds in shells])[:-1]
    return radii, np.maximum.reduceat(logs, starts), z_divergent


def weight_profile(sym: SymbolPair, params: Params) -> tuple:
    """Shell maxima of the sup-target weight function, in log form, at 40
    radii on [0, EXPANSION * _Z_RADIUS[n]]."""
    radii = np.linspace(0.0, EXPANSION * _Z_RADIUS[params.n], 40)
    dirs = directions(params.n)
    out = np.full(len(radii), -math.inf)
    for i, rho in enumerate(radii):
        pts = np.stack([rho * d for d in (dirs if rho > 0 else dirs[:1])])
        psi_v, L, discount = _w_free_terms(sym, params, 1.0, pts)
        out[i] = np.max(L + params.alpha * np.sum(np.abs(psi_v) ** 2, axis=1) / 2.0 - discount)
    return radii, out


def pullback_measure(sym: SymbolPair, params: Params) -> AtomicMeasure:
    """Discrete pullback: atoms at psi(z_i) carrying the operator weights.

    Cell weights are ``|u|^q |z|^{qm} exp(-q a |z|^2/2) h^{2n}`` with
    q = params.q, scaled by ``exp(+q a |psi(z)|^2 / 2)`` so that the
    measure transform of the result reproduces the composition transform
    with damping s = m q.
    """
    q = params.q
    if math.isinf(q):
        raise ValueError("the pullback construction needs a finite exponent q")
    n, a = params.n, params.alpha
    if isinstance(sym.u, Polynomial) and sym.u.is_zero():
        return AtomicMeasure(np.empty((0, n), dtype=complex), np.empty(0), n)
    radius, step = _pullback_geometry(sym, n)
    cells = max(2, int(math.ceil(2.0 * radius / step)))
    offs, h = centred_grid(radius, cells, n)
    psi_v = sym.psi.apply(offs)
    log_w = log_weight(log_abs(sym.u, offs, params), offs, params, q)
    log_w = log_w + q * a * np.sum(np.abs(psi_v) ** 2, axis=1) / 2.0 + 2 * n * math.log(h)
    top = float(np.max(log_w)) if log_w.size else -math.inf
    if top > _WEIGHT_LOG_CAP:
        raise EvaluationOverflow(
            f"pullback weight exponent {top:.0f} exceeds {_WEIGHT_LOG_CAP}; "
            "shrink the pullback radius"
        )
    wts = np.exp(log_w)  # every exponent is at most the cap
    keep = wts > 1e-300
    return AtomicMeasure(locations=psi_v[keep], weights=wts[keep], n=n)


def _radial_pullback(sym: SymbolPair, params: Params) -> Optional[DensityMeasure]:
    """The exact pullback of a radial pair, psi(z) = cUz with A*A = |c|^2 I
    to 1e-12 relative, c != 0, no offset and a weight u0 != 0 of degree 0:
    the density |u0|^q |c|^{-2n-qm} s^{qm} exp((q a/2)(1 - |c|^{-2}) s^2) at
    s = |w|. None for any other pair."""
    u, n, q = sym.u, params.n, params.q
    if not (sym.is_affine and isinstance(u, Polynomial) and not u.is_zero()
            and u.degree == 0 and not np.any(sym.psi.offset)):
        return None
    gram = sym.psi.matrix.conj().T @ sym.psi.matrix
    c2 = float(np.trace(gram).real) / n
    if c2 == 0.0 or np.max(np.abs(gram - c2 * np.eye(n))) > 1e-12 * c2:
        return None
    return DensityMeasure(
        kind="power-gaussian", n=n, power=q * params.m,
        rate=q * params.alpha / 2.0 * (1.0 / c2 - 1.0),
        scale=abs(u.coeffs[0][1]) ** q * c2 ** (-n - q * params.m / 2.0))


@dataclass(frozen=True)
class CompOpVerdict:
    """Boundedness and compactness outcome for one symbol pair."""

    regime: str
    p: float
    q: float
    bounded: bool
    compact: bool
    divergent: bool
    norm_estimate: float
    criterion_values: dict
    profile_radii: tuple
    profile_values: tuple
    stage_radii: tuple
    notes: tuple = field(default_factory=tuple)
    carleson: Optional[CarlesonVerdict] = None


def _stage_profile(sym: SymbolPair, params: Params) -> tuple:
    """(radii, log values, z-divergence flag, root, base stage radius R1) of
    the profile the verdicts read: the weight profile for a sup-norm
    target, else the composition transform, whose q-th root is the norm.
    Both reach the outer stage EXPANSION * R1."""
    if math.isinf(params.q):
        radii, logs = weight_profile(sym, params)
        return radii, logs, False, 1.0, _Z_RADIUS[params.n]
    radii, logs, z_div = transform_profile(sym, params)
    return radii, logs, z_div, params.q, STAGE_RADIUS[params.n]


def classify_compop(sym: SymbolPair, params: Params,
                    little_o_target: bool = False) -> CompOpVerdict:
    """Regime dispatch: decide boundedness and compactness of the operator."""
    p, q, n = params.p, params.q, params.n
    notes = []
    if sym.is_affine:
        chk = linear_symbol_check(sym.psi.matrix, sym.psi.offset)
        notes.append(f"affine op_norm={chk['op_norm']:.6g}")
    else:
        notes.append("polynomial symbol: outside the affine classification")

    if math.isinf(q) or p <= q:
        radii, logs, z_div, root, R1 = _stage_profile(sym, params)
        key, regime, little_o_note = (
            ("log_sup", "sup-infinity", "sup criterion fails the little-o target") if math.isinf(q)
            else ("log_transform_sup", "sup", "transform fails the little-o target"))
        R2 = EXPANSION * R1
        # shell maxima up to the three nested stages, then the staged trend
        sup0, sup1, sup2 = (float(np.max(logs[radii <= s + 1e-9]))
                            for s in (R1 / EXPANSION, R1, R2))
        divergent = growth_divergent(sup0, sup1, sup2, GROWTH_TOL) or z_div
        if z_div:
            notes.append("z-integral grows under truncation expansion")
        bounded = not divergent
        outer = logs[radii >= R2 - 1.0]
        vanishing = sup2 == -math.inf or (
            float(np.max(outer)) <= sup2 + math.log(VANISH_TOL)
        )
        compact = bounded and vanishing
        if little_o_target and not vanishing:
            bounded = False
            notes.append(little_o_note)
        norm_est = math.inf if divergent else _safe_exp(sup2 / root)
        return CompOpVerdict(
            regime=regime, p=p, q=q, bounded=bounded, compact=compact,
            divergent=divergent, norm_estimate=norm_est,
            criterion_values={key: sup2, key + "_base": sup1},
            profile_radii=tuple(float(r) for r in radii),
            profile_values=tuple(_safe_exp(v) for v in logs),
            stage_radii=(R1, R2), notes=tuple(notes),
        )

    # below the diagonal, or a sup-norm source: classify the pullback, a
    # radial pair's as its exact density. Any other pair's atom cloud must
    # reach past the outer classification stage or the staged growth test
    # would read the truncation as decay, so the stages are fixed first and
    # the z-grid is sized to fill them. A pullback weight past the float
    # range raises EvaluationOverflow: it says nothing about boundedness.
    lam = _radial_pullback(sym, params) or pullback_measure(sym, params)
    verdict = classify_carleson(lam, params, t=q, stage_radius=STAGE_RADIUS[n])
    notes.append("boundedness and compactness coincide in this regime")
    notes.extend(verdict.notes)
    tval = verdict.criterion_values.get("transform", 0.0)
    norm_est = math.inf if verdict.divergent else tval ** (1.0 / q)
    return CompOpVerdict(
        regime="pullback-" + verdict.regime, p=p, q=q, bounded=verdict.is_carleson,
        compact=verdict.is_carleson, divergent=verdict.divergent, norm_estimate=norm_est,
        criterion_values=dict(verdict.criterion_values),
        profile_radii=(), profile_values=(),
        stage_radii=verdict.stage_radii, notes=tuple(notes),
        carleson=verdict,
    )


def _image_field(sym: SymbolPair, f: EntireFunction, params: Params,
                 exponent: float) -> ScalarField:
    """The norm integrand field of the image u * (f o psi) at the exponent.

    Its kernel centres, for psi(z) = Az + b, are A* of f's centres shifted
    by u's; a polynomial factor adds none, and f o psi has none for a
    polynomial psi. For the identity pair the field is f's own, bit for bit.
    """
    uc = _kernel_centres(sym.u)
    fc = [sym.psi.adjoint(w) for w in _kernel_centres(f)] if sym.is_affine else []
    centres = [w + v for w in fc for v in uc] if fc and uc else fc or uc
    deg_psi = 1 if sym.is_affine else sym.psi.degree

    def log_abs_at(pts: np.ndarray) -> np.ndarray:
        return log_abs(sym.u, pts, params) + log_abs(f, sym.psi.apply(pts), params)

    return _weighted_field(log_abs_at, params.n, params, exponent,
                           f.degree * deg_psi + sym.u.degree, centres)


def direct_operator_norm(sym: SymbolPair, params: Params) -> float:
    """Largest norm ratio ||u (f o psi)||_q / ||f||_p over a probe family;
    inf once any ratio tops 1e3.

    Both norms use the norm quadrature: the denominator is
    :func:`fock_sobolev_norm`, the numerator the same step on the image's
    norm integrand field. The identity's field is f's own, so the identity
    scores exactly one at p = q.
    """
    family = probe_family(params, seed=3, kernel_radius=3.0, monomial_degree=3, combos=3)
    best = 0.0
    for _, f in family:
        num = _field_norm(partial(_image_field, sym, f, params), params, params.q)[0]
        ratio = num / fock_sobolev_norm(f, params)
        if not ratio <= 1e3:
            return math.inf
        best = max(best, ratio)
    return best


def essential_norm_estimate(sym: SymbolPair, params: Params) -> float:
    """Outer-shell estimate of the essential norm: the profile's maximum
    over the outer unit shell of the outer stage.

    Valid for source exponents strictly between one and infinity with
    p <= q; the sup-target case reads the weight profile instead.
    """
    p, q = params.p, params.q
    if p <= 1 or math.isinf(p):
        raise ValueError("essential norm estimate needs 1 < p < inf")
    if p > q:
        raise ValueError("essential norm estimate applies at or above the diagonal")
    radii, logs, _, root, R1 = _stage_profile(sym, params)
    outer = logs[radii >= EXPANSION * R1 - 1.0]
    return _safe_exp(float(np.max(outer)) / root)


def linear_symbol_check(matrix, offset) -> dict:
    """Spectral admissibility of an affine symbol.

    Boundedness requires operator norm at most one and the offset to be
    orthogonal to every direction the matrix moves isometrically;
    compactness requires operator norm strictly below one. Both are read
    to a tolerance of 1e-8.
    """
    tol = 1e-8
    psi = AffineMap(matrix, offset)
    off = psi.offset
    U, sigma, Vh = np.linalg.svd(psi.matrix)
    op_norm = float(sigma[0])
    unit = np.abs(sigma - 1.0) <= tol
    overlap = max((float(np.abs(np.vdot(off, U[:, i]))) for i in np.nonzero(unit)[0]),
                  default=0.0)
    scale = 1.0 + float(np.linalg.norm(off))
    bounded = op_norm <= 1.0 + tol and overlap <= tol * scale
    compact = op_norm < 1.0 - tol
    return {
        "op_norm": op_norm,
        "admissible_bounded": bounded,
        "admissible_compact": compact,
        "unit_directions": int(np.count_nonzero(unit)),
        "offset_overlap": overlap,
    }
