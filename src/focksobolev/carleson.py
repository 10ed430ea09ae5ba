"""Embedding classification for measures: bounded and vanishing regimes.

Given source exponent p and target exponent q, a positive measure mu is
tested through three comparable quantities built at mass scale r and
damping s = m * q:

* the kernel transform ``w -> int exp(-t a |z-w|^2/2)(1+|z|)^{-s} dmu``,
* the averaging function ``w -> mu(B(w, r)) (1+|w|)^{-s}``,
* the lattice sequence of averaging values.

For p <= q the three are measured in sup norm, for q < p in the mixed
norm with exponent p / (p - q), and for p infinite in total-mass form
with the weighted mass ``int (1+|z|)^{-s} dmu`` alongside. Each
criterion is evaluated at three nested stages of radius T1 / EXPANSION,
T1 and EXPANSION * T1, and :func:`growth_divergent` reads its three
values to decide divergence. T1 is STAGE_RADIUS for a measure without
an effective radius; GROWTH_TOL and VANISH_TOL are the growth and
vanishing tolerances. These staging constants are shared with
:mod:`compop` and are not options.

The ball masses are read at the outer stage's centres: the lattice
centres with |c| <= T2, at n = 1 a scan grid of step 0.25 with
|w| <= T2, and in the sup regime the heaviest atoms. Stage T keeps the
atoms and the centres with |c| <= T. Its sequence takes the lattice
centres with |c| <= T - r, its averaging function the scan grid at n = 1
or the lattice at n = 2, plus the atoms. All masses are read before the
stages, and one read serves all three: a stage's lattice and scan grid
are the outer ones cut to |c| <= T, in order, and a ball's mass does not
depend on the other centres of the read. At n = 2 they read the stage
measure mu_T, mu restricted to |z| <= T, which the transform also sums:
stage T sums mu_T2's atoms with |z| <= T, and a density is read once per
stage. At n = 1 they read mu itself; on mu_T, only the centres with
|c| > T - r would need a re-read, as the other balls lie in |z| < T.

An atomic transform is read on a coarse w-grid; in the sup regime the
pattern search of :func:`grid.pattern_search` climbs from its best
point or heavy atom. A density is radial: its ball masses and its
transform are integrals in |z|, and the transform is read at radii.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .funcspace import (
    Params,
    fock_sobolev_norm,
    log_abs,
    log_weight,
    norm_integrand_field,
    probe_family,
)
from .geometry import Lattice, make_lattice
from .grid import cube_axis, grid_points, pattern_search
from .measures import (
    AtomicMeasure,
    Measure,
    _atom_ball_masses,
    _gauss_transform,
    _radial_ball_masses,
    _radial_transform,
    ball_mass_many,
    discretize,
    effective_radius,
    total_weighted_mass,
)
from .quadrature import integrate_gaussian, scalar_field

__all__ = [
    "CarlesonVerdict",
    "classify_carleson",
    "embedding_ratio",
    "carleson_lower_bound",
]

_ATOM_CAP = 3000
_LOG_NOTHING = math.log(1e-300)
_SCAN_STEP = 0.25
# The sup regime's transform search stops below this many coarse w-steps;
# quadrature's 2^-26 costs about 50 ms more per n = 2 lattice-atoms verdict.
_SUP_STOP = 2.0 ** -10

# The staging constants: the stage expansion factor, the base stage radius
# per n for a measure without an effective radius, the growth tolerance of
# growth_divergent and the vanishing tolerance on the outer shell.
EXPANSION = 1.5
STAGE_RADIUS = {1: 6.0, 2: 4.0}
GROWTH_TOL = 0.05
VANISH_TOL = 1e-3


@dataclass(frozen=True)
class CarlesonVerdict:
    """Outcome of a (p, q) embedding classification."""

    regime: str
    p: float
    q: float
    t: float
    s: float
    r: float
    is_carleson: bool
    is_vanishing: bool
    divergent: bool
    criterion_values: dict
    growth: dict
    comparability_band: Optional[float]
    embedding_lower_bound: Optional[float]
    stage_radii: tuple
    notes: tuple = field(default_factory=tuple)


def _regime_of(params: Params) -> tuple:
    p, q = params.p, params.q
    if math.isinf(q):
        raise ValueError("measure classification needs a finite target exponent q")
    if math.isinf(p):
        return "mass", 1.0
    if p <= q:
        return "sup", None
    return "integral", p / (p - q)


def _stage_geometry(mu: Measure, n: int, r: float,
                    override: Optional[float] = None) -> tuple:
    """(base stage radius, w-step of the atomic transform's coarse grid)."""
    if override is not None:
        base = float(override)
    else:
        reff = effective_radius(mu)
        if reff is None:
            base = STAGE_RADIUS[n]
        elif n == 1:
            # the middle stage's sequence window |c| <= T - r then holds
            # every lattice ball that meets the support
            base = max(5.0, min(reff + 2.0 * r, 9.0))
        else:
            base = max(3.5, min(reff + 0.5, 4.5))
    return base, base / 48.0 if n == 1 else max(base / 5.0, 0.8)


@functools.lru_cache(maxsize=8)
def _stage_lattice(T: float, r: float, n: int) -> Lattice:
    return make_lattice(max(T, 2.0 * r), r, n)


def _capped_atoms(mu: Measure) -> np.ndarray:
    """Locations of the heaviest atoms, at most _ATOM_CAP; none for a density."""
    if not isinstance(mu, AtomicMeasure):
        return np.empty((0, mu.n), dtype=complex)
    order = np.argsort(-mu.weights, kind="stable")[:_ATOM_CAP]
    return mu.locations[np.sort(order)]


def _size(v: np.ndarray, k: Optional[float], cell) -> float:
    """Size of a criterion's values: the max in the sup regime (k None),
    else (sum v^k cell)^(1/k), with one cell for all values or one each;
    0 when there are none."""
    if v.size == 0:
        return 0.0
    if k is None:
        return float(np.max(v))
    if np.ndim(cell):
        return float(np.sum(v ** k * cell)) ** (1.0 / k)
    return float(np.sum(v ** k) * cell) ** (1.0 / k)


def _outer_centres(T2: float, r: float, n: int, extra: np.ndarray) -> tuple:
    """The outer stage's ball-mass centres, their norms and their parts: 0
    for the lattice centres with |c| <= T2, 1 for the n = 1 scan grid with
    |w| <= T2, 2 for the sup regime's heavy-atom candidates ``extra``."""
    scan = grid_points([cube_axis(T2, _SCAN_STEP)] * 2) if n == 1 else extra[:0]
    parts = [x[np.linalg.norm(x, axis=1) <= T2]
             for x in (_stage_lattice(T2, r, n).as_complex(), scan)] + [extra]
    centres = np.concatenate(parts)
    return centres, np.linalg.norm(centres, axis=1), np.repeat([0, 1, 2], [len(x) for x in parts])


def _stage_values(mu: Measure, params: Params, t: float, s: float, r: float,
                  regime: str, k: Optional[float], T: float, w_step: float,
                  extra: np.ndarray, cnorm: np.ndarray, part: np.ndarray,
                  mass: np.ndarray) -> tuple:
    """Criterion values of the stage measure of radius T, mu restricted to
    the ball |z| <= T. ``cnorm`` and ``part`` are the norms and parts of
    this stage's ball-mass centres (see :func:`_outer_centres`), ``mass``
    their masses.

    Returns (values dict, (scan radii, scan transform values)) where the
    scan pair feeds the vanishing rule's outer-shell test.
    """
    n, c = params.n, t * params.alpha / 2.0
    atomic = isinstance(mu, AtomicMeasure)
    mu_T = discretize(mu, T) if atomic else mu
    avg = mass / (1.0 + cnorm) ** s

    values: dict = {}
    if atomic:
        # a coarse w-grid; in the sup regime its best point or heavy atom
        # starts the pattern search, stopped below _SUP_STOP w_step
        axes = [cube_axis(T, w_step)] * (2 * n)
        transform = lambda where: _gauss_transform(mu_T, c, s, where)
        t_grid = transform(axes).ravel()
        w_pts = grid_points(axes)
        inball = np.linalg.norm(w_pts, axis=1) <= T
        scan = (np.linalg.norm(w_pts[inball], axis=1), t_grid[inball])
        if regime == "sup":
            cand = np.concatenate([w_pts[inball], extra])
            cv = np.concatenate([scan[1], transform(extra)])
            values["transform"] = 0.0
            if cv.size:
                j = int(np.argmax(cv))
                values["transform"] = pattern_search(
                    transform, cand[j:j + 1], cv[j:j + 1], w_step, _SUP_STOP * w_step)[0]
        else:
            values["transform"] = _size(scan[1], k, w_step ** (2 * n))
    else:
        *scan, dv = _radial_transform(mu, c, s, T)
        values["transform"] = _size(scan[1], k, dv)
    if n == 1:
        values["averaging"] = _size(avg[part > 0], k, _SCAN_STEP ** 2)
    else:
        values["averaging"] = _size(avg, k, 1.0)
    values["sequence"] = _size(avg[(part == 0) & (cnorm <= T - r)], k, 1.0)
    if regime == "mass":
        values["weighted_mass"] = total_weighted_mass(mu, s, T)
    return values, scan


def _growth_ratio(v1: float, v2: float) -> float:
    if v1 <= 1e-300 or math.isinf(v2):
        return 0.0 if v2 <= 1e-300 else math.inf
    return v2 / v1 - 1.0


def stage_grew(l1: float, l2: float, tol: float) -> bool:
    """Whether a quantity grew beyond tol from one stage to the next, given
    the logs l1 and l2 of its two values.

    A log at or below log(1e-300) means nothing is there: nothing at the
    later stage is no growth, and something there after nothing is.
    """
    return l2 > _LOG_NOTHING and (l1 <= _LOG_NOTHING or l2 > l1 + math.log1p(tol))


def growth_divergent(l0: float, l1: float, l2: float, tol: float) -> bool:
    """Trend decision from the logs of a quantity at three nested stages.

    An infinite value at the outer stage reads as divergence. No growth
    beyond the tolerance from the middle to the outer stage
    (:func:`stage_grew`) reads as convergence; something appearing where
    an inner stage had nothing reads as divergence. Otherwise the
    increment trend decides: a transient approaching a finite value
    shrinks its increments by the expansion factor per stage, while
    power-or-faster growth keeps them at least steady.
    """
    if l2 == math.inf:
        return True
    if not stage_grew(l1, l2, tol):
        return False
    if min(l0, l1) <= _LOG_NOTHING:
        return True
    g01 = l1 - l0
    return g01 <= 0.0 or l2 - l1 > 0.8 * g01


def _log(v: float) -> float:
    return math.log(v) if v > 0.0 else -math.inf


def classify_carleson(
    mu: Measure,
    params: Params,
    t: Optional[float] = None,
    r: float = 1.0,
    probe_budget: int = 0,
    stage_radius: Optional[float] = None,
) -> CarlesonVerdict:
    """Full staged classification of mu for the (p, q) embedding.

    Criteria are evaluated at the base stage, at the stage enlarged by
    EXPANSION and at the one shrunk by it, atoms all with the same step;
    :func:`growth_divergent` with GROWTH_TOL reads each criterion's three
    values, and divergence of any marks the measure divergent. With a
    positive ``probe_budget`` an empirical lower bound for the embedding
    norm is attached from that many probe functions. ``stage_radius``
    overrides the automatic base-stage choice, which callers need when
    the measure was truncated to a radius chosen in advance.
    """
    if r <= 0:
        raise ValueError("averaging radius must be positive")
    t = params.q if t is None else float(t)
    if not (t > 0) or math.isinf(t):
        raise ValueError("transform exponent t must be finite and positive")
    s = params.m * params.q
    regime, k = _regime_of(params)
    T1, w_step = _stage_geometry(mu, params.n, r, stage_radius)
    T2 = EXPANSION * T1
    T0 = T1 / EXPANSION
    extra = _capped_atoms(mu) if regime == "sup" else np.empty((0, params.n), dtype=complex)
    centres, cnorm, part = _outer_centres(T2, r, params.n, extra)
    # every mass is read before the transforms, so that their peaks in
    # memory do not add up: a column per stage (module docstring)
    if params.n == 1:
        masses = np.repeat(ball_mass_many(mu, centres, r)[:, None], 3, axis=1)
    elif isinstance(mu, AtomicMeasure):
        outer = discretize(mu, T2)
        cut = np.linalg.norm(outer.locations, axis=1)[:, None] <= np.array([T0, T1, T2])
        masses = _atom_ball_masses(outer, np.where(cut, outer.weights[:, None], 0.0), centres, r)
    else:
        masses = np.stack([_radial_ball_masses(mu, cnorm, r, T) for T in (T0, T1, T2)], axis=1)
    stages = []
    for i, T in enumerate((T0, T1, T2)):
        sel = (cnorm <= T) | (part == 2)
        stages.append(_stage_values(mu, params, t, s, r, regime, k, T, w_step, extra, cnorm[sel],
                                    part[sel], masses[sel, i]))
    (vals0, _), (vals1, _), (vals2, scan) = stages

    growth = {key: _growth_ratio(vals1[key], vals2[key]) for key in vals1}
    divergent = any(
        growth_divergent(_log(vals0.get(key, 0.0)), _log(vals1[key]), _log(vals2[key]),
                         GROWTH_TOL)
        for key in vals1
    )
    is_carleson = not divergent

    notes = ["band_policy=engineering"]
    band_vals = [vals2[kk] for kk in ("transform", "averaging", "sequence")]
    if all(v <= 1e-300 for v in band_vals):
        band = 1.0
    elif any(v <= 1e-300 or math.isinf(v) for v in band_vals):
        band = math.inf
    else:
        q = params.q
        powered = [v ** (1.0 / q) for v in band_vals]
        band = max(powered) / min(powered)

    if regime == "sup":
        # the outermost non-empty unit shell against the overall maximum
        scan_r, scan_v = scan
        top = float(np.max(scan_v)) if scan_v.size else 0.0
        vanishing = top <= 0.0 or bool(
            np.max(scan_v[scan_r >= math.floor(np.max(scan_r))]) <= VANISH_TOL * top)
        is_vanishing = is_carleson and vanishing
    else:
        is_vanishing = is_carleson
        notes.append("vanishing coincides with boundedness below the diagonal")
    if isinstance(mu, AtomicMeasure):
        notes.append("atomic sums are exact")
    else:
        notes.append("density integrated over the radius")

    lower = None
    if probe_budget > 0:
        lower = carleson_lower_bound(mu, params, probe_budget=probe_budget)

    return CarlesonVerdict(
        regime=regime,
        p=params.p,
        q=params.q,
        t=t,
        s=s,
        r=r,
        is_carleson=is_carleson,
        is_vanishing=is_vanishing,
        divergent=divergent,
        criterion_values={kk: float(v) for kk, v in vals2.items()},
        growth={kk: float(g) for kk, g in growth.items()},
        comparability_band=float(band),
        embedding_lower_bound=lower,
        stage_radii=(float(T1), float(T2)),
        notes=tuple(notes),
    )


def embedding_ratio(f, mu: Measure, params: Params) -> float:
    """Ratio of the mu-side q norm of f against its source-space norm.

    The numerator integrates ``|f|^q exp(-q a |z|^2 / 2)`` against mu,
    exactly for atoms and by quadrature for densities, whose integrand
    keeps the probe's envelope: its pad, and its centre moved to where the
    density's Gaussian factor puts the peak.
    """
    q = params.q
    if math.isinf(q):
        raise ValueError("embedding ratio needs a finite target exponent")
    denom = fock_sobolev_norm(f, params)
    if denom == 0.0:
        raise ValueError("embedding ratio is undefined for the zero function")
    if isinstance(mu, AtomicMeasure):
        if len(mu) == 0:
            return 0.0
        la = log_abs(f, mu.locations, params)
        num_q = float(np.sum(mu.weights * np.exp(
            log_weight(la, mu.locations, replace(params, m=0), q))))
    else:
        base = norm_integrand_field(f, replace(params, m=0), q)

        def _eval(pts: np.ndarray) -> np.ndarray:
            # fmax reads the nan of 0 * inf, a probe's 0 where the density
            # overflows far out, as 0, as in measure theory
            with np.errstate(invalid="ignore"):
                return np.fmax(base.evaluate(pts) * mu.density(pts), 0.0)

        decay = base.decay + (mu.rate if mu.kind in ("gaussian", "power-gaussian") else 0.0)
        # (1+|z|)^power <= 1 for a decaying power: no extra growth
        grows = mu.kind in ("polygrowth", "power-gaussian")
        extra_growth = max(mu.power, 0.0) if grows else 0.0
        center = base.center
        if center is not None:
            # exp(-c|z-w|^2 - b|z|^2) peaks at cw/(c+b): complete the square.
            center = tuple(base.decay / decay * c for c in center)
        fld = scalar_field(_eval, n=params.n, decay=decay, growth=base.growth + extra_growth,
                           center=center, pad=base.pad, compact_radius=mu.compact_extent)
        num_q = integrate_gaussian(fld).value
    if num_q <= 0.0:
        return 0.0
    return num_q ** (1.0 / q) / denom


def carleson_lower_bound(mu: Measure, params: Params, probe_budget: int = 20) -> float:
    """Best embedding ratio over a probe family: a lower bound, but not a
    certified one on a ``ring`` density, whose inner edge is a jump that the
    quadrature's error estimate does not bound (k_0 at n = 2, p = q = 2 over
    ring(2, 0.5): error 0.020, estimate 0.018)."""
    family = probe_family(params, seed=7, combos=5)
    family = family[: probe_budget if probe_budget > 0 else len(family)]
    best = 0.0
    for _, f in family:
        best = max(best, embedding_ratio(f, mu, params))
    return float(best)
