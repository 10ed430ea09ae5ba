"""Truncated-domain quadrature for Gaussian-decay integrands on C^n.

C^n is identified with R^{2n}. Integrands are nonnegative scalar fields
carrying a declared envelope

    field(z) <= K * (1 + |z - z0|)^d * exp(-c |z - z0|^2),

with K fitted by sampling the first time a tail bound reads it. The
envelope drives the choice of truncation radius through a closed-form
radial tail bound, and the tail contribution is folded into the reported
error estimate.

The integration rule is a polar product rule on the ball about the field's
declared center whose radius is the truncation radius plus the field's pad;
everything outside the ball is covered by the tail bound. At level c it
takes c Gauss-Legendre radii s in [0, R], weighted by the Jacobian
s^{2n-1}, times the trapezoid rule in the angle at n = 1; at n = 2, times
Gauss-Legendre in t = |z_1 - c_1|^2 / s^2 on [0, 1] and the trapezoid rule
in both angles, with dsigma(S^3) = dt dtheta_1 dtheta_2 / 2. A cone
|z|^{mp} about the center is the smooth factor s^{mp}. The angle count per
level grows with the field's reach against R. :func:`integrate_gaussian`
doubles the level from a quarter of the cap, evaluating each level once,
until two successive levels agree to REL_TOL, at most up to the pair
(cap, 2 cap); their difference is the error estimate and the finer value
is returned. The points are evaluated in blocks of whole
radii, fixed by the level, and the block sums are added by math.fsum,
which rounds once, so the total does not depend on their order.

A sup norm scans the ball about the origin of radius 1.1 R + reach + 1 on
the grid of step 0.75 / sqrt(c) at n = 1 and 2, then runs
:func:`grid.pattern_search` from its 8 largest points more than two steps
apart, with the scan step as start step, until it is below 2^-26 of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.special import gammaincc

from .grid import (cube_axis, eight_directions, grid_points, leggauss, pattern_search,
                   to_complex, to_real)

__all__ = [
    "QuadratureError",
    "DivergentIntegral",
    "ScalarField",
    "Integral",
    "scalar_field",
    "truncation_radius",
    "integrate_gaussian",
    "sup_field_norm",
]

TAIL_GRID = 0.25
DEFAULT_EPS_TAIL = 1e-12
# The default cap on the level, the radii of the polar rule: the finer rule
# of the last pair the doubling may reach has twice this.
DEFAULT_CELLS = {1: 256, 2: 32}
# Two grids whose values agree to this relative difference end the doubling.
REL_TOL = 1e-6
# The sup search's scan step, in units of the field's Gaussian scale
# 1/sqrt(decay); the separated scan maxima that start the pattern search;
# and its stop in scan steps, where a peak of that scale is flat to rounding.
_SUP_STEP = 0.75
_SUP_STARTS = 8
_SUP_STOP = 2.0 ** -26
_FIT_DIRECTIONS = {n: to_real(np.array(eight_directions(n))) for n in (1, 2)}
# Points per field evaluation: enough that numpy, not Python, sets the
# pace, few enough that a block's temporaries stay small.
_BLOCK_POINTS = 2 ** 16
# Reported error estimates never drop below this relative floor; differences
# between refinement stages at machine precision are otherwise meaningless.
ERROR_FLOOR = 2.0 ** -50
_MAX_TAIL_SCAN = 1e4


class QuadratureError(Exception):
    """Base class for quadrature failures."""


class DivergentIntegral(QuadratureError):
    """Raised when an integrand cannot have a finite untruncated integral."""


# memoised: every envelope, and so every norm integrand and z-grid, asks again
@lru_cache(maxsize=1024)
def truncation_radius(c: float, d: float, eps_tail: float, n: int = 1) -> float:
    """Smallest radius on a 0.25 grid whose radial tail bound is below eps_tail.

    Parameters
    ----------
    c : float
        Gaussian decay coefficient of the envelope, must be positive.
    d : float
        Polynomial growth degree of the envelope, must be nonnegative.
    eps_tail : float
        Tail mass tolerance.
    n : int
        Complex dimension; the tail lives in real dimension 2n.

    Returns
    -------
    float
        Radius R such that the integral of (1+|z|)^d exp(-c |z|^2) over
        {|z| > R} is bounded by eps_tail.

    Notes
    -----
    For R >= 1 the tail is bounded by comparison with an upper incomplete
    Gamma function:

        int_{|z|>R} (1+|z|)^d e^{-c|z|^2} dV
            <= (2 pi^n / Gamma(n)) 2^{d-1} c^{-(n+d/2)} Gamma(n + d/2, c R^2).

    The scan starts at R = 1 so the (1+rho)^d <= (2 rho)^d comparison is
    valid everywhere it is used.
    """
    if c <= 0:
        raise DivergentIntegral("envelope decay coefficient must be positive")
    if d < 0:
        raise ValueError("envelope growth degree must be nonnegative")
    if eps_tail <= 0:
        raise ValueError("eps_tail must be positive")
    log_eps = math.log(eps_tail)
    r = 1.0
    while r <= _MAX_TAIL_SCAN:
        if _log_tail(c, d, n, r) < log_eps:
            return r
        r += TAIL_GRID
    raise QuadratureError("tail bound did not reach tolerance within scan range")


def _log_tail(c: float, d: float, n: int, radius: float) -> float:
    """log of the tail bound of :func:`truncation_radius` at R = radius:
    (2 pi^n / Gamma(n)) 2^{d-1} c^{-(n+d/2)} Gamma(n + d/2, c R^2), or -inf
    where the regularised Gamma function underflows to zero."""
    a = n + d / 2.0
    frac = float(gammaincc(a, c * radius * radius))
    if frac <= 0.0:
        return -math.inf
    return (
        math.log(2.0)
        + n * math.log(math.pi)
        - math.lgamma(n)
        + (d - 1.0) * math.log(2.0)
        - a * math.log(c)
        + math.log(frac)
        + math.lgamma(a)
    )


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Nonnegative field on C^n with declared envelope metadata.

    ``evaluate`` maps a complex array of shape (N, n) to a float array of
    shape (N,). ``decay`` and ``growth`` are the envelope parameters c and
    d, measured from ``center`` (the origin when center is None). ``pad``
    widens the integration ball and the sup search past the envelope's
    tail radius, for fields whose peaks sit away from the declared center
    (kernel combinations with several centers). ``compact_radius`` marks a
    field supported in a ball about the origin, which exempts it from tail
    accounting.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    n: int
    decay: float
    growth: float
    center: Optional[tuple] = None
    pad: float = 0.0
    compact_radius: Optional[float] = None

    @cached_property
    def envelope_const(self) -> float:
        """The envelope constant K, fitted by sampling on first use."""
        return _fit_envelope_const(self)

    @property
    def tail_radius(self) -> float:
        """The envelope's :func:`truncation_radius` at DEFAULT_EPS_TAIL."""
        return truncation_radius(self.decay, self.growth, DEFAULT_EPS_TAIL, self.n)

    @property
    def reach(self) -> float:
        """|center| + pad: bounds how far the field's peaks sit from the
        origin, and how far its structure off the center sits from the
        center (the origin, where a norm integrand has its |z|^{mp} cone,
        or a peak that the pad covers)."""
        if self.center is None:
            return self.pad
        return float(np.linalg.norm(np.asarray(self.center, dtype=complex))) + self.pad

    def center_coords(self) -> np.ndarray:
        """Real coordinates (2n,) of the declared center."""
        if self.center is None:
            return np.zeros(2 * self.n)
        return to_real(np.asarray(self.center, dtype=complex).reshape(1, self.n))[0]


def scalar_field(
    evaluate: Callable[[np.ndarray], np.ndarray],
    n: int,
    decay: float,
    growth: float,
    center: Optional[Sequence[complex]] = None,
    pad: float = 0.0,
    compact_radius: Optional[float] = None,
) -> ScalarField:
    """Build a ScalarField with its center as a tuple of complex numbers."""
    if n not in (1, 2):
        raise ValueError("only n in {1, 2} is supported")
    ctr = None if center is None else tuple(complex(c) for c in np.asarray(center).reshape(n))
    return ScalarField(evaluate, n, float(decay), float(growth), ctr, float(pad),
                       compact_radius)


def _fit_envelope_const(field: ScalarField) -> float:
    """The maximum of field / envelope on rings around the center along
    ``grid.eight_directions``, so the declared envelope
    inequality holds at every sampled point by construction."""
    if field.decay <= 0 and field.compact_radius is None:
        return 1.0
    if field.compact_radius is not None:
        r_max = field.compact_radius
    else:
        r_max = field.tail_radius
    radii = np.array([0.0, 0.25, 0.5, 1.0, 2.0]) * max(r_max, 1e-6)
    dirs = _FIT_DIRECTIONS[field.n]
    ctr = field.center_coords()
    pts = (radii[:, None, None] * dirs[None, :, :] + ctr).reshape(-1, 2 * field.n)
    z = to_complex(pts)
    vals = np.asarray(field.evaluate(z), dtype=float)
    rel = np.linalg.norm(pts - ctr, axis=1)
    env = (1.0 + rel) ** field.growth * np.exp(-max(field.decay, 0.0) * rel ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(env > 0, vals / env, 0.0)
    k = float(np.max(ratios)) if ratios.size else 1.0
    return max(k, 1e-300)


def _ball_points(axes: Sequence[np.ndarray], radius: float) -> np.ndarray:
    """The points of the tensor grid on axes within radius of the origin,
    complex (N, n), slab by slab along the first axis. The other axes'
    points are built once and sorted by their distance from the origin, so
    a slab's points in the ball are a prefix of them."""
    rest = grid_points([np.zeros(1), *axes[1:]])
    d2 = np.sum(to_real(rest)[:, 1:] ** 2, axis=1)
    order = np.argsort(d2, kind="stable")
    rest = rest[order]
    counts = np.searchsorted(d2[order], radius * radius - axes[0] ** 2, side="right")
    pts = np.concatenate([rest[:count] for count in counts])
    pts[:, 0] += np.repeat(axes[0], counts)
    return pts


def _sphere_rule(n: int, angles: int) -> tuple:
    """Unit points (N, n) and weights (N,) of the product rule on S^{2n-1}:
    the trapezoid rule with ``angles`` nodes in each angle and, at n = 2,
    angles/2 Gauss-Legendre nodes in t = |u_1|^2 on [0, 1], with
    dsigma(S^3) = dt dtheta_1 dtheta_2 / 2. An even count of angles keeps
    the trapezoid rule's aliased modes polynomial in t."""
    turn = np.exp(2j * math.pi * np.arange(angles) / angles)
    step = 2.0 * math.pi / angles
    if n == 1:
        return turn[:, None], np.full(angles, step)
    u, g = leggauss(angles // 2)
    t = (u + 1.0) / 2.0
    first = np.sqrt(t)[:, None, None] * turn[None, :, None]
    second = np.sqrt(1.0 - t)[:, None, None] * turn[None, None, :]
    unit = np.stack(np.broadcast_arrays(first, second), axis=-1).reshape(-1, 2)
    weights = np.repeat(g * step * step / 4.0, angles * angles)
    return unit, weights


def _polar(field: ScalarField, center: np.ndarray, radius: float, cells: int) -> float:
    """The polar product rule about center on the ball of the given radius,
    at level cells; the tail bound covers the rest. Gauss-Legendre radii s
    on [0, radius] carry the Jacobian s^{2n-1}, so a |z|^{mp} cone at the
    centre is the smooth factor s^{mp}. The points are evaluated in blocks
    of whole radii, at most _BLOCK_POINTS points (or one radius) each, and
    the block sums are added by math.fsum."""
    n = field.n
    u, g = leggauss(cells)
    s = radius * (u + 1.0) / 2.0
    ws = radius / 2.0 * g * s ** (2 * n - 1)
    # Angles per circle: cells/4 for a field smooth about its centre, plus
    # one per mean radial node spacing within the reach for structure off
    # it (a one-kernel norm integrand's cone at the origin, the other peaks
    # of a combination), tuned against closed forms of both. At most
    # 3 cells/4, so no level holds more points than a midpoint grid of cells
    # per axis on the same ball.
    share = 0.25 + min(field.reach / radius, 0.5)
    unit, wa = _sphere_rule(n, 2 * max(1, math.ceil(share * cells / 2)))
    per = max(1, _BLOCK_POINTS // len(wa))
    sums = []
    for first in range(0, cells, per):
        run = slice(first, first + per)
        pts = center + (s[run, None, None] * unit[None, :, :]).reshape(-1, n)
        vals = np.asarray(field.evaluate(pts), dtype=float)
        sums.append(float(np.sum(vals * (ws[run, None] * wa[None, :]).ravel())))
    return math.fsum(sums)


def _tail_bound(field: ScalarField, radius: float) -> float:
    if field.compact_radius is not None or field.decay <= 0:
        return 0.0
    log_tail = _log_tail(field.decay, field.growth, field.n, radius)
    log_tail += math.log(field.envelope_const)
    return math.exp(min(log_tail, 700.0))


class Integral(NamedTuple):
    """An integral, its error estimate and the level of its rule (radii)."""

    value: float
    error: float
    cells: int


def integrate_gaussian(field: ScalarField, cells: Optional[int] = None) -> Integral:
    """Integrate a nonnegative field over the ball its envelope sizes.

    Parameters
    ----------
    field : ScalarField
        Integrand with envelope metadata. Must either decay (c > 0) or be
        compactly supported. The ball is centred at its declared center,
        of radius the envelope's truncation radius plus its pad, and
        shrunk to the support of a compact field.
    cells : int, optional
        Cap on the level of the polar rule, its count of Gauss-Legendre
        radii; DEFAULT_CELLS[n] when None.

    Returns
    -------
    Integral
        ``value`` is the polar rule's value at the finer level of the
        first pair of successive levels (c and 2c, c doubling from a
        quarter of the cap) that agree to ``REL_TOL`` relative, or of the
        pair (cap, 2 cap) if none does before it. ``error`` is that pair's
        difference, floored at a small multiple of machine epsilon times
        the value, plus the envelope tail bound outside the ball.
        ``cells`` is the finer level.
    """
    if field.decay <= 0 and field.compact_radius is None:
        raise DivergentIntegral(
            "field has no Gaussian decay and no compact support; "
            "untruncated integral diverges"
        )
    if cells is None:
        cells = DEFAULT_CELLS[field.n]
    if cells < 2:
        raise ValueError("cells must be at least 2")
    center = to_complex(field.center_coords())
    radius = field.tail_radius + field.pad
    if field.compact_radius is not None:
        # No point integrating far outside the support.
        radius = min(radius, field.compact_radius + float(np.linalg.norm(center)))
    # the coarsest level: 2 cells halved while whole and at least max(2, cells // 4)
    level = 2 * cells
    while level % 2 == 0 and level // 2 >= max(2, cells // 4):
        level //= 2
    fine = _polar(field, center, radius, level)
    while True:
        coarse, level = fine, 2 * level
        fine = _polar(field, center, radius, level)
        diff = abs(coarse - fine)
        if diff <= REL_TOL * abs(fine) or level == 2 * cells:
            break
    err = max(diff, ERROR_FLOOR * abs(fine))
    err += _tail_bound(field, radius)
    return Integral(fine, err, level)


def sup_field_norm(field: ScalarField) -> tuple[float, np.ndarray]:
    """The supremum of a field over C^n and a complex point (n,) reaching it,
    by the module docstring's scan of step h = _SUP_STEP / sqrt(decay) and
    pattern search from _SUP_STARTS scan points, stopped below _SUP_STOP h."""
    radius = 1.1 * field.tail_radius + field.reach + 1.0
    n, h = field.n, _SUP_STEP / math.sqrt(field.decay)
    pts = _ball_points([cube_axis(radius, h)] * (2 * n), radius)
    vals = np.concatenate([np.asarray(field.evaluate(pts[i:i + _BLOCK_POINTS]), dtype=float)
                           for i in range(0, len(pts), _BLOCK_POINTS)])
    starts = _sup_starts(pts, vals, h)
    return pattern_search(field.evaluate, pts[starts], vals[starts], h, _SUP_STOP * h)


def _sup_starts(pts: np.ndarray, vals: np.ndarray, h: float) -> np.ndarray:
    """Indices of the _SUP_STARTS largest values above -inf at scan points
    more than two steps h apart, largest first, ties to the lower index.

    A start masks the at most 89 scan points within two steps of it (the k
    in Z^4 with |k|^2 <= 4; 13 at n = 1), so every start lies among the
    first _SUP_STARTS * 89 points of one stable descending sort, and the
    masking passes run over those alone.
    """
    top = np.argsort(-vals, kind="stable")[:_SUP_STARTS * 89]
    xy, starts, free = to_real(pts[top]).T, [], vals[top]
    while len(starts) < _SUP_STARTS and np.max(free) > -math.inf:
        starts.append(j := int(np.argmax(free)))
        # squared distances between grid points are whole multiples of h^2
        free[sum((x - x[j]) ** 2 for x in xy) < 4.5 * h * h] = -math.inf
    return top[starts]
