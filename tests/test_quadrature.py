"""Quadrature checks against Gaussian closed forms.

Every integral here with an exact answer is a Gaussian one: shifted
Gaussians, integral of exp(-c|z-w|^2) over C^n equals (pi/c)^n, and the
norms of monomials, kernels, kernel combinations and the cone |z| against
a Gaussian weight. The other tests pin properties of the truncation, the
sup search's ball points and the resolution rule.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ive

import focksobolev as fs
from focksobolev import quadrature
from focksobolev.grid import cell_axis, cube_axis, grid_points, to_real
from focksobolev.quadrature import _BLOCK_POINTS, _ball_points


def gaussian_field(c, w, n):
    center = np.asarray(w, dtype=complex)

    def ev(pts):
        d = np.abs(pts - center[None, :]) ** 2
        return np.exp(-c * d.sum(axis=1))

    return fs.scalar_field(ev, n, decay=c, growth=0.0, center=tuple(center))


def test_centered_gaussian_n1():
    field = gaussian_field(1.0, [0.0 + 0.0j], 1)
    val, err, _ = fs.integrate_gaussian(field)
    assert abs(val - math.pi) / math.pi < 1e-6
    assert err < 1e-4


def test_shifted_gaussian_n1():
    field = gaussian_field(0.5, [2.0 + 0.0j], 1)
    val, _, _ = fs.integrate_gaussian(field)
    assert abs(val - 2.0 * math.pi) / (2.0 * math.pi) < 1e-6


def test_centered_gaussian_n2():
    field = gaussian_field(2.0, [0.0 + 0.0j, 0.0 + 0.0j], 2)
    val, _, _ = fs.integrate_gaussian(field)
    expect = (math.pi / 2.0) ** 2
    assert abs(val - expect) / expect < 1e-4


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=0.4, max_value=3.0))
def test_gaussian_scale_property(c):
    field = gaussian_field(c, [0.0 + 0.0j], 1)
    val, _, _ = fs.integrate_gaussian(field)
    expect = math.pi / c
    assert abs(val - expect) / expect < 1e-6


def test_truncation_radius_monotone_in_tolerance():
    loose = fs.truncation_radius(1.0, 0.0, 1e-6)
    tight = fs.truncation_radius(1.0, 0.0, 1e-14)
    assert tight > loose > 0.0


def test_truncation_radius_monotone_in_growth():
    flat = fs.truncation_radius(1.0, 0.0, 1e-12)
    grown = fs.truncation_radius(1.0, 6.0, 1e-12)
    assert grown > flat


@settings(max_examples=30, deadline=None)
@given(
    c=st.floats(min_value=0.2, max_value=4.0),
    d=st.floats(min_value=0.0, max_value=8.0),
    eps=st.floats(min_value=1e-14, max_value=1e-4),
)
def test_truncation_radius_tail_bound(c, d, eps):
    """The discarded tail of r^d e^{-c r^2} really is below eps."""
    radius = fs.truncation_radius(c, d, eps)
    grid = np.linspace(radius, radius + 30.0, 20_000)
    tail = np.trapezoid(grid ** (d + 1) * np.exp(-c * grid * grid), grid) * 2.0 * math.pi
    assert tail <= eps * 1.01


def test_lp_field_norm_matches_direct():
    field = gaussian_field(1.0, [0.0 + 0.0j], 1)
    squared = fs.scalar_field(lambda z: field.evaluate(z) ** 2, 1, decay=2.0, growth=0.0)
    # integral of e^{-2|z|^2} is pi/2, so the L^2 norm is sqrt(pi/2)
    val, _, _ = fs.integrate_gaussian(squared)
    assert abs(math.sqrt(val) - math.sqrt(math.pi / 2.0)) < 1e-8


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("block_points", [6, 200, 2 ** 16])
def test_ball_blocks_hold_the_grid_points_in_the_ball(monkeypatch, n, block_points):
    """The ball points hold each tensor-grid point within the radius of the
    origin once, slab by slab: the first real coordinate never decreases.
    The sup search evaluates them in blocks of _BLOCK_POINTS points, and its
    peak and point are the same at every block size."""
    rng = np.random.default_rng(n)
    axes = [c + cell_axis(cells, h) for c, cells, h in
            zip(rng.uniform(-0.3, 0.3, 2 * n), (9, 8, 7, 10), rng.uniform(0.2, 0.6, 2 * n))]
    radius = 1.1
    grid = grid_points(axes)
    inside = grid[np.sum(to_real(grid) ** 2, axis=1) <= radius ** 2]
    got = _ball_points(axes, radius)
    assert 0 < len(inside) < len(grid) and len(got) == len(inside)
    assert np.all(np.diff(got[:, 0].real) >= 0)
    assert np.array_equal(got[:, 0].real, inside[:, 0].real)
    assert set(map(tuple, got)) == set(map(tuple, inside))
    field = gaussian_field(1.0, [0.7 - 0.4j] * n, n)
    val, loc = fs.sup_field_norm(field)
    monkeypatch.setattr(quadrature, "_BLOCK_POINTS", block_points)
    blocked_val, blocked_loc = fs.sup_field_norm(field)
    assert blocked_val == val and np.array_equal(blocked_loc, loc)


def test_sup_field_norm_finds_offcenter_peak():
    field = gaussian_field(1.0, [1.5 + 0.5j], 1)
    val, loc = fs.sup_field_norm(field)
    assert abs(val - 1.0) <= 1e-15
    assert abs(complex(loc[0]) - (1.5 + 0.5j)) < 1e-8


def _reference_sup(field):
    """The fixed-grid sup search that the scan and pattern search replaced:
    256 (n = 1) or 40 (n = 2) cells per axis over the search ball, then four
    rounds of 16 cells per axis about the best point, the window shrinking
    by 8 per round."""
    n = field.n
    radius = 1.1 * field.tail_radius + field.reach + 1.0
    cells = {1: 256, 2: 40}[n]
    half = 2.0 * radius / cells
    best = (-math.inf, None)
    axes = [cell_axis(cells, half)] * (2 * n)
    for _ in range(5):
        ball = _ball_points(axes, radius)
        for first in range(0, len(ball), _BLOCK_POINTS):
            pts = ball[first:first + _BLOCK_POINTS]
            vals = field.evaluate(pts)
            j = int(np.argmax(vals))
            if vals[j] > best[0]:
                best = (float(vals[j]), pts[j])
        axes = [x + cell_axis(16, 2.0 * half / 16) for x in to_real(best[1][None, :])[0]]
        half /= 8.0
    return best


def _masking_starts(pts, vals, h):
    """The start selection that ``_sup_starts`` replaced: up to eight masking
    passes over the whole scan, each taking the largest value left (the
    first index on a tie) and masking every point within two steps of it."""
    xy, starts, free = to_real(pts).T.copy(), [], vals.copy()
    while len(starts) < 8 and np.max(free) > -math.inf:
        starts.append(j := int(np.argmax(free)))
        free[sum((x - x[j]) ** 2 for x in xy) < 4.5 * h * h] = -math.inf
    return starts


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("support", [2.5, 0.3])
def test_sup_starts_match_the_masking_loop(n, support):
    """Four peaks of plateaus, values floored to eighths so that many tie,
    and -inf outside |z| <= support: the same starts in the same order, all
    eight of them on the wide support and fewer on the narrow one."""
    h = 0.25
    pts = _ball_points([cube_axis(3.0, h)] * (2 * n), 3.0)
    peaks = np.array([[1.0], [-1.0], [1j], [0.5 - 0.5j]])
    if n == 2:
        peaks = np.hstack([peaks, peaks[::-1]])
    d2 = np.sum(np.abs(pts[:, None, :] - peaks[None, :, :]) ** 2, axis=2)
    vals = np.floor(8.0 * np.max(np.exp(-d2), axis=1)) / 8.0
    vals[np.linalg.norm(pts, axis=1) > support] = -math.inf
    starts = quadrature._sup_starts(pts, vals, h).tolist()
    assert starts == _masking_starts(pts, vals, h)
    assert (len(starts) == 8) == (support > 1.0)


def _sup_fields(n, m):
    """Multi-peak norm integrands at p = inf: the probe family's kernel
    combinations and two random polynomials of degree 2 and 3."""
    P = fs.Params(n=n, alpha=1.0, m=m, p=math.inf, q=math.inf)
    rng = np.random.default_rng(10 * n + m)
    fns = [f for name, f in fs.probe_family(P, seed=m, combos=6 if n == 1 else 2)
           if name.startswith("combo")]
    for degree in (2, 3):
        indices = [b for b in np.ndindex(*(degree + 1,) * n) if sum(b) <= degree]
        fns.append(fs.polynomial({b: complex(*rng.standard_normal(2)) for b in indices}, n))
    return [fs.norm_integrand_field(f, P, 1.0) for f in fns]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_sup_field_norm_never_below_the_fixed_grid_search(n, m):
    for field in _sup_fields(n, m):
        assert fs.sup_field_norm(field)[0] >= _reference_sup(field)[0] * (1.0 - 1e-12)


def test_integrate_gaussian_rejects_a_field_without_decay_or_support():
    field = fs.scalar_field(lambda z: np.ones(len(z)), 1, decay=0.0, growth=0.0)
    with pytest.raises(fs.DivergentIntegral):
        fs.integrate_gaussian(field)


def test_integrate_gaussian_evaluates_each_level_once(monkeypatch):
    """At cells = 24 the levels double from 6 up to the cap 48; each is
    evaluated once, coarsest first, and the first agreeing pair returns its
    finer level."""
    field = fs.scalar_field(lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=1)), 1,
                            decay=1.0, growth=0.0)

    def levels(value):
        seen = []
        monkeypatch.setattr(quadrature, "_polar",
                            lambda field, center, radius, cells: seen.append(cells) or value(cells))
        return fs.integrate_gaussian(field, cells=24), seen

    res, seen = levels(lambda cells: 1.0 / cells)  # no two levels agree
    assert seen == [6, 12, 24, 48]
    assert res.value == 1.0 / 48 and res.cells == 48
    assert res.error >= 1.0 / 24 - 1.0 / 48
    res, seen = levels(lambda cells: 1.0)
    assert seen == [6, 12] and res.cells == 12


def _monomial_norm(k, m, p):
    """Norm of z^k at n = 1, alpha = 1."""
    return (2.0 / p) ** (k / 2.0) * math.exp(
        (math.lgamma((m + k) * p / 2.0 + 1.0) - math.lgamma(m * p / 2.0 + 1.0)) / p)


def _cone_norm(w):
    """Norm of k_w at n = 1, m = 1, p = 1, alpha = 1: C int |z| e^{-|z - w|^2 / 2},
    2 pi C times the Rice mean sqrt(pi/2) L_{1/2}(-|w|^2 / 2), where
    L_{1/2}(x) = e^{x/2} [(1 - x) I_0(-x/2) - x I_1(-x/2)]."""
    x = -abs(w) ** 2 / 2.0
    laguerre = (1.0 - x) * ive(0, -x / 2.0) - x * ive(1, -x / 2.0)
    return (fs.norm_constant(1.0, 1, 1, 1.0) * 2.0 * math.pi
            * math.sqrt(math.pi / 2.0) * laguerre)


_COMBO_TERMS_N1 = [(1.0, (1.5 - 0.5j,)), (0.5 - 0.2j, (-1.0j,)), (-0.3, (0.8 + 0.8j,))]
_COMBO_TERMS_N2 = [(1.0, (0.6, -0.3j)), (0.5 - 0.2j, (-1.0j, 0.5)), (-0.3, (1.2, 0.4 + 0.4j))]


def _combo(terms):
    return fs.KernelCombo(n=len(terms[0][1]), terms=tuple(
        fs.KernelTerm(center=w, coeff=c) for c, w in terms))


def _combo_norm(terms):
    """p = 2, m = 0, alpha = 1: ||sum c_j k_{w_j}||^2 is the sum over i, j of
    c_i conj(c_j) exp(<w_j, w_i> - (|w_i|^2 + |w_j|^2) / 2), where
    <w_j, w_i> = sum_k w_jk conj(w_ik) is np.vdot(w_i, w_j)."""
    total = sum(ci * np.conj(cj) * np.exp(np.vdot(wi, wj) - (np.vdot(wi, wi) + np.vdot(wj, wj)) / 2)
                for ci, wi in terms for cj, wj in terms)
    return math.sqrt(total.real)


ERROR_CASES = (
    [(fs.one(1), 1, m, p, 1.0) for m in (0, 1, 2) for p in (1.0, 2.0, 4.0)]
    + [(fs.polynomial({(k,): 1.0}, 1), 1, m, p, _monomial_norm(k, m, p))
       for k in (1, 3) for m in (0, 1) for p in (1.0, 2.0)]
    + [(fs.kernel([1.5 - 0.5j], n=1, normalized=False), 1, 0, 2.0, math.exp(1.25)),
       (fs.one(2), 2, 0, 2.0, 1.0),
       (fs.one(2), 2, 1, 1.0, 1.0),  # the cone |z| e^{-|z|^2/2}
       (fs.one(2), 2, 2, 2.0, 1.0),
       (fs.kernel([0.6, -0.3j], n=2), 2, 0, 2.0, 1.0),
       (fs.kernel([1.0], n=1), 1, 1, 1.0, _cone_norm(1.0))]
    + [(_combo(terms), len(terms[0][1]), 0, 2.0, _combo_norm(terms))
       for terms in (_COMBO_TERMS_N1, _COMBO_TERMS_N2)]
)


@pytest.mark.parametrize("f,n,m,p,exact", ERROR_CASES)
def test_norm_error_estimate_bounds_true_error(f, n, m, p, exact):
    P = fs.Params(n=n, alpha=1.0, m=m, p=p, q=p)
    value, err, cells = fs.norm_with_error(f, P)
    assert abs(value - exact) <= err
    assert cells <= 2 * quadrature.DEFAULT_CELLS[n]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("c,shift", [(0.5, 0.0), (1.0, 2.0), (2.0, 0.3)])
def test_integral_error_estimate_bounds_true_error(n, c, shift):
    center = [shift] + [0.0] * (n - 1)
    value, err, _ = fs.integrate_gaussian(gaussian_field(c, center, n))
    assert abs(value - (math.pi / c) ** n) <= err


def _spy_polar(monkeypatch):
    seen = []
    real = quadrature._polar

    def spy(field, center, radius, cells):
        seen.append(cells)
        return real(field, center, radius, cells)

    monkeypatch.setattr(quadrature, "_polar", spy)
    return seen


@pytest.mark.parametrize("n", [1, 2])
def test_cone_stops_below_the_cap(monkeypatch, n):
    """|z| at m = 1, p = 1 is the smooth factor s of the polar rule about
    the origin: the doubling stops below the cap, at the closed form."""
    seen = _spy_polar(monkeypatch)
    P = fs.Params(n=n, alpha=1.0, m=1, p=1.0, q=1.0)
    value, err, cells = fs.norm_with_error(fs.one(n), P)
    cap = quadrature.DEFAULT_CELLS[n]
    assert seen[0] == cap // 4 and cells < 2 * cap and max(seen) == cells
    assert abs(value - 1.0) <= 1e-12 and abs(value - 1.0) <= err


@pytest.mark.parametrize("f,m,exact", [
    (fs.one(2), 0, 1.0),
    (fs.one(2), 2, 1.0),
    # monomials are orthogonal, and |z_j|^2 at m = 1 has (m + 2)/2 = 3/2 of
    # the unit's weighted mass
    (fs.polynomial({(0, 0): 1.0, (1, 0): 1.0 - 2.0j, (0, 1): 0.5j}, 2), 1,
     math.sqrt(1.0 + 1.5 * (5.0 + 0.25))),
], ids=["unit-m0", "unit-m2", "degree1-m1"])
def test_smooth_n2_norm_stops_below_the_cap(monkeypatch, f, m, exact):
    seen = _spy_polar(monkeypatch)
    P = fs.Params(n=2, alpha=1.0, m=m, p=2.0, q=2.0)
    value, _, cells = fs.norm_with_error(f, P)
    cap = 2 * quadrature.DEFAULT_CELLS[2]
    assert cells < cap and max(seen) == cells
    assert abs(value - exact) <= 1e-12 * exact
