"""Positive Borel measures on C^n and their averaged transforms.

Measures come in two concrete flavours: finite atom lists and densities
against volume from a small catalog (Lebesgue, Gaussian, polynomial
growth, a compact ring, and a power times a Gaussian of either sign,
the pullback of a radial symbol pair). Atomic sums are exact. Every
catalog density is radial, so each of its objects is a one-dimensional
integral in s = |z|, taken by one radial rule: Gauss-Legendre on panels
in s, in chunks of distinct radii, with numpy's Bessel kernel ``_ive``.
Atomic ball masses find their (atom, centre) pairs in a cell list.

The two observables driving the embedding theory are the ball mass
``mu(B(w, r))`` scaled by ``(1 + |w|)^{-s}`` and the Gaussian-kernel
transform ``w -> int exp(-t a |z - w|^2 / 2) (1 + |z|)^{-s} dmu(z)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .grid import leggauss, to_real
from .quadrature import truncation_radius

__all__ = [
    "AtomicMeasure",
    "DensityMeasure",
    "Measure",
    "lebesgue",
    "gaussian",
    "polygrowth",
    "ring",
    "atoms_on_lattice",
    "discretize",
    "ball_mass_many",
    "averaging_sequence",
    "total_weighted_mass",
    "effective_radius",
]

@dataclass(frozen=True)
class AtomicMeasure:
    """Finite sum of point masses: locations (k, n) complex, weights (k,)."""

    locations: np.ndarray
    weights: np.ndarray
    n: int

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=complex).reshape(-1, self.n)
        wts = np.asarray(self.weights, dtype=float).reshape(-1)
        if loc.shape[0] != wts.shape[0]:
            raise ValueError("locations and weights disagree in length")
        if np.any(wts < 0):
            raise ValueError("weights must be nonnegative")
        if not (np.all(np.isfinite(loc)) and np.all(np.isfinite(wts))):
            raise ValueError("locations and weights must be finite")
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", wts)

    @property
    def extent(self) -> float:
        if self.locations.shape[0] == 0:
            return 0.0
        return float(np.max(np.linalg.norm(self.locations, axis=1)))

    def __len__(self) -> int:
        return int(self.weights.shape[0])


@dataclass(frozen=True)
class DensityMeasure:
    """Measure rho(z) dV with rho from a fixed catalog.

    kind is one of "lebesgue", "gaussian", "polygrowth", "ring",
    "power-gaussian"; ``rate`` is the Gaussian decay, ``power`` the
    polynomial growth exponent, ``ring_radius``/``ring_width`` the annulus
    geometry, ``scale`` a global multiplier. "power-gaussian" is
    scale * |z|^power * exp(-rate |z|^2), with power >= 0 and a rate of
    either sign.
    """

    kind: str
    n: int
    scale: float = 1.0
    rate: float = 0.0
    power: float = 0.0
    ring_radius: float = 0.0
    ring_width: float = 0.0

    def __post_init__(self):
        if self.kind not in ("lebesgue", "gaussian", "polygrowth", "ring", "power-gaussian"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        if not all(map(math.isfinite, (self.scale, self.rate, self.power,
                                       self.ring_radius, self.ring_width))):
            raise ValueError("density parameters must be finite")
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")
        if self.kind == "gaussian" and not (self.rate > 0):
            raise ValueError("gaussian density needs a positive rate")
        if self.kind == "power-gaussian" and not (self.power >= 0):
            raise ValueError("power-gaussian density needs a nonnegative power")
        if self.kind == "ring" and not (self.ring_radius > 0 and self.ring_width > 0):
            raise ValueError("ring density needs positive radius and width")

    def density(self, pts: np.ndarray) -> np.ndarray:
        """Density values on a batch (N, n) of complex points."""
        return self.profile(np.linalg.norm(pts, axis=1))

    def profile(self, r: np.ndarray) -> np.ndarray:
        """Density values at radii r = |z|; every catalog density is radial."""
        if self.kind == "lebesgue":
            out = np.ones_like(r)
        elif self.kind == "gaussian":
            out = np.exp(-self.rate * r ** 2)
        elif self.kind == "polygrowth":
            with np.errstate(over="ignore"):  # a large power is inf far out
                out = (1.0 + r) ** self.power
        elif self.kind == "power-gaussian":
            with np.errstate(over="ignore"):  # a negative rate is inf far out
                out = r ** self.power * np.exp(-self.rate * r ** 2)
        else:
            half = self.ring_width / 2.0
            out = (np.abs(r - self.ring_radius) <= half).astype(float)
        return self.scale * out

    @property
    def compact_extent(self) -> Optional[float]:
        if self.kind == "ring":
            return self.ring_radius + self.ring_width / 2.0
        return None


Measure = Union[AtomicMeasure, DensityMeasure]


def lebesgue(n: int, scale: float = 1.0) -> DensityMeasure:
    return DensityMeasure(kind="lebesgue", n=n, scale=scale)


def gaussian(rate: float, n: int, scale: float = 1.0) -> DensityMeasure:
    return DensityMeasure(kind="gaussian", n=n, scale=scale, rate=rate)


def polygrowth(power: float, n: int, scale: float = 1.0) -> DensityMeasure:
    return DensityMeasure(kind="polygrowth", n=n, scale=scale, power=power)


def ring(ring_radius: float, ring_width: float, n: int, scale: float = 1.0) -> DensityMeasure:
    return DensityMeasure(
        kind="ring", n=n, scale=scale, ring_radius=ring_radius, ring_width=ring_width
    )


def atoms_on_lattice(lat) -> AtomicMeasure:
    """Unit point masses on the centers of a lattice."""
    return AtomicMeasure(locations=lat.as_complex(), weights=np.ones(len(lat)), n=lat.n)


def effective_radius(mu: Measure) -> Optional[float]:
    """Radius holding all but a 1e-12 fraction of decaying mass, if finite."""
    if isinstance(mu, AtomicMeasure):
        return mu.extent
    if mu.compact_extent is not None:
        return mu.compact_extent
    if mu.kind == "gaussian":
        return truncation_radius(mu.rate, 0.0, 1e-12 * max(mu.scale, 1e-300), mu.n)
    return None


def discretize(mu: AtomicMeasure, radius: float) -> AtomicMeasure:
    """The atoms of mu in the ball |z| <= radius, as a density is cut."""
    keep = np.linalg.norm(mu.locations, axis=1) <= radius
    return AtomicMeasure(mu.locations[keep], mu.weights[keep], mu.n)


def _radial_rule(a, b) -> tuple:
    """Nodes and weights (..., 48) of the radial rule on panels [a, b]: 48
    Gauss-Legendre nodes u under the cosine map -cos(pi (u + 1) / 2), which
    crowds the nodes at both ends of a panel, where the ball-mass
    integrands have square-root edges."""
    u, g = leggauss(48)
    angle = np.pi * (u + 1.0) / 2.0
    a, b = np.asarray(a, dtype=float)[..., None], np.asarray(b, dtype=float)[..., None]
    half = (b - a) / 2.0
    return a + half - half * np.cos(angle), half * g * np.sin(angle) * np.pi / 2.0


def _cut(mu: DensityMeasure, a, b, extent: float) -> tuple:
    """Panels [a, b] cut to the density's support within |z| <= extent; a
    decaying power-gaussian's to its bulk, however narrow that is."""
    lo, hi = 0.0, extent
    if mu.kind == "ring":
        lo, hi = max(mu.ring_radius - mu.ring_width / 2.0, 0.0), min(mu.compact_extent, extent)
    elif mu.kind == "power-gaussian" and mu.rate > 0:
        # past this radius s^power exp(-rate s^2) is below e^-40 of its peak
        P, R = mu.power, mu.rate
        hi = min(math.sqrt(P / (2.0 * R)) + math.sqrt((40.0 + P) / R), extent)
    return np.clip(a, lo, hi), np.clip(b, lo, hi)


def _sphere(s: np.ndarray, n: int) -> np.ndarray:
    """Area |S^{2n-1}| s^{2n-1} of the sphere |z| = s in C^n."""
    return 2.0 * math.pi ** n / math.factorial(n - 1) * s ** (2 * n - 1)


def _integrate(weights: np.ndarray, *factors) -> np.ndarray:
    """Rule sums over the last axis of weights times factors. A density can
    overflow to inf far out, and 0 * inf counts 0, as in measure theory."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.nansum(weights * math.prod(factors), axis=-1)


# Distinct |c| or radii per chunk of the radial rules: their (2, chunk, 48)
# temporaries stay below glibc's mmap threshold, and _ive runs in cache.
_RADIAL_CHUNK = 128


def _radial_ball_masses(mu: DensityMeasure, norms: np.ndarray, radius: float,
                        extent: float) -> np.ndarray:
    """mu(B(c, radius)) at |c| = norms, for mu restricted to |z| <= extent.

    The sphere |z| = s meets the ball in a cap of polar angle theta, with
    cos theta = (s^2 + |c|^2 - radius^2) / (2 s |c|) clipped to [-1, 1]; it
    covers theta / pi of the sphere at n = 1 and (theta - sin theta cos
    theta) / pi at n = 2. Two panels per distinct |c|: whole spheres up to
    ||c| - radius|, then caps up to |c| + radius.
    """
    a, inverse = np.unique(norms, return_inverse=True)
    mass = np.empty(a.size)
    for lo in range(0, a.size, _RADIAL_CHUNK):
        c = a[lo:lo + _RADIAL_CHUNK]
        edge = np.abs(c - radius)
        s, w = _radial_rule(*_cut(mu, np.stack([np.maximum(c - radius, 0.0), edge]),
                                  np.stack([edge, c + radius]), extent))
        cos = np.clip((s ** 2 + c[:, None] ** 2 - radius ** 2)
                      / np.maximum(2.0 * s * c[:, None], 1e-300), -1.0, 1.0)
        theta = np.arccos(cos)
        cap = theta if mu.n == 1 else theta - np.sqrt(1.0 - cos ** 2) * cos
        mass[lo:lo + _RADIAL_CHUNK] = _integrate(w, mu.profile(s), _sphere(s, mu.n),
                                                 cap / math.pi).sum(axis=0)
    return mass[inverse.reshape(-1)]


# Horner coefficients, highest power first, of e^{-x} I_nu(x): the power
# series sum_k y^k / (k! (k + nu)!) in y = x^2 / 4 below _IVE_SPLIT and
# Hankel's expansion sum_k (-1)^k a_k(nu) / x^k above, each to 2^-56 at it.
_IVE_SPLIT = 20.0
_IVE = {nu: ([1.0 / (math.factorial(k) * math.factorial(k + nu)) for k in range(34, -1, -1)],
             list(itertools.accumulate(range(1, 26), initial=1.0, func=lambda a, k:
                                       a * ((2 * k - 1) ** 2 - 4 * nu * nu) / (8 * k)))[::-1])
        for nu in (0, 1)}


def _horner(coefficients: list, y: np.ndarray) -> np.ndarray:
    acc = np.full_like(y, coefficients[0])
    for c in coefficients[1:]:
        acc *= y
        acc += c
    return acc


def _ive(nu: int, x: np.ndarray) -> np.ndarray:
    """e^{-x} I_nu(x) for nu in {0, 1} and x >= 0, within 2.1e-15 relative of
    the Cephes i0e and i1e: (x / 2)^nu e^{-x} times the power series below
    _IVE_SPLIT, Hankel's expansion over sqrt(2 pi x) above."""
    flat, out = x.ravel(), np.empty(x.size)
    low, high = np.flatnonzero(flat < _IVE_SPLIT), np.flatnonzero(flat >= _IVE_SPLIT)
    v = flat[low]
    out[low] = _horner(_IVE[nu][0], v * v / 4.0) * np.exp(-v) * (v / 2.0) ** nu
    v = flat[high]
    out[high] = _horner(_IVE[nu][1], 1.0 / v) / np.sqrt(2.0 * math.pi * v)
    return out.reshape(x.shape)


def _radial_transform(mu: DensityMeasure, c: float, s: float, extent: float) -> tuple:
    """The transform w -> int (1 + |z|)^{-s} exp(-c |w - z|^2) dmu(z) of mu
    restricted to |z| <= extent, at radii |w| in [0, extent].

    The sphere average of exp(-c |w - z|^2) over |z| = s is
    exp(-c (s - |w|)^2) A_n(2 c s |w|), with A_1 = _ive(0, x) and
    A_2 = 2 _ive(1, x) / x. Returns (radii, values, weights): the radii are
    the radial rule's nodes on unit panels of [0, extent], and the weights
    integrate a function of |w| over the ball |w| <= extent.
    """
    edges = np.append(np.arange(0.0, extent, 1.0), extent)
    radii, dr = (x.ravel() for x in _radial_rule(edges[:-1], edges[1:]))
    values = np.empty(radii.size)
    tail = math.sqrt(40.0 / c)
    for lo in range(0, radii.size, _RADIAL_CHUNK):
        # two panels per radius, which meet at the Gaussian's peak, out to
        # where the Gaussian factor falls below exp(-40)
        rho = radii[lo:lo + _RADIAL_CHUNK, None]
        z, w = _radial_rule(*_cut(mu, np.stack([rho[:, 0] - tail, rho[:, 0]]),
                                  np.stack([rho[:, 0], rho[:, 0] + tail]), extent))
        x = np.maximum(2.0 * c * z * rho, 1e-300)
        mean = _ive(0, x) if mu.n == 1 else 2.0 * _ive(1, x) / x
        values[lo:lo + _RADIAL_CHUNK] = _integrate(
            w, mu.profile(z), (1.0 + z) ** (-s), _sphere(z, mu.n),
            np.exp(-c * (z - rho) ** 2) * mean).sum(axis=0)
    return radii, values, dr * _sphere(radii, mu.n)


# Atoms per block of a ball-mass read: a fixed size, so a mass depends on
# mu, its centre and the radius alone, bit for bit, whatever else is read.
_ATOMS_PER_BLOCK = 1024


def ball_mass_many(mu: Measure, centers: np.ndarray, radius: float) -> np.ndarray:
    """Ball masses mu(B(c, radius)) of strict Euclidean balls at centers (N, n):
    atoms summed exactly (``_atom_ball_masses``), a density by one radial
    integral per distinct |c| (``_radial_ball_masses``)."""
    cs = np.asarray(centers, dtype=complex).reshape(-1, mu.n)
    if isinstance(mu, DensityMeasure):
        return _radial_ball_masses(mu, np.linalg.norm(cs, axis=1), radius, math.inf)
    return _atom_ball_masses(mu, mu.weights[:, None], cs, radius)[:, 0]


def _atom_ball_masses(mu: AtomicMeasure, weights: np.ndarray, centers: np.ndarray,
                      radius: float) -> np.ndarray:
    """Ball masses (N, S) at centers (N, n) of mu's atoms under each column of
    weights (len(mu), S), summed as a read of that column alone would.

    The centres are sorted by cell key in a cell list of side h >= radius / k,
    k = 3 - n (the faster on the suites' reads), so a ball's pairs lie in
    (2k + 1)^(2n - 1) runs of 2k + 1 keys along the last axis, which one
    searchsorted per distinct atom cell of a block of _ATOMS_PER_BLOCK
    finds. Candidates within the padded radius in real coordinates are
    pairs, those within 1e-12 of it by the strict |z - c| < radius of
    np.linalg.norm; in atom order, so a mass depends on mu, c and r alone."""
    out = np.zeros((centers.shape[0], weights.shape[1]))
    if len(mu) == 0 or centers.shape[0] == 0:
        return out
    real, creal, k = to_real(mu.locations), to_real(centers), 3 - mu.n
    # at most 8192 cells across the centres' box keeps the keys within int64
    h = max(radius * (1.0 + 1e-9) / k, float(np.abs(creal).max()) / 4096.0)
    ccell = np.floor(creal / h).astype(np.int64)
    lo = ccell.min(axis=0) - 2 * k
    span = ccell.max(axis=0) - lo + 2 * k + 1
    stride = np.cumprod(np.append(1, span[:0:-1]))[::-1]
    order = np.argsort((ccell - lo) @ stride, kind="stable")
    keys, cols = ((ccell - lo) @ stride)[order], list(creal[order].T.copy())
    ax = real.shape[1] - 1
    runs = (np.indices((2 * k + 1,) * ax).reshape(ax, -1).T - k) @ stride[:-1] - k
    inner, outer = (radius * (1.0 - 1e-12)) ** 2, (radius * (1.0 + 1e-12)) ** 2
    for first in range(0, len(mu), _ATOMS_PER_BLOCK):
        cell = np.floor(real[first:first + _ATOMS_PER_BLOCK] / h)
        # an atom more than k cells outside the centres' box has no candidate
        atom = np.flatnonzero(np.all((cell >= lo + k) & (cell < lo + span - k), axis=1))
        ucell, inv = np.unique((cell[atom].astype(np.int64) - lo) @ stride, return_inverse=True)
        start = np.searchsorted(keys, ucell[:, None] + runs)[inv].ravel()
        count = np.searchsorted(keys, ucell[:, None] + runs + 2 * k, "right")[inv].ravel() - start
        per_atom = count.reshape(atom.size, runs.size).sum(axis=1)
        pos = np.arange(count.sum()) + np.repeat(start + count - np.cumsum(count), count)
        d2 = np.zeros(pos.size)
        for col, x in zip(cols, real[first + atom].T):
            diff = np.repeat(x, per_atom)
            diff -= col.take(pos)
            d2 += np.square(diff, out=diff)
        hit = np.flatnonzero(d2 <= outer)
        i, j, inside = np.repeat(first + atom, per_atom)[hit], order[pos[hit]], d2[hit] < inner
        edge = np.flatnonzero(~inside)
        inside[edge] = np.linalg.norm(mu.locations[i[edge]] - centers[j[edge]], axis=1) < radius
        i, j = i[inside], j[inside]
        for col, w in zip(out.T, weights.T):
            col += np.bincount(j, weights=w[i], minlength=out.shape[0])
    return out


# No library path calls averaging_sequence (carleson reads the sequence in
# bulk). It stays because perfbench's tracer looks it up by name, and tests
# use it as a reference.
def averaging_sequence(mu: Measure, lat, r: float, s: float) -> np.ndarray:
    """Averaging-function values mu(B(c, r)) / (1 + |c|)^s at the lattice centers."""
    centers = lat.as_complex()
    mass = ball_mass_many(mu, centers, r)
    return mass / (1.0 + np.linalg.norm(centers, axis=1)) ** s


def _gaussian(x: np.ndarray, r: np.ndarray, c: float) -> np.ndarray:
    """exp(-c |x_i - r_j|^2) between real coordinate rows x (P, d) and r (N, d)."""
    d2 = np.zeros((x.shape[0], r.shape[0]))
    diff = np.empty_like(d2)
    for k in range(x.shape[1]):
        np.subtract.outer(x[:, k], r[:, k], out=diff)
        d2 += np.square(diff, out=diff)
    return np.exp(np.multiply(d2, -c, out=d2), out=d2)


def _khatri_rao(factors: list) -> np.ndarray:
    """Row-wise Khatri-Rao product (L_1 ... L_k, N) of factors (L_i, N), ij order."""
    out = factors[0]
    for f in factors[1:]:
        out = (out[:, None, :] * f[None, :, :]).reshape(-1, f.shape[1])
    return out


def _own_grid(real: np.ndarray, dw: np.ndarray, shape: tuple, budget: int):
    """Damped weights scattered onto the tensor grid of the atoms' own
    per-axis coordinates, and that grid's axes. None when the grid tops
    the budget or its first contraction costs more multiply-adds than the
    Khatri-Rao product, decided from the unique counts alone."""
    axes, where = [], []
    for col in real.T:
        g, i = np.unique(col, return_inverse=True)  # so numpy.ma (15 ms) stays unloaded
        axes.append(g)
        where.append(i)
        if math.prod(g.size for g in axes) > budget:
            return None
    sizes = [g.size for g in axes]
    if math.prod(sizes) * shape[0] > len(dw) * math.prod(shape):
        return None
    idx = np.ravel_multi_index(where, sizes)
    return np.bincount(idx, weights=dw, minlength=math.prod(sizes)).reshape(sizes), axes


def _gauss_transform(mu: AtomicMeasure, c: float, s: float, where) -> np.ndarray:
    """Exact transform w -> sum_j mu_j (1 + |z_j|)^{-s} exp(-c |w - z_j|^2).

    ``where`` is either a complex (P, n) array of points, giving P values,
    or the 2n real axes of a tensor grid, giving values in the grid's
    shape, ij-ordered like ``grid.grid_points``. On a grid the Gaussian
    factors over the real axes. Atoms whose own per-axis coordinates span
    a small tensor grid (a pullback through a map that sends each real
    axis to a multiple of one axis) have their weights scattered onto
    that grid, which is contracted axis by axis with the factors
    exp(-c (x_i - g_j)^2). Any other atoms go through the matrix product
    (A_1 .. A_n) diag(mu) (A_n+1 .. A_2n)^T of the per-axis factors
    A_k[i, j] = exp(-c (x_k,i - z_j,k)^2), with each group of n combined
    by a row-wise Khatri-Rao product.
    """
    n = mu.n
    real = to_real(mu.locations)
    dw = mu.weights * (1.0 + np.linalg.norm(mu.locations, axis=1)) ** (-s)
    budget = 4_000_000  # elements in one temporary pair block
    if isinstance(where, np.ndarray):
        x = to_real(where.reshape(-1, n))
        out = np.zeros(x.shape[0])
        chunk = max(1, budget // max(len(mu), 1))
        for lo in range(0, x.shape[0], chunk):
            out[lo:lo + chunk] = _gaussian(x[lo:lo + chunk], real, c) @ dw
        return out
    shape = tuple(ax.size for ax in where)
    own = _own_grid(real, dw, shape, budget)
    if own is not None:
        out, grid = own
        # each contraction eats the leading grid axis and appends its w-axis
        for ax, g in zip(where, grid):
            out = np.tensordot(out, _gaussian(ax[:, None], g[:, None], c), axes=(0, 1))
        return out
    rows = (math.prod(shape[:n]), math.prod(shape[n:]))
    out = np.zeros(rows)
    chunk = max(1, budget // max(rows))
    for lo in range(0, len(mu), chunk):
        part = slice(lo, lo + chunk)
        fac = [_gaussian(ax[:, None], real[part, k:k + 1], c) for k, ax in enumerate(where)]
        out += (_khatri_rao(fac[:n]) * dw[part]) @ _khatri_rao(fac[n:]).T
    return out.reshape(shape)


def total_weighted_mass(mu: Measure, s: float, radius: float) -> float:
    """int_{|z| <= radius} (1 + |z|)^{-s} dmu(z), truncated at the radius.

    A density's mass is one radial integral, on unit panels of [0, radius].
    """
    if isinstance(mu, DensityMeasure):
        edges = np.append(np.arange(0.0, radius, 1.0), radius)
        r, w = _radial_rule(*_cut(mu, edges[:-1], edges[1:], radius))
        return float(_integrate(w, mu.profile(r), (1.0 + r) ** (-s), _sphere(r, mu.n)).sum())
    r = np.linalg.norm(mu.locations, axis=1)
    keep = r <= radius
    return float(np.sum(mu.weights[keep] * (1.0 + r[keep]) ** (-s)))
