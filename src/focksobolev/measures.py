"""Positive Borel measures on C^n and their averaged transforms.

Measures come in two concrete flavours: finite atom lists and densities
against volume from a small catalog (Lebesgue, Gaussian, polynomial
growth, a compact ring, and a power times a Gaussian of either sign,
the pullback of a radial symbol pair). Atomic sums are exact. Every
catalog density is radial, so each of its objects is a one-dimensional
integral in s = |z|, taken by one radial rule: Gauss-Legendre on panels
in s.

The two observables driving the embedding theory are the ball mass
``mu(B(w, r))`` scaled by ``(1 + |w|)^{-s}`` and the Gaussian-kernel
transform ``w -> int exp(-t a |z - w|^2 / 2) (1 + |z|)^{-s} dmu(z)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import i0e, i1e

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
    edge = np.abs(a - radius)
    s, w = _radial_rule(*_cut(mu, np.stack([np.maximum(a - radius, 0.0), edge]),
                              np.stack([edge, a + radius]), extent))
    cos = np.clip((s ** 2 + a[:, None] ** 2 - radius ** 2)
                  / np.maximum(2.0 * s * a[:, None], 1e-300), -1.0, 1.0)
    theta = np.arccos(cos)
    cap = theta if mu.n == 1 else theta - np.sqrt(1.0 - cos ** 2) * cos
    mass = _integrate(w, mu.profile(s), _sphere(s, mu.n), cap / math.pi).sum(axis=0)
    return mass[inverse.reshape(-1)]


def _radial_transform(mu: DensityMeasure, c: float, s: float, extent: float) -> tuple:
    """The transform w -> int (1 + |z|)^{-s} exp(-c |w - z|^2) dmu(z) of mu
    restricted to |z| <= extent, at radii |w| in [0, extent].

    The sphere average of exp(-c |w - z|^2) over |z| = s is
    exp(-c (s - |w|)^2) A_n(2 c s |w|), with A_1 = i0e(x) and
    A_2 = 2 i1e(x) / x. Returns (radii, values, weights): the radii are
    the radial rule's nodes on unit panels of [0, extent], and the weights
    integrate a function of |w| over the ball |w| <= extent.
    """
    edges = np.append(np.arange(0.0, extent, 1.0), extent)
    radii, dr = (x.ravel() for x in _radial_rule(edges[:-1], edges[1:]))
    # two panels per radius, which meet at the Gaussian's peak, out to where
    # the Gaussian factor falls below exp(-40)
    rho, tail = radii[:, None], math.sqrt(40.0 / c)
    z, w = _radial_rule(*_cut(mu, np.stack([radii - tail, radii]),
                              np.stack([radii, radii + tail]), extent))
    x = np.maximum(2.0 * c * z * rho, 1e-300)
    mean = i0e(x) if mu.n == 1 else 2.0 * i1e(x) / x
    values = _integrate(w, mu.profile(z), (1.0 + z) ** (-s), _sphere(z, mu.n),
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
    weights (len(mu), S), summed as a read of that column alone would. The
    atoms go in blocks of _ATOMS_PER_BLOCK; a kd-tree over the centres gives
    each block's candidate (centre, atom) pairs."""
    out = np.zeros((centers.shape[0], weights.shape[1]))
    tree = cKDTree(to_real(centers))
    real = to_real(mu.locations)
    for lo in range(0, len(mu), _ATOMS_PER_BLOCK):
        # the padded radius keeps every pair the strict test below accepts
        pairs = cKDTree(real[lo:lo + _ATOMS_PER_BLOCK]).sparse_distance_matrix(
            tree, radius * (1.0 + 1e-12), output_type="ndarray")
        i, j = pairs["i"] + lo, pairs["j"]
        inside = np.linalg.norm(mu.locations[i] - centers[j], axis=1) < radius
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
    axes = []
    for col in real.T:
        axes.append(np.unique(col))
        if math.prod(g.size for g in axes) > budget:
            return None
    sizes = [g.size for g in axes]
    if math.prod(sizes) * shape[0] > len(dw) * math.prod(shape):
        return None
    idx = np.ravel_multi_index([np.searchsorted(g, x) for g, x in zip(axes, real.T)], sizes)
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
