"""Positive Borel measures on C^n and their averaged transforms.

Measures come in two concrete flavours: finite atom lists and densities
against volume from a small catalog (Lebesgue, Gaussian, polynomial
growth, a compact ring). Atomic sums are exact. Every catalog density is
radial, so each of its objects is a one-dimensional integral in s = |z|,
taken by one radial rule: Gauss-Legendre on panels in s.

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
from scipy.special import ive

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

    kind is one of "lebesgue", "gaussian", "polygrowth", "ring"; ``rate``
    is the Gaussian decay, ``power`` the polynomial growth exponent,
    ``ring_radius``/``ring_width`` the annulus geometry, ``scale`` a
    global multiplier.
    """

    kind: str
    n: int
    scale: float = 1.0
    rate: float = 0.0
    power: float = 0.0
    ring_radius: float = 0.0
    ring_width: float = 0.0

    def __post_init__(self):
        if self.kind not in ("lebesgue", "gaussian", "polygrowth", "ring"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        if not all(map(math.isfinite, (self.scale, self.rate, self.power,
                                       self.ring_radius, self.ring_width))):
            raise ValueError("density parameters must be finite")
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")
        if self.kind == "gaussian" and not (self.rate > 0):
            raise ValueError("gaussian density needs a positive rate")
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
    """The atoms of mu in the centred cube of the given radius."""
    keep = np.max(np.abs(to_real(mu.locations)), axis=1) <= radius
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
    """Panels [a, b] cut to the density's support within |z| <= extent."""
    lo, hi = 0.0, extent
    if mu.kind == "ring":
        lo, hi = max(mu.ring_radius - mu.ring_width / 2.0, 0.0), min(mu.compact_extent, extent)
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
    exp(-c (s - |w|)^2) A_n(2 c s |w|), with A_1 = ive(0, x) and
    A_2 = 2 ive(1, x) / x. Returns (radii, values, weights): the radii are
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
    mean = ive(0, x) if mu.n == 1 else 2.0 * ive(1, x) / x
    values = _integrate(w, mu.profile(z), (1.0 + z) ** (-s), _sphere(z, mu.n),
                        np.exp(-c * (z - rho) ** 2) * mean).sum(axis=0)
    return radii, values, dr * _sphere(radii, mu.n)


# Block sizes bound the temporaries, and with them peak memory: candidate
# (centre, atom) pairs per block.
_PAIR_BUDGET = 250_000
_ATOM_BLOCK = (1_000, 100_000)


def ball_mass_many(mu: Measure, centers: np.ndarray, radius: float) -> np.ndarray:
    """Ball masses mu(B(c, radius)) of strict Euclidean balls at centers (N, n).

    Atomic measures are summed exactly: the atoms are walked in blocks
    whose candidate (centre, atom) pairs come from a kd-tree over the
    centres. A density's ball mass depends on |c| alone and is one radial
    integral (``_radial_ball_masses``), taken once per distinct |c|.
    """
    cs = np.asarray(centers, dtype=complex).reshape(-1, mu.n)
    out = np.zeros(cs.shape[0])
    if cs.shape[0] == 0:
        return out
    if isinstance(mu, DensityMeasure):
        return _radial_ball_masses(mu, np.linalg.norm(cs, axis=1), radius, math.inf)
    tree = cKDTree(to_real(cs))
    real = to_real(mu.locations)
    lo, block = 0, _ATOM_BLOCK[0]
    while lo < len(mu):
        # the padded radius keeps every pair the strict test below accepts
        pairs = cKDTree(real[lo:lo + block]).sparse_distance_matrix(
            tree, radius * (1.0 + 1e-12), output_type="ndarray")
        i, j = pairs["i"] + lo, pairs["j"]
        inside = np.linalg.norm(mu.locations[i] - cs[j], axis=1) < radius
        out += np.bincount(j[inside], weights=mu.weights[i[inside]],
                           minlength=out.size)
        lo += block
        # size the next block from this block's pairs per atom
        block = int(np.clip(_PAIR_BUDGET * block // max(pairs.size, 1), *_ATOM_BLOCK))
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


def _node_index(axes, real: np.ndarray) -> Optional[np.ndarray]:
    """Flat grid index of every atom if all sit on grid nodes, else None."""
    idx = []
    for k, ax in enumerate(axes):
        i = np.minimum(np.searchsorted(ax, real[:, k]), ax.size - 1)
        if not np.array_equal(ax[i], real[:, k]):
            return None
        idx.append(i)
    return np.ravel_multi_index(tuple(idx), [ax.size for ax in axes])


def _gauss_transform(mu: AtomicMeasure, c: float, s: float, where) -> np.ndarray:
    """Exact transform w -> sum_j mu_j (1 + |z_j|)^{-s} exp(-c |w - z_j|^2).

    ``where`` is either a complex (P, n) array of points, giving P values,
    or the 2n real axes of a tensor grid, giving values in the grid's
    shape, ij-ordered like ``grid.grid_points``. On a grid the Gaussian
    factors over the real axes. Atoms that all sit on the grid's nodes
    (the pullback through a map that takes its z-grid onto the w-grid) are
    contracted axis by axis. Any other atoms go through the matrix
    product (A_1 .. A_n) diag(mu) (A_n+1 .. A_2n)^T of the per-axis
    factors A_k[i, j] = exp(-c (x_k,i - z_j,k)^2), with each group of n
    combined by a row-wise Khatri-Rao product.
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
    nodes = _node_index(where, real)
    if nodes is not None:
        dense = np.bincount(nodes, weights=dw, minlength=math.prod(shape))
        return _contract(dense.reshape(shape), c, where)
    rows = (math.prod(shape[:n]), math.prod(shape[n:]))
    out = np.zeros(rows)
    chunk = max(1, budget // max(rows))
    for lo in range(0, len(mu), chunk):
        part = slice(lo, lo + chunk)
        fac = [_gaussian(ax[:, None], real[part, k:k + 1], c) for k, ax in enumerate(where)]
        out += (_khatri_rao(fac[:n]) * dw[part]) @ _khatri_rao(fac[n:]).T
    return out.reshape(shape)


def _contract(out: np.ndarray, c: float, axes) -> np.ndarray:
    """The grid transform of damped weights on the grid's own nodes."""
    for k, ax in enumerate(axes):
        factor = _gaussian(ax[:, None], ax[:, None], c)
        out = np.moveaxis(np.tensordot(factor, out, axes=(1, k)), 0, k)
    return out


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
