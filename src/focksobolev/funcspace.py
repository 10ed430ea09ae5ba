"""Entire functions and weighted norms on C^n.

Two function families are supported.

:class:`Polynomial`
    Finite multi-index coefficient tables.

:class:`KernelCombo`
    Finite combinations of exponential kernels ``K_w(z) = exp(alpha <z, w>)``
    with ``<z, w> = sum_j z_j conj(w_j)``. Terms can carry the unit-norm
    normalisation ``k_w = K_w exp(-alpha |w|^2 / 2)`` and the extra
    ``(1 + |w|)^{-m}`` damping that keeps the family bounded in the
    m-weighted norms.

The norm of order m for exponent p is the integral form, a single
weighted integral against ``|z|^{mp}`` with the normalising constant
chosen so the constant function 1 has norm 1 for every p, m and n.

All kernel arithmetic runs through log-amplitudes so that large centers
cannot overflow before the Gaussian weight is applied. OVERFLOW_CAP = 709
is the last exponent that exp keeps finite: the composition transform
reads inf past it, and a pullback weight past its own cap raises
:class:`EvaluationOverflow`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .grid import eight_directions
from .quadrature import (
    ERROR_FLOOR,
    ScalarField,
    integrate_gaussian,
    scalar_field,
    sup_field_norm,
)

__all__ = [
    "Params",
    "Polynomial",
    "KernelTerm",
    "KernelCombo",
    "EntireFunction",
    "EvaluationOverflow",
    "polynomial",
    "kernel",
    "log_abs",
    "log_weight",
    "norm_constant",
    "norm_integrand_field",
    "fock_sobolev_norm",
    "norm_with_error",
    "probe_family",
]

OVERFLOW_CAP = 709.0


class EvaluationOverflow(ArithmeticError):
    """A weight whose exponent exceeds the float range (see compop.pullback_measure)."""


@dataclass(frozen=True)
class Params:
    """Space parameters: dimension n, weight alpha, order m, exponents p and q.

    ``p`` and ``q`` may be ``math.inf``; the target space with q infinite is
    the sup-normed one.
    """

    n: int
    alpha: float
    m: int
    p: float
    q: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("only n in {1, 2} is supported")
        if not (self.alpha > 0):
            raise ValueError("alpha must be positive")
        if self.m < 0 or int(self.m) != self.m:
            raise ValueError("m must be a nonnegative integer")
        if not (self.p > 0):
            raise ValueError("p must be positive (inf allowed)")
        if not (self.q > 0):
            raise ValueError("q must be positive (inf allowed)")


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in n complex variables as a sorted multi-index table."""

    n: int
    coeffs: tuple  # tuple of (beta tuple, complex coefficient)

    @property
    def degree(self) -> int:
        return max((sum(b) for b, _ in self.coeffs), default=0)

    def is_zero(self) -> bool:
        return len(self.coeffs) == 0


@dataclass(frozen=True)
class KernelTerm:
    """One kernel summand: coeff * K_w, optionally normalised and m-damped."""

    center: tuple
    coeff: complex = 1.0 + 0.0j
    normalized: bool = True
    sobolev_scaled: bool = False


@dataclass(frozen=True)
class KernelCombo:
    n: int
    terms: tuple  # tuple of KernelTerm

    @property
    def degree(self) -> int:
        """Polynomial growth degree: a kernel grows like a Gaussian, not a power."""
        return 0


EntireFunction = Union[Polynomial, KernelCombo]


def polynomial(coeffs: Mapping[tuple, complex], n: int) -> Polynomial:
    """Canonicalise a {multi-index: coefficient} table.

    :param coeffs: mapping from length-n integer tuples to coefficients.
    :param n: complex dimension.
    """
    clean = {}
    for beta, c in coeffs.items():
        beta = tuple(int(b) for b in beta)
        if len(beta) != n:
            raise ValueError(f"multi-index {beta} has length {len(beta)}, expected {n}")
        if any(b < 0 for b in beta):
            raise ValueError(f"multi-index {beta} has a negative entry")
        c = complex(c)
        if c != 0:
            clean[beta] = clean.get(beta, 0) + c
    items = tuple(sorted((b, c) for b, c in clean.items() if c != 0))
    return Polynomial(n=n, coeffs=items)


def kernel(
    center: Sequence[complex],
    n: int = 1,
    coeff: complex = 1.0,
    normalized: bool = True,
    sobolev_scaled: bool = False,
) -> KernelCombo:
    """Single-term kernel combination centred at ``center``."""
    w = tuple(complex(c) for c in np.asarray(center, dtype=complex).reshape(n))
    term = KernelTerm(center=w, coeff=complex(coeff), normalized=normalized,
                      sobolev_scaled=sobolev_scaled)
    return KernelCombo(n=n, terms=(term,))


def _poly_values(f: Polynomial, pts: np.ndarray) -> np.ndarray:
    out = np.zeros(pts.shape[0], dtype=complex)
    # one term buffer for every coefficient; a first power of 1 is read
    # from pts in place, higher powers need a temporary
    term = np.empty_like(out)
    for beta, c in f.coeffs:
        term.fill(c)
        for j, b in enumerate(beta):
            if b:
                term *= pts[:, j] if b == 1 else pts[:, j] ** b
        out += term
    return out


def _kernel_log_terms(f: KernelCombo, pts: np.ndarray, params: Params) -> np.ndarray:
    """Complex log-amplitudes, shape (T, N): log coeff + alpha <z, w> - shifts."""
    a = params.alpha
    out = np.empty((len(f.terms), pts.shape[0]), dtype=complex)
    for i, t in enumerate(f.terms):
        w = np.asarray(t.center, dtype=complex)
        shift = 0.0
        if t.normalized:
            shift += a * float(np.vdot(w, w).real) / 2.0
        if t.sobolev_scaled:
            shift += params.m * math.log1p(float(np.linalg.norm(w)))
        log_c = np.log(complex(t.coeff)) if t.coeff != 0 else complex(-math.inf, 0.0)
        row = out[i]  # filled in place, as in log_abs
        np.matmul(pts, np.conj(w), out=row)
        row *= a
        row += log_c
        row -= shift
    return out


def log_abs(f: EntireFunction, pts: np.ndarray, params: Params) -> np.ndarray:
    """log |f| on a batch of points (N, n), stable for large kernel centers.

    Returns -inf where f vanishes.
    """
    if isinstance(f, Polynomial):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(_poly_values(f, pts)))
    if not f.terms:
        return np.full(pts.shape[0], -math.inf)
    logs = _kernel_log_terms(f, pts, params)
    peak = np.max(logs.real, axis=0)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    # in place: on a quadrature slab these arrays set the peak memory
    logs -= peak[None, :]
    total = np.abs(np.exp(logs, out=logs).sum(axis=0))
    with np.errstate(divide="ignore"):
        return peak + np.log(total)


def norm_constant(p: float, m: int, n: int, alpha: float) -> float:
    """Normalising constant of the integral-form norm.

    Chosen so the weighted integral of ``|z|^{mp} exp(-alpha p |z|^2 / 2)``
    over C^n equals 1, hence the constant function has norm 1.
    """
    log_c = (
        (m * p / 2.0 + n) * math.log(alpha * p / 2.0)
        + math.lgamma(n)
        - n * math.log(math.pi)
        - math.lgamma(m * p / 2.0 + n)
    )
    return math.exp(log_c)


def log_weight(la: np.ndarray, pts: np.ndarray, params: Params, q: float) -> np.ndarray:
    """log of |z|^{qm} |f(z)|^q exp(-q alpha |z|^2 / 2) at points (N, n), from la = log|f|.

    This is the weight that the norm, the measure transforms and the
    composition transform all integrate. It is -inf where f vanishes, and
    at the origin when m > 0.
    """
    r2 = np.sum(np.abs(pts) ** 2, axis=1)
    out = q * la - q * params.alpha * r2 / 2.0
    if params.m > 0:
        with np.errstate(divide="ignore"):
            out = out + (q * params.m / 2.0) * np.log(r2)
    return out


def _kernel_centres(f: EntireFunction) -> list:
    """The centres of f's kernel terms; a polynomial has none."""
    return [t.center for t in f.terms] if isinstance(f, KernelCombo) else []


def _weighted_field(log_abs_at, n: int, params: Params, p: float, degree: int,
                    centres: list) -> ScalarField:
    """Field z -> |z|^{mp} |g(z)|^p exp(-alpha p |z|^2 / 2) with envelope,
    from log_abs_at(pts) = log|g| for a g of polynomial degree ``degree``
    times kernels at ``centres``.

    The envelope rule: a single kernel centre is the envelope's centre;
    several centre it at the origin, padded by their largest norm.
    """

    def _eval(pts: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore", over="ignore"):
            out = np.exp(log_weight(log_abs_at(pts), pts, params, p))
        return np.where(np.isnan(out), 0.0, out)

    center, pad = None, 0.0
    if len(centres) == 1:
        center = centres[0]
    elif centres:
        pad = max(float(np.linalg.norm(np.asarray(c, dtype=complex))) for c in centres)
    return scalar_field(_eval, n=n, decay=params.alpha * p / 2.0,
                        growth=params.m * p + p * degree, center=center, pad=pad)


def norm_integrand_field(f: EntireFunction, params: Params, p: float) -> ScalarField:
    """Field z -> |z|^{mp} |f(z)|^p exp(-alpha p |z|^2 / 2) with envelope.

    The envelope is centred at the centre of a one-kernel f; a combination
    of several kernels is centred at the origin, padded by their largest
    centre norm.
    """
    return _weighted_field(lambda pts: log_abs(f, pts, params), f.n, params, p, f.degree,
                           _kernel_centres(f))


def fock_sobolev_norm(f: EntireFunction, params: Params) -> float:
    """Integral-form norm of order m with exponent params.p.

    For finite p this is ``(C int |z|^{mp} |f|^p e^{-alpha p |z|^2/2})^{1/p}``
    with C from :func:`norm_constant`; for p infinite it is the supremum of
    ``|z|^m |f(z)| e^{-alpha |z|^2 / 2}``.
    """
    return norm_with_error(f, params)[0]


def norm_with_error(f: EntireFunction, params: Params, cells: Optional[int] = None) -> tuple:
    """(norm, error estimate, cells) of :func:`fock_sobolev_norm`.

    For finite p the error bounds how far the norm moves when the integral
    moves by the quadrature's error estimate, floored, like that estimate,
    at ERROR_FLOOR times the value for the rounding of the last steps; cells
    is the level of the quadrature's polar rule (its count of radii),
    doubling up to twice the cap ``cells`` (the quadrature's default when
    None). A sup norm has neither: both are None.
    """
    if f.n != params.n:
        raise ValueError("function and parameter dimensions disagree")
    return _field_norm(lambda p: norm_integrand_field(f, params, p), params, params.p, cells)


def _field_norm(field_at, params: Params, p: float, cells: Optional[int] = None) -> tuple:
    """(norm, error estimate, cells) at exponent p of the norm whose
    integrand field at exponent e is field_at(e): the quadrature of
    field_at(p) times :func:`norm_constant`, to the power 1/p, or for p
    infinite the sup of field_at(1). See :func:`norm_with_error`."""
    if math.isinf(p):
        return sup_field_norm(field_at(1.0))[0], None, None
    value, err, cells = integrate_gaussian(field_at(p), cells)
    c = norm_constant(p, params.m, params.n, params.alpha)
    norm = (c * value) ** (1.0 / p) if value > 0.0 else 0.0
    low = (c * max(value - err, 0.0)) ** (1.0 / p)
    high = (c * (value + err)) ** (1.0 / p)
    return norm, max(high - norm, norm - low, ERROR_FLOOR * norm), cells


def _multi_indices(n: int, degree: int) -> list:
    """Multi-indices of total degree at most ``degree``, lexicographic."""
    if n == 1:
        return [(d,) for d in range(degree + 1)]
    return [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]


def _kernel_centers_grid(n: int, radius: float) -> list:
    """Deterministic polar grid of kernel centers with |w| <= radius."""
    centers = [np.zeros(n, dtype=complex)]
    radii = [r for r in (1.0, 2.0, 3.0, 4.0) if r <= radius]
    for r in radii:
        for d in eight_directions(n):
            centers.append(r * d)
    return centers


def probe_family(
    params: Params,
    seed: int = 0,
    kernel_radius: float = 4.0,
    monomial_degree: int = 6,
    combos: int = 20,
) -> list:
    """Test-function family for embedding lower bounds and operator probes.

    Contains normalised kernels on a polar grid of centers, their m-damped
    variants when m >= 1, monomials up to the given total degree, and
    seeded random kernel combinations placed on a small grid of sites
    with square-summable coefficients.

    Returns a list of (name, EntireFunction) pairs.
    """
    out = []
    for i, w in enumerate(_kernel_centers_grid(params.n, kernel_radius)):
        out.append((f"kernel[{i}]", kernel(w, n=params.n)))
        if params.m >= 1:
            out.append((f"damped-kernel[{i}]", kernel(w, n=params.n, sobolev_scaled=True)))
    for beta in _multi_indices(params.n, monomial_degree):
        out.append((f"monomial{beta}", polynomial({beta: 1.0}, params.n)))
    if combos > 0:
        rng = np.random.default_rng(seed)
        sites = np.array([[complex(x, y)] for x in (-2.0, -1.0, 0.0, 1.0, 2.0)
                          for y in (-2.0, 0.0, 2.0)])
        if params.n == 2:
            sites = np.concatenate([sites, np.zeros_like(sites)], axis=1)
        order = np.argsort(np.linalg.norm(sites, axis=1), kind="stable")
        sites = sites[order][:40]
        for draw in range(combos):
            count = min(6, len(sites))
            idx = rng.choice(len(sites), size=count, replace=False)
            terms = []
            for rank, i in enumerate(idx):
                c = (rng.standard_normal() + 1j * rng.standard_normal()) / (1.0 + rank) ** 2
                terms.append(
                    KernelTerm(center=tuple(sites[i]), coeff=complex(c), normalized=True)
                )
            out.append((f"combo[{draw}]", KernelCombo(n=params.n, terms=tuple(terms))))
    return out
