"""Expected outputs computed apart from the program.

Only numpy, math and the theorems of the paper are used here: the
verdict rules for affine symbols and for the catalog measures, and the
closed forms of norms and transforms that follow from Gaussian
integrals. Nothing is copied from a recorded run of the program.

Each tolerance is the one the repository's acceptance gate or its
``verify-norms`` subcommand states for the same quantity, or tighter.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

# The SVD decides "singular value equals one" and "offset is orthogonal"
# to this precision, as linear_symbol_check does by default.
SVD_TOL = 1e-8
# verify-norms and acceptance criterion 2: unit norms and normalised kernels.
UNIT_NORM_ABS_TOL = 1e-5
# acceptance criterion 2: unnormalised kernel norms, relative.
KERNEL_GROWTH_REL_TOL = 1e-5
# verify-norms: monomial norms; also used for random polynomials at p=2.
MONOMIAL_ABS_TOL = 2e-4
# acceptance criterion 6: the composition transform against its closed form.
TRANSFORM_REL_TOL = 1e-4
# acceptance criterion 8: how far a shell estimate may fall below its target.
ESTIMATE_BAND = 0.02


def affine_verdict(matrix, offset, u_zero: bool, below_diagonal: bool) -> tuple:
    """(bounded, compact) of u * (f o psi) for psi(z) = A z + b.

    At or above the diagonal the operator is bounded iff ||A|| <= 1 and b
    is orthogonal to every left singular vector of A whose singular value
    is one; it is compact iff ||A|| < 1. Below the diagonal bounded and
    compact both mean ||A|| < 1. The zero weight gives the zero operator.
    """
    if u_zero:
        return True, True
    A = np.asarray(matrix, dtype=complex)
    b = np.asarray(offset, dtype=complex).reshape(A.shape[0])
    U, sigma, _ = np.linalg.svd(A)
    contraction = bool(sigma[0] < 1.0 - SVD_TOL)
    if below_diagonal:
        return contraction, contraction
    unit = np.abs(sigma - 1.0) <= SVD_TOL
    overlap = max((abs(np.vdot(U[:, i], b)) for i in np.nonzero(unit)[0]), default=0.0)
    bounded = sigma[0] <= 1.0 + SVD_TOL and overlap <= SVD_TOL * (1.0 + np.linalg.norm(b))
    return bool(bounded), contraction


def nonaffine_verdict(u_zero: bool) -> tuple:
    """(bounded, compact) for a polynomial symbol of degree two or more.

    A weighted composition operator with a nonzero weight is bounded on
    these spaces only if its symbol is affine, so only the zero weight,
    which gives the zero operator, escapes.
    """
    return u_zero, u_zero


def affine_norm_p2(matrix, offset, centre, alpha: float) -> Optional[float]:
    """sqrt of sup_w B(w) at p = q = 2, m = 0, weight u = k_c (u = 1: c = 0).

    Completing the square gives
    log B(w) = n log(pi/alpha) + alpha (<w, (A A* - I) w> + 2 Re <w, A c + b>),
    whose supremum is alpha <g, (I - A A*)^{-1} g> with g = A c + b when
    ||A|| < 1, and 0 when ||A|| = 1 and g = 0. Other cases have no finite
    closed form here and return None.
    """
    A = np.asarray(matrix, dtype=complex)
    n = A.shape[0]
    g = A @ np.asarray(centre, dtype=complex).reshape(n) + np.asarray(offset, dtype=complex)
    sigma = np.linalg.svd(A, compute_uv=False)
    if sigma[0] < 1.0 - SVD_TOL:
        M = np.eye(n) - A @ A.conj().T
        top = alpha * float(np.vdot(g, np.linalg.solve(M, g)).real)
    elif sigma[0] <= 1.0 + SVD_TOL and np.linalg.norm(g) == 0.0:
        top = 0.0
    else:
        return None
    return math.sqrt((math.pi / alpha) ** n * math.exp(top))


def measure_verdict(kind: str, power: float, n: int, m: int, p: float, q: float) -> tuple:
    """(bounded, vanishing) for a catalog measure at damping m q.

    Finite atoms and Gaussians embed and vanish. A density
    (1+|z|)^a faces the exponent d = a - m q: at or above the diagonal it
    is bounded iff d <= 0 and vanishing iff d < 0; below it (k = p/(p-q),
    k = 1 for p infinite) both hold iff d k < -2n.
    """
    if kind in ("atoms", "gaussian"):
        return True, True
    d = power - m * q
    if not math.isinf(p) and p <= q:
        return d <= 0.0, d < 0.0
    k = 1.0 if math.isinf(p) else p / (p - q)
    ok = d * k < -2.0 * n
    return ok, ok


def unit_norm(m: int, p: float, alpha: float) -> float:
    """Norm of the constant 1: exactly 1 for finite p by the normalisation,
    sup_r r^m e^{-alpha r^2/2} = (m/alpha)^{m/2} e^{-m/2} for p infinite."""
    if not math.isinf(p) or m == 0:
        return 1.0
    return (m / alpha) ** (m / 2.0) * math.exp(-m / 2.0)


def kernel_norm(centre, alpha: float, normalized: bool) -> float:
    """||k_w|| = 1 and ||K_w|| = e^{alpha |w|^2 / 2} at m = 0, any finite p."""
    if normalized:
        return 1.0
    w2 = float(np.sum(np.abs(np.asarray(centre)) ** 2))
    return math.exp(alpha * w2 / 2.0)


def monomial_norm_n1(k: int, m: int, p: float, alpha: float) -> float:
    """||z^k|| at n = 1 from int_C r^a e^{-c r^2} dV = pi Gamma(a/2+1) / c^{a/2+1}."""
    log_norm = (k / 2.0) * math.log(2.0 / (alpha * p)) + (
        math.lgamma((m + k) * p / 2.0 + 1.0) - math.lgamma(m * p / 2.0 + 1.0)
    ) / p
    return math.exp(log_norm)


def polynomial_norm_p2(coeffs: dict, n: int, m: int, alpha: float) -> float:
    """||sum c_beta z^beta|| at p = 2: monomials are orthogonal under a
    radial weight, and
    ||z^beta||^2 = beta! Gamma(|beta|+m+n) Gamma(n) / (Gamma(|beta|+n) Gamma(m+n) alpha^|beta|).
    """
    total = 0.0
    for beta, c in coeffs.items():
        k = sum(beta)
        log_sq = (
            sum(math.lgamma(b + 1) for b in beta)
            + math.lgamma(k + m + n) + math.lgamma(n)
            - math.lgamma(k + n) - math.lgamma(m + n)
            - k * math.log(alpha)
        )
        total += abs(c) ** 2 * math.exp(log_sq)
    return math.sqrt(total)
