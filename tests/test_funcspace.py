"""Norm identities for the weighted entire-function spaces.

Monomial norms at alpha=1 on C have the closed form
(2/p)^{k/2} * (Gamma((m+k)p/2 + 1) / Gamma(mp/2 + 1))^{1/p},
which is evaluated here independently of the quadrature code and
frozen as literal expectations.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import focksobolev as fs

MONOMIAL_CASES = [
    # (k, p, m, expected norm of z^k at alpha=1, n=1)
    (1, 2.0, 0, 1.0),
    (2, 2.0, 0, 1.4142135623730947),
    (4, 2.0, 0, 4.898979485566354),
    (1, 2.0, 1, 1.4142135623730947),
    (3, 2.0, 1, 4.898979485566354),
    (1, 4.0, 2, 1.6548754598234374),
    (2, 1.0, 0, 2.0),
]


@pytest.mark.parametrize("k,p,m,expected", MONOMIAL_CASES)
def test_monomial_norm_closed_form(k, p, m, expected):
    params = fs.Params(n=1, alpha=1.0, m=m, p=p, q=p)
    f = fs.polynomial({(k,): 1.0}, 1)
    val = fs.fock_sobolev_norm(f, params)
    assert abs(val - expected) / expected < 1e-8


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_unit_norm_of_one(p, m):
    params = fs.Params(n=1, alpha=1.0, m=m, p=p, q=p)
    val = fs.fock_sobolev_norm(fs.one(1), params)
    assert abs(val - 1.0) < 1e-6


def test_unit_norm_of_one_n2():
    params = fs.Params(n=2, alpha=1.0, m=1, p=2.0, q=2.0)
    val = fs.fock_sobolev_norm(fs.one(2), params)
    assert abs(val - 1.0) < 1e-4


@pytest.mark.parametrize("m,expected",
                         [(0, 1.0), (1, 0.6065306597126334), (2, 0.7357588823428847)])
def test_sup_norm_of_one(m, expected):
    for n in (1, 2):
        params = fs.Params(n=n, alpha=1.0, m=m, p=math.inf, q=math.inf)
        val = fs.fock_sobolev_norm(fs.one(n), params)
        assert abs(val - expected) <= 1e-15


@pytest.mark.parametrize("w", [0.0j, 0.6 + 0.8j, -1.2 + 1.6j])
@pytest.mark.parametrize("n", [1, 2])
def test_sup_norm_of_normalized_kernel(n, w):
    """|k_w(z)| e^{-|z|^2/2} = e^{-|z - w|^2/2} peaks at 1; |w| is 0, 1 and 2,
    split over both coordinates at n = 2."""
    center = [w] if n == 1 else [w.real, 1j * w.imag]
    params = fs.Params(n=n, alpha=1.0, m=0, p=math.inf, q=math.inf)
    assert abs(fs.fock_sobolev_norm(fs.kernel(center, n=n), params) - 1.0) <= 1e-15


@pytest.mark.parametrize("w", [0.0 + 0.0j, 1.0 + 1.0j, 2.0 + 0.0j])
@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_normalized_kernel_unit_norm(w, p):
    params = fs.Params(n=1, alpha=1.0, m=0, p=p, q=p)
    val = fs.fock_sobolev_norm(fs.kernel([w], n=1), params)
    assert abs(val - 1.0) < 1e-6


@pytest.mark.parametrize("w", [1.0 + 0.0j, 0.0 + 2.0j])
def test_unnormalized_kernel_growth(w):
    params = fs.Params(n=1, alpha=1.0, m=0, p=2.0, q=2.0)
    val = fs.fock_sobolev_norm(fs.kernel([w], n=1, normalized=False), params)
    expect = math.exp(abs(w) ** 2 / 2.0)
    assert abs(val - expect) / expect < 1e-6


def test_kernel_norm_n2():
    params = fs.Params(n=2, alpha=1.0, m=0, p=2.0, q=2.0)
    val = fs.fock_sobolev_norm(fs.kernel([1.0 + 0.0j, 1.0 + 0.0j], n=2), params)
    assert abs(val - 1.0) < 1e-4


def test_evaluate_polynomial():
    params = fs.Params(n=1, alpha=1.0, m=0, p=2.0, q=2.0)
    f = fs.polynomial({(0,): 1.0, (2,): -3.0}, 1)
    assert fs.evaluate(f, 2.0 + 0.0j, params) == pytest.approx(-11.0)


def test_evaluate_kernel_matches_exponential():
    params = fs.Params(n=1, alpha=1.0, m=0, p=2.0, q=2.0)
    w = 1.0 + 0.5j
    f = fs.kernel([w], n=1, normalized=False)
    z = 0.5 - 0.25j
    expect = np.exp(z * np.conj(w))
    assert fs.evaluate(f, z, params) == pytest.approx(expect)


def test_evaluate_overflow_guard():
    params = fs.Params(n=1, alpha=1.0, m=0, p=2.0, q=2.0)
    f = fs.kernel([40.0 + 0.0j], n=1, normalized=False)
    with pytest.raises(fs.EvaluationOverflow):
        fs.evaluate(f, 40.0 + 0.0j, params)


def test_norm_constant_reciprocal_moment():
    """1/C equals the weighted Gaussian moment it normalizes."""
    for p, m, n in [(1.0, 0, 1), (2.0, 1, 1), (2.0, 2, 1), (2.0, 1, 2)]:
        c = p / 2.0
        a = m * p / 2.0
        moment = (
            math.pi ** n
            * math.exp(math.lgamma(a + n) - math.lgamma(n))
            / c ** (a + n)
        )
        val = fs.norm_constant(p, m, n, 1.0)
        assert abs(val * moment - 1.0) < 1e-12


@settings(max_examples=20, deadline=None)
@given(
    scale=st.floats(min_value=0.1, max_value=10.0),
    m=st.sampled_from([0, 1]),
)
def test_norm_homogeneity(scale, m):
    params = fs.Params(n=1, alpha=1.0, m=m, p=2.0, q=2.0)
    f = fs.polynomial({(0,): 0.5, (1,): -1.0, (2,): 0.25}, 1)
    g = fs.polynomial({(0,): 0.5 * scale, (1,): -1.0 * scale, (2,): 0.25 * scale}, 1)
    a = fs.fock_sobolev_norm(f, params)
    b = fs.fock_sobolev_norm(g, params)
    assert b == pytest.approx(scale * a, rel=1e-9)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_triangle_inequality(seed):
    params = fs.Params(n=1, alpha=1.0, m=0, p=2.0, q=2.0)
    rng = np.random.default_rng(seed)

    def draw():
        return fs.polynomial({(d,): rng.standard_normal() + 1j * rng.standard_normal()
                              for d in range(4)}, 1)

    f, g = draw(), draw()
    fg = fs.polynomial(
        {
            key: dict(f.coeffs).get(key, 0.0) + dict(g.coeffs).get(key, 0.0)
            for key in set(dict(f.coeffs)) | set(dict(g.coeffs))
        },
        1,
    )
    a = fs.fock_sobolev_norm(f, params)
    b = fs.fock_sobolev_norm(g, params)
    c = fs.fock_sobolev_norm(fg, params)
    assert c <= a + b + 1e-9 * (a + b)
