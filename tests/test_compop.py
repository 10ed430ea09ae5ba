import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

import focksobolev as fs
from focksobolev import compop
from focksobolev.carleson import EXPANSION, STAGE_RADIUS
from focksobolev.grid import directions, to_real
from focksobolev.measures import _gauss_transform


def test_identity_bounded_not_compact(params_m0):
    v = fs.classify_compop(fs.identity_symbol(1), params_m0)
    assert v.bounded
    assert not v.compact
    assert not v.divergent


def test_contraction_compact(params_m0):
    sym = fs.affine_symbol([[0.5]])
    v = fs.classify_compop(sym, params_m0)
    assert v.bounded
    assert v.compact


def test_rotation_bounded_not_compact(params_m0):
    theta = 0.7
    sym = fs.affine_symbol([[complex(math.cos(theta), math.sin(theta))]])
    v = fs.classify_compop(sym, params_m0)
    assert v.bounded
    assert not v.compact


def test_expansion_unbounded(params_m0):
    v = fs.classify_compop(fs.affine_symbol([[2.0]]), params_m0)
    assert not v.bounded
    assert v.divergent
    assert math.isinf(v.norm_estimate)


def test_translation_unbounded(params_m0):
    v = fs.classify_compop(fs.affine_symbol([[1.0]], [1.0]), params_m0)
    assert not v.bounded


def test_zero_weight_trivial(params_m0):
    sym = fs.affine_symbol([[0.0]], None, fs.polynomial({}, 1))
    v = fs.classify_compop(sym, params_m0)
    assert v.bounded
    assert v.compact
    assert v.norm_estimate == 0.0


def test_polynomial_symbol_flagged(params_m0):
    sq = fs.polynomial({(2,): 1.0}, 1)
    sym = fs.SymbolPair(fs.PolynomialMap((sq,)), fs.one(1))
    v = fs.classify_compop(sym, params_m0)
    assert not v.bounded
    assert any("outside" in note for note in v.notes)


def test_degree_one_polynomial_symbol_is_affine(params_m0):
    """A polynomial map of degree <= 1 becomes the same affine map: equal
    values, and at n = 1 the verdict of the matrix form (a fixed z-grid
    about the origin called psi = z/2 unbounded)."""
    comps = (fs.polynomial({(1, 0): 0.5, (0, 1): 0.25j, (0, 0): 0.1}, 2),
             fs.polynomial({(0, 1): -0.3}, 2))
    sym = fs.SymbolPair(fs.PolynomialMap(comps), fs.one(2))
    assert sym.is_affine
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
    np.testing.assert_allclose(sym.psi.apply(pts), fs.PolynomialMap(comps).apply(pts),
                               rtol=1e-15, atol=1e-15)
    half = fs.SymbolPair(fs.PolynomialMap((fs.polynomial({(1,): 0.5}, 1),)), fs.one(1))
    assert fs.classify_compop(half, params_m0) == fs.classify_compop(
        fs.affine_symbol([[0.5]]), params_m0)


def test_linear_symbol_check_witnesses():
    chk = fs.linear_symbol_check([[1.0]], [1.0])
    assert chk["op_norm"] == pytest.approx(1.0)
    assert not chk["admissible_bounded"]
    assert chk["offset_overlap"] == pytest.approx(1.0)
    ok = fs.linear_symbol_check([[0.5]], [3.0])
    assert ok["admissible_bounded"]
    assert ok["admissible_compact"]


def test_contraction_transform_closed_form(params_m0):
    """For psi = z/2 with unit weight the smoothed criterion is
    pi * exp(-3|w|^2 / 4) at alpha = 1, q = 2."""
    sym = fs.affine_symbol([[0.5]])
    for w, expect in [(0.0, math.pi), (2.0, math.pi * math.exp(-3.0))]:
        val = fs.berezin_compop(sym, params_m0, np.array([w + 0.0j]))
        assert abs(val - expect) / expect < 1e-6


def test_transform_profile_shapes(params_m0):
    radii, logs, divergent = fs.transform_profile(fs.affine_symbol([[0.5]]), params_m0)
    assert len(radii) == len(logs) == 31
    assert radii[-1] == EXPANSION * STAGE_RADIUS[1]
    assert not divergent
    assert logs[-1] < logs[0]


def test_weight_profile_decay(params_m0):
    sym = fs.affine_symbol([[0.5]], None, fs.kernel([1.0 + 0.0j], n=1))
    radii, logs = fs.weight_profile(sym, params_m0)
    assert len(radii) == len(logs) == 40
    assert logs[-1] < logs[0]


def test_direct_norm_identity_exact(params_m0):
    assert fs.direct_operator_norm(fs.identity_symbol(1), params_m0) == 1.0


def test_direct_norm_contraction(params_m0):
    val = fs.direct_operator_norm(fs.affine_symbol([[0.5]]), params_m0)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_essential_norm_compact_case(params_m0):
    val = fs.essential_norm_estimate(fs.affine_symbol([[0.5]]), params_m0)
    assert val <= 1e-3


def test_essential_norm_requires_valid_exponents():
    P = fs.Params(n=1, alpha=1.0, m=0, p=1.0, q=2.0)
    with pytest.raises(ValueError):
        fs.essential_norm_estimate(fs.identity_symbol(1), P)


def test_pullback_transform_identity(params_m0):
    """The pulled-back measure reproduces the operator transform."""
    sym = fs.affine_symbol([[0.5]])
    lam = fs.pullback_measure(sym, params_m0)
    for w in (0.0 + 0.0j, 1.0 + 0.5j):
        a = _gauss_transform(lam, params_m0.q * params_m0.alpha / 2.0, 0.0, np.array([[w]]))[0]
        b = fs.berezin_compop(sym, params_m0, np.array([w]))
        assert abs(a - b) / b < 1e-3


def test_pullback_measure_overflow_guard():
    """A weight exponent past the float range raises: here the unnormalised
    kernel at centre 100 under psi = z/2 at p = 4, q = 2 reaches 2266."""
    params = fs.Params(n=1, alpha=1.0, m=0, p=4.0, q=2.0)
    sym = fs.affine_symbol([[0.5]], u=fs.kernel([100.0], n=1, normalized=False))
    with pytest.raises(fs.EvaluationOverflow, match="exponent 2266 exceeds 700"):
        fs.pullback_measure(sym, params)


def test_pullback_consistency_contraction(params_m0):
    sym = fs.affine_symbol([[0.5]])
    op = fs.classify_compop(sym, params_m0)
    lam = fs.pullback_measure(sym, params_m0)
    emb = fs.classify_carleson(lam, params_m0, t=params_m0.q, stage_radius=6.0)
    assert op.bounded == emb.is_carleson


@pytest.mark.parametrize("n", [1, 2])
def test_pullback_covers_outer_stage(n):
    """The pullback's z-cube holds the preimage A^-1(w - b) of every point
    w = EXPANSION * STAGE_RADIUS * d, d a profile direction, on the outer
    classification stage, for each affine suite symbol with a nonzero
    weight and no singular value below one; a truncated atom cloud would
    read as decay there. The tightest cases, the n = 2 identity,
    translation and swap, reach 6.0 against the radius 7.0."""
    P = fs.Params(n=n, alpha=1.0, m=1, p=4.0, q=2.0)
    T2 = EXPANSION * STAGE_RADIUS[n]
    checked = set()
    for sc in fs.composition_suite(P):
        sym = sc.symbol
        if not sym.is_affine or (isinstance(sym.u, fs.Polynomial) and sym.u.is_zero()):
            continue
        A, b = sym.psi.matrix, sym.psi.offset
        if np.linalg.svd(A, compute_uv=False)[-1] < 1.0 - 1e-12:
            continue
        checked.add(sc.name)
        radius, _ = compop._pullback_geometry(sym, n)
        pre = np.array([np.linalg.solve(A, T2 * d - b) for d in directions(n)])
        assert np.max(np.abs(to_real(pre))) <= radius, sc.name
    expected = {"identity", "rotation", "expansion", "translation"}
    assert checked == (expected | {"swap"} if n == 2 else expected)


def test_probe_family_nonempty(params_m0):
    fam = fs.probe_family(params_m0, seed=1)
    assert len(fam) > 0
    for name, f in fam:
        assert name
        norm = fs.fock_sobolev_norm(f, params_m0)
        assert 0.0 < norm < math.inf


def test_mixed_exponent_identity_unbounded():
    P = fs.Params(n=1, alpha=1.0, m=0, p=4.0, q=2.0)
    v = fs.classify_compop(fs.identity_symbol(1), P)
    assert not v.bounded


def test_sup_target_identity_bounded():
    P = fs.Params(n=1, alpha=1.0, m=0, p=2.0, q=math.inf)
    v = fs.classify_compop(fs.identity_symbol(1), P)
    assert v.bounded
    assert not v.compact


def test_suite_expectations_match(params_m0):
    for sc in fs.composition_suite(params_m0):
        v = fs.classify_compop(sc.symbol, params_m0)
        assert v.bounded == sc.expect_bounded, sc.name
        assert v.compact == sc.expect_compact, sc.name


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [2.0, 4.0, math.inf])
def test_suite_expectations_follow_affine_rule(n, p):
    """Expected verdicts of the affine scenarios against linear_symbol_check.

    At or above the diagonal the admissibility flags decide; below it,
    a sup-norm source included, bounded and compact coincide and need
    operator norm below one. The zero weight gives the zero operator.
    """
    P = fs.Params(n=n, alpha=1.0, m=0, p=p, q=2.0)
    for sc in fs.composition_suite(P):
        if not sc.symbol.is_affine:
            continue
        chk = fs.linear_symbol_check(sc.symbol.psi.matrix, sc.symbol.psi.offset)
        zero = isinstance(sc.symbol.u, fs.Polynomial) and sc.symbol.u.is_zero()
        compact = zero or chk["admissible_compact"]
        bounded = compact if p > P.q else zero or chk["admissible_bounded"]
        assert (sc.expect_bounded, sc.expect_compact) == (bounded, compact), sc.name


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(min_value=-1.5, max_value=1.5),
    b=st.floats(min_value=-1.5, max_value=1.5),
    c=st.floats(min_value=-1.5, max_value=1.5),
    d=st.floats(min_value=-1.5, max_value=1.5),
)
def test_linear_check_matches_svd(a, b, c, d):
    mat = np.array([[a, b], [c, d]])
    chk = fs.linear_symbol_check(mat, [0.0, 0.0])
    expect = float(np.linalg.svd(mat, compute_uv=False)[0])
    assert chk["op_norm"] == pytest.approx(expect, abs=1e-12)
    assert chk["admissible_bounded"] == (expect <= 1.0 + 1e-8)
    assert chk["admissible_compact"] == (expect < 1.0 - 1e-8)
    if chk["admissible_compact"]:
        assert chk["admissible_bounded"]


@settings(max_examples=15, deadline=None)
@given(scale=st.floats(min_value=0.1, max_value=0.9))
def test_scalar_contractions_compact(scale):
    chk = fs.linear_symbol_check([[scale]], [0.0])
    assert chk["admissible_compact"]


def _profile_and_cells(monkeypatch, sym, params, **kw):
    """transform_profile's output and the z-cells of its own grid, the last
    one it builds."""
    seen = []
    real = compop._log_transform_at

    def spy(*args, **kwargs):
        seen.append(kwargs.get("z_cells"))
        return real(*args, **kwargs)

    monkeypatch.setattr(compop, "_log_transform_at", spy)
    return fs.transform_profile(sym, params, **kw), seen[-1]


@pytest.mark.parametrize("m,cells", [(0, 32), (1, 128)])
def test_profile_cells_n1(monkeypatch, m, cells):
    """Smooth at m = 0, the profile stops at 32 z-cells; the |z|^{qm} cone
    at m = 1 keeps it at the cap of 128."""
    P = fs.Params(n=1, alpha=1.0, m=m, p=2.0, q=2.0)
    _, chosen = _profile_and_cells(monkeypatch, fs.affine_symbol([[0.5]]), P)
    assert chosen == cells


def _affine_log_transform(A, b, w, q, alpha, c=None):
    """log B(w) for psi(z) = Az + b at m = 0, with u = 1 (c None) or the
    normalised kernel u = k_c: n log(2 pi/(q alpha))
    + (q alpha/2)(|A* w + c|^2 - |w|^2 - |c|^2) + q alpha Re<b, w>."""
    A = np.asarray(A, dtype=complex)
    c = np.zeros(len(w)) if c is None else np.asarray(c, dtype=complex)
    v = np.conj(A).T @ w + c
    return (len(w) * math.log(2.0 * math.pi / (q * alpha))
            + q * alpha / 2.0 * (np.vdot(v, v).real - np.vdot(w, w).real - np.vdot(c, c).real)
            + q * alpha * np.vdot(w, b).real)


AFFINE_CASES = [
    ([[0.5]], [0.0]),
    ([[np.exp(0.7j)]], [0.0]),
    ([[1.0]], [1.0]),
    ([[2.0]], [0.3 - 0.2j]),
    ([[0.5, 0.0], [0.0, 1.0]], [0.0, 0.0]),
    ([[0.3, 0.2], [-0.1, 0.6]], [0.2, 0.5j]),
]


KERNEL_CENTERS = {1: [None, [1.0 + 0.5j], [-2.0]], 2: [None, [1.0, -0.5j], [0.0, 2.0]]}


@pytest.mark.parametrize("A,b", AFFINE_CASES)
def test_affine_transform_closed_form(monkeypatch, A, b):
    """The transform of an affine symbol at m = 0 with u = 1 or a one-kernel
    weight u = k_c completes the square about A*w + c; the z-grid follows
    the weight's envelope to that centre. Measured log errors: at most
    1.4e-13 at n = 1 (128 z-cells in log_berezin_compop, 32 in the profile)
    and 1.9e-7 at n = 2 (16 z-cells in both), over alpha in {0.7, 1}, q in
    {2, 3}, these symbols and weights; the tolerances are about four times
    those."""
    n = len(b)
    tol = 5e-13 if n == 1 else 8e-7
    b = np.asarray(b, dtype=complex)
    P = fs.Params(n=n, alpha=0.7, m=0, p=3.0, q=3.0)
    dirs = directions(n)
    for c in KERNEL_CENTERS[n]:
        sym = fs.affine_symbol(A, b, None if c is None else fs.kernel(c, n=n))
        for rho in (0.0, 1.0, EXPANSION * STAGE_RADIUS[n]):
            for d in dirs if rho > 0 else dirs[:1]:
                exact = _affine_log_transform(A, b, rho * d, 3.0, 0.7, c)
                assert abs(fs.log_berezin_compop(sym, P, rho * d) - exact) <= tol
        (radii, logs, _), cells = _profile_and_cells(monkeypatch, sym, P)
        assert cells == (32 if n == 1 else 16)
        exact = [max(_affine_log_transform(A, b, r * d, 3.0, 0.7, c) for d in dirs)
                 for r in radii]
        assert np.max(np.abs(logs - exact)) <= tol


def _per_w_profile(sym, params, radii, cells):
    """The profile from one _log_integrand sum at every w, on the z-grid
    the profile reads: for an affine symbol the cube of the weight's norm
    integrand envelope re-centred at A*w plus its centre, and for a
    non-affine one the fixed cube enlarged by half, whose z-staging is on."""
    n, q = params.n, params.q
    env = fs.norm_integrand_field(sym.u, params, q)
    if sym.is_affine:
        radius = env.tail_radius + env.pad
        shift = np.asarray(env.center or np.zeros(n), dtype=complex)
    else:
        radius, cells = 1.5 * compop._POLY_Z_RADIUS[n], int(round(1.5 * cells))
    offs, h = compop.centred_grid(radius, cells, n)
    dirs = directions(n)
    out = []
    for rho in radii:
        logs = []
        for d in dirs if rho > 0 else dirs[:1]:
            w = rho * d
            center = sym.psi.adjoint(w) + shift if sym.is_affine else np.zeros(n)
            L = compop._log_integrand(sym, params, q, w, offs + center[None, :])
            with np.errstate(over="ignore", divide="ignore"):
                logs.append(float(logsumexp(L)) + 2 * n * math.log(h))
        out.append(max(logs))
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2])
def test_profile_matches_per_w_integrand(monkeypatch, n):
    """At m = 0 an affine symbol with a constant or one-kernel weight has
    log B(w) - kappa(w) fixed on its re-centred z-grid, and the profile
    adds kappa(w) to one sum per grid. It matches a sum at every w to
    rounding: at most 2.8e-14 measured on these cases (the constant 3 over
    2z at n = 1), tolerance 1e-12. Every other profile sums at each w in the
    same order as the reference, so it matches exactly: m = 1, a degree-1
    polynomial weight, and the square, whose w-free terms are kept."""
    eye, e1 = np.eye(n), np.eye(n)[0]
    P0 = fs.Params(n=n, alpha=1.0, m=0, p=2.0, q=2.0)
    P1 = fs.Params(n=n, alpha=1.0, m=1, p=2.0, q=2.0)
    near = [
        (fs.affine_symbol(0.5 * eye, 0.3 * e1), P0),
        (fs.affine_symbol(0.5 * eye, None, fs.kernel(e1, n=n)), P0),
        (fs.affine_symbol(eye, None, fs.kernel(0.7j * e1, n=n, coeff=2.0,
                                               normalized=False)), P0),
        (fs.affine_symbol(2.0 * eye, None, fs.polynomial({(0,) * n: 3.0}, n)), P0),
        (fs.affine_symbol(eye, None, fs.polynomial({}, n)), P0),
    ]
    exact = [
        (fs.affine_symbol(0.5 * eye, 0.3 * e1), P1),
        (fs.affine_symbol(0.5 * eye, None, fs.polynomial({(1,) + (0,) * (n - 1): 1.0}, n)),
         P0),
    ]
    if n == 1:
        exact.append((fs.SymbolPair(fs.PolynomialMap((fs.polynomial({(2,): 1.0}, 1),)),
                                    fs.one(1)), P0))
    for cases, tol in ((near, 1e-12), (exact, 0.0)):
        for sym, P in cases:
            (radii, logs, _), cells = _profile_and_cells(monkeypatch, sym, P)
            # every fifth radius, both ends of the stage window included
            np.testing.assert_allclose(logs[::5], _per_w_profile(sym, P, radii[::5], cells),
                                       rtol=0.0, atol=tol)


def test_affine_profile_sums_each_grid_once(monkeypatch):
    """An m = 0 affine profile at n = 2 sums each z-grid it builds once:
    one _log_integrand call per resolve_cells level and one for its own
    grid. Summed at every w it took 179: 27 probes and 152 profile points."""
    P = fs.Params(n=2, alpha=1.0, m=0, p=2.0, q=2.0)
    real_at, real_integrand = compop._log_transform_at, compop._log_integrand
    grids, sums = [], []

    def at_spy(*args, **kwargs):
        grids.append(kwargs["z_cells"])
        return real_at(*args, **kwargs)

    def integrand_spy(*args, **kwargs):
        sums.append(1)
        return real_integrand(*args, **kwargs)

    monkeypatch.setattr(compop, "_log_transform_at", at_spy)
    monkeypatch.setattr(compop, "_log_integrand", integrand_spy)
    fs.transform_profile(fs.affine_symbol(0.5 * np.eye(2)), P)
    assert grids == [4, 8, 16, 16]
    assert len(sums) == len(grids)


def _lse_cases():
    rng = np.random.default_rng(11)
    cases = [rng.normal(0.0, scale, size) + shift
             for scale, size, shift in [(1.0, 1000, 0.0), (30.0, 5000, -40.0),
                                        (400.0, 16384, 10.0), (900.0, 37249, -300.0)]]
    # more than 90% of the terms below max - 746, many of them subnormal
    under = rng.uniform(-760.0, -746.5, 20000)
    under[:1500] = rng.uniform(-746.0, 0.0, 1500)
    cases.append(under)
    cases.append(np.concatenate([rng.normal(0.0, 1.0, 999), [5.0, 5.0, 5.0]]))  # ties
    cases.append(np.full(7, -3.25))
    cases.append(np.array([0.7]))
    cases.append(np.full(4, -math.inf))
    cases.append(np.array([1.0, math.inf, -2.0]))
    cases.append(np.array([1.0, math.nan, -2.0]))
    cases.append(np.array([-math.inf, -1.0, -math.inf]))
    return cases


@pytest.mark.parametrize("L", _lse_cases(), ids=range(len(_lse_cases())))
def test_logsumexp_bit_equal_to_scipy(L):
    """compop's log-sum-exp skips the exps that underflow and stays
    bit-identical to scipy's: compared with ==, nan against nan."""
    with np.errstate(over="ignore"):
        want = float(logsumexp(L))
    got = compop._logsumexp(L)
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_n1_pairing_bit_equal_to_matmul():
    """At n = 1 the integrand's Re<psi(z), w> is taken in real arithmetic;
    it equals the complex matmul's real part to the bit."""
    rng = np.random.default_rng(5)
    psi_v = (rng.normal(0, 4, 37249) + 1j * rng.normal(0, 4, 37249))[:, None]
    L = np.zeros(len(psi_v))
    for w in rng.normal(0, 5, (200, 2)):
        wv = np.array([complex(*w)])
        got = compop._add_w((psi_v, L, 0.0), 1.0, 1.0, wv)
        want = L + (psi_v @ np.conj(wv)).real - float(np.vdot(wv, wv).real) / 2.0
        assert np.array_equal(got, want)
