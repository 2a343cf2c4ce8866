"""Young-engine tests: conjugation, construction, doubling, equivalence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczlab.errors import (
    BracketOverflowError,
    InputError,
    InvariantViolationError,
    NonMonotoneGeneratorError,
    SolverCapError,
)
from orliczlab.young import (
    YoungFunction,
    _bracket,
    _find_root,
    _golden_min,
    build_from_generator,
    catalog_names,
    catalog_pair,
    conjugate,
    delta2_estimate,
    strong_equivalence,
    validate_young,
    young_gap,
)

BIG = 1e200


def test_catalog_names_cover_the_four_families():
    names = catalog_names()
    assert "pnorm:2" in names and "xlog" in names and "cosh" in names and "expm" in names


def test_conjugate_pnorm3_value():
    # Phi = x^3/3 has conjugate y^{3/2} * (2/3); at y = 1 that is 2/3
    pair = catalog_pair("pnorm:3")
    num = conjugate(pair.phi)
    assert num(1.0) == pytest.approx(2.0 / 3.0, rel=1e-6)


def test_conjugate_at_zero_is_zero():
    for name in catalog_names():
        num = conjugate(catalog_pair(name).phi, BIG)
        assert num(0.0) == 0.0


def test_conjugate_of_expm_matches_closed_form():
    pair = catalog_pair("expm")
    num = conjugate(pair.phi)
    ys = np.logspace(-2, 2, 50)
    ref = pair.psi(ys)
    assert np.max(np.abs(num(ys) - ref) / ref) < 1e-10


def test_numeric_conjugate_of_cosh_matches_its_closed_form():
    y = np.logspace(-2, np.log10(300.0), 2001)
    want = y * np.arcsinh(y) - np.sqrt(1.0 + y * y) + 1.0
    got = np.asarray(catalog_pair("cosh").psi(y))
    assert np.max(np.abs(got - want) / want) <= 1e-9


def test_cosh_phi_does_not_cancel_at_small_arguments():
    # cosh(x) - 1 reads 0.0 below 1e-8; 2 sinh(x/2)^2 keeps x^2/2
    phi = catalog_pair("cosh").phi
    assert abs(phi(1e-9) - 5e-19) <= 4 * math.ulp(5e-19)
    assert (np.diff(phi(np.geomspace(1e-12, 1e-6, 50))) > 0.0).all()
    x = np.linspace(709.0, 711.0, 20001)
    with np.errstate(over="ignore"):  # both overflow past ln(2 * max double), 710.48
        assert (np.isinf(phi(x)) == np.isinf(np.cosh(x) - 1.0)).all()


def test_conjugate_without_derivative_uses_golden_section():
    bare = YoungFunction(fn=lambda x: np.asarray(x, float) ** 2 / 2.0, name="bare")
    num = conjugate(bare)
    ys = np.linspace(0.1, 5.0, 9)
    assert np.max(np.abs(num(ys) - ys**2 / 2.0)) < 1e-8


def _full_maximizer(phi, y, cap):
    """The conjugate's maximizer solved at every entry, y <= 0 included."""
    y = np.asarray(y, dtype=float)
    if phi.derivative is not None:
        return _find_root(phi.derivative, y, cap, "conjugating")
    lo, hi, _, _ = _bracket(lambda x: (phi.fn(2.0 * x) - phi.fn(x)) / x, y, cap, "conjugating")
    best = _golden_min(lambda u: phi.fn(u) - u * y, lo, 2.0 * hi, "conjugating")
    return np.where(y <= 0.0, 0.0, best)


_XLOG = catalog_pair("xlog").phi


@pytest.mark.parametrize(
    "phi", [_XLOG, YoungFunction(fn=_XLOG.fn, name="xlog without density")], ids=["root", "golden"]
)
@pytest.mark.parametrize(
    "y",
    [
        [[0.0, 2.5, 0.0], [1e-3, -0.0, 40.0], [-1.0, 0.0, 7.0]],
        np.zeros((2, 3)),
        np.zeros(0),
        np.zeros((0, 4)),
    ],
    ids=["zeros", "all-zero", "empty", "empty-2d"],
)
def test_conjugate_maximizer_skips_nonpositive_entries_bit_for_bit(phi, y):
    got = conjugate(phi, BIG).derivative(y)
    want = _full_maximizer(phi, y, BIG)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_conjugate_maximizer_maps_nan_to_nan():
    """NaN maps to NaN without a solve; the other entries keep the bits of
    their one-element calls."""
    calls = []

    def density(x):
        calls.append(np.size(x))
        return _XLOG.derivative(x)

    for phi in (YoungFunction(fn=_XLOG.fn, name="counted", derivative=density),
                YoungFunction(fn=_XLOG.fn, name="xlog without density")):
        num = conjugate(phi, BIG)
        assert np.isnan(num.derivative(np.array([np.nan]))[0]) and not calls  # no density call
        got = num.derivative(np.array([1.0, np.nan, 0.0]))
        want = [num.derivative(1.0), np.nan, 0.0]
        assert got.tobytes() == np.array(want).tobytes()
        calls.clear()
    psi = catalog_pair("xlog").psi
    got = psi.fn(np.array([np.nan, 1.0]))
    assert got.tobytes() == np.array([np.nan, psi.fn(1.0)]).tobytes()


def test_conjugate_bracket_cap_names_y_and_cap():
    phi = catalog_pair("xlog").phi
    num = conjugate(phi)  # default cap 1e3
    with pytest.raises(BracketOverflowError) as err:
        num(50.0)  # maximizer near e^49
    assert err.value.cap == 1e3
    assert err.value.y == 50.0


def test_young_gap_zero_vector_edge_cases():
    pair = catalog_pair("pnorm:2")
    # equality at y = Phi'(x): x = y = 1 for x^2/2
    assert young_gap(pair, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    # x = 0 leaves just Psi(y)
    assert young_gap(pair, 0.0, 3.0) == pytest.approx(pair.psi(3.0))


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=50.0),
    y=st.floats(min_value=0.0, max_value=50.0),
)
def test_young_inequality_property(x, y):
    pair = catalog_pair("pnorm:1.5")
    assert young_gap(pair, x, y) >= -1e-9


def test_young_inequality_random_sweep_all_pairs():
    rng = np.random.default_rng(2024)
    for name in catalog_names():
        pair = catalog_pair(name)
        xy = rng.uniform(0.0, 50.0, size=(2000, 2))
        gaps = young_gap(pair, xy[:, 0], xy[:, 1])
        assert float(np.min(gaps)) >= -1e-9, name


def test_equality_locus_across_catalog():
    xs = np.logspace(-2, 1, 40)
    for name in catalog_names():
        pair = catalog_pair(name)
        ys = pair.phi.derivative(xs)
        assert float(np.max(np.abs(young_gap(pair, xs, ys)))) <= 1e-8, name


def test_build_from_generator_linear_density():
    pair = build_from_generator(lambda y: np.asarray(y, float))
    assert pair.phi(2.0) == pytest.approx(2.0, abs=1e-9)
    assert pair.psi(3.0) == pytest.approx(4.5, abs=1e-8)
    assert pair.phi(0.0) == 0.0 and pair.psi(0.0) == 0.0


def test_build_from_generator_exponential_density():
    pair = build_from_generator(lambda y: np.expm1(np.asarray(y, float)))
    closed = catalog_pair("expm")
    xs = np.linspace(0.25, 4.0, 8)
    assert np.max(np.abs(pair.phi(xs) - closed.phi(xs))) < 1e-8
    assert np.max(np.abs(pair.psi(xs) - closed.psi(xs))) < 1e-8


def test_build_rejects_non_monotone_generator():
    with pytest.raises(NonMonotoneGeneratorError) as err:
        build_from_generator(lambda y: np.sin(np.asarray(y, float)))
    x1, x2 = err.value.pair
    assert 0 < x1 < x2


def test_validate_young_rejects_concave():
    sqrt_fn = YoungFunction(fn=lambda x: np.sqrt(np.asarray(x, float)), name="sqrt")
    with pytest.raises(InvariantViolationError):
        validate_young(sqrt_fn)
    for name in catalog_names():
        validate_young(catalog_pair(name).phi)  # catalog entries all pass


def test_delta2_pnorm_is_two_to_the_p():
    for p in (1.5, 2.0, 3.0):
        est = delta2_estimate(catalog_pair(f"pnorm:{p:g}").phi)
        assert est.bounded
        assert est.constant == pytest.approx(2.0**p, abs=1e-9)


def test_delta2_xlog_approaches_four_at_zero():
    est = delta2_estimate(catalog_pair("xlog").phi)
    assert est.bounded
    assert 3.999 <= est.constant <= 4.0


def test_delta2_expm_unbounded():
    est = delta2_estimate(catalog_pair("expm").phi)
    assert not est.bounded
    i5 = int(np.searchsorted(est.grid, 5.0))
    i20 = int(np.searchsorted(est.grid, 20.0))
    assert est.ratios[i20] > 1e6 * est.ratios[i5]


def test_delta2_needs_six_decades():
    with pytest.raises(InputError):
        delta2_estimate(catalog_pair("pnorm:2").phi, log_grid=np.logspace(-1, 1, 20))


def test_delta2_rejects_function_vanishing_away_from_zero():
    hinge = YoungFunction(
        fn=lambda x: np.maximum(np.asarray(x, float) - 1.0, 0.0) ** 2, name="hinge"
    )
    with pytest.raises(InvariantViolationError):
        delta2_estimate(hinge)


def test_strong_equivalence_identity():
    phi = catalog_pair("pnorm:2").phi
    res = strong_equivalence(phi, phi)
    assert res.found and res.a == 1.0 and res.b == 1.0


def test_strong_equivalence_scaling_witness():
    sq = YoungFunction(fn=lambda x: np.asarray(x, float) ** 2, name="x^2")
    res = strong_equivalence(sq, catalog_pair("pnorm:2").phi)
    assert res.found
    assert res.a == pytest.approx(2.0**-0.5, abs=1e-12)
    assert res.b == pytest.approx(2.0**-0.5, abs=1e-12)


def test_strong_equivalence_conj_xlog_vs_cosh():
    grid = np.logspace(-2, np.log10(30.0), 40)
    res = strong_equivalence(catalog_pair("xlog").psi, catalog_pair("cosh").phi, grid=grid)
    assert res.found
    assert 0.3 <= res.a <= res.b <= 2.0


def test_strong_equivalence_failure_reports_witness_point():
    res = strong_equivalence(
        catalog_pair("pnorm:2").phi,
        catalog_pair("expm").phi,
        grid=np.logspace(-2, 2, 40),
    )
    assert not res.found
    assert res.failing_x is not None and res.gap > 0
    assert res.failing_candidate == 2.0**-15 and res.failing_x == 100.0
    assert res.gap == pytest.approx(2.6881171418161356e43, rel=1e-12)


def test_strong_equivalence_all_candidates_overflow():
    res = strong_equivalence(
        catalog_pair("xlog").psi, catalog_pair("pnorm:2").phi, grid=np.logspace(-2, 8, 40)
    )
    assert not res.found
    assert res.gap == np.inf
    assert res.failing_candidate is None and res.failing_x is None


def test_biconjugation_across_catalog():
    probe = np.logspace(-2, 1, 20)
    for name in catalog_names():
        pair = catalog_pair(name)
        bi = conjugate(conjugate(pair.phi, BIG), BIG)
        ref = np.asarray(pair.phi(probe), float)
        rel = np.max(np.abs(np.asarray(bi(probe)) - ref) / np.maximum(ref, 1e-300))
        assert rel < 1e-6, name


def test_monotone_conjugacy():
    half = catalog_pair("pnorm:2").phi  # x^2/2
    full = YoungFunction(
        fn=lambda x: np.asarray(x, float) ** 2,
        name="x^2",
        derivative=lambda x: 2.0 * np.asarray(x, float),
    )
    ys = np.logspace(-2, 1, 25)
    c_half = np.asarray(conjugate(half)(ys))
    c_full = np.asarray(conjugate(full)(ys))
    assert np.all(c_full <= c_half + 1e-12)


def test_pair_flip_tracks_numeric_side():
    pair = catalog_pair("xlog")
    assert pair.numeric_side == "psi"
    assert pair.flip().numeric_side == "phi"
    closed = catalog_pair("pnorm:2")
    assert closed.flip().numeric_side == "none"


def test_pnorm_requires_exponent_above_one():
    with pytest.raises(InputError):
        catalog_pair("pnorm:1")
    with pytest.raises(InputError):
        catalog_pair("nope")
