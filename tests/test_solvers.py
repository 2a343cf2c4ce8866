"""The shared root finder and minimizer, and the norms built on them."""

import collections
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczlab import space, young
from orliczlab.errors import BracketOverflowError, MethodDisagreementError, SolverCapError
from orliczlab.groups import Group
from orliczlab.space import (
    OrliczVector,
    _amemiya_batch,
    amplitude_matrix,
    luxemburg_batch,
    luxemburg_norm,
    orlicz_batch,
    orlicz_gauges,
    orlicz_norm,
    random_vector,
)
from orliczlab.young import (
    EquivalenceResult,
    Tolerances,
    YoungFunction,
    _bracket,
    _density_table,
    _find_root,
    _golden_min,
    build_from_generator,
    catalog_names,
    catalog_pair,
    conjugate,
    strong_equivalence,
)


def test_root_finder_solves_elementwise_and_maps_zero_to_zero():
    t = np.array([[0.0, 1e-6, 2.0], [9.0, 1e6, 0.25]])
    x = _find_root(lambda x: x * x, t, 1e9, "testing")
    assert x.shape == t.shape
    assert x[0, 0] == 0.0
    assert np.allclose(x, np.sqrt(t), rtol=1e-12, atol=0.0)


def test_root_finder_raises_on_a_step_function():
    def step(x):
        return np.where(x < 3.0, 0.0, 2.0)

    with pytest.raises(SolverCapError) as err:
        _find_root(step, np.array([1.0]), 1e3, "testing")
    assert err.value.steps == 200


def test_root_finder_raises_when_f_never_reaches_t():
    def bounded(x):
        return 1.0 - np.exp(-x)  # stays below 1

    with pytest.raises(BracketOverflowError) as err:
        _find_root(bounded, np.array([0.5, 2.0]), 1e6, "testing")
    assert err.value.y == 2.0 and err.value.cap == 1e6
    assert "while testing" in str(err.value)


def test_root_finder_has_no_lower_cap():
    # the cap bounds only the upward search: roots far below 1/cap are found
    t = np.array([1e-9, 1e-200, 1e-300])
    assert np.allclose(_find_root(lambda x: x, t, 1e3, "testing"), t, rtol=1e-12, atol=0.0)


def test_small_conjugate_arguments_do_not_raise():
    phi = catalog_pair("pnorm:2").phi
    assert conjugate(phi)(1e-3) == pytest.approx(5e-7, rel=1e-12)  # default cap 1e3
    assert conjugate(phi)(1e-4) == pytest.approx(5e-9, rel=1e-12)
    maximizer = conjugate(phi, 1e200).derivative
    assert maximizer(1e-250) == pytest.approx(1e-250, rel=1e-12)
    bare = YoungFunction(fn=lambda x: np.asarray(x, float) ** 2 / 2.0, name="bare")
    assert conjugate(bare)(1e-4) == pytest.approx(5e-9, rel=1e-7)


def test_built_conjugate_at_small_arguments():
    # gen = y gives Psi(y) = y^2/2; quadrature nodes reach far below 1/inverse_cap
    built = build_from_generator(lambda y: y)
    assert built.psi(1e-9) == pytest.approx(5e-19, rel=1e-9)
    assert built.psi(1e-12) == pytest.approx(5e-25, rel=1e-9)


def test_strong_equivalence_of_a_conjugate_with_its_closed_form_on_small_arguments():
    pair = catalog_pair("pnorm:2")
    res = strong_equivalence(conjugate(pair.phi), pair.psi, grid=np.logspace(-4, 2, 40))
    assert res.found and res.a == 1.0 and res.b == 1.0


def test_minimizer_finds_interior_minima():
    a, b = np.array([0.0, 1.0]), np.array([10.0, 100.0])
    targets = np.array([3.0, 42.0])
    x = _golden_min(lambda x: (x - targets) ** 2, a, b, "testing")
    assert np.allclose(x, targets, rtol=1e-7)


def test_solvers_map_empty_arrays_to_empty_arrays():
    empty = np.array([])
    assert _find_root(lambda x: x * x, empty, 1e9, "testing").shape == (0,)
    assert _golden_min(lambda x: x * x, empty, empty, "testing").shape == (0,)
    assert catalog_pair("xlog").psi(np.zeros((0, 3))).shape == (0, 3)


def test_minimizer_raises_on_a_huge_bracket():
    with np.errstate(over="ignore"), pytest.raises(SolverCapError):
        _golden_min(lambda x: (x - 1.0) ** 2, np.array([0.0]), np.array([1e300]), "testing")


def test_amemiya_raises_when_its_bracket_widenings_run_out():
    # the minimum of (1 + k^2/2)/k sits at sqrt 2; a centre 1e30 times too
    # small keeps it beyond the widest bracket, which reaches 7.2e10 times out
    with pytest.raises(SolverCapError):
        _amemiya_batch(catalog_pair("pnorm:2"), _rows([[1.0]]), np.array([math.sqrt(2.0) * 1e-30]))


@pytest.mark.parametrize("a", [1e-60, 1e-100])
def test_tiny_vectors_match_closed_forms(a):
    # Phi = x^2/2: N(f) = |f|_2 / sqrt 2 and |f| = sqrt 2 |f|_2
    pair = catalog_pair("pnorm:2")
    A = np.array([[3.0 * a, 4.0 * a]])
    assert luxemburg_batch(pair.phi, A)[0] == pytest.approx(5.0 * a / math.sqrt(2.0), rel=1e-12)
    assert orlicz_batch(pair, A)[0][0] == pytest.approx(5.0 * a * math.sqrt(2.0), rel=1e-12)


_PAIRS = [(name, flip) for name in catalog_names() for flip in (False, True)]


def _pair(name, flip):
    return catalog_pair(name).flip() if flip else catalog_pair(name)


def _rows(A):
    """The amplitude rows (a, offsets) of a matrix with no zero row."""
    return space._rows(np.array(A, dtype=float))[0]

_SCALED = st.one_of(
    st.tuples(
        st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4),
        st.floats(-100.0, 100.0).map(lambda e: 10.0**e),
    ),
    # amplitudes 700-720, where cosh and exp overflow
    st.tuples(st.lists(st.floats(0.7, 0.72), min_size=1, max_size=4), st.just(1000.0)),
)


@settings(max_examples=60, deadline=None)
@given(which=st.sampled_from(_PAIRS), scaled=_SCALED)
def test_norms_are_finite_and_homogeneous_at_extreme_amplitudes(which, scaled):
    name, flip = which
    pair = _pair(name, flip)
    base, scale = np.array([scaled[0]]), scaled[1]
    refs = (luxemburg_batch(pair.phi, base)[0], orlicz_batch(pair, base)[0][0])
    try:
        got = (luxemburg_batch(pair.phi, scale * base)[0], orlicz_batch(pair, scale * base)[0][0])
    except BracketOverflowError:
        # only conj(xlog), whose maximizer e^(y-1) passes its 1e200 cap
        assert (name, flip) == ("xlog", True)
        return
    for value, ref in zip(got, refs):
        assert math.isfinite(value) and value > 0.0
        assert value == pytest.approx(scale * ref, rel=1e-9)


# rows of one width, entries 0 or in [1e-3, 10] (conj(xlog) overflows its
# maximizer's cap far above that), no row all zero
_EQUAL_WIDTH_ROWS = st.integers(1, 12).flatmap(
    lambda width: st.lists(
        st.lists(st.just(0.0) | st.floats(1e-3, 10.0), min_size=width, max_size=width).filter(any),
        min_size=2,
        max_size=6,
    )
)


@pytest.mark.parametrize(("name", "flip"), _PAIRS)
@settings(max_examples=6, deadline=None)
@given(rows=_EQUAL_WIDTH_ROWS)
def test_batched_norms_equal_their_one_row_solves_bitwise(name, flip, rows):
    pair = _pair(name, flip)
    A = np.array(rows)
    norms, gaps = orlicz_batch(pair, A)
    lux = luxemburg_batch(pair.phi, A)
    for i in range(len(A)):
        one_norm, one_gap = orlicz_batch(pair, A[i : i + 1])
        assert one_norm.tobytes() == norms[i : i + 1].tobytes()
        assert one_gap.tobytes() == gaps[i : i + 1].tobytes()
        assert luxemburg_batch(pair.phi, A[i : i + 1]).tobytes() == lux[i : i + 1].tobytes()


@settings(max_examples=20, deadline=None)
@given(
    which=st.sampled_from(_PAIRS),
    sizes=st.lists(st.integers(0, 6), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_bucketed_norms_equal_the_per_vector_norms_bitwise(which, sizes, seed):
    pair, z2 = _pair(*which), Group.free_abelian(2)
    rng = np.random.default_rng(seed)
    vectors = [random_vector(z2, rng, 3, k) if k else OrliczVector.zero(z2) for k in sizes]
    vectors.append(OrliczVector.zero(z2))
    want = np.array([orlicz_norm(pair, v) for v in vectors])
    assert orlicz_batch(pair, vectors)[0].tobytes() == want.tobytes()
    one_by_one = np.stack([orlicz_gauges(pair, [v])[:, 0] for v in vectors], axis=1)
    assert orlicz_gauges(pair, vectors).tobytes() == one_by_one.tobytes()
    want = np.array([luxemburg_norm(pair.phi, v) for v in vectors])
    assert luxemburg_batch(pair.phi, vectors).tobytes() == want.tobytes()
    assert want[-1] == 0.0


@pytest.mark.parametrize(("name", "flip"), _PAIRS)
def test_padded_matrix_rows_equal_their_vectors_norms_bitwise(name, flip):
    # zeros are dropped before the solve, so padding changes no bit
    pair, z2 = _pair(name, flip), Group.free_abelian(2)
    rng = np.random.default_rng(11)
    vectors = [random_vector(z2, rng, 3, k) if k else OrliczVector.zero(z2) for k in (4, 1, 9, 0, 6, 2, 9)]
    A = amplitude_matrix(vectors)
    norms, gaps, lux = orlicz_gauges(pair, vectors)
    got_norms, got_gaps = orlicz_batch(pair, A)
    assert got_norms.tobytes() == norms.tobytes()
    assert got_gaps.tobytes() == gaps.tobytes()
    assert luxemburg_batch(pair.phi, A).tobytes() == lux.tobytes()
    assert norms[3] == lux[3] == 0.0


def _recording_golden_min(monkeypatch):
    """The row counts of the golden-section searches made from space."""
    searched = []

    def recording(h, a, b, task):
        searched.append(len(a))
        return _golden_min(h, a, b, task)

    monkeypatch.setattr(space, "_golden_min", recording)
    return searched


def test_a_row_that_widens_its_amemiya_bracket_leaves_its_batch_mates_alone(monkeypatch):
    # Centres 1e-4 above the multiplier put those rows' minima left of the
    # first bracket (half-width 1e-6), so they widen once (to 2.56e-4); the
    # rest keep their first minimum.
    pair = catalog_pair("expm")
    A = np.random.default_rng(0).uniform(0.0, 1.0, size=(40, 6)) ** 4
    moved = np.arange(len(A)) % 3 == 0
    centre = space._stationarity_batch(pair, _rows(A))[1] * np.where(moved, 1.0 + 1e-4, 1.0)
    searched = _recording_golden_min(monkeypatch)
    batch = _amemiya_batch(pair, _rows(A), centre)
    assert searched == [len(A), np.count_nonzero(moved)]
    for i in range(len(A)):
        one = _amemiya_batch(pair, _rows(A[i : i + 1]), centre[i : i + 1])
        assert one.tobytes() == batch[i : i + 1].tobytes()
    norms, _ = orlicz_batch(pair, A)
    for i in range(len(A)):
        assert orlicz_batch(pair, A[i : i + 1])[0].tobytes() == norms[i : i + 1].tobytes()


# the stationarity multiplier as a mutant would get it wrong: the two-method
# check must stay live when the Amemiya search starts from that multiplier

_LIVE_ROWS = np.array([[3.0, 4.0, 0.5], [0.2, 0.0, 1.0], [1e-3, 2.0, 7.0]])


@pytest.mark.parametrize(("name", "flip"), _PAIRS)
def test_a_wrong_amemiya_centre_widens_to_the_true_minimum(name, flip, monkeypatch):
    pair = _pair(name, flip)
    want, _ = orlicz_batch(pair, _LIVE_ROWS)
    stationarity = space._stationarity_batch

    def far_centre(p, A):
        norms, mu = stationarity(p, A)
        return norms, mu * 1e3

    monkeypatch.setattr(space, "_stationarity_batch", far_centre)
    searched = _recording_golden_min(monkeypatch)
    if (name, flip) == ("xlog", True):
        # the widened bracket reaches past y = 461, where the maximizer
        # e^(y-1) of conj(xlog) passes its 1e200 cap: an error, not a value
        with pytest.raises(BracketOverflowError):
            orlicz_batch(pair, _LIVE_ROWS)
        return
    got, _ = orlicz_batch(pair, _LIVE_ROWS)
    assert len(searched) > 1
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(("name", "flip"), _PAIRS)
def test_a_wrong_stationarity_multiplier_is_a_method_disagreement(name, flip, monkeypatch):
    def off(f, targets, cap, task):
        root = _find_root(f, targets, cap, task)
        return root * (1.0 + 1e-4) if task == "solving the stationarity constraint" else root

    monkeypatch.setattr(space, "_find_root", off)
    with pytest.raises(MethodDisagreementError):
        orlicz_batch(_pair(name, flip), _LIVE_ROWS)


# ---------------------------------------------------------------------------
# the Amemiya search on a numeric Phi: maximizers solved inside the bracket of
# the search's two ends

_NUMERIC_PHI = ["xlog", "cosh"]  # flipped, Phi is their numeric conjugate
_WITHIN = "conjugating within the Amemiya bracket"


@pytest.mark.parametrize("name", _NUMERIC_PHI)
def test_an_amemiya_search_on_a_numeric_phi_solves_cold_only_at_its_ends(name, monkeypatch):
    solves, searches, in_amemiya = collections.Counter(), [], [False]
    find_root, amemiya = young._find_root, space._amemiya_batch

    def counted(f, targets, cap, task, table=None, bracket=None):
        solves[in_amemiya[0], task, bracket is not None] += 1
        return find_root(f, targets, cap, task, table, bracket)

    def counted_amemiya(pair, rows, centre):
        in_amemiya[0] = True
        try:
            return amemiya(pair, rows, centre)
        finally:
            in_amemiya[0] = False

    def counted_golden(h, a, b, task):
        searches.append(0)

        def g(k):
            searches[-1] += 1
            return h(k)

        return _golden_min(g, a, b, task)

    monkeypatch.setattr(young, "_find_root", counted)
    monkeypatch.setattr(space, "_amemiya_batch", counted_amemiya)
    monkeypatch.setattr(space, "_golden_min", counted_golden)
    orlicz_batch(_pair(name, True), _LIVE_ROWS)
    amemiya_solves = {key: n for key, n in solves.items() if key[0]}
    assert searches and amemiya_solves[True, "conjugating", False] <= 2 * len(searches)
    # one bracketed solve per probe and one for the final evaluation, nothing else
    assert amemiya_solves[True, _WITHIN, True] == sum(searches) + 1
    assert len(amemiya_solves) == 2


def _ends(pair, y, m, w, u):
    """The bracket [m / (1 + w)^u, m (1 + w)^(1 - u)] of maximizers, with its
    density values, and the target y clipped into it."""
    lo = m / (1.0 + w) ** u
    ends = np.array([lo, lo * (1.0 + w), 0.0, 0.0])
    ends[2:] = pair.psi.derivative(ends[:2])
    return ends[:, None], np.clip(np.array([y]), ends[2], ends[3])


# targets up to where conj(xlog)'s maximizer e^(y-1) passes its 1e200 cap, and
# up to 1e300 for conj(cosh - 1)
_WITHIN_TARGETS = {"xlog": 460.0, "cosh": 1e300}


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(_NUMERIC_PHI),
    e=st.floats(0.0, 1.0),
    w=st.floats(-12.0, 0.0).map(lambda e: 10.0**e),
    u=st.floats(0.0, 1.0),
)
def test_phi_through_a_given_bracket_equals_the_numeric_conjugate(name, e, w, u):
    pair = _pair(name, True)
    y = 10.0 ** (-300.0 + e * (300.0 + math.log10(_WITHIN_TARGETS[name])))
    with np.errstate(over="ignore"):  # sinh probed past 710, by the cold solves too
        ends, t = _ends(pair, y, pair.phi.derivative(y), w, u)
        got, want = space._conjugate_within(pair, ends)(t)[0], pair.phi(t)[0]
        m = pair.phi.derivative(t)[0]
    # both evaluate y m - Psi(m), at maximizers within 1e-12 of each other,
    # and Phi is stationary in m: they differ by the rounding of the two
    # terms, and of cosh(m) - 1, whose cancellation costs ulp(cosh m)
    rounding = 2.0 * math.ulp(math.cosh(m)) if name == "cosh" else 0.0
    assert abs(got - want) <= 1e-14 * (t[0] * m + pair.psi(m)) + rounding + 4 * math.ulp(0.0)


@pytest.mark.parametrize("end", [0, 1], ids=["low end raised", "high end lowered"])
@pytest.mark.parametrize("name", _NUMERIC_PHI)
def test_a_target_outside_its_given_bracket_solves_cold(name, end, monkeypatch):
    pair = _pair(name, True)
    y = np.geomspace(1e-3, 300.0, 25)
    ends = space._maximizer_ends(pair, (y, np.array([0, len(y)])), np.ones(1), np.ones(1))
    ends[end] *= (1.0 + 1e-6) if end == 0 else 1.0 / (1.0 + 1e-6)
    ends[2 + end] = pair.psi.derivative(ends[end])  # a consistent bracket, missing its target
    bracketed = []

    def spying(f, targets, cap, task, table=None, bracket=None):
        bracketed.append(bracket is not None)
        return _find_root(f, targets, cap, task, table, bracket)

    monkeypatch.setattr(young, "_find_root", spying)
    got = space._conjugate_within(pair, ends)(y)
    assert not any(bracketed)
    assert got.tobytes() == pair.phi(y).tobytes()


@pytest.mark.parametrize("name", _NUMERIC_PHI)
def test_amemiya_brackets_that_miss_or_are_wide_fall_back_to_cold_solves(name, monkeypatch):
    pair = _pair(name, True)
    rows = _rows(_LIVE_ROWS)
    _, mu = space._stationarity_batch(pair, rows)
    want = _amemiya_batch(pair, rows, mu)
    ends = space._maximizer_ends

    def perturbed(p, rows, lo, hi):
        out = ends(p, rows, lo, hi)
        out[0] *= 1.0 + 1e-6  # psi(m_lo) rises past the lowest probes' targets
        out[2] = np.where(np.isnan(out[2]), np.nan, p.psi.derivative(out[0]))
        return out

    monkeypatch.setattr(space, "_maximizer_ends", perturbed)
    np.testing.assert_allclose(_amemiya_batch(pair, rows, mu), want, rtol=1e-12, atol=0.0)
    # a bracket wider than a factor 2 holds no target, nor do the brackets of
    # a search whose end solve raises: every element of it solves cold
    wide = ends(pair, rows, mu / 10.0, mu * 10.0)
    assert np.isnan(wide[2]).all() and not np.isnan(wide[0]).any()

    def raising(y):
        raise SolverCapError("testing", 0)

    cold_only = young.ComplementaryPair(young.YoungFunction(pair.phi.fn, "cold", raising), pair.psi, "phi")
    assert np.isnan(ends(cold_only, rows, mu, mu)).all()
    plain = young.ComplementaryPair(pair.phi, pair.psi)
    assert _amemiya_batch(cold_only, rows, mu).tobytes() == _amemiya_batch(plain, rows, mu).tobytes()


@pytest.mark.parametrize("name", _NUMERIC_PHI)
def test_a_row_whose_maximizer_ends_raise_leaves_its_batch_mates_alone(name):
    pair = _pair(name, True)
    A = np.array([[0.5, 2.0], [30.0, 1.0], [1.0, 3.0]])
    rows = _rows(A)
    _, mu = space._stationarity_batch(pair, rows)
    top = 30.0 * mu[1] * (1.0 + 1e-6)  # the largest target of row 1's probes
    maximizer = pair.phi.derivative

    def capped(y):
        # a cap between row 1's probes and its upper end solve, 1e-9 above them
        if np.any(np.asarray(y) > top * (1.0 + 5e-10)):
            raise BracketOverflowError(top, 1e200, "conjugating")
        return maximizer(y)

    capped_pair = young.ComplementaryPair(young.YoungFunction(pair.phi.fn, "capped", capped), pair.psi, "phi")
    ends = space._maximizer_ends(capped_pair, rows, mu / (1.0 + 1e-6), mu * (1.0 + 1e-6))
    assert np.isnan(ends[2, 2:4]).all() and not np.isnan(ends[2, [0, 1, 4, 5]]).any()
    batch = _amemiya_batch(capped_pair, rows, mu)
    for i in range(len(A)):
        one = _amemiya_batch(capped_pair, _rows(A[i : i + 1]), mu[i : i + 1])
        assert one.tobytes() == batch[i : i + 1].tobytes()
    np.testing.assert_allclose(batch, _amemiya_batch(pair, rows, mu), rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# the galloping bracket and the ITP steps against one-step-at-a-time references


def _linear_bracket(f, t, cap):
    """The bracket [x, 2x] reached by doubling or halving [1, 2] one step at a time."""
    x = np.ones_like(t)
    up = f(2.0 * x) < t
    while up.any():
        x = np.where(up, 2.0 * x, x)
        with np.errstate(over="ignore"):  # 2x past the largest double is past the cap
            over = 2.0 * x > cap
        if over.any():
            raise BracketOverflowError(float(t[over][0]), cap, "testing")
        up = f(2.0 * x) < t
    tiny = np.finfo(float).tiny
    down = (t > 0.0) & (f(x) > t)
    while down.any():
        x = np.where(down, 0.5 * x, x)
        down &= (x >= tiny) & (f(x) > t)
    return np.where(x < tiny, 0.0, x), 2.0 * x


def _bisection_root(f, t, cap):
    """The root finder's stop rules on bisection steps, from the same bracket."""
    lo, hi, _, _ = _bracket(f, t, cap, "testing")
    root_tol = np.where(t <= 0.0, np.inf, 1e-12 * t)
    root, todo = np.zeros(t.shape), np.ones(t.shape, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        err = np.abs(fm - t)
        now = (((hi - lo <= 1e-14 * lo) & (err <= 1e-6 * t)) | (err <= root_tol)) & todo
        np.copyto(root, mid, where=now)
        todo &= ~now
        if not todo.any():
            return root
        below = fm < t
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    raise SolverCapError("testing", 200)


def _counted(f):
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)

    return g, calls


def _square(x):
    with np.errstate(over="ignore"):
        return x * x


_MONOTONE = {"x": lambda x: x, "x^2": _square, "sqrt": np.sqrt, "1e-5 x": lambda x: 1e-5 * x}
_TARGETS = st.lists(
    st.one_of(st.floats(-300.0, 300.0).map(lambda e: 10.0**e), st.integers(-1074, 1023).map(lambda e: 2.0**e), st.just(0.0)),
    min_size=1,
    max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(_MONOTONE)),
    targets=_TARGETS,
    cap=st.sampled_from([1e3, 1e200, 1e300, 2.0, 2.0**10, 2.0**600, 2.0**1023]),
)
def test_galloping_bracket_equals_one_step_at_a_time(name, targets, cap):
    f, t = _MONOTONE[name], np.array(targets)
    try:
        want = _linear_bracket(f, t, cap)
    except BracketOverflowError as err:
        with pytest.raises(BracketOverflowError) as got:
            _bracket(f, t, cap, "testing")
        assert got.value.y == err.y and got.value.cap == cap
        return
    lo, hi, flo, fhi = _bracket(f, t, cap, "testing")
    assert lo.tobytes() == want[0].tobytes() and hi.tobytes() == want[1].tobytes()
    # the values returned are f at the ends (0 at lo = 0, not probed at t <= 0)
    assert fhi.tobytes() == f(hi).tobytes()
    probed = (lo > 0.0) & (t > 0.0)
    assert flo[probed].tobytes() == f(lo[probed]).tobytes() and not flo[~probed].any()


def test_galloping_steps_singly_past_a_probe_where_f_raises():
    # f stands for a nested solve that overflows its own cap beyond 1e6;
    # the root 3e5 needs no probe there, but galloping would reach 2^33
    def nested(x):
        if (x > 1e6).any():
            raise BracketOverflowError(float(x.max()), 1e6, "nested")
        return x

    t = np.array([3e5, 0.25, 7.0])
    lo, hi, _, _ = _bracket(nested, t, 1e300, "testing")
    want = _linear_bracket(lambda x: x, t, 1e300)
    assert lo.tobytes() == want[0].tobytes() and hi.tobytes() == want[1].tobytes()
    assert np.allclose(_find_root(nested, t, 1e300, "testing"), t, rtol=1e-12, atol=0.0)
    # a raise at a single step is not a galloping probe's: it propagates
    with pytest.raises(BracketOverflowError):
        _bracket(nested, np.array([3e6]), 1e300, "testing")


def test_norms_whose_galloping_probe_overflows_the_conjugate_still_solve():
    # N of a tiny row under conj(xlog) sits near 2^-21: galloping up to
    # 2^33 asks the numeric conjugate for a maximizer far past its cap
    psi = catalog_pair("xlog").psi
    A = np.array([[1e-6], [3e-7]])
    n = luxemburg_batch(psi, A)
    assert np.allclose(psi(A[:, 0] / n), 1.0, rtol=1e-9)


_SMOOTH = {  # f and the largest target, 10^top (the xlog density's root e^(t-1) stays below 1e300)
    "x^2": (_square, 12.0),
    "expm1": (np.expm1, 12.0),
    "xlog density": (young._xlog().derivative, 2.6),
}


@pytest.mark.parametrize("name", sorted(_SMOOTH))
def test_itp_takes_at_most_one_step_more_than_bisection_per_element(name):
    f, top = _SMOOTH[name]
    rng = np.random.default_rng(0)
    targets = np.concatenate([np.logspace(-12.0, top, 49), rng.uniform(0.0, 50.0, 40)])
    itp_total = bisection_total = 0
    for t in targets:
        t = np.array([t])
        g, itp = _counted(f)
        x = _find_root(g, t, 1e300, "testing")
        h, bisection = _counted(f)
        ref = _bisection_root(h, t, 1e300)
        assert np.abs(f(x) - t) <= 1e-12 * t and np.abs(f(ref) - t) <= 1e-12 * t
        # a bisection midpoint that is the exact root (10 for t = 100 on x^2)
        # is a lucky hit, not a step count ITP could be held to
        assert itp[0] <= bisection[0] + 1 or f(ref) == t, (t, itp[0], bisection[0])
        itp_total, bisection_total = itp_total + itp[0], bisection_total + bisection[0]
    assert itp_total < 0.5 * bisection_total


def _steep(x):
    with np.errstate(over="ignore"):
        return np.expm1(700.0 * (x - 1.0))


def _power60(x):
    with np.errstate(over="ignore"):
        return x**60


@pytest.mark.parametrize("f", [_steep, _power60, young._xlog().derivative], ids=["steep", "x^60", "xlog density"])
@pytest.mark.parametrize("t", [1e-3, 1.0, 300.0])
def test_itp_brackets_are_never_wider_than_bisection_one_step_behind(f, t):
    # regula falsi stalls at one end of a strongly convex f; the projection
    # keeps the bracket after step j within w0 2^-j all the same
    t = np.array([t])
    lo, hi = (float(end[0]) for end in _bracket(f, t, 1e300, "testing")[:2])
    w0 = hi - lo
    g, calls = _counted(f)
    _bracket(g, t, 1e300, "testing")
    skip, probes = calls[0], []

    def recording(x):
        if calls[0] >= skip:
            probes.append(float(x[0]))
        return g(x)

    calls[0] = 0
    _find_root(recording, t, 1e300, "testing")
    for j, x in enumerate(probes):
        lo, hi = (x, hi) if f(np.array([x]))[0] < t[0] else (lo, x)
        assert hi - lo <= w0 * 0.5**j * (1.0 + 1e-12), (j, x)


def test_hopeless_equivalence_candidates_stop_within_a_few_density_evaluations():
    # conj(xlog) at c x for large c needs a maximizer near e^(c x - 1), far past
    # its 1e200 cap: such a candidate raises from the density table, not after 660 doublings
    xlog = young._xlog()
    density, calls = _counted(xlog.derivative)
    psi = conjugate(YoungFunction(xlog.fn, "xlog", density), young._CATALOG_CAP)
    per_candidate = []

    def recorded(x):
        before = calls[0]
        try:
            return psi(x)
        except BracketOverflowError:
            per_candidate.append(calls[0] - before)
            raise

    strong_equivalence(
        YoungFunction(recorded, "conj(xlog)"), catalog_pair("cosh").phi, grid=np.logspace(-2, np.log10(30.0), 40)
    )
    assert per_candidate and max(per_candidate) < 60


# ---------------------------------------------------------------------------
# the conjugates' density tables against the gallop


def _flat(x):
    """Increasing up to 4, flat on [4, 64], increasing again after."""
    x = np.asarray(x, dtype=float)
    return np.minimum(x, 4.0) + np.maximum(x - 64.0, 0.0)


# every closed-form density of the catalog (sinh saturates to inf), and a flat one
_TABLED = {
    f"{name} {side}": getattr(catalog_pair(name), side).derivative
    for name in catalog_names()
    for side in ("phi", "psi")
    if catalog_pair(name).numeric_side != side
}
_TABLED["flat"] = _flat
_TABLE_CAPS = [2.0, 3.0, 1e3, 1e200, 2.0**1023]


def _both_brackets(f, t, cap):
    """_bracket galloping and read from f's table: four arrays each, or the y of the overflow."""
    table = _density_table(f, cap)
    assert table is not None
    out = []
    for tab in (None, table):
        try:
            with np.errstate(over="ignore"):
                out.append(_bracket(f, t.copy(), cap, "testing", tab))
        except BracketOverflowError as err:
            assert err.cap == cap and err.task == "testing"
            out.append(err.y)
    return out


def _assert_same_brackets(f, t, cap):
    galloped, read = _both_brackets(f, t, cap)
    if isinstance(galloped, float) or isinstance(read, float):
        assert galloped == read  # the same first target past the cap
    else:
        assert [a.tobytes() for a in galloped] == [b.tobytes() for b in read]


def _edge_targets(f):
    # the values f(2^p) at p = -30, 0, 1 (downward side) and 2, 8 (upward)
    ties = np.asarray(f(np.ldexp(1.0, [-30, 0, 1, 2, 8])), dtype=float)
    specials = [0.0, -0.0, -3.0, -np.inf, np.nan, np.inf, 5e-324, 1e-310, np.finfo(float).tiny]
    return np.concatenate([specials, ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf), 10.0 ** np.arange(-300.0, 301.0, 25.0)])


@pytest.mark.parametrize("cap", _TABLE_CAPS)
@pytest.mark.parametrize("name", sorted(_TABLED))
def test_a_tabled_bracket_equals_the_gallop_bit_for_bit(name, cap):
    f = _TABLED[name]
    t = _edge_targets(f)
    for one in t:
        _assert_same_brackets(f, np.array([one]), cap)
    _assert_same_brackets(f, t, cap)  # past the cap: the same first y
    top = _density_table(f, cap)[-1]  # f at the largest power of two within the cap
    t = np.array([np.nan, 3.0, 1e300, np.inf, 2.0])
    galloped, read = _both_brackets(f, t, cap)
    if top < np.inf:
        assert galloped == read == t[top < t][0]
    with np.errstate(over="ignore"):
        inside = t[~(np.asarray(f(np.float64(cap))) < t)]
    _assert_same_brackets(f, inside, cap)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(_TABLED)), targets=_TARGETS, cap=st.sampled_from(_TABLE_CAPS))
def test_tabled_brackets_equal_the_gallop_on_random_targets(name, targets, cap):
    _assert_same_brackets(_TABLED[name], np.array(targets), cap)


def test_a_tabled_bracket_is_fresh_and_leaves_the_table_alone():
    f = young._xlog().derivative
    table = _density_table(f, 1e200)
    kept = table.copy()
    t = np.array([0.5, 3.0, 0.0, 100.0])
    ends = _bracket(f, t, 1e200, "testing", table)
    for end in ends:
        assert not np.shares_memory(end, table)
    _find_root(f, t, 1e200, "testing", table)
    assert table.tobytes() == kept.tobytes()


def _table_grid(cap):
    return np.ldexp(1.0, np.arange(-1022, math.frexp(cap)[1]))


def test_a_conjugate_evaluates_its_density_table_once():
    xlog = young._xlog()
    seen = []

    def density(x):
        seen.append(np.array(x))
        return xlog.derivative(x)

    psi = conjugate(YoungFunction(xlog.fn, "xlog", density), young._CATALOG_CAP)
    ys = [np.logspace(-3, 2, 17), np.array([0.5]), np.linspace(0.0, 400.0, 9), np.array([7.0, 0.0, 3.0])]
    for y in ys:
        got = psi.derivative(y)
        live = ~(y <= 0.0)
        want = _find_root(xlog.derivative, y[live], young._CATALOG_CAP, "conjugating")
        assert got[live].tobytes() == want.tobytes()
        psi(y)
    with pytest.raises(BracketOverflowError):
        psi(np.array([1.0, 900.0]))
    grid = _table_grid(young._CATALOG_CAP)
    assert sum(x.shape == grid.shape and np.array_equal(x, grid) for x in seen) == 1
    assert seen[0].tobytes() == grid.tobytes()


def _nan_above(x):
    x = np.asarray(x, dtype=float)
    return np.where(x < 1e10, x, np.nan)


def _dip(x):
    x = np.asarray(x, dtype=float)
    return np.where(x < 1e5, x, 0.1 * x)  # f(2^17) < f(2^16)


_GALLOPING = {  # a nested density (the conjugate of a numeric conjugate), NaN far out, a dip, a tiny cap
    "nested": (lambda: catalog_pair("xlog").psi.derivative, np.logspace(-2, 1, 12), 1e200),
    "NaN past 1e10": (lambda: _nan_above, np.logspace(-3, 9, 13), 1e200),
    "decreasing at 2^17": (lambda: _dip, np.logspace(-3, 4, 15), 1e200),
    "cap below 2": (lambda: np.sqrt, np.logspace(-3, 0.1, 9), 1.5),
}


def _plateaus(x):
    """Flat at 1/2 on [1/2, 4], across 1 and 2, and at 4.5 on [8, 64]."""
    x = np.asarray(x, dtype=float)
    return np.minimum(x, 0.5) + np.minimum(np.maximum(x - 4.0, 0.0), 4.0) + np.maximum(x - 64.0, 0.0)


def _dead_below(x):
    """0 up to 2^-10: the table starts with a plateau of zeros."""
    return np.maximum(np.asarray(x, dtype=float) - 2.0**-10, 0.0)


@pytest.mark.parametrize("f", [_plateaus, _dead_below, _flat])
def test_a_bracket_read_on_a_plateau_equals_the_gallop_bit_for_bit(f):
    # targets equal to a plateau's value are the ones the read searches twice for
    table = _density_table(f, 1e200)
    flat = np.unique(table[:-1][table[1:] == table[:-1]])
    assert flat.size
    t = np.concatenate([flat, np.nextafter(flat, 0.0), np.nextafter(flat, np.inf), table[::7], [0.0, np.nan]])
    for one in t:
        _assert_same_brackets(f, np.array([one]), 1e200)
    _assert_same_brackets(f, t, 1e200)


@pytest.mark.parametrize("name", sorted(_GALLOPING))
def test_densities_without_a_table_keep_galloping(name, monkeypatch):
    make, y, cap = _GALLOPING[name]
    gen = make()
    assert _density_table(gen, cap) is None
    tables = []

    def spying(f, targets, cap, task, table=None):
        if f is gen:
            tables.append(table)
        return _find_root(f, targets, cap, task, table)

    monkeypatch.setattr(young, "_find_root", spying)
    got = conjugate(YoungFunction(lambda x: x, name, gen), cap).derivative(y)
    monkeypatch.undo()
    assert tables == [None]
    assert got.tobytes() == _find_root(gen, y, cap, "conjugating").tobytes()


# ---------------------------------------------------------------------------
# strong_equivalence against its search one candidate at a time


def _reference_equivalence(phi1, phi2, grid=None, tol=None):
    """strong_equivalence calling phi1 once per candidate, only when a search reaches it."""
    tol = tol or Tolerances()
    xs = np.asarray(grid if grid is not None else np.logspace(-3, 3, 61), dtype=float)
    with np.errstate(over="ignore"):
        v2 = np.asarray(phi2(xs), dtype=float)
    cands = 2.0 ** (np.arange(-60, 61) / 4.0)

    def first_pass(order, lower):
        best = (np.inf, None, None)
        for c in map(float, order):
            try:
                with np.errstate(over="ignore"):
                    v1 = np.asarray(phi1(c * xs), dtype=float)
            except BracketOverflowError:
                continue
            diff, slack = (v1 - v2, tol.slack(v2)) if lower else (v2 - v1, tol.slack(v1))
            gap = float(np.max(diff - slack))
            if gap <= 0.0:
                return c, best
            if gap < best[0]:
                best = (gap, c, int(np.argmax(diff)))
        return None, best

    a_star, best_a = first_pass(cands[::-1], True)
    b_star, best_b = first_pass(cands, False)
    if a_star is not None and b_star is not None and a_star <= b_star:
        return EquivalenceResult(True, a_star, b_star)
    gap, cand, worst = best_a if a_star is None else best_b
    return EquivalenceResult(
        False, failing_candidate=cand, failing_x=None if worst is None else float(xs[worst]), gap=gap
    )


def _x_squared(x):
    return np.asarray(x, dtype=float) ** 2


_SHORT = np.logspace(-2, np.log10(30.0), 40)
_EQUIVALENCES = {  # found, found through overflowing candidates, failing, every candidate overflowing
    "pnorm:2 itself": (lambda: catalog_pair("pnorm:2").phi, lambda: catalog_pair("pnorm:2").phi, None),
    "x^2 and x^2/2": (lambda: YoungFunction(_x_squared, "x^2"), lambda: catalog_pair("pnorm:2").phi, None),
    "conj(xlog) and cosh": (lambda: catalog_pair("xlog").psi, lambda: catalog_pair("cosh").phi, _SHORT),
    "conj(cosh) and xlog": (lambda: catalog_pair("cosh").psi, lambda: catalog_pair("xlog").phi, _SHORT),
    "pnorm:2 and expm": (lambda: catalog_pair("pnorm:2").phi, lambda: catalog_pair("expm").phi, np.logspace(-2, 2, 40)),
    "all overflow": (lambda: catalog_pair("xlog").psi, lambda: catalog_pair("pnorm:2").phi, np.logspace(-2, 8, 40)),
}


@pytest.mark.parametrize("name", list(_EQUIVALENCES))
def test_strong_equivalence_equals_its_search_one_candidate_at_a_time(name):
    make1, make2, grid = _EQUIVALENCES[name]
    phi1, phi2 = make1(), make2()
    assert strong_equivalence(phi1, phi2, grid) == _reference_equivalence(phi1, phi2, grid)


def test_strong_equivalence_calls_phi1_once_when_no_candidate_raises():
    calls = []

    def phi1(x):
        calls.append(np.size(x))
        return np.asarray(x, dtype=float) ** 2 / 2.0

    res = strong_equivalence(YoungFunction(phi1, "x^2/2"), catalog_pair("pnorm:2").phi)
    assert res == EquivalenceResult(True, 1.0, 1.0) and calls == [121 * 61]


def _raising_between(lo, hi):
    """x^2/2 that raises SolverCapError on any argument in (lo, hi)."""

    def fn(x):
        x = np.asarray(x, dtype=float)
        if ((x > lo) & (x < hi)).any():
            raise SolverCapError("testing", 200)
        return x**2 / 2.0

    return YoungFunction(fn, "x^2/2, raising")


def test_strong_equivalence_skips_errors_past_the_first_passing_candidates():
    # with a relative slack of 20, a = 4 and b = 1/4 pass first, a > b, and
    # neither search reaches the candidates between them: errors there stay unseen
    tol, grid = Tolerances(absolute=0.0, relative=20.0), np.array([1.0])
    phi1, phi2 = _raising_between(0.26, 3.9), catalog_pair("pnorm:2").phi
    want = _reference_equivalence(phi1, phi2, grid, tol)
    assert not want.found and want.failing_candidate == 2.0**-2.25
    assert strong_equivalence(phi1, phi2, grid, tol) == want


def test_strong_equivalence_raises_errors_before_the_first_passing_candidate():
    # the a search starts at 2^15, whose arguments reach past 1e3
    phi1, phi2 = _raising_between(1e3, np.inf), catalog_pair("pnorm:2").phi
    for search in (_reference_equivalence, strong_equivalence):
        with pytest.raises(SolverCapError) as err:
            search(phi1, phi2)
        assert err.value.task == "testing"


@pytest.mark.parametrize(("name", "flip"), _PAIRS)
def test_subnormal_arguments_meet_the_stop_rule(name, flip):
    # below t ~ 5e-312 the relative stop 1e-12 t underflows to 0, so a
    # subnormal maximizer needs the one-step floor to converge at all
    pair = _pair(name, flip)
    for fn in (pair.phi, pair.psi):
        for y in (5e-324, 1e-310):
            fastest = math.inf
            for _ in range(3):  # the first call of a numeric conjugate fills its density table
                start = time.perf_counter()
                value = fn(y)
                fastest = min(fastest, time.perf_counter() - start)
            assert math.isfinite(value) and value >= 0.0, (fn.name, y, value)
            assert fastest < 1e-3, (fn.name, y, fastest)
