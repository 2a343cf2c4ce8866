"""The shared root finder and minimizer, and the norms built on them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczlab import space
from orliczlab.errors import BracketOverflowError, SolverCapError
from orliczlab.groups import Group
from orliczlab.space import (
    OrliczVector,
    _amemiya_batch,
    luxemburg_batch,
    luxemburg_norm,
    luxemburg_norms,
    orlicz_batch,
    orlicz_norm,
    orlicz_norms,
    random_vector,
)
from orliczlab.young import (
    SearchSpec,
    YoungFunction,
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
    maximizer = conjugate(phi, SearchSpec(bracket_cap=1e200)).derivative
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
    # a gauge 1e30 times too small centres the bracket far from the minimum
    with pytest.raises(SolverCapError):
        _amemiya_batch(catalog_pair("pnorm:2"), np.array([[1.0]]), np.array([1e-30]))


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
    assert orlicz_norms(pair, vectors).tobytes() == want.tobytes()
    want = np.array([luxemburg_norm(pair.phi, v) for v in vectors])
    assert luxemburg_norms(pair.phi, vectors).tobytes() == want.tobytes()
    assert want[-1] == 0.0


def test_a_row_that_widens_its_amemiya_bracket_leaves_its_batch_mates_alone(monkeypatch):
    # For expm the Amemiya minimum of these rows sits at 0.873-0.921 times
    # 1/N(f), by the shape of f; a first span of 1.2 pins the rows below
    # 1.05 / 1.2 = 0.875 to the left edge, so those widen once and the rest
    # keep their first minimum.
    pair = catalog_pair("expm")
    A = np.random.default_rng(0).uniform(0.0, 1.0, size=(40, 6)) ** 4
    monkeypatch.setattr(space, "_AMEMIYA_SPAN", 1.2)
    searched = []

    def recording(h, a, b, task):
        searched.append(len(a))
        return _golden_min(h, a, b, task)

    monkeypatch.setattr(space, "_golden_min", recording)
    lux = luxemburg_batch(pair.phi, A)
    batch = _amemiya_batch(pair, A, lux)
    assert len(searched) == 2 and searched[0] == len(A) and 0 < searched[1] < len(A)
    for i in range(len(A)):
        one = _amemiya_batch(pair, A[i : i + 1], lux[i : i + 1])
        assert one.tobytes() == batch[i : i + 1].tobytes()
    norms, _ = orlicz_batch(pair, A)
    for i in range(len(A)):
        assert orlicz_batch(pair, A[i : i + 1])[0].tobytes() == norms[i : i + 1].tobytes()
