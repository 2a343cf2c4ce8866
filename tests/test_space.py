"""Orlicz-space tests: modulars, both norms, Hoelder, weighted norms, membership."""

import decimal
import functools
import math
import operator
import time
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczlab import space
from orliczlab.errors import BracketOverflowError, GroupMismatchError, InputError, MethodDisagreementError
from orliczlab.groups import Group, polynomial_weight, subexp_weight, trivial_weight
from orliczlab.space import (
    OrliczVector,
    VectorBatch,
    amplitude_matrix,
    holder_gaps,
    luxemburg_batch,
    luxemburg_norm,
    membership_diagnostic,
    modular,
    orlicz_batch,
    orlicz_gauges,
    orlicz_norm,
    random_vector,
    random_vectors,
    weighted_norms,
)
from orliczlab.young import ComplementaryPair, catalog_names, catalog_pair

Z2 = Group.free_abelian(2)
C7 = Group.cyclic(7)
P2 = catalog_pair("pnorm:2")


def test_vector_prunes_exact_zeros_and_orders_support():
    f = OrliczVector(Z2, {(1, 0): 0.0, (0, 1): 2.0, (-1, 0): 1.0})
    assert f.support == ((-1, 0), (0, 1))
    assert f.amplitude((1, 0)) == 0.0
    assert len(f) == 2


def test_vector_aliased_entries_sum():
    # (7,) is (0,) on Z_7: aliased keys sum instead of overwriting
    assert OrliczVector(C7, {(0,): 1.0, (7,): 1.0}).amplitude((0,)) == 2.0
    cancelled = OrliczVector(C7, {(0,): 1.0, (7,): -1.0})
    assert cancelled.support == () and not cancelled
    repeated = OrliczVector(C7, [((3,), 1.0), ((3,), 2.0), ((10,), 0.5j)])
    assert dict(repeated.items()) == {(3,): 3.0 + 0.5j}


def test_vector_algebra_and_pairing():
    f = OrliczVector(Z2, {(0, 0): 1.0 + 1.0j, (1, 0): 2.0})
    g = OrliczVector(Z2, {(0, 0): 3.0, (2, 0): -1.0})
    assert (f + g).amplitude((0, 0)) == 4.0 + 1.0j
    assert (f - f).support == ()
    # bilinear pairing, no conjugation: (1+i) * 3
    assert f.pairing(g) == pytest.approx(3.0 + 3.0j)
    rev = f.reverse()
    assert rev.amplitude((-1, 0)) == 2.0
    with pytest.raises(GroupMismatchError):
        f.pairing(OrliczVector(C7, {(1,): 1.0}))


def test_modular_examples():
    f = OrliczVector(Z2, {(0, 0): 1.0, (1, 0): 1.0})
    assert modular(P2.phi, f) == pytest.approx(1.0)
    assert modular(P2.phi, OrliczVector.zero(Z2)) == 0.0
    fe = OrliczVector.delta(Z2, (0, 0), 1.0)
    assert modular(catalog_pair("expm").phi, fe) == pytest.approx(math.e - 2.0)


def test_modular_saturates_to_inf():
    huge = OrliczVector.delta(Z2, (0, 0), 1e6)
    assert modular(catalog_pair("expm").phi, huge) == math.inf


@pytest.mark.parametrize("name", catalog_names())
def test_modular_reads_inf_for_nan_and_zero_for_the_zero_vector(name):
    pair = catalog_pair(name)
    nan = OrliczVector(Z2, {(0, 0): complex(math.nan, 0.0), (1, 0): 1.0})
    assert modular(pair.phi, nan) == math.inf
    assert modular(pair.psi, nan) == math.inf  # a numeric conjugate maps NaN to NaN
    # the zero vector is an empty row; numeric conjugates must take it too
    assert modular(pair.phi, OrliczVector.zero(Z2)) == 0.0
    assert modular(pair.psi, OrliczVector.zero(Z2)) == 0.0


def test_luxemburg_closed_forms():
    fe = OrliczVector.delta(Z2, (0, 0), 1.0)
    assert luxemburg_norm(P2.phi, fe) == pytest.approx(2.0**-0.5, abs=1e-11)
    f34 = OrliczVector(Z2, {(0, 0): 3.0, (1, 0): 4.0})
    assert luxemburg_norm(P2.phi, f34) == pytest.approx(5.0 / math.sqrt(2.0), abs=1e-11)
    assert luxemburg_norm(P2.phi, OrliczVector.zero(Z2)) == 0.0


def test_luxemburg_matches_lp_closed_form_all_p():
    rng = np.random.default_rng(8)
    for p in (1.5, 2.0, 3.0):
        pair = catalog_pair(f"pnorm:{p:g}")
        vecs = [random_vector(Z2, rng, 5, 7) for _ in range(50)]
        A = np.zeros((len(vecs), max(len(v) for v in vecs)))
        for i, v in enumerate(vecs):
            a = v.abs_amplitudes()
            A[i, : a.size] = a
        lux = luxemburg_batch(pair.phi, A)
        lp = (A**p).sum(axis=1) ** (1.0 / p)
        assert np.max(np.abs(lux - lp * p ** (-1.0 / p))) < 1e-8


def test_orlicz_closed_forms():
    fe = OrliczVector.delta(Z2, (0, 0), 1.0)
    assert orlicz_norm(P2, fe) == pytest.approx(math.sqrt(2.0), abs=1e-10)
    f34 = OrliczVector(Z2, {(0, 0): 3.0, (1, 0): 4.0})
    assert orlicz_norm(P2, f34) == pytest.approx(5.0 * math.sqrt(2.0), abs=1e-9)
    assert orlicz_norm(P2, OrliczVector.zero(Z2)) == 0.0


def test_norm_report_sandwich_invariant():
    rng = np.random.default_rng(21)
    for name in catalog_names():
        pair = catalog_pair(name)
        for _ in range(20):
            f = random_vector(C7, rng, 3, 5)
            orl, gap, lux = orlicz_gauges(pair, [f])[:, 0]
            assert lux <= orl + 1e-9
            assert orl <= 2.0 * lux + 1e-9
            assert gap <= 1e-5


def test_unit_ball_characterization():
    rng = np.random.default_rng(3)
    pair = catalog_pair("pnorm:3")
    for _ in range(30):
        f = random_vector(C7, rng, 3, 5)
        if not f:
            continue
        n = luxemburg_norm(pair.phi, f)
        for c in (0.5, 1.0, 1.7):
            fc = f.scale(c / n)
            inside_norm = luxemburg_norm(pair.phi, fc) <= 1.0 + 1e-9
            inside_modular = modular(pair.phi, fc) <= 1.0 + 1e-9
            assert inside_norm == inside_modular


def test_homogeneity_and_triangle():
    rng = np.random.default_rng(4)
    pair = catalog_pair("xlog")
    for _ in range(20):
        f = random_vector(Z2, rng, 4, 6)
        g = random_vector(Z2, rng, 4, 6)
        c = 0.7 - 0.4j
        assert luxemburg_norm(pair.phi, f.scale(c)) == pytest.approx(
            abs(c) * luxemburg_norm(pair.phi, f), rel=1e-9, abs=1e-12
        )
        assert orlicz_norm(pair, f.scale(c)) == pytest.approx(
            abs(c) * orlicz_norm(pair, f), rel=1e-9, abs=1e-12
        )
        assert luxemburg_norm(pair.phi, f + g) <= (
            luxemburg_norm(pair.phi, f) + luxemburg_norm(pair.phi, g) + 1e-9
        )
        assert orlicz_norm(pair, f + g) <= orlicz_norm(pair, f) + orlicz_norm(pair, g) + 1e-9


def test_dual_sampling_lower_bound():
    rng = np.random.default_rng(6)
    for name in ("pnorm:1.5", "expm"):
        pair = catalog_pair(name)
        f = random_vector(C7, rng, 3, 6)
        a = f.abs_amplitudes()
        V = np.abs(rng.uniform(-1.0, 1.0, size=(300, a.size)))
        nv = luxemburg_batch(pair.psi, V)
        live = nv > 0
        pairings = (V[live] / nv[live][:, None]) @ a
        assert float(np.max(pairings)) <= orlicz_norm(pair, f) + 1e-9


def test_method_disagreement_is_a_hard_error():
    # A deliberately inconsistent "pair": psi is NOT the conjugate of phi,
    # so the stationarity route disagrees with the minimization route.
    lying = ComplementaryPair(catalog_pair("pnorm:2").phi, catalog_pair("pnorm:3").psi)
    f = OrliczVector(Z2, {(0, 0): 3.0, (1, 0): 4.0})
    with pytest.raises(MethodDisagreementError):
        orlicz_norm(lying, f)


def test_a_nan_agreement_gap_is_a_hard_error(monkeypatch):
    monkeypatch.setattr(space, "_amemiya_batch", lambda pair, rows, mu: np.full_like(mu, math.nan))
    with pytest.raises(MethodDisagreementError):
        orlicz_norm(P2, OrliczVector(Z2, {(0, 0): 3.0, (1, 0): 4.0}))


def test_norms_of_a_vector_holding_nan_raise():
    f = OrliczVector(Z2, {(0, 0): math.nan, (1, 0): 1.0})
    with pytest.raises(InputError, match="NaN"):
        luxemburg_norm(P2.phi, f)
    with pytest.raises(InputError, match="NaN"):
        orlicz_norm(P2, f)


@pytest.mark.parametrize("rows", [[[3.0, 4.0]], 3.0, [OrliczVector(Z2, {(0, 0): 1.0}), [1.0]]])
def test_norms_of_rows_that_are_not_a_matrix_or_vectors_raise_input_errors(rows):
    calls = [
        lambda: luxemburg_batch(P2.phi, rows),
        lambda: orlicz_batch(P2, rows),
        lambda: orlicz_gauges(P2, rows),
    ]
    for call in calls:
        with pytest.raises(InputError, match="np.ndarray matrix, a VectorBatch, an OrliczVector"):
            call()


def _fails_fast(call, match):
    """The fastest of three calls, each of which must raise InputError."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(InputError, match=match):
            call()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("flip", [False, True], ids=["pair", "flipped"])
@pytest.mark.parametrize("name", catalog_names())
def test_infinite_amplitudes_raise_before_any_solve(name, flip):
    pair = catalog_pair(name).flip() if flip else catalog_pair(name)
    # every closed form reads inf at +inf, expm's and its conjugate's included
    for side, fn in (("phi", pair.phi), ("psi", pair.psi)):
        if pair.numeric_side != side:
            assert fn(math.inf) == math.inf, side
    f = OrliczVector(Z2, {(0, 0): math.inf, (1, 0): 1.0})
    A = np.array([[1.0, 2.0], [1.0, -math.inf]])
    calls = [
        lambda: luxemburg_norm(pair.phi, f),
        lambda: orlicz_norm(pair, f),
        lambda: luxemburg_batch(pair.phi, A),
        lambda: space.orlicz_batch(pair, A),
    ]
    for i, call in enumerate(calls):
        assert _fails_fast(call, "row [01] holds an infinity") < 1e-3, i
    if pair.numeric_side != "phi":
        # a finite row whose sum overflows is not rejected: it solves
        with np.errstate(over="ignore"):
            norms = luxemburg_batch(pair.phi, np.array([[1e308, 1e308], [1.0, 2.0]]))
        assert np.isfinite(norms).all() and norms[0] > 1e307


def test_a_finite_row_that_overflows_warns_nothing():
    # the overflow row above, and Orlicz norms past the largest double
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name in catalog_names():
            for pair in (catalog_pair(name), catalog_pair(name).flip()):
                if pair.numeric_side != "phi":
                    norms = luxemburg_batch(pair.phi, np.array([[1e308, 1e308], [1.0, 2.0]]))
                    assert np.isfinite(norms).all() and norms[0] > 1e307
        with pytest.raises(BracketOverflowError):
            space.orlicz_batch(P2, np.array([[1e308, 1e308]]))


# Orlicz norms at the top of the doubles: (pair, row, the norm or None for past
# the largest double).  A pnorm norm is q^(1/q) |f|_p, here in 40 digits: for
# [1e307, 1e307], 2e307 at p = 2 and 12^(1/3) 1e307 at p = 1.5.  expm's are its bits.
with decimal.localcontext(prec=40):
    _TOP_ROWS = [
        (name, row, None) for name in ("pnorm:2", "pnorm:1.5", "expm") for row in ([1e308, 1e308], [1.7e308])
    ] + [
        ("pnorm:2", [1e307, 1e307], 2 * Decimal(10) ** 307),
        ("pnorm:1.5", [1e307, 1e307], Decimal(12) ** (Decimal(1) / 3) * Decimal(10) ** 307),
        ("expm", [1e307, 1e307], "0x1.07492f71fa71ap+1021"),
    ]


@pytest.mark.parametrize(("name", "row", "want"), _TOP_ROWS, ids=[f"{n}-{r}" for n, r, _ in _TOP_ROWS])
def test_an_orlicz_norm_past_the_largest_double_overflows_its_bracket(name, row, want, monkeypatch):
    pair, A = catalog_pair(name), np.array([row])
    if want is not None:
        got = space.orlicz_batch(pair, A)[0][0]
        if isinstance(want, str):
            assert got == float.fromhex(want)
        else:  # within 4 ulp of the closed form
            assert abs(Decimal(got) - want) <= 4 * Decimal(math.ulp(float(want)))
        return

    def no_search(*_args):
        raise AssertionError("the Amemiya search ran")

    monkeypatch.setattr(space, "_amemiya_batch", no_search)
    with pytest.raises(BracketOverflowError, match="Orlicz norm") as err:
        space.orlicz_batch(pair, A)
    assert err.value.task == "taking an Orlicz norm" and err.value.y == math.inf
    with pytest.raises(BracketOverflowError):
        orlicz_norm(pair, OrliczVector(Z2, {(i, 0): a for i, a in enumerate(row)}))


# ragged arrays: 1-7 segments of 1-300 entries (one-point ones included), magnitudes 1e-8 to 1e8
_SEGMENTS = st.lists(
    st.lists(st.floats(-8.0, 8.0).map(lambda e: 10.0**e), min_size=1, max_size=300),
    min_size=1,
    max_size=7,
)


@settings(max_examples=150, deadline=None)
@given(segments=_SEGMENTS)
def test_a_segmented_sum_equals_each_segment_summed_alone(segments):
    offsets = np.cumsum([0] + [len(seg) for seg in segments])
    sums = space._saturated_sums(np.concatenate([np.array(seg) for seg in segments]), offsets)
    for i, seg in enumerate(segments):
        alone = space._saturated_sums(np.array(seg), np.array([0, len(seg)]))
        assert sums[i : i + 1].tobytes() == alone.tobytes()


def _holder_gap_reference(pair, f, g):
    """The per-pair Hoelder gap, one (f, g) at a time."""
    at = dict(g.items())
    # a left fold from 0.0, as holder_gaps sums (Python's sum compensates from 3.12 on)
    pointwise = functools.reduce(operator.add, (abs(a * at.get(s, 0j)) for s, a in f.items()), 0.0)
    if not f or not g:
        return 0.0 - pointwise
    flipped = pair.flip()
    bound = min(
        luxemburg_norm(pair.phi, f) * orlicz_norm(flipped, g),
        orlicz_norm(pair, f) * luxemburg_norm(pair.psi, g),
    )
    return bound - pointwise


def test_holder_gap_cases():
    fd = OrliczVector.delta(C7, (1,))
    zero = OrliczVector.zero(C7)
    # Cauchy-Schwarz equality case: bound = 2^-1/2 * 2^1/2 = 1, pairing = 1
    assert holder_gaps(P2, [fd], [fd])[0] == pytest.approx(0.0, abs=1e-10)
    assert holder_gaps(P2, [fd, zero, zero], [zero, fd, zero]).tolist() == [0.0, 0.0, 0.0]
    assert holder_gaps(P2, [], []).shape == (0,)
    rng = np.random.default_rng(9)
    for name in catalog_names():
        pair = catalog_pair(name)
        # support sizes 0-7 on both sides, zero vectors among them, in one solve each
        fs = [random_vector(C7, rng, 3, k) if k else zero for k in (5, 1, 7, 0, 3, 5, 2, 1)]
        gs = [random_vector(C7, rng, 3, k) if k else zero for k in (5, 4, 2, 6, 0, 5, 1, 7)]
        fs, gs = fs + [fd, fd, zero], gs + [fd, zero, fd]
        gaps = holder_gaps(pair, fs, gs)
        assert gaps.tolist() == [_holder_gap_reference(pair, f, g) for f, g in zip(fs, gs)]
        assert np.all(gaps >= -1e-9)


def test_a_vector_is_a_batch_of_one_and_not_a_sequence():
    # len of a vector is its support size, so it neither iterates nor
    # indexes; where a batch is expected it is the batch of one vector
    rng = np.random.default_rng(4)
    f, g = random_vector(C7, rng, 3, 5), random_vector(C7, rng, 3, 2)
    w = polynomial_weight(C7, 1.0)
    for misuse in (lambda: list(f), lambda: f[0], lambda: amplitude_matrix(f)):
        with pytest.raises(TypeError, match="not a batch"):
            misuse()
    one = VectorBatch.of(f)
    assert type(one) is VectorBatch and len(one) == 1 and len(f) == 5
    assert list(one[0].items()) == list(f.items())
    assert orlicz_batch(P2, f)[0].tolist() == [orlicz_norm(P2, f)]
    assert orlicz_gauges(P2, f).tolist() == orlicz_gauges(P2, [f]).tolist()
    assert holder_gaps(P2, f, g).tolist() == holder_gaps(P2, [f], [g]).tolist()
    assert weighted_norms(P2, w, f).tolist() == weighted_norms(P2, w, [f]).tolist()
    assert len(VectorBatch.of([])) == 0 and VectorBatch.of([], C7).group == C7


def test_weighted_norm():
    w1 = polynomial_weight(Z2, 1.0)
    f = OrliczVector.delta(Z2, (2, 1))
    assert weighted_norms(P2, w1, [f])[0] == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-10)
    assert luxemburg_norm(P2.phi, f.pointwise_mul(w1.at)) == pytest.approx(
        4.0 / math.sqrt(2.0), rel=1e-10
    )
    g = OrliczVector(Z2, {(0, 1): 1.5, (1, 1): -2.0j})
    assert weighted_norms(P2, trivial_weight(Z2), [g])[0] == pytest.approx(orlicz_norm(P2, g))
    rng = np.random.default_rng(4)
    vs = [random_vector(Z2, rng, 4, k) if k else OrliczVector.zero(Z2) for k in (6, 0, 3, 6, 1)]
    for pair in (P2, catalog_pair("xlog")):
        for w in (w1, subexp_weight(Z2, 0.5, 1.0), trivial_weight(Z2)):
            want = [orlicz_norm(pair, v.pointwise_mul(w.at)) for v in vs]
            assert weighted_norms(pair, w, vs).tolist() == want
    assert weighted_norms(P2, w1, []).shape == (0,)


def test_membership_diagnostic_verdicts():
    psi = P2.psi
    w2 = polynomial_weight(Z2, 2.0)
    rep = membership_diagnostic(Z2, psi, lambda X: 1.0 / w2.at(X), (1.0, 10.0), (5, 10, 20, 40))
    assert all(v == "converging" for v in rep.verdicts.values())
    w04 = polynomial_weight(Z2, 0.4)
    rep = membership_diagnostic(Z2, psi, lambda X: 1.0 / w04.at(X), (1.0,), (5, 10, 20, 40))
    assert rep.verdicts[1.0] == "diverging"
    c5 = Group.cyclic(5)
    rep = membership_diagnostic(
        c5, psi, lambda X: 1.0 / polynomial_weight(c5, 1.0).at(X), (1.0, 10.0), (1, 2, 3, 4)
    )
    assert all(v == "converging" for v in rep.verdicts.values())
    # partial sums are recorded per (alpha, radius)
    assert len(rep.rows) == 8


def test_membership_radii_must_increase():
    with pytest.raises(InputError):
        membership_diagnostic(Z2, P2.psi, lambda X: np.ones(len(X)), (1.0,), (5, 5, 10))


def test_random_vector_determinism():
    a = random_vector(Z2, np.random.default_rng(123), 4, 6)
    b = random_vector(Z2, np.random.default_rng(123), 4, 6)
    assert dict(a.items()) == dict(b.items())


@pytest.mark.parametrize(
    "group", [Group.free_abelian(2), Group.heisenberg(), Group.cyclic(7)], ids=repr
)
def test_random_vector_draws_as_from_the_tuple_ball(group):
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    for radius in (0, 1, 2, 3, 5):
        for size in (1, 4, 8, 40):
            got = random_vector(group, rng, radius, size)
            # the draw as it was made from the list of element tuples
            ball = group.ball(radius)
            k = min(size, len(ball))
            idx = ref.choice(len(ball), size=k, replace=False)
            amps = ref.uniform(-1.0, 1.0, size=(k, 2)).view(complex).ravel()
            want = OrliczVector._summed(group, group.coords_array([ball[i] for i in idx]), amps)
            assert got._rows.tolist() == want._rows.tolist()
            assert got._amps.tobytes() == want._amps.tobytes()


def _one_draw(group, rng, radius, size):
    """The one-vector draw as random_vector made it before the batch sampler:
    the ball copied per draw, then one choice and one uniform call."""
    ball = group.ball_array(radius)
    k = min(size, len(ball))
    idx = rng.choice(len(ball), size=k, replace=False)
    amps = rng.uniform(-1.0, 1.0, size=(k, 2)).view(complex).ravel()
    up = idx.argsort()
    return OrliczVector._distinct(group, ball[idx[up]], amps[up])


@pytest.mark.parametrize(
    "group", [Group.free_abelian(2), Group.heisenberg(), Group.cyclic(7)], ids=repr
)
@pytest.mark.parametrize("radius, size", [(4, 6), (3, 5), (3, 8), (0, 3)])
@pytest.mark.parametrize("count", [0, 1, 17])
def test_random_vectors_equal_the_per_draw_stream(group, radius, size, count):
    # (3, 8) on Z_7 asks for more points than the ball's 7; (0, 3) has a one-point ball
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    got = random_vectors(group, rng, radius, size, count)
    want = [_one_draw(group, ref, radius, size) for _ in range(count)]
    assert [repr(list(v.items())) for v in got] == [repr(list(v.items())) for v in want]
    assert all(len(v) == min(size, group.ball_count(radius)) for v in got)
    assert rng.random() == ref.random()  # the generators end in the same state
    # a seed stands for its Generator
    again = random_vectors(group, 11, radius, size, count)
    assert [repr(list(v.items())) for v in again] == [repr(list(v.items())) for v in got]


# The pointwise maps as they were written over dict-backed vectors: one scalar
# call per element and the vector constructor, kept as the reference.
def _dict_pointwise_mul(f, fn):
    return OrliczVector(f.group, {g: a * fn(g) for g, a in f.items()})


def _dict_pointwise_div(f, fn):
    return OrliczVector(f.group, {g: a / fn(g) for g, a in f.items()})


def _dict_abs(f):
    return OrliczVector(f.group, {g: abs(a) for g, a in f.items()})


def _raw_entries(rng, group, n):
    """n entries in a small box; on Z_7 coordinates run from -9 to 16, so
    entries alias one another and can cancel."""
    lo, hi = (-9, 16) if group.kind == "cyclic" else (-3, 3)
    rows = rng.integers(lo, hi + 1, size=(n, group.dim)).tolist()
    special = rng.choice([0.0, 1.0, -1.0, 0.5, -2.5, 1e-300], size=(n, 2))
    parts = np.where(rng.random((n, 2)) < 0.5, special, rng.uniform(-2.0, 2.0, size=(n, 2)))
    return [(tuple(r), complex(a, b)) for r, (a, b) in zip(rows, parts.tolist())]


@pytest.mark.parametrize(
    "group", [Group.free_abelian(2), Group.heisenberg(), Group.cyclic(7)], ids=repr
)
def test_pointwise_maps_equal_the_dict_methods_bitwise(group):
    coefs = np.arange(1, group.dim + 1) * np.array([1, -2, 3][: group.dim])

    def signed(X):  # real, with zeros and both signs
        return 0.25 * (np.asarray(X) @ coefs)

    def negative(X):  # real and nonzero, so a valid divisor
        return -1.0 - 0.375 * np.abs(np.asarray(X) @ coefs)

    maps = [(w.at, w) for w in (
        polynomial_weight(group, 1.0),
        polynomial_weight(group, 1.5),
        subexp_weight(group, 0.5, 1.0),
    )]
    maps += [(fn, lambda g, fn=fn: float(fn(np.array(g)))) for fn in (signed, negative)]
    rng = np.random.default_rng(40)
    for _ in range(25):
        f = OrliczVector(group, _raw_entries(rng, group, int(rng.integers(0, 12))))
        pairs = [(f.abs(), _dict_abs(f))]
        for fn, scalar in maps:
            pairs.append((f.pointwise_mul(fn), _dict_pointwise_mul(f, scalar)))
            if fn is not signed:
                pairs.append((f.pointwise_div(fn), _dict_pointwise_div(f, scalar)))
        for got, want in pairs:
            assert repr(list(got.items())) == repr(list(want.items()))  # signed zeros too
            assert got._rows.tolist() == want._rows.tolist()  # the one row order



@pytest.mark.parametrize("group", [Z2, Group.heisenberg(), C7], ids=["Z2", "H3", "Z7"])
def test_random_vectors_equal_the_scatter_add_path_bitwise(group):
    # the drawn rows are distinct, so pruning zeros alone builds what summing would
    for seed, radius, size in [(0, 1, 3), (1, 3, 6), (2, 4, 8), (3, 2, 40)]:
        f = random_vector(group, np.random.default_rng(seed), radius, size)
        rng = np.random.default_rng(seed)
        ball = group.ball_array(radius)
        k = min(size, len(ball))
        idx = rng.choice(len(ball), size=k, replace=False)
        amps = rng.uniform(-1.0, 1.0, size=(k, 2)).view(complex).ravel()
        ref = OrliczVector._summed(group, ball[idx], amps)
        assert len(f) == k
        assert f._rows.tobytes() == ref._rows.tobytes()
        assert f._amps.tobytes() == ref._amps.tobytes()
