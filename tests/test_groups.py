"""Group geometry tests: laws, word lengths, balls, growth, weights."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczlab.errors import GroupMismatchError, InputError, MemoryCapError, RadiusCapError
from orliczlab.groups import (
    Group,
    RowIndex,
    _sorted_runs,
    polynomial_weight,
    product_weight,
    subexp_log_weight,
    subexp_weight,
    trivial_weight,
    weight_axioms_report,
)

coord = st.integers(min_value=-6, max_value=6)


def test_heisenberg_defining_product():
    heis = Group.heisenberg()
    assert heis.multiply((1, 0, 0), (0, 1, 0)) == (1, 1, 1)


@settings(max_examples=150, deadline=None)
@given(a=st.tuples(coord, coord, coord), b=st.tuples(coord, coord, coord), c=st.tuples(coord, coord, coord))
def test_heisenberg_group_axioms(a, b, c):
    heis = Group.heisenberg()
    assert heis.multiply(heis.multiply(a, b), c) == heis.multiply(a, heis.multiply(b, c))
    assert heis.multiply(a, heis.identity()) == a
    assert heis.multiply(a, heis.invert(a)) == heis.identity()
    assert heis.multiply(heis.invert(a), a) == heis.identity()


def test_cyclic_reduction_and_law():
    c5 = Group.cyclic(5)
    assert c5.multiply((3,), (4,)) == (2,)
    assert c5.element((-1,)) == (4,)
    assert c5.invert((2,)) == (3,)


def test_generator_sets_are_symmetric_without_identity():
    for group in (Group.free_abelian(3), Group.heisenberg(), Group.cyclic(5)):
        gens = set(group.generators)
        assert group.identity() not in gens
        assert {group.invert(g) for g in gens} == gens


def test_identity_law_random_elements():
    rng = np.random.default_rng(5)
    for group in (Group.free_abelian(2), Group.heisenberg(), Group.cyclic(7)):
        ball = group.ball(4)
        e = group.identity()
        for _ in range(100):
            g = ball[int(rng.integers(len(ball)))]
            assert group.multiply(g, e) == g and group.multiply(e, g) == g


def test_arity_mismatch_rejected():
    z2 = Group.free_abelian(2)
    with pytest.raises(GroupMismatchError):
        z2.multiply((1, 2), (1, 2, 3))
    with pytest.raises(GroupMismatchError):
        z2.element((1, 2, 3))


def test_word_length_examples():
    z2 = Group.free_abelian(2)
    assert z2.word_length((0, 0)) == 0
    assert z2.word_length((2, 1)) == 3
    heis = Group.heisenberg()
    assert heis.word_length((0, 0, 0)) == 0
    # the commutator x y x^-1 y^-1 reaches the center in 4 letters
    assert heis.word_length((0, 0, 1)) == 4
    assert Group.cyclic(5).word_length((3,)) == 2


def test_word_length_closed_form_matches_bfs():
    for group, radius in (
        (Group.free_abelian(1), 8),
        (Group.free_abelian(2), 8),
        (Group.free_abelian(3), 6),
        (Group.cyclic(9), 4),
    ):
        for g in group.ball(radius):
            assert group.word_length(g) == group.word_length_bfs(g)


def test_word_length_symmetry_and_subadditivity():
    for group, radius in ((Group.free_abelian(2), 6), (Group.heisenberg(), 4)):
        ball = group.ball(radius)
        for g in ball:
            assert group.word_length(g) == group.word_length(group.invert(g))
        for g in ball[::5]:
            for h in ball[::5]:
                gh = group.multiply(g, h)
                assert group.word_length(gh) <= group.word_length(g) + group.word_length(h)


def test_ball_counts_and_ordering():
    z2 = Group.free_abelian(2)
    for n in range(21):
        assert z2.ball_count(n) == 2 * n * n + 2 * n + 1
    ball = z2.ball(1)
    assert ball == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
    assert ball == sorted(ball)
    # closed under inversion
    assert all(z2.invert(g) in set(ball) for g in ball)


@pytest.mark.parametrize(
    "group", [Group.free_abelian(2), Group.heisenberg(), Group.cyclic(7)], ids=repr
)
def test_ball_array_is_the_ball_as_rows(group):
    for radius in range(5):
        X = group.ball_array(radius)
        assert X.dtype == np.int64 and X.shape == (group.ball_count(radius), group.dim)
        assert np.array_equal(X, group.coords_array(group.ball(radius)))
    X[0] += 1  # a new array each call: the view stays sorted
    assert group.ball_array(4)[0].tolist() == list(group.ball(4)[0])
    with pytest.raises(InputError):
        group.ball_array(-1)


def test_ball_saturates_on_finite_group():
    c5 = Group.cyclic(5)
    assert len(c5.ball(2)) == 5
    assert len(c5.ball(10)) == 5


def test_ball_nesting_strict_below_cap():
    heis = Group.heisenberg()
    counts = [heis.ball_count(n) for n in range(7)]
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_negative_radius_rejected():
    with pytest.raises(InputError):
        Group.free_abelian(2).ball(-1)


def test_memory_cap_carries_partial_count():
    tight = Group.free_abelian(2)
    tight.element_cap = 30
    with pytest.raises(MemoryCapError) as err:
        tight.ball(10)
    assert err.value.partial_count > 30


@pytest.mark.parametrize(
    ("kind", "param", "cap", "radius", "count"),
    [("free_abelian", 2, 30, 6, 85), ("heisenberg3", 3, 40, 5, 299)],
)
def test_a_memory_cap_error_leaves_the_table_intact(kind, param, cap, radius, count):
    group = Group(kind, param)
    group.element_cap = cap
    with pytest.raises(MemoryCapError):
        group.ball(10)
    group.element_cap = Group.DEFAULT_ELEMENT_CAP
    assert group.ball_count(radius) == count
    for g in group.ball(radius):
        assert group.word_length_bfs(g) == group.word_length(g)


def _reference_bfs(group, radius):
    """The scalar dict BFS: every element of length <= radius with its length."""
    lengths, frontier = {group.identity(): 0}, [group.identity()]
    for r in range(1, radius + 1):
        nxt = []
        for h in frontier:
            for gen in group.generators:
                m = group.multiply(h, gen)
                if m not in lengths:
                    lengths[m] = r
                    nxt.append(m)
        frontier = nxt
    return lengths


@pytest.mark.parametrize(
    ("make", "radius"),
    [
        (lambda: Group.free_abelian(1), 8),
        (lambda: Group.free_abelian(2), 6),
        (lambda: Group.free_abelian(3), 4),
        (Group.heisenberg, 5),
        (lambda: Group.cyclic(9), 6),
    ],
)
def test_the_bfs_table_does_not_depend_on_how_it_was_grown(make, radius):
    lengths = _reference_bfs(make(), radius)
    want = make().coords_array(sorted(g for g, n in lengths.items() if n <= radius))
    far = max(lengths, key=lengths.get)  # an element of the last sphere
    by_miss, by_ball, by_bfs = make(), make(), make()
    by_miss.bfs_lengths(by_miss.coords_array([far]))  # the lookup behind tau_array on H3
    by_ball.ball(radius)
    by_bfs.word_length_bfs(far)
    for group in (by_miss, by_ball, by_bfs):
        X = group.ball_array(radius)
        assert X.tobytes() == want.tobytes()
        assert group.bfs_lengths(X).tolist() == [lengths[g] for g in map(tuple, X.tolist())]


def test_radius_cap_error_for_unreachable_element():
    heis = Group.heisenberg()
    heis.radius_cap = 6
    with pytest.raises(RadiusCapError) as err:
        heis.word_length_bfs((0, 0, 10**6))
    assert err.value.radius_cap == 6


def test_growth_orders():
    fit = Group.free_abelian(2).growth_order_estimate(20)
    assert 1.8 <= fit.d_hat <= 2.2
    assert fit.c1 <= fit.c2
    fit = Group.free_abelian(3).growth_order_estimate(14)
    assert 2.7 <= fit.d_hat <= 3.3
    fit = Group.heisenberg().growth_order_estimate(12)
    assert 3.6 <= fit.d_hat <= 4.4


def test_growth_needs_six_radii():
    with pytest.raises(InputError):
        Group.free_abelian(2).growth_order_estimate(4)


def test_weight_values():
    z2 = Group.free_abelian(2)
    w1 = polynomial_weight(z2, 1.0)
    assert w1((2, 1)) == 4.0
    assert w1(z2.identity()) == 1.0
    sub = subexp_weight(z2, 0.5, 1.0)
    assert sub((2, 1)) == pytest.approx(math.exp(math.sqrt(3.0)), rel=1e-14)
    assert sub(z2.identity()) == 1.0


def test_subexp_log_identity_convention():
    # the defining exponent is 0/0 at tau = 0; the value is pinned to 1
    z2 = Group.free_abelian(2)
    wl = subexp_log_weight(z2, 1.0, 1.0)
    assert wl(z2.identity()) == 1.0
    assert wl((1, 0)) == pytest.approx(math.exp(1.0 / math.log(2.0)), rel=1e-14)


def test_weight_parameter_validation():
    z2 = Group.free_abelian(2)
    with pytest.raises(InputError):
        polynomial_weight(z2, 0.0)
    with pytest.raises(InputError):
        subexp_weight(z2, 1.5, 1.0)
    with pytest.raises(InputError):
        subexp_log_weight(z2, -1.0, 1.0)


def test_weight_axioms_reports():
    z2 = Group.free_abelian(2)
    rep = weight_axioms_report(trivial_weight(z2), 6)
    assert rep.identity_ok and rep.submult_sup == 1.0
    for w in (polynomial_weight(z2, 1.0), polynomial_weight(z2, 2.0), subexp_weight(z2, 0.5, 1.0)):
        rep = weight_axioms_report(w, 10)
        assert rep.identity_ok
        assert rep.inverse_bound <= 1.0 + 1e-12
        assert rep.submult_sup <= 1.0 + 1e-12


def test_product_weight_multiplies():
    z2 = Group.free_abelian(2)
    w = product_weight(polynomial_weight(z2, 1.0), subexp_weight(z2, 0.5, 1.0))
    g = (2, 1)
    assert w(g) == pytest.approx(4.0 * math.exp(math.sqrt(3.0)), rel=1e-14)
    with pytest.raises(GroupMismatchError):
        product_weight(polynomial_weight(z2, 1.0), polynomial_weight(Group.cyclic(5), 1.0))


def test_product_array_matches_scalar_multiply():
    for group in (Group.free_abelian(2), Group.heisenberg(), Group.cyclic(6)):
        ball = group.ball(2)
        X = group.coords_array(ball)
        P = group.product_array(X, X)
        for i, g in enumerate(ball):
            for j, h in enumerate(ball):
                assert tuple(int(v) for v in P[i, j]) == group.multiply(g, h)


def test_tau_array_matches_word_length():
    for group in (Group.free_abelian(3), Group.heisenberg(), Group.cyclic(6)):
        ball = group.ball(3)
        X = group.coords_array(ball)
        taus = group.tau_array(X)
        assert [int(t) for t in taus] == [group.word_length(g) for g in ball]
    # Z^1 and Z^4 sum their columns too, at negative and large coordinates
    rng = np.random.default_rng(3)
    for d in (1, 4):
        group = Group.free_abelian(d)
        X = np.concatenate([rng.integers(-5, 6, (20, d)), rng.integers(-(2**60), 2**60, (20, d))])
        X[-1] = -(2**60)
        assert group.tau_array(X).tolist() == [sum(abs(c) for c in row) for row in X.tolist()]
        small = X[:20].tolist()
        assert group.tau_array(X[:20]).tolist() == [group.word_length(tuple(g)) for g in small]


def test_locate_matches_a_dict_oracle():
    rng = np.random.default_rng(7)
    K = np.unique(rng.integers(-5, 6, size=(60, 2)), axis=0)  # lexicographically sorted
    index = {tuple(row): i for i, row in enumerate(K.tolist())}
    lo, hi = K.min(axis=0), K.max(axis=0)
    box = [(a, b) for a in range(lo[0], hi[0] + 1) for b in range(lo[1], hi[1] + 1)]
    absent = [g for g in box if g not in index]
    assert absent  # 60 draws cannot fill the 11 x 11 box
    outside = [(lo[0] - 1, lo[1]), (hi[0] + 1, hi[1]), (lo[0], lo[1] - 1), (hi[0], hi[1] + 1),
               (lo[0] - 40, hi[1] + 40), (hi[0] + 3, lo[1] - 9)]
    # rows pushed past the box in the last coordinate by whole box widths:
    # a linearisation that did not clip would read them as a neighbouring row
    width = int(hi[1] - lo[1]) + 3
    outside += [(a, b + k * width) for a, b in index for k in (-1, 1)]
    Q = np.array(list(index) + absent + outside, dtype=np.int64)
    rng.shuffle(Q)
    want = [index.get(tuple(row), -1) for row in Q.tolist()]
    assert RowIndex(K).locate(Q).tolist() == want
    assert RowIndex(K).locate(np.zeros((0, 2), dtype=np.int64)).shape == (0,)
    # 3-coordinate rows, queried as a (4, 5, 3) array
    K3 = np.unique(rng.integers(-3, 4, size=(80, 3)), axis=0)
    index3 = {tuple(row): i for i, row in enumerate(K3.tolist())}
    Q3 = rng.integers(-4, 5, size=(4, 5, 3))
    got = RowIndex(K3).locate(Q3)
    assert got.shape == (4, 5)
    assert got.ravel().tolist() == [index3.get(tuple(r), -1) for r in Q3.reshape(-1, 3).tolist()]


def test_tau_array_grows_the_heisenberg_table_on_a_miss():
    heis, oracle = Group.heisenberg(), Group.heisenberg()
    X3, X6 = (heis.coords_array(heis.ball(r)) for r in (3, 6))
    P = heis.product_array(X3, X6)  # lengths up to 9, past the built radius 6
    taus = heis.tau_array(P)
    assert taus.shape == P.shape[:-1] and int(taus.max()) == 9
    assert taus.ravel().tolist() == [oracle.word_length_bfs(g) for g in P.reshape(-1, 3).tolist()]
    capped = Group.heisenberg()
    capped.radius_cap = 3
    with pytest.raises(RadiusCapError):
        capped.tau_array(np.array([[0, 0, 0], [5, 0, 0]]))


@pytest.mark.parametrize("n", [0, 1, 2, 300, 2000])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("width", [3, 2**20, 2**61])
@pytest.mark.parametrize("segmented", [False, True])
def test_sorted_runs_is_the_stable_lexicographic_order(n, d, width, segmented):
    # small boxes repeat rows; a 2**61-wide box cannot be keyed in int64 and
    # takes np.lexsort
    rng = np.random.default_rng(n + d)
    rows = rng.integers(-width, width, size=(n, d), dtype=np.int64)
    rows[n // 2:] = rows[: n - n // 2]  # every box has equal rows in it
    seg = rng.integers(0, 4, size=n) if segmented else None
    keys = rows if seg is None else np.column_stack([seg, rows])
    want = np.lexsort(keys.T[::-1])
    order, srt, head = _sorted_runs(rows, seg)
    assert order.tolist() == want.tolist()
    assert srt.tolist() == rows[want].tolist()
    sorted_keys = keys[want].tolist()
    assert head.tolist() == [i == 0 or sorted_keys[i] != sorted_keys[i - 1] for i in range(n)]
