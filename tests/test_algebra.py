"""Twisted-algebra tests: convolution, duality, splitting, transform, probes."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from orliczlab import algebra
from orliczlab.algebra import SplitFactors
from orliczlab.cocycles import (
    bilinear_phase,
    coboundary_from_weight,
    decomposition_witness,
    perturbed,
    product_cocycle,
    trivial_cocycle,
)
from orliczlab.errors import FactorizationError, GroupMismatchError
from orliczlab.groups import Group, polynomial_weight, subexp_log_weight, subexp_weight
from orliczlab.space import OrliczVector, luxemburg_norm, orlicz_norm, random_vector
from orliczlab.young import catalog_pair

Z2 = Group.free_abelian(2)
C2 = Group.cyclic(2)
C5 = Group.cyclic(5)
C7 = Group.cyclic(7)
W1 = polynomial_weight(Z2, 1.0)
OM = coboundary_from_weight(W1)


def test_convolution_is_group_law_for_trivial_cocycle():
    d1 = OrliczVector.delta(C2, (1,))
    out = algebra.twisted_convolve(trivial_cocycle(C2), d1, d1)
    assert dict(out.items()) == {(0,): 1.0 + 0.0j}


def test_plain_convolution_multiplies_by_no_unit_kernel():
    # (inf + 0j) * (1 + 0j) is inf + nan*j, so a unit kernel would show here
    big = OrliczVector.delta(C2, (1,), 1e200)
    out = algebra.convolve(big, big)
    assert out.amplitude((0,)) == complex(math.inf, 0.0)


def test_sign_cocycle_on_z2mod():
    om = bilinear_phase(C2, np.array([[1]]), math.pi)
    d1 = OrliczVector.delta(C2, (1,))
    out = algebra.twisted_convolve(om, d1, d1)
    assert out.amplitude((0,)) == pytest.approx(-1.0, abs=1e-12)


def test_delta_products_carry_the_cocycle_value():
    rng = np.random.default_rng(12)
    ball = Z2.ball(4)
    for _ in range(100):
        s = ball[int(rng.integers(len(ball)))]
        t = ball[int(rng.integers(len(ball)))]
        got = algebra.twisted_convolve(OM, OrliczVector.delta(Z2, s), OrliczVector.delta(Z2, t))
        want = OrliczVector.delta(Z2, Z2.multiply(s, t), OM.value(s, t))
        assert got.distance_l1(want) <= 1e-14
    # delta_s * delta_e exercises the normalization
    s = (2, -1)
    got = algebra.twisted_convolve(OM, OrliczVector.delta(Z2, s), OrliczVector.delta(Z2, (0, 0)))
    assert got.distance_l1(OrliczVector.delta(Z2, s)) <= 1e-14


def test_convolution_group_mismatch():
    with pytest.raises(GroupMismatchError):
        algebra.twisted_convolve(
            OM, OrliczVector.delta(Z2, (1, 0)), OrliczVector.delta(C5, (1,))
        )


def test_naive_oracle_agreement():
    rng = np.random.default_rng(17)
    for group, om in ((Z2, OM), (C7, coboundary_from_weight(polynomial_weight(C7, 1.0)))):
        for _ in range(20):
            f = random_vector(group, rng, 3, 5)
            g = random_vector(group, rng, 3, 5)
            fast = algebra.twisted_convolve(om, f, g)
            slow = algebra.twisted_convolve_naive(om.value, f, g)
            assert fast.distance_l1(slow) <= 1e-12


def test_support_lands_in_product_set():
    rng = np.random.default_rng(30)
    f = random_vector(Z2, rng, 3, 4)
    g = random_vector(Z2, rng, 3, 4)
    out = algebra.twisted_convolve(OM, f, g)
    allowed = {Z2.multiply(s, t) for s, _ in f.items() for t, _ in g.items()}
    assert set(out.support) <= allowed


def test_l1_bound_and_positive_equality():
    rng = np.random.default_rng(18)
    om7 = coboundary_from_weight(polynomial_weight(C7, 1.0))
    for _ in range(50):
        f = random_vector(C7, rng, 3, 5)
        g = random_vector(C7, rng, 3, 5)
        assert algebra.l1_bound_gap(om7, f, g) >= -1e-9
    assert algebra.l1_bound_gap(om7, OrliczVector.zero(C7), random_vector(C7, rng, 3, 5)) == 0.0
    f = random_vector(C7, rng, 3, 5).abs()
    g = random_vector(C7, rng, 3, 5).abs()
    assert abs(algebra.l1_bound_gap(trivial_cocycle(C7), f, g)) <= 1e-12


def test_associativity_random_triples():
    rng = np.random.default_rng(19)
    heis = Group.heisenberg()
    setups = [
        (C5, trivial_cocycle(C5)),
        (Z2, OM),
        (heis, coboundary_from_weight(polynomial_weight(heis, 1.0))),
    ]
    for group, om in setups:
        for _ in range(25):
            f = random_vector(group, rng, 3, 5)
            g = random_vector(group, rng, 3, 5)
            h = random_vector(group, rng, 3, 5)
            assert algebra.associativity_residual(om, f, g, h) <= 1e-10


def test_associativity_delta_triples_reduce_to_cocycle_identity():
    rng = np.random.default_rng(20)
    ball = Z2.ball(3)
    for _ in range(40):
        r, s, t = (ball[int(rng.integers(len(ball)))] for _ in range(3))
        dr, ds, dt = (OrliczVector.delta(Z2, g) for g in (r, s, t))
        left = algebra.twisted_convolve(OM, algebra.twisted_convolve(OM, dr, ds), dt)
        expect = OrliczVector.delta(
            Z2, Z2.multiply(Z2.multiply(r, s), t), OM.value(r, s) * OM.value(Z2.multiply(r, s), t)
        )
        assert left.distance_l1(expect) <= 1e-14


def test_broken_cocycle_breaks_associativity():
    rng = np.random.default_rng(21)
    bad = perturbed(OM, (1, 0), (0, 1), 1.1)
    worst = 0.0
    for _ in range(50):
        f = random_vector(Z2, rng, 2, 8)
        g = random_vector(Z2, rng, 2, 8)
        h = random_vector(Z2, rng, 2, 8)
        worst = max(worst, algebra.associativity_residual(bad, f, g, h))
    assert worst > 1e-2


def test_unit_check():
    for om in (trivial_cocycle(C5), OM, bilinear_phase(Z2, np.array([[0, 0], [1, 0]]), math.pi)):
        left, right = algebra.unit_check(om, samples=20, seed=7, radius=3)
        assert left <= 1e-12
        assert right <= 1e-12


def test_module_actions_match_naive_and_example():
    om = bilinear_phase(C2, np.array([[1]]), math.pi)
    g = OrliczVector.delta(C2, (1,))
    h = OrliczVector.delta(C2, (0,))
    act = algebra.module_action_left(om, g, h)
    assert act.amplitude((1,)) == pytest.approx(-1.0, abs=1e-12)
    rng = np.random.default_rng(22)
    om7 = coboundary_from_weight(polynomial_weight(C7, 1.0))
    for _ in range(30):
        g = random_vector(C7, rng, 3, 5)
        h = random_vector(C7, rng, 3, 5)
        assert algebra.module_action_left(om7, g, h).distance_l1(
            algebra.module_action_left_naive(om7.value, g, h)
        ) <= 1e-12
        assert algebra.module_action_right(om7, h, g).distance_l1(
            algebra.module_action_right_naive(om7.value, h, g)
        ) <= 1e-12


def test_trivial_left_action_by_delta_e_is_identity():
    rng = np.random.default_rng(23)
    om = trivial_cocycle(C7)
    g = OrliczVector.delta(C7, (0,))
    h = random_vector(C7, rng, 3, 5)
    assert algebra.module_action_left(om, g, h).distance_l1(h) <= 1e-14


def test_duality_residual():
    rng = np.random.default_rng(24)
    om7 = coboundary_from_weight(polynomial_weight(C7, 1.0))
    for _ in range(200):
        f = random_vector(C7, rng, 3, 5)
        g = random_vector(C7, rng, 3, 5)
        h = random_vector(C7, rng, 3, 5)
        assert algebra.duality_residual(om7, f, g, h) <= 1e-10
    assert algebra.duality_residual(om7, f, g, OrliczVector.zero(C7)) == 0.0


def test_splitting_identity_with_witness():
    rng = np.random.default_rng(25)
    wit = decomposition_witness(OM, 12)
    factors = SplitFactors.from_witness(OM, wit)
    for _ in range(60):
        f = random_vector(Z2, rng, 4, 6)
        g = random_vector(Z2, rng, 4, 6)
        h = random_vector(Z2, rng, 4, 6)
        assert algebra.splitting_residual(OM, factors, f, g, h) <= 1e-10


def _const(c):
    """The array function with the value c at every coordinate row."""
    return lambda X: np.full(X.shape[:-1], c)


def test_splitting_halves_and_bad_factorization():
    rng = np.random.default_rng(26)
    om = trivial_cocycle(C5)
    factors = SplitFactors(L=om.values, u=_const(0.5), v=_const(0.5))
    f = random_vector(C5, rng, 2, 4)
    g = random_vector(C5, rng, 2, 4)
    h = random_vector(C5, rng, 2, 4)
    assert algebra.splitting_residual(om, factors, f, g, h) <= 1e-12
    # u + v == 2 does not reproduce Omega with L = Omega: hard precondition error
    bad = SplitFactors(L=om.values, u=_const(1.0), v=_const(1.0))
    with pytest.raises(FactorizationError):
        algebra.splitting_residual(om, bad, f, g, h)


def _default_phase(group):
    theta = math.pi / 3 if group.kind == "free_abelian" else 2.0 * math.pi / group.param
    return bilinear_phase(group, np.eye(group.dim, dtype=np.int64), theta)


WITNESS_CASES = [
    (coboundary_from_weight(polynomial_weight(Z2, 1.0)), 6),
    (product_cocycle(coboundary_from_weight(polynomial_weight(Z2, 1.5)), _default_phase(Z2)), 5),
    (coboundary_from_weight(subexp_weight(Z2, 0.5, 1.0)), 5),
    (coboundary_from_weight(subexp_log_weight(Z2, 1.0, 1.0)), 4),
    (coboundary_from_weight(polynomial_weight(Group.heisenberg(), 1.0)), 3),
    (product_cocycle(coboundary_from_weight(polynomial_weight(C7, 1.0)), _default_phase(C7)), 3),
]


@pytest.mark.parametrize("om, radius", WITNESS_CASES, ids=lambda c: getattr(c, "label", c))
def test_from_witness_L_equals_the_scalar_quotient_bitwise(om, radius):
    wit = decomposition_witness(om, radius)
    group = om.group
    elems = group.ball(radius)
    X = group.coords_array(elems)
    got = SplitFactors.from_witness(om, wit).L(X[:, None], X[None, :])

    def side(f, g):
        return float(f(np.asarray(float(group.word_length(g)))))

    want = [
        [om.value(s, t) / (side(wit.u_tau, s) + side(wit.v_tau, t)) for t in elems]
        for s in elems
    ]
    assert repr(got.tolist()) == repr(want)  # bits, signed zeros too


def test_split_factors_verify_rejects_nan():
    om = trivial_cocycle(C5)
    pairs = [(s, t) for s in C5.ball(2) for t in C5.ball(2)]
    X = C5.coords_array(C5.ball(2))
    S, T = X[:, None], X[None, :]  # the pairs, in the order of the list above
    half = SplitFactors(L=om.values, u=_const(0.5), v=_const(0.5))
    half.verify(om, S, T)
    nan_L = SplitFactors(
        L=lambda S, T: np.full(np.broadcast_shapes(S.shape, T.shape)[:-1], complex(math.nan)),
        u=_const(0.5),
        v=_const(0.5),
    )
    with pytest.raises(FactorizationError):
        nan_L.verify(om, S, T)
    nan_u = SplitFactors(L=om.values, u=_const(math.nan), v=_const(0.5))
    with pytest.raises(FactorizationError) as err:
        nan_u.verify(om, S, T)
    assert err.value.worst_pair == pairs[0] and math.isnan(err.value.residual)


def test_unit_check_propagates_nan():
    # Omega(s, e) is NaN at s = (1, 0): only the right-hand products see it
    om = perturbed(trivial_cocycle(Z2), (1, 0), (0, 0), math.nan)
    left, right = algebra.unit_check(om, samples=50, seed=0)
    assert left == 0.0
    assert math.isnan(right)


def test_probe_constant_propagates_nan(monkeypatch):
    real, calls = algebra.orlicz_batch, itertools.count()

    def nan_numerators(pair, vectors):  # one call per radius: all |f*g| first, then |f| and |g|
        next(calls)
        norms, gaps = real(pair, vectors)
        norms[: len(norms) // 3] = math.nan
        return norms, gaps

    monkeypatch.setattr(algebra, "orlicz_batch", nan_numerators)
    rows = algebra.submultiplicativity_probe(catalog_pair("pnorm:2"), OM, radii=(3,), samples=5)
    assert math.isnan(rows[0][1])
    assert next(calls) == 1


def test_xi_eta_definitions_and_zeta_crosscheck():
    rng = np.random.default_rng(27)
    L = SplitFactors.from_witness(OM, decomposition_witness(OM, 10)).L
    # L == 1, g = delta_e collapses xi(g, h) to h
    triv = trivial_cocycle(Z2)
    h = random_vector(Z2, rng, 3, 5)
    collapsed = algebra.xi(triv.values, OrliczVector.delta(Z2, (0, 0)), h)
    assert collapsed.distance_l1(h) <= 1e-14
    for _ in range(40):
        f = random_vector(Z2, rng, 3, 5)
        g = random_vector(Z2, rng, 3, 5)
        h = random_vector(Z2, rng, 3, 5)
        lhs = f.pairing(algebra.xi(L, g, h))
        rhs = h.pairing(algebra.zeta(L, f, g))
        assert abs(lhs - rhs) <= 1e-10


def test_xi_pointwise_domination():
    rng = np.random.default_rng(28)
    L = SplitFactors.from_witness(OM, decomposition_witness(OM, 10)).L
    for _ in range(30):
        g = random_vector(Z2, rng, 3, 5)
        h = random_vector(Z2, rng, 3, 5)
        lhs = algebra.xi(L, g, h)
        dom = algebra.convolve(h.abs(), g.abs().reverse())
        for s, a in lhs.items():
            assert abs(a) <= dom.amplitude(s).real + 1e-12


def test_lambda_transform_isometry_and_intertwining():
    rng = np.random.default_rng(29)
    pair = catalog_pair("pnorm:2")
    for _ in range(40):
        f = random_vector(Z2, rng, 3, 6)
        g = random_vector(Z2, rng, 3, 6)
        lifted = algebra.lambda_transform(W1, f)
        assert orlicz_norm(pair, lifted.pointwise_mul(W1.at)) == pytest.approx(
            orlicz_norm(pair, f), rel=1e-12
        )
        lhs = algebra.lambda_transform(W1, algebra.twisted_convolve(OM, f, g))
        rhs = algebra.convolve(
            algebra.lambda_transform(W1, f), algebra.lambda_transform(W1, g)
        )
        assert lhs.distance_l1(rhs) <= 1e-12
    # trivial weight: the transform is the identity map
    from orliczlab.groups import trivial_weight

    f = random_vector(Z2, rng, 3, 6)
    assert algebra.lambda_transform(trivial_weight(Z2), f).distance_l1(f) == 0.0


def test_augmentation():
    rng = np.random.default_rng(31)
    assert algebra.augmentation(OrliczVector.zero(C5)) == 0.0
    diff = OrliczVector.delta(C5, (2,)) - OrliczVector.delta(C5, (0,))
    assert algebra.augmentation(diff) == 0.0
    for _ in range(50):
        f = random_vector(C5, rng, 2, 4)
        g = random_vector(C5, rng, 2, 4)
        lhs = algebra.augmentation(algebra.convolve(f, g))
        rhs = algebra.augmentation(f) * algebra.augmentation(g)
        assert abs(lhs - rhs) <= 1e-12


def test_probe_reports_and_is_deterministic():
    pair = catalog_pair("pnorm:2")
    a = algebra.submultiplicativity_probe(pair, OM, radii=(2, 4), samples=30, seed=99)
    b = algebra.submultiplicativity_probe(pair, OM, radii=(2, 4), samples=30, seed=99)
    assert a == b
    assert [r[0] for r in a] == [2, 4]
    assert "empirical lower bound" in algebra.submultiplicativity_probe.__doc__
    assert [r[0] for r in algebra.submultiplicativity_probe(pair, OM, samples=2)] == [4, 8]
    for radius, c_hat, samples in a:
        assert math.isfinite(c_hat) and c_hat > 0.0
        assert samples == 30
    # delta pairs: ratio is |Omega(s,t)| / |delta|_Phi for counting measure
    ds = OrliczVector.delta(Z2, (1, 0))
    dt = OrliczVector.delta(Z2, (0, 1))
    num = orlicz_norm(pair, algebra.twisted_convolve(OM, ds, dt))
    den = orlicz_norm(pair, ds) * orlicz_norm(pair, dt)
    expect = abs(OM.value((1, 0), (0, 1))) / orlicz_norm(pair, ds)
    assert num / den == pytest.approx(expect, rel=1e-10)


def test_dual_action_norm_bound_with_probed_constant():
    rng = np.random.default_rng(33)
    pair = catalog_pair("pnorm:2")
    om7 = coboundary_from_weight(polynomial_weight(C7, 1.0))
    c_hat = algebra.submultiplicativity_probe(pair, om7, radii=(3,), samples=200, seed=12)[0][1]
    for _ in range(40):
        g = random_vector(C7, rng, 3, 5)
        h = random_vector(C7, rng, 3, 5)
        action = algebra.module_action_left(om7, g, h)
        lhs = orlicz_norm(pair.flip(), action)
        rhs = 2.0 * c_hat * orlicz_norm(pair, g) * luxemburg_norm(pair.psi, h)
        assert lhs <= rhs + 1e-9


def test_polynomial_growth_probes_on_the_heisenberg_group():
    # the dominating pair |Om| <= u + v and the norm constant c_hat on H3(Z),
    # a group of polynomial growth, at |B_5| = 299 and |B_6| = 593
    heis = Group.heisenberg()
    tracemalloc.start()
    try:
        for w in (polynomial_weight(heis, 1.0), polynomial_weight(heis, 2.0),
                  subexp_weight(heis, 0.5, 1.0)):
            for radius in (5, 6):
                assert decomposition_witness(coboundary_from_weight(w), radius).max_violation <= 0.0
        om = coboundary_from_weight(polynomial_weight(heis, 2.0))
        rows = algebra.submultiplicativity_probe(catalog_pair("pnorm:2"), om, (5, 6), 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r[0] for r in rows] == [5, 6]
    assert all(math.isfinite(c_hat) and c_hat > 0.0 for _, c_hat, _ in rows)
    assert peak <= 64 * 2**20, peak
