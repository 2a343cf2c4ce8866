"""Cocycle tests: constructors, the identity scan, polar splitting, witnesses."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczlab import cocycles
from orliczlab.cocycles import (
    bilinear_phase,
    coboundary_from_weight,
    cocycle_identity_residual,
    decomposition_witness,
    normalization_residual,
    perturbed,
    polar_decompose,
    product_cocycle,
    sup_norm_estimate,
    trivial_cocycle,
)
from orliczlab.errors import InputError, WitnessSearchError
from orliczlab.groups import (
    Group,
    polynomial_weight,
    product_weight,
    subexp_log_weight,
    subexp_weight,
    trivial_weight,
)

Z2 = Group.free_abelian(2)
PHASE_B = np.array([[0, 0], [1, 0]])


def test_trivial_coboundary_is_one():
    om = coboundary_from_weight(trivial_weight(Z2))
    assert om.value((2, 1), (-1, 3)) == 1.0


def test_coboundary_value_example():
    om = coboundary_from_weight(polynomial_weight(Z2, 1.0))
    # w((2,0)) = 3 over w((1,0))^2 = 4
    assert om.value((1, 0), (1, 0)) == pytest.approx(0.75)


def test_normalization_everywhere():
    oms = [
        coboundary_from_weight(polynomial_weight(Z2, 1.0)),
        bilinear_phase(Z2, PHASE_B, math.pi),
    ]
    for om in oms:
        assert normalization_residual(om, 5) <= 1e-14


def test_normalization_residual_propagates_nan():
    om = perturbed(trivial_cocycle(Z2), (1, 0), (0, 0), math.nan)
    assert math.isnan(normalization_residual(om, 2))


def test_bilinear_phase_examples():
    om = bilinear_phase(Z2, PHASE_B, math.pi)
    assert om.value((0, 1), (1, 0)) == pytest.approx(-1.0, abs=1e-12)
    assert om.value((1, 0), (0, 1)) == pytest.approx(1.0, abs=1e-12)
    flat = bilinear_phase(Z2, PHASE_B, 0.0)
    assert flat.value((2, 3), (1, 4)) == 1.0


def test_bilinear_phase_rejects_heisenberg_and_bad_shape():
    with pytest.raises(InputError):
        bilinear_phase(Group.heisenberg(), np.eye(3, dtype=int), 1.0)
    with pytest.raises(InputError):
        bilinear_phase(Z2, np.ones((3, 3), dtype=int), 1.0)


def test_identity_residual_catalog():
    oms = [
        coboundary_from_weight(polynomial_weight(Z2, 1.0)),
        coboundary_from_weight(polynomial_weight(Z2, 2.0)),
        coboundary_from_weight(subexp_weight(Z2, 0.5, 1.0)),
        bilinear_phase(Z2, PHASE_B, math.pi),
    ]
    oms.append(product_cocycle(oms[0], oms[3]))
    for om in oms:
        assert cocycle_identity_residual(om, 3) <= 1e-12, om.label


def test_identity_residual_on_cyclic_phase():
    c5 = Group.cyclic(5)
    om = bilinear_phase(c5, np.array([[1]]), 2.0 * math.pi / 5.0)
    assert cocycle_identity_residual(om, 2) <= 1e-12
    # an incompatible angle breaks the identity on the quotient
    bad = bilinear_phase(c5, np.array([[1]]), 1.0)
    assert cocycle_identity_residual(bad, 2) > 1e-2


def test_identity_residual_blocks_match_the_unblocked_scan(monkeypatch):
    """Scanning r in blocks gives exactly the value of the one-shot scan."""
    oms = [
        coboundary_from_weight(polynomial_weight(Z2, 1.0)),
        product_cocycle(
            coboundary_from_weight(subexp_weight(Z2, 0.5, 1.0)),
            bilinear_phase(Z2, PHASE_B, math.pi),
        ),
        perturbed(coboundary_from_weight(polynomial_weight(Z2, 1.0)), (1, 0), (0, 1), 1.1),
    ]
    radius = 3  # 25 ball elements; a 25 x 25 x k block of r rows is 10000 k bytes
    outer = Z2.ball(2 * radius)
    index = {g: i for i, g in enumerate(outer)}
    I = np.array([index[g] for g in Z2.ball(radius)])
    RS = np.array([[index[Z2.multiply(outer[r], outer[s])] for s in I] for r in I])
    for om in oms:
        # the one-shot scan over the full B_2R x B_2R table, as it was first written
        W = om.table(outer)
        lhs = W[np.ix_(I, I)][:, :, None] * W[RS[:, :, None], I[None, None, :]]
        rhs = W[np.ix_(I, I)][None, :, :] * W[I[:, None, None], RS[None, :, :]]
        unblocked = float(np.abs(lhs - rhs).max())
        for rows in (2, 1):  # blocks of two r rows, then of one
            monkeypatch.setattr(cocycles, "_BLOCK_BYTES", 16 * 25 * 25 * rows)
            assert cocycle_identity_residual(om, radius) == unblocked, (om.label, rows)


def test_perturbed_cocycle_detected():
    base = coboundary_from_weight(polynomial_weight(Z2, 1.0))
    bad = perturbed(base, (1, 0), (0, 1), 1.1)
    assert cocycle_identity_residual(bad, 2) >= 0.05


def test_vanishing_value_is_an_invariant_violation():
    from orliczlab.errors import InvariantViolationError

    base = coboundary_from_weight(polynomial_weight(Z2, 1.0))
    zeroed = perturbed(base, (1, 0), (0, 1), 0.0)
    with pytest.raises(InvariantViolationError):
        zeroed.value((1, 0), (0, 1))


def test_table_matches_pointwise_values():
    om = product_cocycle(
        coboundary_from_weight(polynomial_weight(Z2, 1.0)),
        bilinear_phase(Z2, PHASE_B, math.pi),
    )
    elems = Z2.ball(2)
    table = om.table(elems)
    for i, s in enumerate(elems):
        for j, t in enumerate(elems):
            assert table[i, j] == pytest.approx(om.value(s, t), abs=1e-14)


def _phase(group):
    B = PHASE_B if group.dim == 2 else np.array([[1]])
    return bilinear_phase(group, B, 2.0 * math.pi / 7.0)


def _polar(k):
    def make(group):
        other = (
            coboundary_from_weight(subexp_weight(group, 0.5, 1.0))
            if group.kind == "heisenberg3"
            else _phase(group)
        )
        base = product_cocycle(coboundary_from_weight(polynomial_weight(group, 1.0)), other)
        return polar_decompose(base)[k]

    return make


# Every constructor.  poly:1.5 is a case where numpy's array power and
# Python's scalar pow round differently, so the scalar weight must go
# through the array form too.
EVALUATOR_CASES = {
    "trivial": trivial_cocycle,
    "coboundary(poly:1)": lambda g: coboundary_from_weight(polynomial_weight(g, 1.0)),
    "coboundary(poly:1.5)": lambda g: coboundary_from_weight(polynomial_weight(g, 1.5)),
    "coboundary(poly:2)": lambda g: coboundary_from_weight(polynomial_weight(g, 2.0)),
    "coboundary(subexp:0.5:1)": lambda g: coboundary_from_weight(subexp_weight(g, 0.5, 1.0)),
    "coboundary(subexplog:1:1)": lambda g: coboundary_from_weight(subexp_log_weight(g, 1.0, 1.0)),
    "product(coboundaries)": lambda g: product_cocycle(
        coboundary_from_weight(polynomial_weight(g, 1.0)),
        coboundary_from_weight(subexp_weight(g, 0.5, 1.0)),
    ),
    "perturbed": lambda g: perturbed(
        coboundary_from_weight(polynomial_weight(g, 1.0)), g.ball(1)[-1], g.ball(2)[0], 1.7
    ),
    "phase": _phase,
    "phase*phase": lambda g: product_cocycle(_phase(g), _phase(g)),
    "polar-modulus": _polar(0),
    "polar-phase": _polar(1),
}
EVALUATOR_GROUPS = {"Z2": (Z2, 4), "H3": (Group.heisenberg(), 3), "Z7": (Group.cyclic(7), 3)}


@pytest.mark.parametrize(
    "where, case",
    [(where, case) for where in sorted(EVALUATOR_GROUPS) for case in sorted(EVALUATOR_CASES)
     if not (where == "H3" and case.startswith("phase"))],  # phases need an abelian group
)
def test_values_and_table_equal_value_bitwise(where, case):
    group, radius = EVALUATOR_GROUPS[where]
    om = EVALUATOR_CASES[case](group)
    elems = group.ball(radius)
    want = np.array([[om.value(s, t) for t in elems] for s in elems]).view(np.uint64)
    X = group.coords_array(elems)
    assert np.array_equal(om.table(elems).view(np.uint64), want)
    assert np.array_equal(om.values(X[:, None], X[None, :]).view(np.uint64), want)
    # a flat list of pairs gives the same bits as the grid
    i, j = np.divmod(np.arange(len(elems) ** 2), len(elems))
    flat = om.values(X[i], X[j]).view(np.uint64).reshape(want.shape)
    assert np.array_equal(flat, want)


def test_polar_decomposition_recovers_factors():
    cob = coboundary_from_weight(polynomial_weight(Z2, 1.0))
    phase = bilinear_phase(Z2, PHASE_B, math.pi)
    om = product_cocycle(cob, phase)
    modulus, unit = polar_decompose(om)
    for s in Z2.ball(2):
        for t in Z2.ball(2):
            assert modulus.value(s, t) == pytest.approx(abs(om.value(s, t)))
            assert abs(unit.value(s, t)) == pytest.approx(1.0)
            assert modulus.value(s, t) * unit.value(s, t) == pytest.approx(om.value(s, t))
    assert cocycle_identity_residual(modulus, 2) <= 1e-12
    assert cocycle_identity_residual(unit, 2) <= 1e-12


def test_polar_trivial_directions():
    cob = coboundary_from_weight(polynomial_weight(Z2, 1.0))
    modulus, unit = polar_decompose(cob)
    assert unit.value((2, 1), (1, 1)) == 1.0  # positive cocycle: phase is 1
    phase = bilinear_phase(Z2, PHASE_B, math.pi)
    modulus, unit = polar_decompose(phase)
    assert modulus.value((0, 1), (1, 0)) == pytest.approx(1.0)  # unimodular: modulus is 1


def test_product_of_cocycles_is_cocycle():
    a = coboundary_from_weight(polynomial_weight(Z2, 2.0))
    b = bilinear_phase(Z2, PHASE_B, math.pi / 3.0)
    assert cocycle_identity_residual(product_cocycle(a, b), 3) <= 1e-12


def test_coboundary_of_product_weight_is_product_of_coboundaries():
    w1 = polynomial_weight(Z2, 1.0)
    w2 = subexp_weight(Z2, 0.5, 1.0)
    combined = coboundary_from_weight(product_weight(w1, w2))
    split = product_cocycle(coboundary_from_weight(w1), coboundary_from_weight(w2))
    elems = Z2.ball(3)
    assert np.max(np.abs(combined.table(elems) - split.table(elems))) <= 1e-13


def test_sup_norm_estimates():
    cob = coboundary_from_weight(polynomial_weight(Z2, 1.0))
    assert sup_norm_estimate(cob, 4) <= 1.0 + 1e-15
    phase = bilinear_phase(Z2, PHASE_B, math.pi)
    assert sup_norm_estimate(phase, 4) == pytest.approx(1.0)
    assert sup_norm_estimate(product_cocycle(cob, phase), 4) <= 1.0 + 1e-15


def test_witness_polynomial_exhaustive_b20():
    for beta in (1.0, 2.0, 3.0):
        om = coboundary_from_weight(polynomial_weight(Z2, beta))
        wit = decomposition_witness(om, 20)
        assert wit.max_violation <= 0.0
        assert wit.verified_radius == 20
        # u = v = 2^beta / w as array functions of coordinate rows
        assert wit.u(np.array([2, 1])) == pytest.approx(2.0**beta / (4.0**beta))


def test_witness_subexp_derived_exponent():
    om = coboundary_from_weight(subexp_weight(Z2, 0.5, 1.0))
    wit = decomposition_witness(om, 15)
    assert wit.max_violation <= 0.0
    tau = 3.0
    expected = math.exp(-(2.0 - math.sqrt(2.0)) * math.sqrt(tau))
    assert wit.u(np.array([2, 1])) == pytest.approx(expected, rel=1e-12)


def test_witness_subexp_log_grid_search():
    om = coboundary_from_weight(subexp_log_weight(Z2, 1.0, 1.0))
    wit = decomposition_witness(om, 10)
    assert wit.max_violation <= 0.0


def test_witness_trivial_on_finite_group():
    om = trivial_cocycle(Group.cyclic(5))
    wit = decomposition_witness(om, 2)
    assert wit.max_violation == pytest.approx(-1.0)


def test_witness_dominates_the_ball_and_a_failed_search_names_its_worst_pair():
    w1 = polynomial_weight(Z2, 1.0)
    om = coboundary_from_weight(w1)
    wit = decomposition_witness(om, 8)
    X = Z2.ball_array(8)
    assert np.array_equal(wit.u(X), 2.0 / w1.at(X)) and np.array_equal(wit.v(X), 2.0 / w1.at(X))
    # checked here pair by pair, independently of the search
    assert np.all(np.abs(om.table(Z2.ball(8))) <= wit.u(X)[:, None] + wit.v(X)[None, :])
    # no kappa / w' of the grid dominates this log-damped coboundary on B_10
    with pytest.raises(WitnessSearchError) as err:
        decomposition_witness(coboundary_from_weight(subexp_log_weight(Z2, 0.05, 5.0)), 10)
    assert err.value.violation > 0.0
    assert err.value.worst_pair is not None


def test_witness_through_product_with_phase():
    om = product_cocycle(
        coboundary_from_weight(polynomial_weight(Z2, 1.0)),
        bilinear_phase(Z2, PHASE_B, math.pi),
    )
    wit = decomposition_witness(om, 10)
    assert wit.max_violation <= 0.0


PAIR_GROUPS = (Z2, Group.heisenberg(), Group.cyclic(7))


def test_pair_table_indices_match_a_dict_index():
    for group in PAIR_GROUPS:
        om = coboundary_from_weight(polynomial_weight(group, 1.0))
        I, RS, A, B = cocycles._pair_table(om, 2)
        outer, ball = group.ball(4), group.ball(2)
        index = {g: i for i, g in enumerate(outer)}
        assert I.tolist() == [index[g] for g in ball]
        assert RS.tolist() == [[index[group.multiply(s, t)] for t in ball] for s in ball], group
        # the two blocks are the B_2R x B_R and B_R x B_2R parts of the full table
        W = om.table(outer)
        assert np.array_equal(A, W[:, I]) and np.array_equal(B, W[I, :]), group


def test_heisenberg_identity_residual_at_radius_4():
    heis = Group.heisenberg()
    om = coboundary_from_weight(polynomial_weight(heis, 1.0))
    heis.ball(12)  # grow the BFS table first: the scan reads lengths up to 3R
    tracemalloc.start()
    try:
        residual = cocycle_identity_residual(om, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual <= 1e-10
    assert peak <= 128 * 2**20, peak


def test_z2_identity_residual_at_radius_10_holds_one_row_of_triples():
    om = product_cocycle(
        coboundary_from_weight(polynomial_weight(Z2, 1.0)), bilinear_phase(Z2, PHASE_B, math.pi)
    )
    Z2.ball(20)  # grow the group first: the scan reads B_2R
    tracemalloc.start()
    try:
        residual = cocycle_identity_residual(om, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual <= 1e-12
    # the two value blocks over B_20 x B_10 take 5.7 MiB and a temporary of
    # one r row (221 x 221 complex values) 0.75 MiB: about 15 MiB at peak,
    # against about 70 MiB with blocks of 21 r rows
    assert peak <= 24 * 2**20, peak


def test_bilinear_phase_of_rows_far_apart_equals_value_without_a_table():
    """Forms 10^12 apart fill a 2 x 2 output: the phases are evaluated
    directly, not read from a table over the range of the form."""
    om = bilinear_phase(Z2, np.array([[0, 1], [1, 0]]), math.pi / 3.0)
    X = np.array([[10**6, 0], [0, 10**6]])
    tracemalloc.start()
    try:
        got = om.values(X[:, None], X[None, :])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = np.array([[om.value(s, t) for t in X.tolist()] for s in X.tolist()])
    assert got.tobytes() == want.tobytes()
    assert peak < 2**20, peak


@settings(max_examples=30, deadline=None)
@given(group=st.sampled_from(PAIR_GROUPS), data=st.data(), factor=st.floats(1.5, 3.0))
def test_perturbed_cocycles_are_detected_on_every_group(group, data, factor):
    small = st.sampled_from([g for g in group.ball(2) if g != group.identity()])
    s, t = data.draw(small), data.draw(small)
    bad = perturbed(coboundary_from_weight(polynomial_weight(group, 1.0)), s, t, factor)
    assert cocycle_identity_residual(bad, 2) > 1e-6
