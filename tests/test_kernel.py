"""The array kernel of the twisted products against a plain double loop.

_loop_kernel_sum is the support-pair loop every twisted product used to run
over dict-backed vectors, kept here as the reference: same pair order
(sorted outer support, then sorted inner support), same term (a * b) * k,
and one dict accumulator per target, each sum starting from 0.0.  It gives
its entries as plain Python values (coordinate lists and complex numbers,
exact zeros dropped), so the reference shares none of the package's
normalisation.  The array kernel must reproduce the entries, sorted by
row, and the bits of the sums read from them.
"""

import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczlab import algebra
from orliczlab.cocycles import (
    bilinear_phase,
    coboundary_from_weight,
    perturbed,
    polar_decompose,
    product_cocycle,
    trivial_cocycle,
)
from orliczlab.groups import Group, polynomial_weight, subexp_log_weight, subexp_weight
from orliczlab.space import OrliczVector, VectorBatch, random_vector

GROUPS = (Group.free_abelian(2), Group.heisenberg(), Group.cyclic(7))


def _fold(terms, start):
    """The terms added left to right from start; Python's sum compensates
    floats from 3.12 on, the package's reductions do not."""
    return functools.reduce(operator.add, terms, start)


def _loop_kernel_sum(outer, inner, place, kernel=None):
    """[(row, amplitude)] of the product, in the order its targets first occur."""
    group = outer.group
    mul, inv = group.multiply, group.invert
    acc = {}
    for x, a in outer.items():
        for y, b in inner.items():
            if place == "xy":
                t = mul(x, y)
                term = a * b if kernel is None else a * b * kernel(x, y)
            elif place == "xy^-1":
                t = mul(x, inv(y))
                term = a * b * kernel(t, y)
            else:
                t = mul(inv(y), x)
                term = a * b * kernel(y, t)
            acc[t] = acc.get(t, 0.0) + term
    return [(list(t), a) for t, a in acc.items() if a != 0]


def _families(group):
    """One cocycle of every family the group carries."""
    cob = coboundary_from_weight(polynomial_weight(group, 1.0))
    out = [
        trivial_cocycle(group),
        cob,
        coboundary_from_weight(subexp_weight(group, 0.5, 1.0)),
        coboundary_from_weight(subexp_log_weight(group, 1.0, 1.0)),
        perturbed(cob, group.ball(1)[-1], group.ball(1)[0], 1.1),
    ]
    if group.kind == "heisenberg3":
        out.append(product_cocycle(cob, out[2]))
    else:
        phase = bilinear_phase(group, np.eye(group.dim, dtype=int), 2.0 * math.pi / 7.0)
        out += [phase, product_cocycle(cob, phase)]
    return out + list(polar_decompose(out[-1]))


# (name, array kernel, reference): each reference names the outer and inner
# vector and the place the kernel puts the pair.
PRODUCTS = {
    "twisted_convolve": (
        lambda om, f, g: algebra.twisted_convolve(om, f, g),
        lambda om, f, g: _loop_kernel_sum(f, g, "xy", om.value),
    ),
    "convolve": (
        lambda om, f, g: algebra.convolve(f, g),
        lambda om, f, g: _loop_kernel_sum(f, g, "xy"),
    ),
    "module_action_left": (
        lambda om, g, h: algebra.module_action_left(om, g, h),
        lambda om, g, h: _loop_kernel_sum(h, g, "xy^-1", om.value),
    ),
    "module_action_right": (
        lambda om, h, g: algebra.module_action_right(om, h, g),
        lambda om, h, g: _loop_kernel_sum(h, g, "y^-1x", om.value),
    ),
    "xi": (
        lambda om, g, h: algebra.xi(om.values, g, h),
        lambda om, g, h: _loop_kernel_sum(h, g, "xy^-1", om.value),
    ),
    "eta": (
        lambda om, f, h: algebra.eta(om.values, f, h),
        lambda om, f, h: _loop_kernel_sum(h, f, "y^-1x", om.value),
    ),
    "zeta": (
        lambda om, f, g: algebra.zeta(om.values, f, g),
        lambda om, f, g: _loop_kernel_sum(f, g, "xy", om.value),
    ),
}


@st.composite
def _raw_vector(draw, group):
    """0-12 entries in a small box; on Z_7 coordinates run past 7 and below 0,
    so entries alias one another, and repeated rows can cancel."""
    lo, hi = (-9, 16) if group.kind == "cyclic" else (-3, 3)
    row = st.tuples(*[st.integers(lo, hi)] * group.dim)
    part = st.sampled_from([0.0, 1.0, -1.0, 0.5]) | st.floats(-2.0, 2.0)
    amp = st.builds(complex, part, part)
    return draw(st.lists(st.tuples(row, amp), max_size=12))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(PRODUCTS)),
       group=st.sampled_from(GROUPS))
def test_array_kernel_matches_the_dict_loop(data, name, group):
    om = data.draw(st.sampled_from(_families(group)))
    u, v, w = (OrliczVector(group, data.draw(_raw_vector(group))) for _ in range(3))
    fast, reference = PRODUCTS[name]
    got, want = fast(om, u, v), reference(om, u, v)
    # rows in sorted order; amplitudes to the bit, signed zeros too
    want = sorted(want)
    assert repr(list(zip(got._rows.tolist(), got._amps.tolist()))) == repr(want)
    assert got.l1() == _fold((abs(a) for _, a in want), 0.0)
    mine, theirs = [(tuple(r), a) for r, a in want], list(w.items())
    small, big = (mine, theirs) if len(mine) <= len(theirs) else (theirs, mine)  # as pairing does
    at = dict(big)
    assert got.pairing(w) == _fold((a * at[g] for g, a in small if g in at), 0.0 + 0.0j)


def _entries(v):
    return repr(list(zip(v._rows.tolist(), v._amps.tolist())))


@st.composite
def _segment(draw, group):
    """One vector's entries: often none or one, else as _raw_vector."""
    one = _raw_vector(group).map(lambda entries: entries[:1])
    return draw(st.one_of(st.just([]), one, _raw_vector(group)))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), place=st.sampled_from(["xy", "xy^-1", "y^-1x"]),
       group=st.sampled_from(GROUPS), m=st.integers(1, 5), aliased=st.booleans())
def test_segmented_kernel_equals_its_one_vector_calls(data, place, group, m, aliased):
    # each vector of a batch must come out as it would alone: the sums are
    # keyed by (vector, row), so equal rows of different vectors never meet
    om = data.draw(st.sampled_from(_families(group)))
    kernel = None if place == "xy" and data.draw(st.booleans()) else om.values
    us, ws = ([OrliczVector(group, data.draw(_segment(group))) for _ in range(m)] for _ in "uw")
    vs = us if aliased else [OrliczVector(group, data.draw(_segment(group))) for _ in range(m)]
    U, V, W = VectorBatch.of(us), VectorBatch.of(vs), VectorBatch.of(ws)
    got = algebra._kernel_sum(U, V, place, kernel)
    ones = [algebra._kernel_sum(u, v, place, kernel) for u, v in zip(us, vs)]
    assert type(got) is VectorBatch and len(got) == m
    assert [_entries(got[i]) for i in range(m)] == [_entries(one) for one in ones]
    assert repr(got.l1().tolist()) == repr([one.l1() for one in ones])
    assert repr(got.distance_l1(W).tolist()) == repr([o.distance_l1(w) for o, w in zip(ones, ws)])
    assert repr(got.pairing(W).tolist()) == repr([o.pairing(w) for o, w in zip(ones, ws)])
    assert repr(W.pairing(got).tolist()) == repr([w.pairing(o) for o, w in zip(ones, ws)])


@pytest.mark.parametrize("group", GROUPS, ids=repr)
def test_every_path_that_makes_a_vector_keeps_its_rows_strictly_increasing(group):
    rng = np.random.default_rng(13)
    lo, hi = (-9, 16) if group.kind == "cyclic" else (-3, 3)  # on Z_7, entries alias

    def raw(n):
        rows = rng.integers(lo, hi + 1, size=(n, group.dim)).tolist()
        return [(tuple(r), complex(*rng.uniform(-2.0, 2.0, 2))) for r in rows]

    f, g, h = (OrliczVector(group, raw(n)) for n in (9, 7, 8))
    om, w = _families(group)[-3], polynomial_weight(group, 1.0)
    made = [
        OrliczVector(Group.cyclic(7), [((5,), 1.0), ((9,), 1.0), ((2,), 1.0), ((-6,), 1.0)]),
        f, g, h, f + g, f - g, f.reverse(), f.scale(2.0 - 1.0j), f.abs(),
        f.pointwise_mul(w.at), f.pointwise_div(w.at),
        random_vector(group, rng, 3, 8),
        algebra.twisted_convolve_naive(om.value, f, g),
        algebra.module_action_left_naive(om.value, g, h),
        algebra.module_action_right_naive(om.value, h, g),
    ]
    made += [fast(om, f, g) for fast, _ in PRODUCTS.values()]
    for v in made:
        rows = v._rows.tolist()
        assert len(rows) >= 3
        assert all(a < b for a, b in zip(rows, rows[1:])), rows
