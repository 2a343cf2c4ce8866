"""Twisted convolution and the operator identities built on it.

For a cocycle Om the twisted convolution of finitely supported vectors is

    (f * g)(t) = sum_s f(s) g(s^{-1} t) Om(s, s^{-1} t),

an exact finite sum here (no truncation, no FFT), with the naive double
loop over a scalar kernel k(s, t), such as Om.value, kept as the oracle for
the support-pair implementation.  That implementation, shared by every
product below, takes two batches of equal length (space.VectorBatch; a
vector is the batch of one) and pairs vector i of one with vector i of the
other.  It forms the support pairs of every vector at once, each vector's
pairs in the order of a double loop over the sorted supports: the target
rows with one Group.multiply_array, the kernel values from one call of an
array kernel, the terms (a b) k with complex products formed part by
part, and then one scatter-add of the space module keyed by (vector,
target).  So a law evaluates a product over all its draws with one kernel
call, and each vector of the result equals its one-vector product bit for
bit.  The residuals below (associativity, duality, splitting) take
vectors or batches alike and give a number per vector.

Every function on the group passed in here is an array function of int64
coordinate rows, mapping broadcastable (..., d) arrays to values of their
broadcast shape minus d: the kernel (a cocycle's values, or the L of a
splitting), the u and v of a splitting, and the weights of the transform
(Weight.at).
Deltas multiply as delta_s * delta_t = Om(s,t) delta_{st}, so
associativity of the convolution is the cocycle identity in disguise.

The dual-side module actions are

    (g *' h)(s) = sum_t g(t) h(st) Om(s,t),
    (h *' g)(s) = sum_t g(t) h(ts) Om(t,s),

and with the bilinear pairing <f,h> = sum f(s) h(s) they satisfy

    <f * g, h> = <f, g *' h> = <g, h *' f>.

When Om factors as Om(s,t) = L(s,t) (u(s) + v(t)) with |L| <= 1 (see
cocycles.decomposition_witness), the pairing splits:

    <f * g, h> = <f u, xi(g,h)> + <g v, eta(f,h)>,

where xi(g,h)(s) = sum_t g(t) h(st) L(s,t) and
eta(f,h)(t) = sum_s f(s) h(st) L(s,t) (i.e. the same kernel summed over
the other slot).  The cross-kernel zeta(f,g)(t) = sum_s f(s) g(s^{-1}t)
L(s, s^{-1}t) links the two: sum_s f(s) xi(g,h)(s) = sum_t h(t) zeta(f,g)(t).

The transform under a weight w, f -> f / w, intertwines the twisted
convolution of the coboundary of w with the plain convolution and is an
isometry between the correspondingly weighted norms.  The augmentation
functional is the plain coefficient sum; it is multiplicative for the
untwisted convolution and its kernel is spanned by differences
delta_s - delta_e.

All operations are pure; random sampling takes explicit generators so
parallel and serial sweeps produce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cocycles import Cocycle, DecompositionWitness
from .errors import FactorizationError, GroupMismatchError
from .groups import Weight
from .space import (
    OrliczVector,
    VectorBatch,
    _segment_sums,
    cdiv,
    cmul,
    modulus,
    orlicz_batch,
    random_vectors,
)
from .young import ComplementaryPair

__all__ = [
    "twisted_convolve",
    "twisted_convolve_naive",
    "convolve",
    "l1_bound_gap",
    "associativity_residual",
    "module_action_left",
    "module_action_right",
    "module_action_left_naive",
    "module_action_right_naive",
    "duality_residual",
    "SplitFactors",
    "xi",
    "eta",
    "zeta",
    "splitting_residual",
    "lambda_transform",
    "augmentation",
    "unit_check",
    "submultiplicativity_probe",
]


def _pairs(outer: VectorBatch, inner: VectorBatch):
    """(p, q, seg): the entries p of outer and q of inner of each support
    pair, vector i of outer with vector i of inner, in double-loop order
    (outer entry, then inner entry, each in store order), and the vector
    of each pair."""
    outer._check(inner)
    seg = outer._segments()
    reps = inner.sizes[seg]  # each outer entry meets every entry of its inner vector
    p = np.repeat(np.arange(len(seg)), reps)
    first = np.cumsum(reps) - reps  # the first pair of each outer entry
    q = np.arange(len(p)) - np.repeat(first - inner._offsets[seg], reps)
    return p, q, seg[p]


def _kernel_sum(outer: VectorBatch, inner: VectorBatch, place: str, kernel=None):
    """Sum a * b * kernel over supp(outer) x supp(inner), one target per pair,
    for each vector of outer with the vector of inner at the same place.

    For x in supp(outer) with amplitude a and y in supp(inner) with
    amplitude b, the target and the kernel's arguments are
        place "xy":     t = x y,        kernel(x, y);
        place "xy^-1":  s = x y^{-1},   kernel(s, y);
        place "y^-1x":  s = y^{-1} x,   kernel(y, s).
    The kernel is an array function of two (n, d) coordinate arrays, giving
    the n complex values at their pairs.  With no kernel the term is a * b
    (no multiplication by a unit).  Pairs run over the outer support, then
    the inner support, each in its sorted store order, and the terms are
    scatter-added in that order, keyed by (vector, target): one kernel
    call and one scatter-add for the whole batch.  The result has outer's
    type, so two vectors give a vector.
    """
    p, q, seg = _pairs(outer, inner)
    group = outer.group
    X, Y = np.take(outer._rows, p, axis=0), np.take(inner._rows, q, axis=0)
    if place == "xy":
        T = group.multiply_array(X, Y)
        S, R = X, Y
    elif place == "xy^-1":
        T = group.multiply_array(X, group.invert_array(Y))
        S, R = T, Y
    else:
        T = group.multiply_array(group.invert_array(Y), X)
        S, R = Y, T
    terms = cmul(outer._amps[p], inner._amps[q])
    if kernel is not None:
        terms = cmul(terms, kernel(S, R))
    return outer._summed(group, T, terms, seg, outer._m)


def twisted_convolve(om: Cocycle, f: VectorBatch, g: VectorBatch) -> VectorBatch:
    """(f * g)(t) = sum_s f(s) g(s^{-1}t) Om(s, s^{-1}t), support-pair form.

    Accumulates over supp(f) x supp(g) via t = s y, so the cocycle is
    evaluated at (s, y) directly; support lands inside supp(f)supp(g).
    """
    if om.group != f._check(g):
        raise GroupMismatchError("cocycle lives on a different group")
    return _kernel_sum(f, g, "xy", om.values)


def twisted_convolve_naive(k: Callable, f: OrliczVector, g: OrliczVector) -> OrliczVector:
    """Literal transcription of the defining sum with a scalar kernel
    k(s, t), such as om.value; the oracle."""
    group = f._check(g)
    mul, inv = group.multiply, group.invert
    fs, at = list(f.items()), dict(g.items())
    targets = sorted({mul(s, y) for s, _ in fs for y in at})
    out = {}
    for t in targets:
        total = 0.0 + 0.0j
        for s, a in fs:
            y = mul(inv(s), t)
            b = at.get(y, 0j)
            if b != 0:
                total += a * b * k(s, y)
        out[t] = total
    return OrliczVector(group, out)


def convolve(f: VectorBatch, g: VectorBatch) -> VectorBatch:
    """Plain (untwisted) convolution."""
    return _kernel_sum(f, g, "xy")


def l1_bound_gap(om: Cocycle, f: VectorBatch, g: VectorBatch):
    """sup|Om| * |f|_1 * |g|_1 - |f*g|_1 over the pairs the sum touches; 0
    when f or g is zero."""
    p, q, seg = _pairs(f, g)
    sup = np.full(f._m, -np.inf)
    np.maximum.at(sup, seg, modulus(om.values(np.take(f._rows, p, 0), np.take(g._rows, q, 0))))
    with np.errstate(invalid="ignore"):  # -inf * 0 where f or g is zero
        gap = sup * f.l1() * g.l1() - twisted_convolve(om, f, g).l1()
    return f._out(np.where(f.sizes * g.sizes > 0, gap, 0.0))


def associativity_residual(
    om: Cocycle, f: VectorBatch, g: VectorBatch, h: VectorBatch
) -> float:
    """l1 distance between (f*g)*h and f*(g*h)."""
    left = twisted_convolve(om, twisted_convolve(om, f, g), h)
    right = twisted_convolve(om, f, twisted_convolve(om, g, h))
    return left.distance_l1(right)


# ---------------------------------------------------------------------------
# dual-side actions and the pairing identities


def module_action_left(om: Cocycle, g: VectorBatch, h: VectorBatch) -> VectorBatch:
    """(g *' h)(s) = sum_t g(t) h(st) Om(s,t)."""
    return _kernel_sum(h, g, "xy^-1", om.values)


def module_action_right(om: Cocycle, h: VectorBatch, g: VectorBatch) -> VectorBatch:
    """(h *' g)(s) = sum_t g(t) h(ts) Om(t,s)."""
    return _kernel_sum(h, g, "y^-1x", om.values)


def module_action_left_naive(k: Callable, g: OrliczVector, h: OrliczVector) -> OrliczVector:
    """The double loop of (g *' h)(s) with a scalar kernel k(s, t); the oracle."""
    group = g._check(h)
    mul, inv = group.multiply, group.invert
    gs, at = list(g.items()), dict(h.items())
    candidates = sorted({mul(u, inv(t)) for u in at for t, _ in gs})
    out = {}
    for s in candidates:
        total = 0.0 + 0.0j
        for t, ga in gs:
            hb = at.get(mul(s, t), 0j)
            if hb != 0:
                total += ga * hb * k(s, t)
        out[s] = total
    return OrliczVector(group, out)


def module_action_right_naive(k: Callable, h: OrliczVector, g: OrliczVector) -> OrliczVector:
    """The double loop of (h *' g)(s) with a scalar kernel k(s, t); the oracle."""
    group = g._check(h)
    mul, inv = group.multiply, group.invert
    gs, at = list(g.items()), dict(h.items())
    candidates = sorted({mul(inv(t), u) for u in at for t, _ in gs})
    out = {}
    for s in candidates:
        total = 0.0 + 0.0j
        for t, ga in gs:
            hb = at.get(mul(t, s), 0j)
            if hb != 0:
                total += ga * hb * k(t, s)
        out[s] = total
    return OrliczVector(group, out)


def duality_residual(
    om: Cocycle, f: VectorBatch, g: VectorBatch, h: VectorBatch
) -> float:
    """Deviation from <f*g, h> = <f, g*'h> = <g, h*'f>."""
    lhs = twisted_convolve(om, f, g).pairing(h)
    mid = f.pairing(module_action_left(om, g, h))
    rhs = g.pairing(module_action_right(om, h, f))
    return modulus(lhs - mid) + modulus(lhs - rhs)


# ---------------------------------------------------------------------------
# splitting operators


@dataclass(frozen=True)
class SplitFactors:
    """A factorization Om(s,t) = L(s,t) (u(s) + v(t)) with |L| <= 1.

    L(S, T), u(X) and v(X) are array functions of coordinate rows.
    """

    L: Callable
    u: Callable
    v: Callable

    @classmethod
    def from_witness(cls, om: Cocycle, witness: DecompositionWitness) -> "SplitFactors":
        """L = Om / (u + v), divided as CPython divides a complex by a float."""
        u, v = witness.u, witness.v
        return cls(lambda S, T: cdiv(om.values(S, T), u(S) + v(T)), u, v)

    def verify(self, om: Cocycle, S: np.ndarray, T: np.ndarray) -> None:
        """Check the factorization at the pairs of broadcastable coordinate
        arrays S, T.  Raise FactorizationError at the worst pair (the first
        NaN, if any) when |L| > 1 + 1e-12, or else when a deviation from Om
        exceeds 1e-10."""
        S, T = np.broadcast_arrays(S, T)
        L = self.L(S, T)
        excess = np.hypot(L.real, L.imag) - 1.0
        dev = np.abs(om.values(S, T) - L * (self.u(S) + self.v(T)))
        for r, bound in ((excess, 1e-12), (dev, 1e-10)):
            if not np.max(r, initial=0.0) <= bound:
                i = int(np.argmax(r))
                pair = tuple(tuple(A.reshape(-1, A.shape[-1])[i].tolist()) for A in (S, T))
                raise FactorizationError(pair, float(r.flat[i]))


def xi(L: Callable, g: VectorBatch, h: VectorBatch) -> VectorBatch:
    """xi(g,h)(s) = sum_t g(t) h(st) L(s,t)."""
    return _kernel_sum(h, g, "xy^-1", L)


def eta(L: Callable, f: VectorBatch, h: VectorBatch) -> VectorBatch:
    """eta(f,h)(t) = sum_s f(s) h(st) L(s,t)."""
    return _kernel_sum(h, f, "y^-1x", L)


def zeta(L: Callable, f: VectorBatch, g: VectorBatch) -> VectorBatch:
    """zeta(f,g)(t) = sum_s f(s) g(s^{-1}t) L(s, s^{-1}t)."""
    return _kernel_sum(f, g, "xy", L)


def splitting_residual(
    om: Cocycle,
    factors: SplitFactors,
    f: VectorBatch,
    g: VectorBatch,
    h: VectorBatch,
) -> float:
    """|<f*g,h> - <f u, xi(g,h)> - <g v, eta(f,h)>| after verifying the
    factors at every support pair of f and g (of every vector of a batch)."""
    p, q, _ = _pairs(f, g)
    factors.verify(om, np.take(f._rows, p, 0), np.take(g._rows, q, 0))
    lhs = twisted_convolve(om, f, g).pairing(h)
    fu = f.pointwise_mul(factors.u)
    gv = g.pointwise_mul(factors.v)
    rhs = fu.pairing(xi(factors.L, g, h)) + gv.pairing(eta(factors.L, f, h))
    return modulus(lhs - rhs)


# ---------------------------------------------------------------------------
# weight transform, augmentation, unit, probe


def lambda_transform(w: Weight, f: VectorBatch) -> VectorBatch:
    """f -> f / w, the isometry onto the weighted space."""
    return f.pointwise_div(w.at)


def augmentation(f: VectorBatch):
    """Sum of coefficients; multiplicative under plain convolution."""
    return f._out(_segment_sums(f._segments(), f._amps, f._m))


_SUPPORT = 6  # support size of the vectors unit_check and the probe draw


def unit_check(om: Cocycle, samples: int = 50, seed: int = 0, radius: int = 3) -> tuple:
    """(worst left, worst right) l1 deviation of delta_e * f and f * delta_e
    from f over random f: delta_e is a two-sided unit when both are 0."""
    fs = random_vectors(om.group, seed, radius, _SUPPORT, samples)
    es = VectorBatch.deltas(om.group, [om.group.identity()] * samples)
    left = twisted_convolve(om, es, fs).distance_l1(fs)
    right = twisted_convolve(om, fs, es).distance_l1(fs)
    return tuple(float(np.max(d, initial=0.0)) for d in (left, right))  # NaN propagates


def submultiplicativity_probe(
    pair: ComplementaryPair, om: Cocycle, radii=(4, 8), samples: int = 100, seed: int = 0
) -> tuple:
    """Sample |f*g|_Phi / (|f|_Phi |g|_Phi) across balls of growing radius.

    Returns one (radius, c_hat, samples) row per radius, c_hat the max ratio
    over the sampled pairs.  c_hat is an empirical lower bound for the true
    constant: it can only under-estimate it.
    """
    rows = []
    for i, radius in enumerate(radii):
        # per-radius derived seed; f and g alternate in the stream
        fs, gs = random_vectors(om.group, (seed, i), radius, _SUPPORT, 2 * samples).deal(2)
        # one solve for |f*g|, |f| and |g|: each vector's norm is its own, bit for bit
        prods = twisted_convolve(om, fs, gs)
        num, nf, ng = orlicz_batch(pair, VectorBatch.of([prods, fs, gs]))[0].reshape(3, -1)
        den = nf * ng
        live = den > 0.0
        ratios = num[live] / den[live]
        rows.append((radius, float(np.max(ratios, initial=0.0)), samples))  # NaN propagates
    return tuple(rows)
