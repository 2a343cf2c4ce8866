"""2-cocycles on a discrete group with values in the nonzero complex numbers.

A normalized 2-cocycle is a map Om: G x G -> C* satisfying

    Om(r,s) * Om(rs,t) == Om(s,t) * Om(r,st)      (cocycle identity)
    Om(g,e) == Om(e,g) == 1                       (normalization)

Constructors cover the families the laboratory needs:

- the trivial cocycle Om == 1;
- the coboundary of a weight w: Om(s,t) = w(st) / (w(s) w(t)), which is
  real, positive, and automatically normalized since w(e) = 1;
- the bilinear phase on an abelian group: Om(x,y) = exp(i * theta * x.B.y)
  for an integer matrix B (on Z_n the identity requires theta to be a
  multiple of 2*pi/n; the residual scan catches incompatible choices);
- pointwise products of cocycles (cocycles form an abelian group);
- pointwise perturbations, used to manufacture deliberately broken
  cocycles for negative tests.

Polar decomposition splits Om = |Om| * phase pointwise; both factors are
again cocycles.  decomposition_witness finds nonnegative u, v with
|Om(s,t)| <= u(s) + v(t) on a ball, the hypothesis that upgrades the
twisted convolution to a Banach-algebra multiplication.  Witnesses:

    polynomial weight (1+tau)^beta      u = v = 2^beta / w
    subexponential exp(C tau^alpha)     u = v = exp(-C (2 - 2^alpha) tau^alpha)
    log-damped exp(C tau / ln^gamma)    bounded grid search over
                                        u = v = kappa / w' with w' a
                                        shrunken copy of the same family

each verified pair-by-pair on the requested ball (the searches certify,
they do not prove).

Every function on the group that the library evaluates in bulk is an
array function of int64 coordinate rows: it maps broadcastable (..., d)
arrays to values of their broadcast shape minus d.  So does every cocycle,
through values(S, T), which tables, the identity scan and the twisted
products read; its scalar value(s, t) on element tuples is written
independently and is the oracle.  The array evaluators form complex
products from real and imaginary parts, moduli with hypot and phases by
dividing each part, so they equal value bit for bit.  The u and v of a
witness are array functions too.  Nothing is cached, so evaluators are
pure and concurrent readers need no coordination.

The groups here are discrete, so the continuity a bounded cocycle's
unimodular part would otherwise have to satisfy holds automatically and
is not checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GroupMismatchError, InputError, InvariantViolationError, WitnessSearchError
from .groups import (
    Group,
    RowIndex,
    Weight,
    product_weight,
    subexp_log_weight,
    subexp_weight,
    trivial_weight,
)
from .space import cmul, complex_array

__all__ = [
    "Cocycle",
    "DecompositionWitness",
    "trivial_cocycle",
    "coboundary_from_weight",
    "bilinear_phase",
    "product_cocycle",
    "perturbed",
    "cocycle_identity_residual",
    "normalization_residual",
    "polar_decompose",
    "sup_norm_estimate",
    "decomposition_witness",
]


class Cocycle:
    """A 2-cocycle: a scalar evaluator, an array evaluator and construction
    metadata.

    value(s, t) calls the scalar evaluator; values(S, T) evaluates the whole
    pair grid of broadcastable coordinate arrays at once.  The two are
    written independently, and the scalar one is the oracle for the other.
    """

    def __init__(
        self,
        group: Group,
        kind: str,
        fn: Callable,
        values: Callable,
        label: str,
        weight: Optional[Weight] = None,
        factors: tuple = (),
    ):
        self.group = group
        self.kind = kind
        self.label = label
        self.weight = weight
        self.factors = factors
        self._fn = fn
        self._values = values

    def __repr__(self) -> str:
        return f"Cocycle({self.label} on {self.group!r})"

    def value(self, s, t) -> complex:
        got = complex(self._fn(s, t))
        if got == 0.0:
            raise InvariantViolationError(
                f"{self.label}: vanishes at {(s, t)!r}; cocycles take nonzero values"
            )
        return got

    def values(self, S: np.ndarray, T: np.ndarray) -> np.ndarray:
        """Om(s, t) for the rows s of S and t of T, broadcastable (..., d)
        coordinate arrays; the result has their broadcast shape minus d."""
        out = self._values(np.asarray(S, dtype=np.int64), np.asarray(T, dtype=np.int64))
        if np.count_nonzero(out) < out.size:
            raise InvariantViolationError(
                f"{self.label}: vanishes on the pairs evaluated; cocycles take nonzero values"
            )
        return out

    def table(self, elems) -> np.ndarray:
        """Dense value table over elems x elems."""
        X = self.group.coords_array(elems)
        return self.values(X[:, None], X[None, :])

    def modulus_weight(self) -> Optional[Weight]:
        """The weight whose coboundary is |Om|, when the construction shows it."""
        if self.kind in ("trivial", "bilinear_phase", "phase_factor"):
            return trivial_weight(self.group)
        if self.kind in ("coboundary", "modulus_factor"):
            return self.weight
        if self.kind == "product":
            parts = [f.modulus_weight() for f in self.factors]
            if any(p is None for p in parts):
                return None
            live = [p for p in parts if p.kind != "trivial"]
            if not live:
                return trivial_weight(self.group)
            acc = live[0]
            for p in live[1:]:
                acc = product_weight(acc, p)
            return acc
        return None


def trivial_cocycle(group: Group) -> Cocycle:
    def values(S, T):
        return np.ones(np.broadcast_shapes(S.shape, T.shape)[:-1], dtype=complex)

    return Cocycle(group, "trivial", lambda s, t: 1.0 + 0.0j, values, "trivial")


def coboundary_from_weight(w: Weight) -> Cocycle:
    """The positive cocycle w(st) / (w(s) w(t))."""
    group = w.group

    def fn(s, t):
        return w(group.multiply(s, t)) / (w(s) * w(t))

    def values(S, T):
        return w.coboundary(S, T).astype(complex)

    return Cocycle(group, "coboundary", fn, values, f"coboundary({w.label})", weight=w)


def bilinear_phase(group: Group, B, theta: float) -> Cocycle:
    """Unimodular cocycle exp(i * theta * s.B.t) on an abelian group."""
    if group.kind == "heisenberg3":
        raise InputError("bilinear phases need an abelian group")
    Bm = np.asarray(B, dtype=np.int64)
    d = group.dim
    if Bm.shape != (d, d):
        raise InputError(f"phase matrix must be {d}x{d}, got {Bm.shape}")

    def fn(s, t):
        form = int(np.dot(np.dot(np.asarray(s, dtype=np.int64), Bm), np.asarray(t, dtype=np.int64)))
        return complex(math.cos(theta * form), math.sin(theta * form))

    def values(S, T):
        SB = S @ Bm
        form = SB[..., 0] * T[..., 0]
        for k in range(1, d):
            form += SB[..., k] * T[..., k]
        if form.size:
            # one exp per integer in the range of the form, when that is no
            # longer than the output; the same exp per element either way
            lo, hi = int(form.min()), int(form.max())
            if hi - lo < form.size:
                return np.exp(1j * theta * np.arange(lo, hi + 1))[form - lo]
        return np.exp(1j * theta * form)

    return Cocycle(group, "bilinear_phase", fn, values, f"phase:{theta:g}")


def product_cocycle(a: Cocycle, b: Cocycle) -> Cocycle:
    if a.group != b.group:
        raise GroupMismatchError("cocycle factors live on different groups")

    def fn(s, t):
        return a.value(s, t) * b.value(s, t)

    def values(S, T):
        return cmul(a.values(S, T), b.values(S, T))

    return Cocycle(a.group, "product", fn, values, f"{a.label}*{b.label}", factors=(a, b))


def perturbed(base: Cocycle, s, t, factor: float) -> Cocycle:
    """Copy of base scaled by ``factor`` at the single pair (s, t).

    Any factor != 1 breaks the cocycle identity; used as the negative
    control in the verification suites.
    """

    def fn(x, y):
        v = base.value(x, y)
        return v * factor if (x, y) == (s, t) else v

    def values(S, T):
        v = base.values(S, T)
        hit = (S == s).all(axis=-1) & (T == t).all(axis=-1)
        return np.where(hit, cmul(v, np.complex128(factor)), v)

    return Cocycle(base.group, "perturbed", fn, values, f"{base.label}!@{s},{t}")


# ---------------------------------------------------------------------------
# verification


def _pair_table(om: Cocycle, radius: int):
    """What the triple scan reads on the ball B_R of the given radius.

    Returns (I, RS, A, B): I[r] is the row of r in B_2R, RS[r, s] the row of
    rs in B_2R (products of two radius-R elements have length <= 2R), and
    A and B are the value blocks of Om over B_2R x B_R and B_R x B_2R.
    """
    group = om.group
    X = group.ball_array(radius)
    index = RowIndex(group.ball_array(2 * radius))
    X2 = index.rows
    return (
        index.locate(X),
        index.locate(group.product_array(X, X)),
        om.values(X2[:, None], X[None, :]),
        om.values(X[:, None], X2[None, :]),
    )


_BLOCK_BYTES = 2**20  # size cap of each temporary in the triple scan


def cocycle_identity_residual(om: Cocycle, radius: int) -> float:
    """max over ball triples of |Om(r,s)Om(rs,t) - Om(s,t)Om(r,st)|.

    The scan runs over blocks of r so that no (r, s, t) temporary exceeds
    _BLOCK_BYTES, a size chosen for the cache rather than only as a memory
    cap; the max is exact, so blocking does not change the value.  The
    value blocks it reads come from values(), where Z^d word lengths and
    bilinear forms are summed column by column and a bilinear phase reads
    exp(i theta k) from a table over the forms' range when that range is
    no longer than the output.
    """
    I, RS, A, B = _pair_table(om, radius)
    if np.any(RS < 0):
        raise InvariantViolationError("product fell outside the doubled ball")
    W_II = B[:, I]  # Om(r, s) on B_R x B_R
    n = len(I)
    step = max(1, _BLOCK_BYTES // (16 * n * n))
    block_max = []
    for r0 in range(0, n, step):
        r = slice(r0, r0 + step)
        lhs = W_II[r, :, None] * A[RS[r]]  # Om(r,s) Om(rs,t)
        rhs = W_II[None, :, :] * B[r][:, RS]  # Om(s,t) Om(r,st)
        block_max.append(np.abs(lhs - rhs).max())
    return float(np.max(block_max))


def normalization_residual(om: Cocycle, radius: int) -> float:
    """max over the ball of |Om(g,e) - 1| and |Om(e,g) - 1|."""
    X = om.group.ball_array(radius)
    E = np.zeros_like(X)  # rows of the identity
    D = np.concatenate([om.values(X, E), om.values(E, X)]) - 1.0
    return float(np.max(np.hypot(D.real, D.imag), initial=0.0))  # NaN-propagating, unlike max()


def polar_decompose(om: Cocycle):
    """Split Om into (modulus, phase) with Om = modulus * phase pointwise.

    The modulus is positive, the phase unimodular, and each factor is a
    cocycle in its own right.  A zero value anywhere is an invariant
    violation of the input.
    """

    def mod_fn(s, t):
        return complex(abs(om.value(s, t)))  # value raises on a zero

    def phase_fn(s, t):
        v = om.value(s, t)
        return v / abs(v)

    def mod_values(S, T):
        W = om.values(S, T)
        return np.hypot(W.real, W.imag).astype(complex)

    def phase_values(S, T):
        W = om.values(S, T)
        mags = np.hypot(W.real, W.imag)
        return complex_array(W.real / mags, W.imag / mags)

    modulus = Cocycle(
        om.group, "modulus_factor", mod_fn, mod_values, f"|{om.label}|",
        weight=om.modulus_weight(),
    )
    phase = Cocycle(om.group, "phase_factor", phase_fn, phase_values, f"phase({om.label})")
    return modulus, phase


def sup_norm_estimate(om: Cocycle, radius: int) -> float:
    """max |Om| over ball pairs."""
    elems = om.group.ball(radius)
    return float(np.abs(om.table(elems)).max())


# ---------------------------------------------------------------------------
# decomposition witnesses


@dataclass(frozen=True)
class DecompositionWitness:
    """Verified dominating pair: |Om(s,t)| <= u(s) + v(t) on the ball.

    u and v are array functions of (..., d) coordinate rows, u_tau and
    v_tau the same functions of the word length, tied to the underlying weight
    (no tabulation), so the verification radius can grow without
    rebuilding them.  max_violation is the exact maximum of |Om| - u - v
    over the checked pairs; success means it is <= 0.
    """

    u: Callable
    v: Callable
    u_tau: Callable
    v_tau: Callable
    verified_radius: int
    max_violation: float
    description: str


def _worst_pair(X, mod, u_vals, v_vals):
    """Max of |Om| - u - v over the pairs of rows of X and the pair attaining it."""
    viol = mod - u_vals[:, None] - v_vals[None, :]
    i, j = divmod(int(np.argmax(viol)), len(X))
    return float(viol[i, j]), (tuple(X[i].tolist()), tuple(X[j].tolist()))


def decomposition_witness(om: Cocycle, radius: int) -> DecompositionWitness:
    """Find u, v >= 0 dominating |Om| additively on a ball.

    The construction of om must expose the weight behind |Om|; the
    candidate for each weight family is listed in the module docstring.
    """
    group = om.group
    X = group.ball_array(radius)
    w = om.modulus_weight()
    if w is None:
        raise WitnessSearchError(None, math.inf, f"none (opaque construction {om.kind})")

    candidates = []
    if w.kind == "trivial":
        candidates.append(("constants 1 + 1", lambda t: np.ones_like(np.asarray(t, float)),
                           lambda t: np.ones_like(np.asarray(t, float))))
    elif w.kind == "polynomial":
        beta = w.params[0]
        scale = 2.0**beta

        def u_tau(t, scale=scale, w=w):
            return scale / w.tau_values(t)

        candidates.append((f"2^{beta:g}/w on each side", u_tau, u_tau))
    elif w.kind == "subexp_alpha":
        alpha, C = w.params
        shrunk = subexp_weight(group, alpha, C * (2.0 - 2.0**alpha))

        def u_tau(t, shrunk=shrunk):
            return 1.0 / shrunk.tau_values(t)

        candidates.append((f"1/{shrunk.label} on each side", u_tau, u_tau))
    elif w.kind == "subexp_log":
        gamma, C = w.params
        for kappa in (1.0, 2.0, 4.0, 8.0):
            for frac in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
                shrunk = subexp_log_weight(group, gamma, C * frac)

                def u_tau(t, kappa=kappa, shrunk=shrunk):
                    return kappa / shrunk.tau_values(t)

                candidates.append((f"{kappa:g}/{shrunk.label} on each side", u_tau, u_tau))
    else:
        raise WitnessSearchError(None, math.inf, f"no recipe for weight kind {w.kind!r}")

    # |Om| is the coboundary of w, so one table serves every candidate
    tau = group.tau_array(X)
    mod = w.coboundary(X[:, None], X[None, :])
    best = None
    for desc, u_tau, v_tau in candidates:
        violation, worst = _worst_pair(X, mod, u_tau(tau), v_tau(tau))
        if violation <= 0.0:
            u_fn = lambda Y, f=u_tau: f(group.tau_array(Y))
            v_fn = lambda Y, f=v_tau: f(group.tau_array(Y))
            return DecompositionWitness(u_fn, v_fn, u_tau, v_tau, radius, violation, desc)
        if best is None or violation < best[0]:
            best = (violation, worst, desc)
    raise WitnessSearchError(best[1], best[0], best[2])
