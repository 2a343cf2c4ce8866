"""Finitely generated discrete groups as integer-tuple algebras.

Three families are supported, all with elements stored as plain integer
tuples so they hash and sort deterministically:

- free abelian Z^d with the 2d standard generators +-e_i,
- the discrete Heisenberg group H3(Z) on triples with the law
  (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b'),
- cyclic Z_n with generators +-1, coordinates reduced to [0, n).

The word length tau(g) is the least number of generators whose product
is g; it is symmetric and subadditive.  For Z^d and Z_n a closed form is
used; breadth-first search from the identity is the oracle for it (in the
test suite) and the source of the lengths on H3.

Array lookups go through one sorted index.  A RowIndex holds a
lexicographically sorted (n, d) array K with its keys: rows offset into
K's bounding box and linearised in mixed radix, so the order of keys is
the order of rows; locate finds each row of a query with one searchsorted.
The BFS table is a RowIndex of every element found so far, an aligned
array of their lengths, and the last sphere as the frontier.  A level
grows as one product_array of the frontier by the generators and one
_sorted_runs, the stable sort-and-dedupe the vectors of the space module
share; the unique rows not yet in the table form the next sphere, and the
element cap is checked before the table changes, so a MemoryCapError
leaves it whole.  Balls are read from the table, in lexicographic
coordinate order so every report is reproducible byte for byte;
bfs_lengths looks lengths up in it, growing it a level at a time until
every queried row is present or the radius cap raises RadiusCapError.

multiply_array and invert_array apply the group law to broadcastable
(..., d) coordinate arrays.

Weights are strictly positive functions of the word length with value 1
at the identity.  The built-in families are

    polynomial        (1 + tau)^beta                      beta > 0
    subexp_alpha      exp(C * tau^alpha)                  0 < alpha < 1, C > 0
    subexp_log        exp(C * tau / ln(1+tau)^gamma)      gamma > 0, C > 0

plus the trivial weight and pointwise products.  subexp_log's defining
expression is 0/0 at the identity; its value there is pinned to 1 by
convention so that every weight satisfies w(e) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import (
    GroupMismatchError,
    InputError,
    MemoryCapError,
    RadiusCapError,
)

__all__ = [
    "Group",
    "RowIndex",
    "Weight",
    "trivial_weight",
    "polynomial_weight",
    "subexp_weight",
    "subexp_log_weight",
    "product_weight",
    "weight_axioms_report",
]

Element = tuple


def _sorted_runs(rows: np.ndarray, seg: np.ndarray | None = None):
    """(order, rows[order], head) for an (n, d) coordinate array: the stable
    lexicographic order of its rows, so equal rows keep their input order,
    and the mask of the first row of each run of equal sorted rows.  With
    an (n,) array seg the key is (seg, row): rows sort within each seg.

    Each row's key is its mixed-radix place in the rows' bounding box
    times n plus its position, so the keys are distinct and one plain sort
    of them gives the stable order.  Keys too wide for int64 fall back to
    np.lexsort.
    """
    cols = list(rows.T) if seg is None else [seg, *rows.T]
    n = len(rows)
    lo = [int(c.min()) for c in cols] if n else []
    span = [int(c.max()) - low + 1 for c, low in zip(cols, lo)]
    if lo and math.prod(span) * n < 2**62:
        key = cols[0] - lo[0]
        for c, low, width in zip(cols[1:], lo[1:], span[1:]):
            key = key * width + (c - low)
        key, order = np.divmod(np.sort(key * n + np.arange(n)), n)
        diffs = [key]
    else:
        order = np.lexsort(cols[::-1])
        diffs = [c[order] for c in cols]
    head = np.ones(n, dtype=bool)
    head[1:] = np.logical_or.reduce([c[1:] != c[:-1] for c in diffs])
    return order, np.take(rows, order, axis=0), head


class RowIndex:
    """A nonempty, lexicographically sorted (n, d) coordinate array K with its
    linearised keys, built once for any number of lookups.

    Coordinates are clipped into K's bounding box widened by one on each
    side, so a row outside the box lands on a border key that no row of K
    has, and then linearised in mixed radix, so the order of keys is the
    order of rows.
    """

    def __init__(self, K: np.ndarray):
        self.rows = K
        self._lo, self._hi = K.min(axis=0) - 1, K.max(axis=0) + 1
        span = (self._hi + 1 - self._lo).tolist()
        if math.prod(span) >= 2**62:
            raise InputError("coordinate box too large to linearise")
        self._radix = np.array([math.prod(span[j + 1:]) for j in range(len(span))])
        self._keys = self._linearise(K)

    def _linearise(self, A: np.ndarray) -> np.ndarray:
        return (np.clip(A, self._lo, self._hi) - self._lo) @ self._radix

    def locate(self, Q: np.ndarray) -> np.ndarray:
        """Row index in K of each row of Q (shape (..., d)), or -1 where absent."""
        key = self._linearise(np.asarray(Q, dtype=np.int64))
        pos = np.minimum(np.searchsorted(self._keys, key), len(self._keys) - 1)
        return np.where(self._keys[pos] == key, pos, -1)


class Group:
    """A finitely generated discrete group with tuple-coordinate elements."""

    DEFAULT_ELEMENT_CAP = 10**6
    DEFAULT_RADIUS_CAP = 64

    def __init__(self, kind: str, param: int):
        if kind not in ("free_abelian", "heisenberg3", "cyclic"):
            raise InputError(f"unknown group kind {kind!r}")
        if kind == "free_abelian" and param < 1:
            raise InputError("free abelian rank must be >= 1")
        if kind == "cyclic" and param < 2:
            raise InputError("cyclic order must be >= 2")
        self.kind = kind
        self.param = int(param)
        self.element_cap = self.DEFAULT_ELEMENT_CAP
        self.radius_cap = self.DEFAULT_RADIUS_CAP
        # the BFS table: sorted rows, their lengths, and the last sphere
        self._frontier = np.zeros((1, self.dim), dtype=np.int64)
        self._index = RowIndex(self._frontier)
        self._tau = np.zeros(1, dtype=np.int64)
        self._radius = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def free_abelian(cls, d: int) -> "Group":
        return cls("free_abelian", d)

    @classmethod
    def heisenberg(cls) -> "Group":
        return cls("heisenberg3", 3)

    @classmethod
    def cyclic(cls, n: int) -> "Group":
        return cls("cyclic", n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Group)
            and self.kind == other.kind
            and self.param == other.param
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.param))

    def __repr__(self) -> str:
        if self.kind == "free_abelian":
            return f"Group(Z^{self.param})"
        if self.kind == "cyclic":
            return f"Group(Z_{self.param})"
        return "Group(H3(Z))"

    @property
    def dim(self) -> int:
        return 3 if self.kind == "heisenberg3" else (1 if self.kind == "cyclic" else self.param)

    @property
    def generators(self) -> tuple:
        """Symmetric generator set, identity excluded."""
        if self.kind == "free_abelian":  # e_1, -e_1, e_2, -e_2, ...
            d = self.param
            return tuple(tuple(s * (j == i) for j in range(d)) for i in range(d) for s in (1, -1))
        if self.kind == "heisenberg3":
            return ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
        return ((1,), (self.param - 1,))

    def is_finite(self) -> bool:
        return self.kind == "cyclic"

    # -- element algebra ----------------------------------------------------

    def identity(self) -> Element:
        return (0,) * self.dim

    def element(self, coords: Iterable[int]) -> Element:
        """Validate and normalize raw coordinates into an element."""
        g = tuple(int(c) for c in coords)
        if len(g) != self.dim:
            raise GroupMismatchError(
                f"expected {self.dim} coordinates for {self!r}, got {len(g)}"
            )
        if self.kind == "cyclic":
            g = (g[0] % self.param,)
        return g

    def _check(self, g: Element) -> None:
        if not isinstance(g, tuple) or len(g) != self.dim:
            raise GroupMismatchError(
                f"element {g!r} has wrong arity for {self!r}"
            )

    def multiply(self, g: Element, h: Element) -> Element:
        self._check(g)
        self._check(h)
        if self.kind == "free_abelian":
            return tuple(a + b for a, b in zip(g, h))
        if self.kind == "cyclic":
            return ((g[0] + h[0]) % self.param,)
        a, b, c = g
        ap, bp, cp = h
        return (a + ap, b + bp, c + cp + a * bp)

    def invert(self, g: Element) -> Element:
        self._check(g)
        if self.kind == "free_abelian":
            return tuple(-a for a in g)
        if self.kind == "cyclic":
            return ((-g[0]) % self.param,)
        a, b, c = g
        return (-a, -b, -c + a * b)

    # -- word length and balls ----------------------------------------------

    def word_length(self, g: Element) -> int:
        """Least n with g a product of n generators; 0 for the identity."""
        g = self.element(g)
        if self.kind == "free_abelian":
            return sum(map(abs, g))
        if self.kind == "cyclic":
            return min(g[0], self.param - g[0])
        return self.word_length_bfs(g)

    def word_length_bfs(self, g: Element) -> int:
        """BFS word length; the oracle for the closed forms above."""
        return int(self.bfs_lengths(self.coords_array([self.element(g)]))[0])

    def _grow(self) -> None:
        """Add the next sphere to the BFS table, or raise MemoryCapError and
        leave the table as it was."""
        P = self.product_array(self._frontier, self.coords_array(self.generators))
        P = P.reshape(-1, self.dim)
        order, srt, head = _sorted_runs(np.concatenate([self._index.rows, P]))
        table, first = srt[head], order[head]  # a row of the table heads its run
        if len(first) > self.element_cap:
            raise MemoryCapError(len(first), self.element_cap)
        self._radius += 1
        self._frontier = table[first >= len(self._tau)]
        self._tau = np.append(self._tau, np.full(len(P), self._radius))[first]
        self._index = RowIndex(table)

    def bfs_lengths(self, X: np.ndarray) -> np.ndarray:
        """BFS word lengths of the rows of X (shape (..., d)), growing the
        table until it holds every row; RadiusCapError when a row is still
        missing at the radius cap or past a finite group's last sphere."""
        flat = X.reshape(-1, self.dim)
        pos = self._index.locate(flat)
        out, todo = self._tau[pos], np.flatnonzero(pos < 0)  # a miss reads a placeholder
        while todo.size:
            if self._radius >= self.radius_cap or not len(self._frontier):
                row = tuple(flat[todo[0]].tolist())
                raise RadiusCapError(row, self.radius_cap, self.element_cap)
            self._grow()
            pos = self._index.locate(flat[todo])
            out[todo] = self._tau[pos]
            todo = todo[pos < 0]
        return out.reshape(X.shape[:-1])

    def ball(self, radius: int) -> list:
        """All elements of word length <= radius, lexicographically sorted."""
        return list(map(tuple, self.ball_array(radius).tolist()))

    def ball_array(self, radius: int) -> np.ndarray:
        """The ball as a new (n, d) int64 array of coordinate rows, in the
        order of ball; the table grows to the radius or the group's last sphere."""
        if radius < 0:
            raise InputError("radius must be nonnegative")
        while self._radius < radius and len(self._frontier):
            self._grow()
        return self._index.rows[self._tau <= radius]

    def ball_count(self, radius: int) -> int:
        return len(self.ball_array(radius))

    # -- vectorized helpers ---------------------------------------------------

    def coords_array(self, elems) -> np.ndarray:
        return np.asarray(list(elems), dtype=np.int64).reshape(len(elems), self.dim)

    def multiply_array(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Elementwise products of broadcastable (..., d) coordinate arrays."""
        out = A + B
        if self.kind == "cyclic":
            out %= self.param
        elif self.kind == "heisenberg3":
            out[..., 2] += A[..., 0] * B[..., 1]
        return out

    def invert_array(self, A: np.ndarray) -> np.ndarray:
        """Elementwise inverses of a (..., d) coordinate array."""
        out = -A
        if self.kind == "cyclic":
            out %= self.param
        elif self.kind == "heisenberg3":
            out[..., 2] += A[..., 0] * A[..., 1]
        return out

    def product_array(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """All pairwise products: (N, d) x (M, d) -> (N, M, d)."""
        return self.multiply_array(A[:, None, :], B[None, :, :])

    def tau_array(self, coords: np.ndarray) -> np.ndarray:
        """Word lengths of a coordinate array of shape (..., d)."""
        if self.kind == "free_abelian":
            tau = np.abs(coords[..., 0])  # column by column: no (..., d) temporary
            for k in range(1, self.dim):
                tau += np.abs(coords[..., k])
            return tau
        if self.kind == "cyclic":
            k = coords[..., 0] % self.param
            return np.minimum(k, self.param - k)
        return self.bfs_lengths(coords)

    # -- growth ---------------------------------------------------------------

    def growth_order_estimate(self, max_radius: int) -> "GrowthFit":
        """Least-squares growth order from log |B_n| against log n.

        The fit runs over n in [max_radius/2, max_radius]; the reported
        envelope constants satisfy c1 * n^d_hat <= |B_n| <= c2 * n^d_hat
        on that window.
        """
        if max_radius < 6:
            raise InputError("growth fit needs max_radius >= 6")
        radii = np.arange(max_radius // 2, max_radius + 1)
        counts = np.array([self.ball_count(int(n)) for n in radii], dtype=float)
        logn = np.log(radii.astype(float))
        logc = np.log(counts)
        slope, intercept = np.polyfit(logn, logc, 1)
        resid = logc - (slope * logn + intercept)
        scale = counts / radii.astype(float) ** slope
        return GrowthFit(
            d_hat=float(slope),
            fit_residual=float(np.sqrt(np.mean(resid**2))),
            radii=radii,
            counts=counts.astype(int),
            c1=float(scale.min()),
            c2=float(scale.max()),
        )


@dataclass(frozen=True)
class GrowthFit:
    d_hat: float
    fit_residual: float
    radii: np.ndarray
    counts: np.ndarray
    c1: float
    c2: float


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class Weight:
    """A radial weight: a function of the word length with value 1 at e.

    tau_fn maps an array of word lengths to weight values, and at(X)
    evaluates it at the word lengths of coordinate rows.  Calling the
    weight on a group element, the scalar oracle, takes its scalar
    group.word_length and evaluates tau_fn on a one-element array, so w(g)
    is bit for bit the tau_values entry of its length.  Those values are kept per length,
    one float for each length called so far.  All built-in families take
    values >= 1, so reciprocals stay bounded by 1.
    """

    group: Group
    kind: str
    tau_fn: Callable
    label: str
    params: tuple = ()
    _by_length: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def tau_values(self, tau):
        return self.tau_fn(np.asarray(tau, dtype=float))

    def __call__(self, g) -> float:
        tau = self.group.word_length(g)
        if tau not in self._by_length:
            self._by_length[tau] = float(self.tau_values([tau])[0])
        return self._by_length[tau]

    def at(self, X: np.ndarray) -> np.ndarray:
        """w at the rows of a (..., d) coordinate array."""
        return self.tau_values(self.group.tau_array(X))

    def coboundary(self, S: np.ndarray, T: np.ndarray) -> np.ndarray:
        """w(st) / (w(s) w(t)) for broadcastable (..., d) coordinate arrays S, T."""
        # the product rows are freed before tau_values runs, which bounds the peak memory
        st = self.tau_values(self.group.tau_array(self.group.multiply_array(S, T)))
        return st / (self.at(S) * self.at(T))


def trivial_weight(group: Group) -> Weight:
    return Weight(group, "trivial", lambda t: np.ones_like(t), "trivial")


def polynomial_weight(group: Group, beta: float) -> Weight:
    if not beta > 0.0:
        raise InputError(f"polynomial weight needs beta > 0, got {beta!r}")
    return Weight(
        group,
        "polynomial",
        lambda t: (1.0 + t) ** beta,
        f"poly:{beta:g}",
        (beta,),
    )


def subexp_weight(group: Group, alpha: float, C: float) -> Weight:
    if not (0.0 < alpha < 1.0 and C > 0.0):
        raise InputError(f"subexponential weight needs 0<alpha<1, C>0; got {alpha!r}, {C!r}")
    return Weight(
        group,
        "subexp_alpha",
        lambda t: np.exp(C * t**alpha),
        f"subexp:{alpha:g}:{C:g}",
        (alpha, C),
    )


def subexp_log_weight(group: Group, gamma: float, C: float) -> Weight:
    if not (gamma > 0.0 and C > 0.0):
        raise InputError(f"log-damped weight needs gamma > 0 and C > 0; got {gamma!r}, {C!r}")

    def tau_fn(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            expo = np.where(t > 0.0, C * t / np.log1p(t) ** gamma, 0.0)
        return np.exp(expo)  # exponent pinned to 0 at tau=0: w(e) = 1

    return Weight(group, "subexp_log", tau_fn, f"subexplog:{gamma:g}:{C:g}", (gamma, C))


def product_weight(w1: Weight, w2: Weight) -> Weight:
    if w1.group != w2.group:
        raise GroupMismatchError("weights live on different groups")
    return Weight(
        w1.group,
        "product",
        lambda t: w1.tau_fn(t) * w2.tau_fn(t),
        f"{w1.label}*{w2.label}",
        (w1, w2),
    )


@dataclass(frozen=True)
class WeightAxiomsReport:
    identity_ok: bool
    inverse_bound: float  # max of 1/w over the ball
    submult_sup: float  # max of w(st) / (w(s) w(t)) over ball pairs


def weight_axioms_report(w: Weight, radius: int) -> WeightAxiomsReport:
    """Probe the weight axioms on a ball: w(e)=1, bounded reciprocal, and
    the submultiplicativity ratio sup w(st)/(w(s)w(t))."""
    group = w.group
    X = group.ball_array(radius)
    return WeightAxiomsReport(
        identity_ok=abs(w(group.identity()) - 1.0) < 1e-12,
        inverse_bound=float((1.0 / w.at(X)).max()),
        submult_sup=float(w.coboundary(X[:, None], X[None, :]).max()),
    )
