"""Finitely supported vectors over a group and their Orlicz norms.

An OrliczVector is a map from finitely many group elements to nonzero
complex amplitudes (exact zeros are pruned; near-zeros are kept, since
pruning them would silently change norms).  With counting measure all
modulars are exact finite sums

    modular(Phi, f) = sum_s Phi(|f(s)|).

Two norms are computed and cross-checked:

- the Luxemburg (gauge) norm  N(f) = inf { k > 0 : modular(f/k) <= 1 };
  the modular of x f is continuous and strictly increasing in x for
  f != 0, so 1/N(f) is the unique root of modular(x f) = 1;
- the Orlicz (dual) norm  |f| = sup { sum |f v| : modular(Psi, v) <= 1 },
  computed two independent ways: (a) stationarity, where the optimal
  dual vector is v_s = dens(mu |f_s|) with dens the density of Phi and
  mu = 1/lam the root of the binding constraint sum Psi(v) = 1, and
  (b) the Amemiya formula, minimizing k -> (1 + modular(Phi, k f)) / k
  (a computational device whose agreement with (a) is enforced, not
  assumed).  By the Young equality the minimizer is the mu of (a), where
  (b) starts its search; (b) still minimizes the objective itself and
  widens past a wrong mu.  The two must agree to 1e-5 relative or a hard
  MethodDisagreementError fires.

Every root above is found by the shared root finder of the young module
and the Amemiya minimum by its shared golden-section minimizer, so one
stop rule and one overflow policy hold throughout: a bracket growing past
1e300 raises BracketOverflowError and a solve that runs out of steps
raises SolverCapError; no solver returns an unconverged value.

Vectors live in one ragged store, the CSR layout of scipy.sparse: a
VectorBatch of m vectors holds an (N, d) int64 array of coordinate rows,
an (N,) complex array of amplitudes and an (m + 1,) offsets array, vector
i being entries offsets[i] to offsets[i + 1].  An OrliczVector is the
batch of one vector.  Within a vector the rows are distinct, their
amplitudes nonzero, and they are in lexicographic order: one canonical
form, whatever order the entries came in.  The constructor, + and the
kernels of the algebra module all end in one scatter-add keyed by
(vector, row), which returns each vector's rows sorted: equal rows of a
vector sum from 0.0 in input order (np.bincount adds in sequence) and
exact zeros are pruned.  scale, abs and the pointwise maps by an array
function of the rows keep the rows and only prune zeros; they form
products, quotients by a real and moduli as CPython does, so each entry
equals the scalar computation bit for bit.  l1, pairing and distance_l1
give one value per vector, each a left fold of its terms in row order
from 0.0 (not Python's sum, which compensates floats from 3.12 on); on an
OrliczVector they give one Python number.  So every vector of a batch
comes out as it would alone, bit for bit, on every Python.

Every random vector comes from random_vectors: it reads the ball once,
then draws each vector with one choice and one uniform call, in that
order, writing the draws straight into one batch, so a batch is the
stream of one-vector draws (random_vector is count = 1).

The norms satisfy N(f) <= |f| <= 2 N(f).  Batched variants run whole
sweeps of vectors through the same solvers at once, one solve per call
whatever the support sizes: the nonzero |amplitudes| of all rows lie in
one flat array, a batch's with its own offsets, and every modular is one
np.add.reduceat over it, which sums each row as it would sum that row
alone.  Every element of a solve stops at its own first converged step
and the Amemiya bracket widens per row, so a row's answer never depends
on its batch mates: each vector's norms equal its one-vector solves bit
for bit.  The matrix entry points luxemburg_batch and orlicz_batch drop
the zeros of each row (exact, as Phi(0) = 0), so a zero-padded row of
amplitude_matrix gets its vector's norm bit for bit.  They, orlicz_gauges,
holder_gaps and weighted_norms also take a batch, a vector (the batch of
one) or a sequence of vectors or batches, through VectorBatch.of;
orlicz_norm and luxemburg_norm are their one-vector case.

membership_diagnostic probes whether sum_s Psi(alpha h(s)) converges as
the summation ball grows, for each requested alpha -- a finite-radius
heuristic for membership of h in the closure of the step functions; its
verdicts are labeled as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    BracketOverflowError,
    GroupMismatchError,
    InputError,
    MethodDisagreementError,
    SolverCapError,
)
from .groups import Group, Weight, _sorted_runs
from .young import _MAX_DOUBLE, ComplementaryPair, YoungFunction, _find_root, _golden_min

__all__ = [
    "OrliczVector",
    "VectorBatch",
    "random_vector",
    "random_vectors",
    "amplitude_matrix",
    "modular",
    "luxemburg_norm",
    "orlicz_norm",
    "orlicz_gauges",
    "holder_gaps",
    "weighted_norms",
    "membership_diagnostic",
    "luxemburg_batch",
    "orlicz_batch",
]

_AGREEMENT_LIMIT = 1e-5
_NORM_CAP = 1e300  # norms below 1/_NORM_CAP raise, as do Orlicz norms past _MAX_DOUBLE
_AMEMIYA_EXPANSIONS = 8
_AMEMIYA_DELTA = 1e-6  # the first Amemiya bracket is [mu/(1+d), mu(1+d)]


def complex_array(re, im) -> np.ndarray:
    """The complex array with these real and imaginary parts, bit for bit."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise a * b of complex arrays, formed from the real and imaginary
    parts in the order CPython uses, so each entry equals the Python complex
    product bit for bit (numpy's own complex multiply may round otherwise)."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, silently, as in Python
        return complex_array(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def cdiv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Entrywise a / x of a complex array by a real one, in the order CPython
    divides a complex by a float (as by x + 0j), so each entry equals the
    Python quotient bit for bit."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = 0.0 / x
        denom = x + 0.0 * ratio
        return complex_array((a.real + a.imag * ratio) / denom, (a.imag - a.real * ratio) / denom)


def _scatter_add(rows: np.ndarray, amps: np.ndarray, seg: np.ndarray | None = None, m: int = 1):
    """Sum the amplitudes of equal keys, in sorted key order: (rows, amps,
    offsets) of m vectors.

    The key is the (segment, row) pair, seg the segment of each row (not
    needed for m = 1).  Each sum starts from 0.0 and adds its amplitudes in
    input order (the sort is stable); sums that are exactly zero are dropped.
    """
    seg = None if m == 1 else seg
    order, srt, head = _sorted_runs(rows, seg)
    amps = amps[order]
    if not head.all():
        run = head.cumsum() - 1
        amps = complex_array(np.bincount(run, amps.real), np.bincount(run, amps.imag))
    if seg is None:
        offsets = np.array([0, len(amps)])
    else:
        offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(seg[order][head], minlength=m), out=offsets[1:])
    return _pruned(np.compress(head, srt, axis=0), amps, offsets)


def _pruned(rows: np.ndarray, amps: np.ndarray, offsets: np.ndarray):
    """Distinct rows with their amplitudes and segment offsets, each
    amplitude added to 0.0 as the sums above are (so a -0.0 part reads
    +0.0); exact zeros are dropped."""
    amps = amps + 0.0
    keep = amps != 0
    if keep.all():
        return rows, amps, offsets
    gone = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(~keep, out=gone[1:])
    return np.compress(keep, rows, axis=0), amps[keep], offsets - gone[offsets]


def _segment_sums(seg: np.ndarray, values: np.ndarray, m: int) -> np.ndarray:
    """The m sums of values by segment, each a left fold from 0.0 in input
    order (np.bincount adds in sequence)."""
    if np.iscomplexobj(values):
        re, im = (_segment_sums(seg, part, m) for part in (values.real, values.imag))
        return complex_array(re, im)
    return np.bincount(seg, values, minlength=m).astype(float)  # ints when there are no values


def _gather(offsets: np.ndarray, idx: np.ndarray):
    """(at, offsets) of segments idx of a ragged store: the indices of their
    entries, in order, and the offsets of the segments they make up."""
    sizes = np.diff(offsets)[idx]
    out = np.zeros(len(idx) + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    return np.repeat(offsets[idx] - out[:-1], sizes) + np.arange(out[-1]), out


def modulus(z) -> np.ndarray:
    """|z| of complex values with hypot, as CPython's abs forms it."""
    return np.hypot(np.real(z), np.imag(z))


class VectorBatch:
    """m finitely supported vectors on one group, in one ragged store.

    The store is an (N, d) int64 array of coordinate rows, an (N,) complex
    array of their amplitudes and an (m + 1,) offsets array: vector i is
    entries offsets[i] to offsets[i + 1], its rows distinct and in
    lexicographic order, its amplitudes nonzero.  Every operation acts on
    each vector as on a vector alone, bit for bit; binary ones pair the
    vectors of two batches of equal length place by place.  Reductions
    (l1, pairing, distance_l1) give one value per vector.
    """

    __slots__ = ("group", "_rows", "_amps", "_offsets")

    @classmethod
    def _make(cls, group: Group, rows: np.ndarray, amps: np.ndarray, offsets: np.ndarray):
        f = cls.__new__(cls)
        f.group, f._rows, f._amps, f._offsets = group, rows, amps, offsets
        return f

    @classmethod
    def _summed(cls, group: Group, rows: np.ndarray, amps: np.ndarray, seg=None, m: int = 1):
        """The m vectors of coordinate rows made inside the package, so
        already normalised, seg the vector of each row; equal rows of a
        vector sum as in the constructor."""
        return cls._make(group, *_scatter_add(rows, amps, seg, m))

    @classmethod
    def _distinct(cls, group: Group, rows: np.ndarray, amps: np.ndarray, offsets=None):
        """The vectors of distinct, sorted coordinate rows made inside the
        package (one vector when offsets is None); only exact zeros are
        pruned, as the scatter-add would prune them."""
        offsets = np.array([0, len(amps)]) if offsets is None else offsets
        return cls._make(group, *_pruned(rows, amps, offsets))

    @staticmethod
    def of(vectors, group: Group | None = None) -> "VectorBatch":
        """A sequence of vectors (or of batches, each giving its vectors in
        turn) on one group as one batch; a batch, or a vector as the batch
        of one, keeps its store.  No vectors give the empty batch on group,
        on no group when it is None."""
        if isinstance(vectors, VectorBatch):
            return VectorBatch._make(vectors.group, vectors._rows, vectors._amps, vectors._offsets)
        vectors = list(vectors)
        group = vectors[0].group if vectors else group
        if any(v.group != group for v in vectors):
            raise GroupMismatchError("vectors live on different groups")
        sizes = np.concatenate([np.zeros(0, dtype=np.int64)] + [v.sizes for v in vectors])
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        dim = 0 if group is None else group.dim
        rows = np.concatenate([np.zeros((0, dim), dtype=np.int64)] + [v._rows for v in vectors])
        amps = np.concatenate([np.zeros(0, dtype=complex)] + [v._amps for v in vectors])
        return VectorBatch._make(group, rows, amps, offsets)

    @staticmethod
    def deltas(group: Group, elements, amplitudes=None) -> "VectorBatch":
        """The batch of the point masses a delta_g, for the elements g and
        amplitudes a (all 1.0 when None); a zero amplitude gives the zero vector."""
        rows = group.coords_array([group.element(g) for g in elements])
        amps = np.array(np.ones(len(rows)) if amplitudes is None else amplitudes, dtype=complex)
        return VectorBatch._distinct(group, rows, amps, np.arange(len(rows) + 1))

    # -- views ---------------------------------------------------------------

    @property
    def sizes(self) -> np.ndarray:
        """The support size of each vector."""
        return np.diff(self._offsets)

    @property
    def _m(self) -> int:
        """The number of vectors."""
        return len(self._offsets) - 1

    def _segments(self) -> np.ndarray:
        """The vector of each stored row."""
        return np.repeat(np.arange(self._m), self.sizes)

    def __len__(self) -> int:
        return self._m

    def __getitem__(self, i):
        """Vector i, or the batch of the vectors of a slice."""
        if isinstance(i, slice):
            at, offsets = _gather(self._offsets, np.arange(self._m)[i])
            rows = np.take(self._rows, at, axis=0)
            return VectorBatch._make(self.group, rows, self._amps[at], offsets)
        i = range(self._m)[i]  # negative i counts from the end; IndexError past it
        lo, hi = self._offsets[i], self._offsets[i + 1]
        rows, amps = self._rows[lo:hi], self._amps[lo:hi]
        return OrliczVector._make(self.group, rows, amps, np.array([0, hi - lo]))

    def __iter__(self):
        return (self[i] for i in range(self._m))

    def deal(self, k: int) -> tuple:
        """k batches, vectors dealt in turn: self[0::k], ..., self[k-1::k]."""
        return tuple(self[i::k] for i in range(k))

    def __repr__(self) -> str:
        return f"VectorBatch({self._m} vectors, {len(self._amps)} points on {self.group!r})"

    def abs_amplitudes(self) -> np.ndarray:
        return modulus(self._amps)

    def _out(self, values: np.ndarray):
        """A reduction's values, one per vector."""
        return values

    def _check(self, other: "VectorBatch") -> Group:
        if self.group != other.group:
            raise GroupMismatchError("vectors live on different groups")
        if self._m != other._m:
            raise InputError(f"batches of {self._m} and {other._m} vectors")
        return self.group

    def _common(self, other: "VectorBatch"):
        """(i, j): the entries of self and of other with equal (vector, row),
        in sorted order."""
        seg = None if self._m == 1 else np.concatenate([self._segments(), other._segments()])
        order, _, head = _sorted_runs(np.concatenate([self._rows, other._rows]), seg)
        second = np.flatnonzero(~head)  # a vector's rows are distinct: runs are pairs, self first
        return order[second - 1], order[second] - len(self._amps)

    def values_at(self, other: "VectorBatch") -> np.ndarray:
        """This batch's amplitude at each stored entry of other (same vector,
        same row), 0 where it has none."""
        self._check(other)
        i, j = other._common(self)
        out = np.zeros(len(other._amps), dtype=complex)
        out[i] = self._amps[j]
        return out

    # -- algebra ---------------------------------------------------------------

    def scale(self, c: complex):
        return self._with(cmul(self._amps, np.complex128(c)))

    def __add__(self, other: "VectorBatch"):
        return self._summed(
            self._check(other),
            np.concatenate([self._rows, other._rows]),
            np.concatenate([self._amps, other._amps]),
            np.concatenate([self._segments(), other._segments()]),
            self._m,
        )

    def __sub__(self, other: "VectorBatch"):
        return self + other.scale(-1.0)

    def _with(self, amps: np.ndarray):
        """These rows with new amplitudes, in the same order; zeros are pruned."""
        return self._distinct(self.group, self._rows, amps, self._offsets)

    def pointwise_mul(self, fn: Callable):
        """Multiply the amplitudes by fn(rows), fn an array function of the
        (n, d) coordinate rows."""
        return self._with(cmul(self._amps, np.asarray(fn(self._rows), dtype=complex)))

    def pointwise_div(self, fn: Callable):
        """Divide the amplitudes by the real fn(rows)."""
        return self._with(cdiv(self._amps, np.asarray(fn(self._rows), dtype=float)))

    def reverse(self):
        """g -> f(g^{-1})."""
        rows = self.group.invert_array(self._rows)
        return self._summed(self.group, rows, self._amps, self._segments(), self._m)

    def abs(self):
        return self._with(modulus(self._amps).astype(complex))

    def l1(self):
        return self._out(_segment_sums(self._segments(), modulus(self._amps), self._m))

    def pairing(self, other: "VectorBatch"):
        """Bilinear pairing sum_s f(s) h(s) -- no complex conjugation."""
        self._check(other)
        i, j = self._common(other)
        terms = cmul(self._amps[i], other._amps[j])
        return self._out(_segment_sums(self._segments()[i], terms, self._m))

    def distance_l1(self, other: "VectorBatch"):
        return (self - other).l1()


class OrliczVector(VectorBatch):
    """Finitely supported complex amplitudes on group elements: the batch
    of one vector.

    The store is an (n, d) int64 array of distinct coordinate rows, in
    lexicographic order, and an (n,) complex array of their nonzero
    amplitudes.  Reductions give one Python number.
    """

    __slots__ = ()

    def __init__(self, group: Group, data: Mapping | Iterable = ()):
        items = data.items() if isinstance(data, Mapping) else data
        rows, amps = [], []
        for g, a in items:
            rows.append(group.element(g))
            amps.append(complex(a))
        # Aliased elements (e.g. (0,) and (7,) on Z_7) sum; exact zeros left
        # after summing are pruned.
        self.group = group
        self._rows, self._amps, self._offsets = _scatter_add(
            group.coords_array(rows), np.array(amps, dtype=complex)
        )

    # -- construction --------------------------------------------------------

    @classmethod
    def zero(cls, group: Group) -> "OrliczVector":
        return cls(group)

    @classmethod
    def delta(cls, group: Group, g, amplitude: complex = 1.0) -> "OrliczVector":
        return cls(group, {group.element(g): amplitude})

    # -- views ---------------------------------------------------------------

    @property
    def support(self) -> tuple:
        return tuple(map(tuple, self._rows.tolist()))

    def __len__(self) -> int:
        """The support size."""
        return len(self._amps)

    def __getitem__(self, i):
        raise TypeError("an OrliczVector is one vector, not a batch: use items() or amplitude()")

    def __iter__(self):
        raise TypeError("an OrliczVector is one vector, not a batch: use items()")

    def __bool__(self) -> bool:
        return len(self) > 0

    def __repr__(self) -> str:
        return f"OrliczVector({len(self)} points on {self.group!r})"

    def amplitude(self, g) -> complex:
        return dict(self.items()).get(g, 0.0 + 0.0j)

    def items(self):
        """(element, amplitude) pairs in support order."""
        return zip(self.support, self._amps.tolist())

    def _out(self, values: np.ndarray):
        return values[0].item()


def random_vectors(group: Group, rng, radius: int, size: int, count: int) -> VectorBatch:
    """A batch of count vectors, each with size distinct support points
    drawn uniformly in the ball (all of it when smaller) and amplitudes
    uniform on [-1,1]^2; rng is a Generator or a seed."""
    rng = np.random.default_rng(rng)
    ball = group.ball_array(radius)
    k = min(size, len(ball))
    idx, parts = np.empty((count, k), dtype=np.int64), np.empty((count, k, 2))
    for i in range(count):
        idx[i] = rng.choice(len(ball), size=k, replace=False)  # distinct rows: nothing to sum
        parts[i] = rng.uniform(-1.0, 1.0, size=(k, 2))
    up = idx.argsort(axis=1)  # the ball is sorted, so its rows in index order are too
    rows = np.take(ball, np.take_along_axis(idx, up, 1).ravel(), axis=0)
    amps = np.take_along_axis(parts.view(complex)[..., 0], up, 1).ravel()  # a + bj, exactly
    return VectorBatch._distinct(group, rows, amps, k * np.arange(count + 1))


def random_vector(
    group: Group, rng: np.random.Generator, radius: int, size: int = 8
) -> OrliczVector:
    """One vector of random_vectors."""
    return random_vectors(group, rng, radius, size, 1)[0]


def amplitude_matrix(vectors) -> np.ndarray:
    """Stack |amplitudes| of many vectors into one zero-padded matrix.

    Rows feed the matrix entry points luxemburg_batch and orlicz_batch,
    which drop the zeros (exact, as Phi(0) = 0), so a padded row's norm
    equals its vector's norm bit for bit.
    """
    width = max((len(v) for v in vectors), default=1)
    out = np.zeros((len(vectors), max(width, 1)))
    for i, v in enumerate(vectors):
        a = v.abs_amplitudes()
        out[i, : a.size] = a
    return out


# ---------------------------------------------------------------------------
# modulars and norms
#
# The solvers take amplitude rows (a, offsets): row i is a[offsets[i]:
# offsets[i + 1]], and no row is empty.  Every modular is one np.add.reduceat
# over a, which sums each row as it would sum that row alone.


def _saturated_sums(terms: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Row sums of nonnegative terms; NaN and overflow saturate to inf.

    Summing first and then mending NaN sums equals mending NaN terms first,
    since the terms are >= 0, and is much cheaper than np.nan_to_num.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.add.reduceat(terms, offsets[:-1])
    sums[np.isnan(sums)] = math.inf
    return sums


def _modulars(phi_fn: Callable, rows) -> Callable:
    """x -> the modulars sum_s Phi(x a_s) of the rows, one scale x per row."""
    a, offsets = rows
    sizes = np.diff(offsets)

    def at(x):
        with np.errstate(over="ignore", invalid="ignore"):
            return _saturated_sums(np.asarray(phi_fn(a * np.repeat(x, sizes)), dtype=float), offsets)

    return at


def _rows(A):
    """(rows, live): the amplitude rows of the nonzero rows, and their mask.

    A is a nonnegative matrix (an np.ndarray), whose zeros are dropped, or
    anything VectorBatch.of takes, whose |amplitudes| keep the batch's
    offsets; anything else (a nested list) raises InputError, as does a
    row holding NaN or an infinity.  A finite row whose sum overflows solves.
    """
    if isinstance(A, np.ndarray):
        A = np.asarray(A, dtype=float)
        keep = A != 0.0
        offsets = np.zeros(len(A) + 1, dtype=np.int64)
        np.cumsum(keep.sum(axis=1), out=offsets[1:])
        A = A[keep]
    else:
        if not isinstance(A, VectorBatch):
            A = list(A) if isinstance(A, Iterable) else [A]
            odd = [type(v).__name__ for v in A if not isinstance(v, VectorBatch)]
            if odd:
                kinds = "an np.ndarray matrix, a VectorBatch, an OrliczVector or a sequence of these"
                raise InputError(f"amplitude rows are {kinds}, not a {odd[0]}")
        A = VectorBatch.of(A)
        A, offsets = A.abs_amplitudes(), A._offsets
    bad = ~np.isfinite(A)
    if bad.any():
        j = np.argmax(bad)
        held = "NaN" if np.isnan(A[j]) else "an infinity"
        raise InputError(f"amplitude row {np.searchsorted(offsets, j, 'right') - 1} holds {held}")
    live = offsets[1:] > offsets[:-1]
    return (A, offsets[np.append(True, live)]), live


def _solved(solve: Callable, k: int, A) -> np.ndarray:
    """The (k, m) values of solve on the m rows of _rows(A); zero rows give 0."""
    rows, live = _rows(A)
    out = np.zeros((k, len(live)))
    if live.any():
        out[:, live] = solve(rows)
    return out


def modular(phi: YoungFunction, f: OrliczVector) -> float:
    """sum_s Phi(|f(s)|), 0 for the zero vector; overflow and NaN saturate
    to inf rather than raising."""
    a = f.abs_amplitudes()
    return float(_modulars(phi.fn, (a, np.array([0, a.size])))(np.ones(1))[0]) if a.size else 0.0


def _gauge(fn: Callable, rows, task: str) -> np.ndarray:
    """The x of each row with sum_s fn(x a_s) = 1, by the shared root finder."""
    return _find_root(_modulars(fn, rows), np.ones(len(rows[1]) - 1), _NORM_CAP, task)


def _luxemburg(phi: YoungFunction, rows) -> np.ndarray:
    return 1.0 / _gauge(phi.fn, rows, "solving for a Luxemburg norm")


def luxemburg_batch(phi: YoungFunction, A) -> np.ndarray:
    """Luxemburg norms of the rows of a nonnegative amplitude matrix, or
    of vectors as VectorBatch.of takes them, each equal to its one-vector
    call bit for bit.

    Zeros are dropped before any solve (Phi(0) = 0, so that is exact), and
    a zero-padded row's norm equals its vector's norm bit for bit.  Each
    row solves modular(x f) = 1 for x = 1/N(f) with the shared root finder:
    it stops at |modular - 1| <= 1e-12 (or a bracket 1e-14 x wide), raises
    BracketOverflowError for a norm below 1e-300 and
    SolverCapError when it runs out of steps.  A row holding NaN or an
    infinity raises InputError before any solve.
    """
    return _solved(lambda rows: _luxemburg(phi, rows), 1, A)[0]


def luxemburg_norm(phi: YoungFunction, f: OrliczVector) -> float:
    """inf { k > 0 : modular(f / k) <= 1 }; 0 for the zero vector."""
    return float(luxemburg_batch(phi, f)[0])


def _stationarity_batch(pair: ComplementaryPair, rows):
    """(Orlicz norms, multipliers mu) of amplitude rows (a, offsets) via
    the dual optimizer v = dens(mu |f|).

    mu = 1/lam is the gauge of Psi(dens(.)): the root of the binding
    constraint sum Psi(dens(mu a_s)) = 1.  When Psi is numeric (a
    conjugate), Psi(dens(w)) is evaluated through the equality case of
    the Young inequality, Psi(dens(w)) = w*dens(w) - Phi(w), which is
    exactly what the numeric conjugate would return at these points,
    minus its redundant inner root-find.
    """
    a, offsets = rows
    phi_fn, psi_fn = pair.phi.fn, pair.psi.fn
    dens = pair.phi.derivative_or_numeric()

    def psi_of_dens(w):
        v = np.asarray(dens(w), dtype=float)
        return w * v - np.asarray(phi_fn(w), dtype=float) if pair.psi.numeric else psi_fn(v)

    mu = _gauge(psi_of_dens, rows, "solving the stationarity constraint")
    with np.errstate(over="ignore", invalid="ignore"):  # _orlicz raises on an overflowed norm
        v = np.asarray(dens(a * np.repeat(mu, np.diff(offsets))), dtype=float)
        return np.add.reduceat(a * v, offsets[:-1]), mu


def _amemiya_batch(pair: ComplementaryPair, rows, centre: np.ndarray) -> np.ndarray:
    """Orlicz norms of amplitude rows (a, offsets) as
    min_k (1 + modular(Phi, k f)) / k by golden section.

    The objective is the perspective of a convex function, hence unimodal,
    and its stationary point solves sum Psi(dens(k |f|)) = 1 (the Young
    equality), so its minimizer is the mu of _stationarity_batch, passed as
    centre c.  Each row searches [c/(1+d), c(1+d)] with d = 1e-6, and d
    grows 256-fold for each row whose minimizer lies within 5% of its
    bracket's log-width from an edge, at most 8 times before
    SolverCapError.  Every round searches every row in its own bracket;
    rows solve alone, so a row that did not widen finds its minimizer
    again bit for bit.  A wrong centre only widens the search; it cannot
    move the minimum found.  Every h evaluates pair.phi.fn, a numeric Phi
    solving its maximizers cold.
    """
    modulars = _modulars(pair.phi.fn, rows)

    def h(k):
        with np.errstate(over="ignore"):  # subnormal k for norms near 1e308
            return (1.0 + modulars(k)) / k

    delta = np.full(len(centre), _AMEMIYA_DELTA)
    for _ in range(_AMEMIYA_EXPANSIONS):
        grow = 1.0 + delta
        lo, hi, edge = centre / grow, centre * grow, grow**0.1
        k = _golden_min(h, lo, hi, "minimizing the Amemiya objective")
        pinned = (k < lo * edge) | (k > hi / edge)
        if not pinned.any():
            return h(k)
        delta[pinned] *= 256.0
    raise SolverCapError("bracketing the Amemiya minimum", _AMEMIYA_EXPANSIONS)


def _orlicz(pair: ComplementaryPair, rows):
    """(norms, agreement gaps) of amplitude rows.

    Each norm is the larger of the stationarity and minimization values;
    their relative gap beyond 1e-5, or a NaN gap, is an implementation
    fault and raises.  A stationarity norm past the largest double raises
    BracketOverflowError before the minimization.
    """
    stat, mu = _stationarity_batch(pair, rows)
    over = ~np.isfinite(stat)
    if over.any():
        raise BracketOverflowError(float(stat[over][0]), float(_MAX_DOUBLE), "taking an Orlicz norm")
    amem = _amemiya_batch(pair, rows, mu)
    rel = np.abs(stat - amem) / np.maximum(np.maximum(stat, amem), 1e-300)
    if not np.max(rel) <= _AGREEMENT_LIMIT:
        i = int(np.argmax(rel))  # the first NaN, if any
        raise MethodDisagreementError(float(stat[i]), float(amem[i]), float(rel[i]), _AGREEMENT_LIMIT)
    return np.maximum(stat, amem), rel


def orlicz_batch(pair: ComplementaryPair, A):
    """(norms, agreement gaps) for the rows of a nonnegative amplitude
    matrix, its zeros dropped as luxemburg_batch drops them, or for
    vectors as VectorBatch.of takes them, each column equal to its
    one-vector call bit for bit.

    A row holding NaN or an infinity raises InputError before any solve,
    and a row whose norm passes the largest double BracketOverflowError.
    """
    return _solved(lambda rows: _orlicz(pair, rows), 2, A)


def orlicz_gauges(pair: ComplementaryPair, vectors) -> np.ndarray:
    """(norms, agreement gaps, Luxemburg norms N_Phi) of the vectors as the
    rows of a (3, len(vectors)) array, each column equal to its vector's
    one-vector call bit for bit."""
    return _solved(lambda rows: (*_orlicz(pair, rows), _luxemburg(pair.phi, rows)), 3, vectors)


def orlicz_norm(pair: ComplementaryPair, f: OrliczVector) -> float:
    return float(orlicz_batch(pair, f)[0][0])


def holder_gaps(pair: ComplementaryPair, fs, gs) -> np.ndarray:
    """min{ N_Phi(f) |g|_Psi , |f|_Phi N_Psi(g) } - sum |f g| for each f of fs
    and the g of gs at the same place; >= 0 in exact math."""
    fs, gs = VectorBatch.of(fs), VectorBatch.of(gs)
    of, _, nf = orlicz_gauges(pair, fs)
    og, _, ng = orlicz_gauges(pair.flip(), gs)  # N_Psi is the flip's gauge
    terms = modulus(cmul(fs._amps, gs.values_at(fs)))  # |f(s) g(s)| over supp f, in order
    return np.minimum(nf * og, of * ng) - _segment_sums(fs._segments(), terms, fs._m)


def weighted_norms(pair: ComplementaryPair, w: Weight, vectors) -> np.ndarray:
    """Orlicz norms of the pointwise products f * w (the weighted-space norms)."""
    return orlicz_batch(pair, VectorBatch.of(vectors, w.group).pointwise_mul(w.at))[0]


# ---------------------------------------------------------------------------
# membership diagnostic


@dataclass(frozen=True)
class MembershipReport:
    """Partial sums of sum_{B_R} Psi(alpha h) and a heuristic verdict per alpha.

    Verdicts: "converging" when the partial sums flatten and the last
    shell contributes a vanishing fraction, "diverging" when they keep
    growing about linearly or faster in the radius, "inconclusive"
    otherwise.  Finite-radius evidence only.
    """

    rows: tuple  # (alpha, radius, partial_sum)
    verdicts: dict


def membership_diagnostic(
    group: Group,
    psi: YoungFunction,
    h: Callable,
    alphas: Sequence[float],
    radii: Sequence[int],
) -> MembershipReport:
    """h maps the (n, d) coordinate rows of the largest ball to their values."""
    radii = [int(r) for r in radii]
    if any(b >= a for a, b in zip(radii[1:], radii)):
        raise InputError("radii must be strictly increasing")
    X = group.ball_array(radii[-1])
    tau = group.tau_array(X)
    hv = np.asarray(h(X), dtype=float)
    if np.any(hv < 0.0):
        raise InputError("membership diagnostic needs h >= 0")
    rows = []
    verdicts = {}
    for alpha in alphas:
        with np.errstate(over="ignore"):
            terms = np.asarray(psi(alpha * hv), dtype=float)
        sums = np.array([terms[tau <= r].sum() for r in radii])
        for r, s in zip(radii, sums):
            rows.append((float(alpha), r, float(s)))
        verdicts[float(alpha)] = _verdict(np.array(radii, dtype=float), sums, group)
    return MembershipReport(tuple(rows), verdicts)


def _verdict(radii: np.ndarray, sums: np.ndarray, group: Group) -> str:
    inc = np.diff(sums, prepend=0.0)
    if group.is_finite() and inc[-1] == 0.0:
        return "converging"
    if np.all(sums <= 0.0):
        return "converging"
    half = max(2, len(radii) // 2)
    with np.errstate(divide="ignore"):
        slope = np.polyfit(np.log(radii[-half:]), np.log(np.maximum(sums[-half:], 1e-300)), 1)[0]
    tail_fraction = inc[-1] / max(sums[-1], 1e-300)
    if slope <= 0.2 and tail_fraction <= 0.01 and inc[-1] <= inc[-2] + 1e-300:
        return "converging"
    if slope >= 0.5 or (len(inc) >= 3 and inc[-1] >= inc[-2] >= inc[-3] > 0.0):
        return "diverging"
    return "inconclusive"
