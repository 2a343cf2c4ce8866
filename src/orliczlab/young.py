"""Young-function calculus.

A Young function here is a continuous, strictly increasing, convex
Phi: [0, inf) -> [0, inf) with Phi(0) = 0 and Phi(x) -> inf.  Two Young
functions Phi, Psi are complementary when

    Psi(y) = sup { x*y - Phi(x) : x >= 0 },

which implies the Young inequality x*y <= Phi(x) + Psi(y) with equality
exactly at y = Phi'(x).  This module provides:

- numeric convex conjugation (conjugate), with the derivative of the
  conjugate recovered from the maximizer;
- the density construction Phi(x) = int_0^x gen, by adaptive composite
  Simpson quadrature, with Psi its numeric conjugate (build_from_generator);
- the Delta_2 diagnostic sup_x Phi(2x)/Phi(x) (delta2_estimate);
- strong-equivalence witnesses Phi1(a x) <= Phi2(x) <= Phi1(b x)
  (strong_equivalence);
- a catalog of complementary pairs: pnorm:<p>, xlog, cosh, expm.

Evaluators are plain callables that accept a float or a numpy array and
are pure; everything here is immutable after construction and safe to
share across workers (a numeric conjugate fills its density table at its
first solve, and any worker that fills it fills it with the same values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BracketOverflowError,
    InputError,
    InvariantViolationError,
    NonMonotoneGeneratorError,
    SolverCapError,
)

__all__ = [
    "Tolerances",
    "YoungFunction",
    "ComplementaryPair",
    "conjugate",
    "build_from_generator",
    "young_gap",
    "delta2_estimate",
    "strong_equivalence",
    "validate_young",
    "catalog_pair",
    "catalog_names",
    "pnorm_pair",
]


@dataclass(frozen=True)
class Tolerances:
    """Default comparison tolerances: absolute plus relative slack."""

    absolute: float = 1e-9
    relative: float = 1e-6

    def leq(self, a, b) -> bool:
        """a <= b up to the combined slack (elementwise-and for arrays)."""
        return bool(np.all(a <= b + self.absolute + self.relative * np.abs(b)))

    def slack(self, b):
        return self.absolute + self.relative * np.abs(b)


# the density-integral construction: monotonicity probe grid, quadrature
# tolerance and panel doublings, and the maximizer cap of the conjugate
_PROBE_GRID = np.logspace(-3, 2, 41)
_QUAD_TOL = 1e-10
_MAX_PANEL_DOUBLINGS = 22
_INVERSE_CAP = 1e9


@dataclass(frozen=True)
class YoungFunction:
    """An evaluable Young function.

    fn maps nonnegative reals (scalar or ndarray) to nonnegative reals.
    derivative, when present, is the density gen with Phi(x) = int_0^x gen.
    numeric marks a numeric conjugate, each value of which is a solve.
    """

    fn: Callable
    name: str
    derivative: Optional[Callable] = None
    numeric: bool = False

    def __call__(self, x):
        return self.fn(x)

    def derivative_or_numeric(self) -> Callable:
        """The density, falling back to a one-sided/central difference."""
        if self.derivative is not None:
            return self.derivative
        fn = self.fn

        def numdiff(x):
            x = np.asarray(x, dtype=float)
            h = np.maximum(1e-7 * np.maximum(x, 1.0), 1e-9)
            lo = np.maximum(x - h, 0.0)
            return (fn(x + h) - fn(lo)) / (x + h - lo)

        return numdiff


@dataclass(frozen=True)
class ComplementaryPair:
    """A Young function together with its complementary partner.

    Either member may be a numeric conjugate (marked numeric by
    conjugate); the norm code reads that mark where it can route a
    numeric Psi through the closed-form Phi (the stationarity solve).
    """

    phi: YoungFunction
    psi: YoungFunction

    def flip(self) -> "ComplementaryPair":
        return ComplementaryPair(self.psi, self.phi)


# ---------------------------------------------------------------------------
# scalar/array helpers


def _as_1d(x):
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    return arr, np.ndim(x) == 0


def _restore(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


# ---------------------------------------------------------------------------
# the shared solvers: every root and every minimum in the package (conjugate
# maximizers, Luxemburg gauges, stationarity multipliers, Amemiya minima)
# goes through _find_root or _golden_min, elementwise on arrays of any shape.

_MAX_STEPS = 200
_ROOT_RTOL = 1e-12  # converged once |f - t| <= _ROOT_RTOL * t ...
_ROOT_ATOL = math.ulp(0.0)  # ... or one subnormal step, where that underflows (t below 5e-312)
_WIDTH_RTOL = 1e-14  # ... or once the bracket is this wide relative to x
_GOLDEN_RTOL = math.sqrt(np.finfo(float).eps)  # a golden search stops this wide relative to b
_STEEP_RTOL = 1e-6  # a collapsed bracket must still be this close (a jump is not)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MIN_EXP = -1022  # 2**_MIN_EXP is the smallest normal double
_ITP_K1 = 0.2  # the ITP truncation is 0.2 w^2 / w0 (kappa1 = 0.2 / w0, kappa2 = 2)
_POWERS = np.concatenate([[0.0], np.ldexp(1.0, np.arange(_MIN_EXP, 1024))])  # 0, then 2^-1022 up


def _bracket(f: Callable, t: np.ndarray, cap: float, task: str, table=None):
    """Per element (lo, hi, f(lo), f(hi)) with f(lo) <= t <= f(hi), for increasing f, f(0) = 0.

    The bracket is [2^(e-1), 2^e], the one that doubling or halving [1, 2]
    one step at a time reaches: where f(2) < t, 2^e is the first power of
    two upward from 2 with f(2^e) >= t, else 2^(e-1) is the first one
    downward from 1 with f(2^(e-1)) <= t.  Elements with t <= 0 keep
    [1, 2].

    With a table (_density_table: f at every power of two up to the cap,
    nondecreasing, no NaN) each element reads e from it by a binary
    search, without calling f.  Otherwise (row solves, and densities
    without a table) each element finds e by galloping away from 2, its
    step in the exponent doubling at every probe, and then bisecting the
    exponent between its last two probes: O(log e) evaluations of f
    instead of e, with all elements probing in the same calls of f.  On a
    nondecreasing f both find the one crossing of t, so they give the
    same bracket and end values bit for bit.

    - An element with f(2^k) < t at the largest 2^k <= cap raises
      BracketOverflowError, naming the first such t.
    - The downward search needs no floor, since f(0) = 0 <= t: below the
      smallest normal double lo falls back to 0.
    - A galloping probe may lie far past the bracket.  If f raises a
      solver error there (a nested solve past its own cap, or out of
      steps), the search steps one exponent at a time from then on, so
      it probes only where single steps would.

    f(lo) and f(hi) are the values f took at the probes; f(lo) reads 0
    where lo = 0 and where t <= 0 (f(1) is not probed there).  All four
    arrays are fresh: the root finder updates them in place.
    """
    if table is not None:
        return _read_bracket(table, t, cap, task)
    top = math.frexp(cap)[1] - 1  # the largest k with 2^k <= cap
    fb = np.array(f(np.full(t.shape, 2.0)), dtype=float)  # a copy: the root finder updates it
    up = fb < t  # never true where t <= 0, as f >= 0
    # f(2^a) is below t and f(2^b) above it; a = _MIN_EXP - 1 stands for
    # lo = 0 and b = top + 1 for past the cap, neither of them probed
    a = np.where(up, 1, np.where(t > 0.0, _MIN_EXP - 1, 0)).astype(np.int16)
    b = np.where(up, top + 1, 1).astype(np.int16)
    fa = np.where(up, fb, 0.0)
    single = False  # step one exponent at a time
    while True:
        over = up & (a >= top)
        if over.any():
            raise BracketOverflowError(float(t[over][0]), cap, task)
        left = b - a > 1
        if not left.any():
            return np.where(a < _MIN_EXP, 0.0, np.ldexp(1.0, a)), np.ldexp(1.0, b), fa, fb
        rise, fall = left & (b > top), left & (a < _MIN_EXP)  # galloping up, down
        if single:
            p = np.where(rise, a + 1, np.where(fall, b - 1, (a + b) >> 1))
        else:
            p = np.where(
                rise,
                np.minimum(np.maximum(2 * a - 1, a + 1), top),
                np.where(fall, np.maximum(np.minimum(2 * b - 1, b - 1), _MIN_EXP), (a + b) >> 1),
            )
        p = np.where(left, p, b)  # settled elements repeat a probe they passed
        try:
            fp = np.asarray(f(np.ldexp(1.0, p)), dtype=float)
        except (BracketOverflowError, SolverCapError):
            if single or not (rise | fall).any():
                raise
            single = True
            continue
        high = left & np.where(up, ~(fp < t), fp > t)
        low = left & ~high
        a, fa = np.where(low, p, a), np.where(low, fp, fa)
        b, fb = np.where(high, p, b), np.where(high, fp, fb)


def _density_table(f: Callable, cap: float):
    """f at 2^p for p = -1022, ..., the largest p with 2^p <= cap, for
    _bracket to read; None where such a table cannot stand in for its
    gallop: a cap below 2, or an f that raises a solver error on the
    table (a nested solve past its own cap), gives NaN on it or decreases
    somewhere on it."""
    top = math.frexp(cap)[1] - 1
    if top < 1:
        return None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            table = np.asarray(f(np.ldexp(1.0, np.arange(_MIN_EXP, top + 1))), dtype=float)
    except (BracketOverflowError, SolverCapError):
        return None
    if np.isnan(table).any() or (table[1:] < table[:-1]).any():
        return None
    return table


def _read_bracket(table: np.ndarray, t: np.ndarray, cap: float, task: str):
    """_bracket read from a _density_table, in which index i holds f(2^(i - 1022)).

    e below is the index of hi; lo is 0 where e = 0.  One binary search
    finds the first f(hi) >= t: the bracket upward from 2, and downward
    the first f(hi) > t unless f(hi) = t.  Only targets equal to their
    entry (the table may have plateaus) search again, for f(hi) > t.
    """
    two = 1 - _MIN_EXP  # the index of f(2)
    e, live = np.searchsorted(table, t), t > 0.0
    over = (e == len(table)) & live  # NaN targets sort past the end
    if over.any():
        raise BracketOverflowError(float(t[over][0]), cap, task)
    flat = (e < two) & (table[np.minimum(e, two)] == t)
    if flat.any():
        e[flat] = np.minimum(np.searchsorted(table, t[flat], "right"), two)
    e[~live] = two
    flo = table[e - 1]
    flo[~live | (e == 0)] = 0.0
    return _POWERS[e], _POWERS[e + 1], flo, table[e]


def _itp_probe(t, lo, hi, flo, fhi, w0, j: int) -> np.ndarray:
    """The ITP probe at step j of each bracket [lo, hi] for f = t, of width
    w and initial width w0.

    Interpolate: the regula falsi point, its fraction of the bracket
    clipped to [0, 1] (a NaN fraction, from an overflowed or NaN f, reads
    0).  Truncate: move it toward the midpoint by 0.2 w^2 / w0.  Project:
    keep it within w0 2^-j - w/2 of the midpoint.
    """
    w = hi - lo
    x = lo + hi
    x *= 0.5
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = np.subtract(t, flo)
        d /= fhi - flo
    np.fmax(d, 0.0, out=d)
    np.fmin(d, 1.0, out=d)
    d *= w
    d += lo
    np.subtract(x, d, out=d)  # midpoint - regula falsi point
    step = np.abs(d)
    step -= w / w0 * w * _ITP_K1
    np.minimum(step, w0 * 0.5**j - 0.5 * w, out=step)
    np.maximum(step, 0.0, out=step)
    x -= np.copysign(step, d, out=step)
    return x


def _find_root(f: Callable, targets, cap: float, task: str, table=None) -> np.ndarray:
    """Solve f(x) = t per element for increasing f with f(0) = 0; t <= 0 gives 0.

    Brackets every element itself with _bracket (read from table, a
    _density_table of f, when given), then takes ITP steps (interpolate,
    truncate, project: Oliveira and Takahashi, ACM TOMS 47(1), 2020, with
    kappa1 = 0.2 / w0, kappa2 = 2 and n0 = 1).  Step j probes the regula
    falsi point of the bracket [lo, hi], moved toward the midpoint by
    0.2 w^2 / w0 and kept within w0 2^-j - w/2 of it, for the bracket
    width w and its initial width w0.  A smooth f converges
    superlinearly, and after step j the bracket is at most w0 2^-j wide,
    so no element takes more steps than bisection would, bar one.

    Each element's root is its probe at the first step where that
    element has |f - t| <= 1e-12 t (or <= 5e-324, one subnormal step, where
    1e-12 t underflows below it), or a bracket 1e-14 x wide with
    |f - t| <= 1e-6 t (a steep f); the loop ends once every element has
    one.  So an element's root does not depend on the other elements,
    when f acts elementwise.  A jump across t meets neither, so a
    discontinuous f (or a NaN target) runs out of steps and raises
    SolverCapError rather than returning a probe.
    """
    t = np.asarray(targets, dtype=float)
    dead = t <= 0.0
    root_tol = np.where(dead, np.inf, np.maximum(_ROOT_RTOL * t, _ROOT_ATOL))
    lo, hi, flo, fhi = _bracket(f, t, cap, task, table)
    root = np.zeros(t.shape)
    if not t.size:
        return root
    w0 = hi - lo
    todo = np.ones(t.shape, dtype=bool)  # elements yet to converge
    for j in range(_MAX_STEPS):
        x = _itp_probe(t, lo, hi, flo, fhi, w0, j)
        fx = f(x)
        err = np.abs(fx - t)
        steep = (hi - lo <= _WIDTH_RTOL * lo) & (err <= _STEEP_RTOL * t)
        now = (steep | (err <= root_tol)) & todo
        if now.any():
            np.copyto(root, x, where=now)
            todo &= ~now
            if not todo.any():
                return np.where(dead, 0.0, root)
        below = fx < t
        np.copyto(lo, x, where=below)
        np.copyto(flo, fx, where=below)
        np.logical_not(below, out=below)
        np.copyto(hi, x, where=below)
        np.copyto(fhi, fx, where=below)
    raise SolverCapError(task, _MAX_STEPS)


def _golden_min(h: Callable, a, b, task: str) -> np.ndarray:
    """Minimize a unimodal h per element on [a, b] by golden section.

    Keeps one interior point x and probes the other golden point of
    [a, b], recomputed from the ends so rounding cannot drift it; each step
    costs one evaluation of h.  Each element's minimizer is its midpoint at
    the first step where its own b - a <= sqrt(eps) b (1.5e-8 b): h is
    flat to second order there, so narrower brackets are decided by
    rounding (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 5).  The loop ends once every element has one, and 200
    steps without that raise SolverCapError.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    x = a + _INVPHI * (b - a)
    fx = h(x)
    x_right = np.ones(x.shape, dtype=bool)  # x is the right golden point
    best = np.zeros(x.shape)
    if not x.size:
        return best
    todo = np.ones(x.shape, dtype=bool)  # elements yet to converge
    for _ in range(_MAX_STEPS):
        width = b - a
        now = (width <= _GOLDEN_RTOL * b) & todo
        if now.any():
            np.copyto(best, 0.5 * (a + b), where=now)
            todo &= ~now
            if not todo.any():
                return best
        u = np.where(x_right, b - _INVPHI * width, a + _INVPHI * width)
        fu = h(u)
        # keep [a, max(x, u)] when the left point is no worse (ties, such
        # as two overflowed values, go left), else [min(x, u), b]; the
        # better point then sits right or left in the kept interval
        keep_left = np.where(x_right, fu <= fx, fx <= fu)
        better = keep_left == x_right
        a = np.where(keep_left, a, np.minimum(x, u))
        b = np.where(keep_left, np.maximum(x, u), b)
        x = np.where(better, u, x)
        fx = np.where(better, fu, fx)
        x_right = keep_left
    raise SolverCapError(task, _MAX_STEPS)


# ---------------------------------------------------------------------------
# conjugation


def conjugate(phi: YoungFunction, cap: float = 1e3) -> YoungFunction:
    """The complementary function y -> sup_x (x*y - Phi(x)).

    When phi carries a density the supremum is located by solving
    gen(x) = y with the shared root finder; otherwise by golden section on
    x*y - Phi(x), bracketed in [x, 4x] where the chord slope
    (Phi(2x) - Phi(x))/x crosses y.  Both solve all y > 0 in one
    vectorized call, give NaN at NaN without a solve, and 0 at the rest.
    The maximizer is bracketed in [2^(e-1), 2^e], and a bracket that grows
    past cap raises BracketOverflowError naming the offending y and the
    cap; the stop rules are the norm solvers'.

    A density is evaluated once, at the first solve, at every power of
    two from 2^-1022 to the cap (at most 2046 values, kept by this
    conjugate), and every solve reads its brackets from that table
    instead of galloping.  Where the table cannot stand in (the density
    raises a solver error on it, as a nested conjugate's maximizer does
    past its own cap, or gives NaN, or decreases somewhere) the solves
    gallop; the brackets, and so the values, are the same either way.

    The returned function carries the maximizer as its derivative, which
    is exact for conjugates of smooth strictly convex functions, and is
    marked numeric.
    """
    gen = phi.derivative
    fn = phi.fn

    if gen is not None:
        tables = []  # the density table, built at the first solve (None: gallop)

        def solve(y):
            if not tables:
                tables.append(_density_table(gen, cap))
            return _find_root(gen, y, cap, "conjugating", table=tables[0])

    else:

        def chord_slope(x):
            return (np.asarray(fn(2.0 * x), dtype=float) - np.asarray(fn(x), dtype=float)) / x

        def solve(y):
            # By convexity Phi'(x) <= chord_slope(x) <= Phi'(2x), so a chord
            # bracket chord_slope(x) <= y <= chord_slope(2x) puts the
            # maximizer in [x, 4x].
            lo, hi, _, _ = _bracket(chord_slope, y, cap, "conjugating")
            return _golden_min(
                lambda u: np.asarray(fn(u), dtype=float) - u * y, lo, 2.0 * hi, "conjugating"
            )

    def maximizer(y):
        # entries solve alone, so solving only y > 0 changes no bit
        arr, scalar = _as_1d(y)
        xs, live = np.where(np.isnan(arr), np.nan, 0.0), arr > 0.0
        if live.any():
            xs[live] = solve(arr[live])
        return _restore(xs, scalar)

    def value(y):
        arr, scalar = _as_1d(y)
        xs = np.atleast_1d(np.asarray(maximizer(arr), dtype=float))
        vals = xs * arr - np.asarray(fn(xs), dtype=float)
        vals = np.maximum(vals, 0.0)  # sup includes x = 0
        return _restore(vals, scalar)

    return YoungFunction(fn=value, name=f"conj({phi.name})", derivative=maximizer, numeric=True)


def young_gap(pair: ComplementaryPair, x, y):
    """Phi(x) + Psi(y) - x*y; nonnegative for complementary pairs."""
    return pair.phi(x) + pair.psi(y) - np.asarray(x, dtype=float) * np.asarray(y, dtype=float)


# ---------------------------------------------------------------------------
# density construction


def _simpson(fn: Callable, a: float, b: float, panels: int) -> float:
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = np.asarray(fn(xs), dtype=float)
    h = (b - a) / (2 * panels)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1::2].sum() + 2.0 * ys[2:-1:2].sum()))


def _simpson_adaptive(fn: Callable, b: float) -> float:
    """int_0^b fn by composite Simpson with panel halving to _QUAD_TOL."""
    if b <= 0.0:
        return 0.0
    panels = 8
    prev = _simpson(fn, 0.0, b, panels)
    for _ in range(_MAX_PANEL_DOUBLINGS):
        panels *= 2
        cur = _simpson(fn, 0.0, b, panels)
        if abs(cur - prev) < _QUAD_TOL * (1.0 + abs(cur)):
            return cur
        prev = cur
    return prev


def build_from_generator(phi_gen: Callable) -> ComplementaryPair:
    """Build a complementary pair from a strictly increasing density.

    Phi(x) = int_0^x gen, and Psi = conjugate(Phi), whose maximizer solves
    gen(x) = y: Psi(y) = y gen^{-1}(y) - Phi(gen^{-1}(y)), which equals
    int_0^y gen^{-1} by the Young equality.  The density is probed for
    strict monotonicity on the probe grid first; a violation raises with
    the offending sample pair.
    """
    vals = np.asarray(phi_gen(_PROBE_GRID), dtype=float)
    if abs(float(phi_gen(0.0))) > 1e-12:
        raise InputError(f"generator must vanish at 0, got {phi_gen(0.0)!r}")
    worse = np.nonzero(np.diff(vals) <= 0.0)[0]
    if worse.size:
        i = int(worse[0])
        raise NonMonotoneGeneratorError(
            float(_PROBE_GRID[i]), float(_PROBE_GRID[i + 1]), float(vals[i]), float(vals[i + 1])
        )

    def phi_fn(x):
        arr, scalar = _as_1d(x)
        out = np.array([_simpson_adaptive(phi_gen, xi) for xi in arr])
        return _restore(out, scalar)

    phi = YoungFunction(fn=phi_fn, name="built", derivative=phi_gen)
    return ComplementaryPair(phi, conjugate(phi, _INVERSE_CAP))


# ---------------------------------------------------------------------------
# diagnostics


def validate_young(
    phi: YoungFunction,
    grid: Sequence[float] | None = None,
    tol: Tolerances | None = None,
) -> None:
    """Check the Young-function invariants on a sampled grid.

    Verifies Phi(0) = 0, strict increase, midpoint convexity within
    tolerance, and finiteness; raises InvariantViolationError otherwise.
    """
    tol = tol or Tolerances()
    xs = np.asarray(grid if grid is not None else np.logspace(-3, 2, 41), dtype=float)
    if abs(float(phi(0.0))) > tol.absolute:
        raise InvariantViolationError(f"{phi.name}: value at 0 is {phi(0.0)!r}")
    vals = np.asarray(phi(xs), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise InvariantViolationError(f"{phi.name}: non-finite value on grid")
    if np.any(np.diff(vals) <= 0.0):
        i = int(np.nonzero(np.diff(vals) <= 0.0)[0][0])
        raise InvariantViolationError(
            f"{phi.name}: not strictly increasing between {xs[i]!r} and {xs[i + 1]!r}"
        )
    mids = np.asarray(phi(0.5 * (xs[:-1] + xs[1:])), dtype=float)
    chords = 0.5 * (vals[:-1] + vals[1:])
    if not tol.leq(mids, chords):
        i = int(np.argmax(mids - chords))
        raise InvariantViolationError(
            f"{phi.name}: convexity fails near x={0.5 * (xs[i] + xs[i + 1])!r}"
        )


@dataclass(frozen=True)
class Delta2Result:
    """Outcome of the doubling diagnostic sup_x Phi(2x)/Phi(x)."""

    bounded: bool
    constant: Optional[float]
    grid: np.ndarray
    ratios: np.ndarray


def delta2_estimate(
    phi: YoungFunction, log_grid: Sequence[float] | None = None
) -> Delta2Result:
    """Estimate the doubling constant K with Phi(2x) <= K*Phi(x).

    Requires a grid spanning at least 6 decades.  Returns the supremum of
    the ratio when it stays bounded across the grid, or the diverging
    ratio sequence as evidence otherwise.
    """
    grid = np.asarray(
        log_grid if log_grid is not None else np.logspace(-4, 4, 161), dtype=float
    )
    if grid[0] <= 0.0 or np.log10(grid[-1] / grid[0]) < 6.0 - 1e-9:
        raise InputError("log grid must be positive and span at least 6 decades")
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.asarray(phi(grid), dtype=float)
        if np.any(base <= 0.0):
            i = int(np.argmax(base <= 0.0))
            raise InvariantViolationError(
                f"{phi.name}: vanishes at nonzero grid point x={grid[i]!r}"
            )
        ratios = np.asarray(phi(2.0 * grid), dtype=float) / base
    # Divergence evidence: a ratio overflowed outright, or the tail ratio
    # dwarfs everything seen in the lower half of the grid.
    if not np.all(np.isfinite(ratios)):
        return Delta2Result(False, None, grid, ratios)
    head = float(np.max(ratios[: len(ratios) // 2]))
    if float(ratios[-1]) > 1e3 * head:
        return Delta2Result(False, None, grid, ratios)
    return Delta2Result(True, float(np.max(ratios)), grid, ratios)


@dataclass(frozen=True)
class EquivalenceResult:
    """Witness (a, b) with Phi1(a x) <= Phi2(x) <= Phi1(b x), or the failure."""

    found: bool
    a: Optional[float] = None
    b: Optional[float] = None
    failing_candidate: Optional[float] = None
    failing_x: Optional[float] = None
    gap: Optional[float] = None


def _candidate_rows(phi: YoungFunction, cands: np.ndarray, xs: np.ndarray) -> list:
    """Per candidate c, phi(c xs) or the solver error phi raises on it alone.

    All candidates go to phi in one call; a block that raises a solver
    error is halved until each raising candidate stands alone, keeping its
    exception.  phi acts elementwise, so each row equals its own call.
    """
    rows = [None] * len(cands)

    def fill(lo: int, hi: int) -> None:
        args = cands[lo:hi, None] * xs
        try:
            with np.errstate(over="ignore"):
                rows[lo:hi] = np.asarray(phi(args.ravel()), dtype=float).reshape(args.shape)
        except (BracketOverflowError, SolverCapError) as err:
            if hi - lo == 1:
                rows[lo] = err
                return
            mid = (lo + hi) // 2
            fill(lo, mid)
            fill(mid, hi)

    fill(0, len(cands))
    return rows


def strong_equivalence(
    phi1: YoungFunction,
    phi2: YoungFunction,
    grid: Sequence[float] | None = None,
    tol: Tolerances | None = None,
) -> EquivalenceResult:
    """Search scale witnesses making phi1 and phi2 strongly equivalent.

    Candidates run over quarter powers of two (so exact values like 1 and
    2^{-1/2} are representable).  a is the largest candidate with
    Phi1(a x) <= Phi2(x) on the whole grid, b the smallest with
    Phi2(x) <= Phi1(b x); failure reports the nearest candidate and its
    worst grid point, or gap inf with no candidate when every candidate
    overflows.

    Phi1 is evaluated at every candidate in one call (a block that raises
    a solver error is halved until each raising candidate stands alone),
    and both searches then scan these rows in candidate order.  A
    candidate whose conjugation bracket overflows fails; any other error
    is raised when a search reaches its candidate, and not at all past
    the candidates where both searches stop.
    """
    tol = tol or Tolerances()
    xs = np.asarray(grid if grid is not None else np.logspace(-3, 3, 61), dtype=float)
    with np.errstate(over="ignore"):
        v2 = np.asarray(phi2(xs), dtype=float)
    cands = 2.0 ** (np.arange(-60, 61) / 4.0)
    rows = list(zip(map(float, cands), _candidate_rows(phi1, cands, xs)))

    def first_pass(order, lower: bool):
        """The first candidate c that passes, else None, and the best failure
        as (gap, c, worst grid index).  The gap is the max violation of
        Phi1(c x) <= Phi2(x) (lower) or Phi2(x) <= Phi1(c x); <= 0 passes.
        A blown conjugation bracket means phi1(c x) is astronomically large,
        so the candidate simply fails."""
        best = (np.inf, None, None)
        for c, v1 in order:
            if isinstance(v1, BracketOverflowError):
                continue
            if isinstance(v1, Exception):
                raise v1
            diff, slack = (v1 - v2, tol.slack(v2)) if lower else (v2 - v1, tol.slack(v1))
            gap = float(np.max(diff - slack))
            if gap <= 0.0:
                return c, best
            if gap < best[0]:
                best = (gap, c, int(np.argmax(diff)))
        return None, best

    a_star, best_a = first_pass(rows[::-1], True)
    b_star, best_b = first_pass(rows, False)
    if a_star is not None and b_star is not None and a_star <= b_star:
        return EquivalenceResult(True, a_star, b_star)
    gap, cand, worst = best_a if a_star is None else best_b
    return EquivalenceResult(
        False, failing_candidate=cand, failing_x=None if worst is None else float(xs[worst]), gap=gap
    )


# ---------------------------------------------------------------------------
# catalog

# Numeric partners of the exp-type entries need enormous maximizers
# (for Phi = x*ln(1+x) the optimum at y sits near e^{y-1}), so catalog
# conjugates get a much larger bracket cap than the 1e3 default.
_CATALOG_CAP = 1e200


def _pnorm_fn(p: float) -> YoungFunction:
    def fn(x):
        x = np.asarray(x, dtype=float)
        return x**p / p

    def deriv(x):
        x = np.asarray(x, dtype=float)
        return x ** (p - 1.0)

    return YoungFunction(fn=fn, name=f"pnorm:{p:g}", derivative=deriv)


def pnorm_pair(p: float) -> ComplementaryPair:
    """The pair Phi = x^p/p, Psi = y^q/q with 1/p + 1/q = 1."""
    if not p > 1.0:
        raise InputError(f"pnorm exponent must exceed 1, got {p!r}")
    return ComplementaryPair(_pnorm_fn(p), _pnorm_fn(p / (p - 1.0)))


def _xlog() -> YoungFunction:
    def fn(x):
        x = np.asarray(x, dtype=float)
        return x * np.log1p(x)

    def deriv(x):
        x = np.asarray(x, dtype=float)
        return np.log1p(x) + x / (1.0 + x)

    return YoungFunction(fn=fn, name="xlog", derivative=deriv)


def _coshm() -> YoungFunction:
    def fn(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * np.sinh(0.5 * x) ** 2  # cosh(x) - 1 without cancelling below 1e-8

    def deriv(x):
        return np.sinh(np.asarray(x, dtype=float))

    return YoungFunction(fn=fn, name="cosh", derivative=deriv)


_MAX_DOUBLE = np.finfo(float).max


def _expm() -> YoungFunction:
    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.expm1(x) - np.minimum(x, _MAX_DOUBLE)  # inf - max at +inf, not inf - inf

    def deriv(x):
        return np.expm1(np.asarray(x, dtype=float))

    return YoungFunction(fn=fn, name="expm", derivative=deriv)


def _expm_conjugate() -> YoungFunction:
    def fn(y):
        y = np.asarray(y, dtype=float)
        return (1.0 + y) * np.log1p(y) - np.minimum(y, _MAX_DOUBLE)  # as in _expm

    def deriv(y):
        return np.log1p(np.asarray(y, dtype=float))

    return YoungFunction(fn=fn, name="entropy", derivative=deriv)


def catalog_names() -> tuple:
    """Default pair names exercised by the verification suites."""
    return ("pnorm:1.5", "pnorm:2", "pnorm:3", "xlog", "cosh", "expm")


def catalog_pair(name: str) -> ComplementaryPair:
    """Look up a complementary pair by catalog name.

    pnorm:<p> pairs are closed-form; expm pairs with (1+y)ln(1+y)-y in
    closed form.  xlog and cosh carry numeric conjugates.  xlog's partner
    has no elementary closed form, only strong equivalents; cosh's has
    one, y asinh(y) - sqrt(1+y^2) + 1, which the tests hold the numeric
    conjugate to.
    """
    if name.startswith("pnorm:"):
        return pnorm_pair(float(name.split(":", 1)[1]))
    if name == "xlog":
        phi = _xlog()
        return ComplementaryPair(phi, conjugate(phi, _CATALOG_CAP))
    if name == "cosh":
        phi = _coshm()
        return ComplementaryPair(phi, conjugate(phi, _CATALOG_CAP))
    if name == "expm":
        return ComplementaryPair(_expm(), _expm_conjugate())
    raise InputError(f"unknown Young-function name {name!r}")
