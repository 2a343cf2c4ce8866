"""Independent reference computations for the benchmark's checks.

Nothing here imports orliczlab: word lengths come from the benchmark's own
breadth-first search with its own multiplication law, cocycles from their
closed forms, and norms from their p-norm formulas.  The workloads compare
the program's outputs against these.
"""

from __future__ import annotations

import math

import numpy as np

H3_GENERATORS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))


def h3_mul(g, h):
    """(a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b')."""
    return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])


def h3_mul_array(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise products (N,3) x (M,3) -> (N,M,3) under h3_mul."""
    out = A[:, None, :] + B[None, :, :]
    out[..., 2] += A[:, None, 0] * B[None, :, 1]
    return out


def h3_lengths(radius: int) -> dict:
    """Word length of every H3 element of length <= radius, by BFS."""
    lengths = {(0, 0, 0): 0}
    frontier = [(0, 0, 0)]
    for r in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for s in H3_GENERATORS:
                m = h3_mul(g, s)
                if m not in lengths:
                    lengths[m] = r
                    nxt.append(m)
        frontier = nxt
    return lengths


class LengthGrid:
    """Dense lookup table of BFS word lengths over a coordinate box."""

    def __init__(self, lengths: dict):
        keys = np.array(list(lengths), dtype=np.int64)
        self.lo = keys.min(axis=0)
        shape = keys.max(axis=0) - self.lo + 1
        self.grid = np.full(tuple(shape), -1, dtype=np.int64)
        self.grid[tuple((keys - self.lo).T)] = np.array(list(lengths.values()))

    def __call__(self, coords: np.ndarray) -> np.ndarray:
        idx = np.asarray(coords, dtype=np.int64) - self.lo
        if np.any(idx < 0) or np.any(idx >= np.array(self.grid.shape)):
            raise ValueError("coordinates outside the searched ball")
        out = self.grid[tuple(np.moveaxis(idx, -1, 0))]
        if np.any(out < 0):
            raise ValueError("coordinates outside the searched ball")
        return out


def z2_tau(coords: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(coords)).sum(axis=-1)


def z2_ball(radius: int) -> list:
    """Lexicographically sorted Z^2 ball, by enumeration of the l1 diamond."""
    return [
        (a, b)
        for a in range(-radius, radius + 1)
        for b in range(-radius, radius + 1)
        if abs(a) + abs(b) <= radius
    ]


# -- weights and cocycles in closed form ------------------------------------


def poly_weight(beta: float):
    return lambda t: (1.0 + np.asarray(t, dtype=float)) ** beta


def subexp_weight(alpha: float, C: float):
    return lambda t: np.exp(C * np.asarray(t, dtype=float) ** alpha)


def subexp_log_weight(gamma: float, C: float):
    def w(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            expo = np.where(t > 0.0, C * t / np.log1p(t) ** gamma, 0.0)
        return np.exp(expo)

    return w


def coboundary_values(w, tau_s, tau_t, tau_st) -> np.ndarray:
    """w(st) / (w(s) w(t)), broadcast over the given word-length arrays."""
    return w(tau_st) / (w(tau_s) * w(tau_t))


def phase_values(theta: float, B: np.ndarray, S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """exp(i theta s.B.t) for every row s of S and t of T: shape (len S, len T)."""
    return np.exp(1j * theta * (S @ B @ T.T))


def scatter_sum(keys: np.ndarray, values: np.ndarray) -> dict:
    """Sum values into a dict keyed by the coordinate rows of keys."""
    uniq, inv = np.unique(keys, axis=0, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=complex)
    np.add.at(sums, inv.ravel(), values)
    return {tuple(int(c) for c in k): complex(v) for k, v in zip(uniq, sums)}


def pairing(f: dict, h: dict) -> complex:
    """sum_s f(s) h(s), without conjugation."""
    return sum((a * h[g] for g, a in f.items() if g in h), 0.0 + 0.0j)


def max_abs_diff(a: dict, b: dict) -> float:
    """sup-distance of two finitely supported maps (missing keys read 0)."""
    keys = set(a) | set(b)
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys), default=0.0)


# -- norms and conjugates ------------------------------------------------------


def pnorm_luxemburg(A: np.ndarray, p: float) -> np.ndarray:
    """Luxemburg norm for Phi = x^p/p: ||f||_p p^(-1/p), one per row."""
    return (A**p).sum(axis=1) ** (1.0 / p) * p ** (-1.0 / p)


def pnorm_orlicz(A: np.ndarray, p: float) -> np.ndarray:
    """Orlicz norm for Phi = x^p/p: q^(1/q) ||f||_p, one per row."""
    q = p / (p - 1.0)
    return (A**p).sum(axis=1) ** (1.0 / p) * q ** (1.0 / q)


def cosh_conjugate(y: np.ndarray) -> np.ndarray:
    """Conjugate of cosh(x) - 1: y asinh(y) - sqrt(1 + y^2) + 1."""
    return y * np.arcsinh(y) - np.sqrt(1.0 + y * y) + 1.0


def xlog_conjugate(y: np.ndarray) -> np.ndarray:
    """Conjugate of x ln(1+x): x y - x ln(1+x) at log1p(x) + x/(1+x) = y.

    The maximiser is found by bisection on u = log1p(x), which lies in
    [0, y] because the density exceeds log1p(x).
    """
    y = np.asarray(y, dtype=float)
    lo, hi = np.zeros_like(y), y.copy()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        x = np.expm1(mid)
        below = mid + x / (1.0 + x) < y
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    x = np.expm1(0.5 * (lo + hi))
    return x * y - x * np.log1p(x)


def close(a, b, rel: float, abs_: float = 0.0) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= abs_ + rel * np.maximum(np.abs(a), np.abs(b))))


def l1(f: dict) -> float:
    return math.fsum(abs(a) for a in f.values())
