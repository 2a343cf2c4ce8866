"""Deterministic verification suites and report emission.

This module holds the laws, their run and the report only; SuiteConfig,
which the suites read, and the spec grammar live in specs.

Every verified law is one entry of a module-level table: the @_law
decorator on its function registers (suite, case, law text, tolerance,
fn), and a parameterised law (the growth-* fits) registers one entry per
parameter.  run_suite walks the table for one suite and returns a list
of VerificationRecord rows; run_all chains every suite.  Execution is
deterministic given (config, seed): each case derives its own seed from
the base seed and the case name, so cases can run in any order (or in
parallel) and still reproduce the same report bytes.  A failing or
crashing case becomes a failed record carrying the error text; it never
stops the remaining cases.

A law yields residuals, each a number or a numpy array, and keeps no
running maximum of its own: the record's residual is the np.max over all
of them, taken in one place, and the law passes when it is <= tolerance.
A NaN anywhere makes the residual NaN, and a law that yields nothing is
an error; either way the law fails.

Values that several cases share (the twisted-convolution setups, the Z^2
catalog cocycles, the splitting witness, the norm sandwich statistics)
are fixtures: built lazily by the first case that asks for one and kept
for the rest of that run_suite call only.  A fixture that raises fails
each case that needs it, not the run.

Suites: young, norms, cocycle, twisted, duality, splitting, lambda,
growth, membership.  The static REGISTRY below names every law each
suite must report on, in order; run_suite refuses to return any other
case list, so a law dropped from or renamed in the table is an error.

The report's lines format is one record per line, tab-separated, fields
in fixed order (suite, case, law, residual, tolerance, verdict, seed,
note), residuals at full precision.  Identical config and seed give
byte-identical output.  Exit-code conventions for the CLI: 0 all pass,
1 any fail, 2 configuration error.
"""

from __future__ import annotations

import io
import math
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, List

import numpy as np

from . import algebra
from .cocycles import (
    Cocycle,
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
from .errors import ConfigError, OrliczLabError
from .groups import (
    Group,
    polynomial_weight,
    product_weight,
    subexp_log_weight,
    subexp_weight,
    trivial_weight,
    weight_axioms_report,
)
from .space import (
    OrliczVector,
    VectorBatch,
    luxemburg_batch,
    membership_diagnostic,
    cdiv,
    cmul,
    holder_gaps,
    modular,
    modulus,
    orlicz_batch,
    orlicz_gauges,
    orlicz_norm,
    random_vector,
    random_vectors,
    weighted_norms,
)
from .specs import SuiteConfig, _default_phase_matrix
from .young import (
    Tolerances,
    YoungFunction,
    catalog_names,
    catalog_pair,
    conjugate,
    delta2_estimate,
    strong_equivalence,
    young_gap,
)

__all__ = [
    "VerificationRecord",
    "SUITE_ORDER",
    "REGISTRY",
    "run_suite",
    "run_all",
    "emit_report",
]


# ---------------------------------------------------------------------------
# records and the law table


@dataclass(frozen=True)
class VerificationRecord:
    suite: str
    case: str
    law: str
    residual: float
    tolerance: float
    verdict: str
    seed: int
    note: str = ""


def _derive_seed(base: int, suite: str, case: str) -> int:
    tag = zlib.crc32(f"{suite}/{case}".encode("utf-8"))
    return (base * 0x9E3779B1 + tag) % 2**32


@dataclass(frozen=True)
class _Law:
    suite: str
    case: str
    law: str
    tolerance: float
    fn: Callable  # fn(run, seed) yields residuals; fails on a NaN or on none at all


_LAWS: List[_Law] = []


def _law(suite: str, case: str, law: str, tolerance: float):
    """Register the decorated fn(run, seed) as one law of the table."""

    def register(fn):
        _LAWS.append(_Law(suite, case, law, tolerance, fn))
        return fn

    return register


@dataclass
class _Run:
    """One run_suite call: its config and the fixtures its cases built."""

    cfg: SuiteConfig
    fixtures: dict = field(default_factory=dict)

    def record(self, law: _Law) -> VerificationRecord:
        seed = _derive_seed(self.cfg.seed, law.suite, law.case)
        note = ""
        try:
            residual = _fold(law.fn(self, seed))
        except Exception as exc:  # failed case, never a crash
            residual = math.inf
            note = f"{type(exc).__name__}: {exc}"
        verdict = "pass" if residual <= law.tolerance else "fail"
        return VerificationRecord(
            law.suite, law.case, law.law, residual, law.tolerance, verdict, seed, note
        )


def _fold(residuals) -> float:
    """np.max over the residuals (numbers or arrays, an empty array adding
    nothing), so a NaN anywhere is NaN."""
    peaks = [np.max(r) for r in residuals if np.size(r)]
    if not peaks:
        raise OrliczLabError("the law yielded no residuals")
    return float(np.max(peaks))


def _fixture(build):
    """Turn build(cfg) into fixture(run): built on first use, shared within the run."""

    def get(run: _Run):
        if build not in run.fixtures:
            run.fixtures[build] = build(run.cfg)
        return run.fixtures[build]

    return get


# ---------------------------------------------------------------------------
# shared helpers


def _rel_err(values, ref) -> np.ndarray:
    return np.abs(values - ref) / np.maximum(ref, 1e-300)


def _catalog():
    return [catalog_pair(name) for name in catalog_names()]


def _tols(cfg: SuiteConfig) -> Tolerances:
    return Tolerances(cfg.tol_abs, cfg.tol_rel)


_C7, _Z2 = partial(Group.cyclic, 7), partial(Group.free_abelian, 2)


# ---------------------------------------------------------------------------
# suite: young


def _closed_form_gaps(grid, side, ref):
    """Relative gaps of conj(side(pair)) from ref(pair) over the closed-form families."""
    for name in ("pnorm:1.5", "pnorm:2", "pnorm:3", "expm"):
        pair = catalog_pair(name)
        num = conjugate(side(pair), 1e200)
        yield _rel_err(num(grid), np.asarray(ref(pair), dtype=float))


@_law("young", "biconjugation", "conj(conj(Phi)) == Phi on the probe grid (relative)", 1e-6)
def _biconjugation(_run, _seed):
    probe = np.logspace(-2, 1, 30)
    for pair in _catalog():
        bi = conjugate(conjugate(pair.phi, 1e200), 1e200)
        yield _rel_err(bi(probe), np.asarray(pair.phi(probe), dtype=float))


@_law(
    "young",
    "conjugate-closed-forms",
    "numeric conjugate of x^p/p is y^q/q; of e^x-x-1 is (1+y)ln(1+y)-y",
    1e-6,
)
def _conjugate_closed_forms(_run, _seed):
    grid = np.logspace(-2, 2, 100)
    yield from _closed_form_gaps(grid, lambda pair: pair.phi, lambda pair: pair.psi(grid))


@_law("young", "young-inequality", "x*y <= Phi(x) + Psi(y) on random sweeps of [0,50]^2", 1e-9)
def _young_inequality(_run, seed):
    rng = np.random.default_rng(seed)
    for pair in _catalog():
        xy = rng.uniform(0.0, 50.0, size=(10_000, 2))
        yield -young_gap(pair, xy[:, 0], xy[:, 1])


@_law("young", "young-equality-locus", "gap vanishes at y = Phi'(x)", 1e-8)
def _young_equality_locus(_run, _seed):
    xs = np.logspace(-2, 1, 40)
    for pair in _catalog():
        ys = np.asarray(pair.phi.derivative(xs), dtype=float)
        yield np.abs(young_gap(pair, xs, ys))


@_law(
    "young",
    "monotone-conjugacy",
    "Phi1 <= Phi2 pointwise implies conj(Phi1) >= conj(Phi2) pointwise",
    1e-9,
)
def _monotone_conjugacy(_run, _seed):
    small = catalog_pair("pnorm:2").phi  # x^2/2
    big = YoungFunction(
        fn=lambda x: np.asarray(x, dtype=float) ** 2,
        name="x^2",
        derivative=lambda x: 2.0 * np.asarray(x, float),
    )
    ys = np.logspace(-2, 1, 30)
    yield np.asarray(conjugate(big)(ys)) - np.asarray(conjugate(small)(ys))


@_law(
    "young", "catalog-roundtrip", "each catalog family round-trips against its stated partner", 1e-6
)
def _catalog_roundtrip(run, _seed):
    grid = np.logspace(-2, 2, 60)
    yield from _closed_form_gaps(grid, lambda pair: pair.psi, lambda pair: pair.phi(grid))
    short = np.logspace(-2, np.log10(30.0), 40)
    for name, partner in (("xlog", catalog_pair("cosh").phi), ("cosh", catalog_pair("xlog").phi)):
        res = strong_equivalence(catalog_pair(name).psi, partner, grid=short, tol=_tols(run.cfg))
        yield 0.0 if res.found else math.inf


@_law("young", "delta2-pnorm", "Phi(2x) <= 2^p Phi(x) exactly for x^p/p", 1e-9)
def _delta2_pnorm(_run, _seed):
    for p in (1.5, 2.0, 3.0):
        est = delta2_estimate(catalog_pair(f"pnorm:{p:g}").phi)
        yield abs(est.constant - 2.0**p) if est.bounded else math.inf


@_law("young", "delta2-xlog", "doubling constant of x ln(1+x) is 4, attained toward x -> 0", 1e-3)
def _delta2_xlog(_run, _seed):
    est = delta2_estimate(catalog_pair("xlog").phi)
    yield abs(est.constant - 4.0) if est.bounded else math.inf


@_law(
    "young",
    "delta2-expm-unbounded",
    "doubling ratio of e^x-x-1 diverges (ratio at 20 dwarfs ratio at 5)",
    0.5,
)
def _delta2_expm_unbounded(_run, _seed):
    est = delta2_estimate(catalog_pair("expm").phi)
    if est.bounded:
        yield 1.0
        return
    lo = float(est.ratios[np.searchsorted(est.grid, 5.0)])
    hi = float(est.ratios[np.searchsorted(est.grid, 20.0)])
    yield 0.0 if hi > 1e6 * lo else 1.0


@_law(
    "young",
    "equivalence-identity",
    "a function is strongly equivalent to itself with witnesses (1, 1)",
    1e-12,
)
def _equivalence_identity(run, _seed):
    phi = catalog_pair("pnorm:2").phi
    res = strong_equivalence(phi, phi, tol=_tols(run.cfg))
    yield abs(res.a - 1.0) + abs(res.b - 1.0) if res.found else math.inf


@_law("young", "equivalence-scaling", "x^2 vs x^2/2 has witnesses (2^-1/2, 2^-1/2)", 1e-12)
def _equivalence_scaling(run, _seed):
    phi1 = YoungFunction(fn=lambda x: np.asarray(x, dtype=float) ** 2, name="x^2")
    phi2 = catalog_pair("pnorm:2").phi  # x^2/2
    res = strong_equivalence(phi1, phi2, tol=_tols(run.cfg))
    yield np.abs(np.array([res.a, res.b]) - 2.0 ** (-0.5)) if res.found else math.inf


@_law(
    "young",
    "equivalence-xlog-cosh",
    "conj(x ln(1+x)) is strongly equivalent to cosh(x) - 1 on [0, 30]",
    0.5,
)
def _equivalence_xlog_cosh(run, _seed):
    short = np.logspace(-2, np.log10(30.0), 40)
    res = strong_equivalence(
        catalog_pair("xlog").psi, catalog_pair("cosh").phi, grid=short, tol=_tols(run.cfg)
    )
    yield 0.0 if res.found else 1.0


# ---------------------------------------------------------------------------
# suite: norms


@_fixture
def _norm_stats(cfg):
    """(sandwich violations, method gaps), arrays drawn with the sandwich seed."""
    rng = np.random.default_rng(_derive_seed(cfg.seed, "norms", "sandwich"))
    per_pair = max(100, cfg.samples)
    violations, gaps = [], []
    groups = (_C7(), _Z2())
    for pair in _catalog():
        for group in groups:
            vecs = random_vectors(group, rng, 6, 8, per_pair)
            orl, gap, lux = orlicz_gauges(pair, vecs)
            violations.append(np.maximum(lux - orl, orl - 2.0 * lux))
            gaps.append(gap)
    return violations, gaps


@_law("norms", "sandwich", "N_Phi(f) <= |f|_Phi <= 2 N_Phi(f) on random vectors", 1e-9)
def _sandwich(run, _seed):
    yield from _norm_stats(run)[0]


@_law(
    "norms",
    "method-agreement",
    "stationarity and 1-d minimization agree on the dual norm (relative)",
    1e-5,
)
def _method_agreement(run, _seed):
    yield from _norm_stats(run)[1]


@_law("norms", "unit-ball", "N_Phi(f) <= 1 exactly when modular(f) <= 1", 1e-9)
def _unit_ball(run, seed):
    pair = catalog_pair(run.cfg.pair)
    yield 0.0
    fs = [f for f in random_vectors(_C7(), seed, 2, 5, 100) if f]
    scaled = [
        f.scale(c / n)
        for f, n in zip(fs, luxemburg_batch(pair.phi, fs).tolist())
        for c in (0.5, 0.9, 1.0, 1.1, 2.0)
    ]
    for fc, nc in zip(scaled, luxemburg_batch(pair.phi, scaled).tolist()):
        m = modular(pair.phi, fc)
        if nc <= 1.0 and m > 1.0:
            yield m - 1.0
        if m <= 1.0 and nc > 1.0:
            yield nc - 1.0


@_law("norms", "homogeneity", "both norms scale by |c| under f -> c f (relative)", 1e-9)
def _homogeneity(_run, seed):
    rng = np.random.default_rng(seed)
    group = _Z2()
    cs = (0.3, 2.5, 0.7 + 0.4j)
    for pair in _catalog()[:4]:
        vecs = random_vectors(group, rng, 4, 6, 50)
        # one solve for f and its three multiples, as in _triangle
        batch = VectorBatch.of([vecs, *(vecs.scale(c) for c in cs)])
        orl, _, lux = orlicz_gauges(pair, batch).reshape(3, 1 + len(cs), -1)
        for i, c in enumerate(cs, 1):
            yield _rel_err(lux[i], abs(c) * lux[0])
            yield _rel_err(orl[i], abs(c) * orl[0])


@_law("norms", "triangle", "norm(f + g) <= norm(f) + norm(g) for both norms", 1e-9)
def _triangle(_run, seed):
    rng = np.random.default_rng(seed)
    group = _Z2()
    for pair in _catalog():
        fs = random_vectors(group, rng, 4, 6, 60)
        gs = random_vectors(group, rng, 4, 6, 60)
        # one solve for f + g, f and g: each vector's norms are its own, bit for bit
        orl, _, lux = orlicz_gauges(pair, VectorBatch.of([fs + gs, fs, gs])).reshape(3, 3, -1)
        yield lux[0] - lux[1] - lux[2]
        yield orl[0] - orl[1] - orl[2]


@_law("norms", "dual-sampling", "sum |f v| <= |f|_Phi whenever modular(Psi, v) <= 1", 1e-9)
def _dual_sampling(run, seed):
    rng = np.random.default_rng(seed)
    group = _C7()
    for pair in _catalog():
        f = random_vector(group, rng, 3, 6)
        a = f.abs_amplitudes()
        V = np.abs(rng.uniform(-1.0, 1.0, size=(run.cfg.samples, a.size)))
        nv = luxemburg_batch(pair.psi, V)
        live = nv > 0.0
        yield (V[live] / nv[live][:, None]) @ a - orlicz_norm(pair, f)


@_law(
    "norms", "pnorm-closed-form", "for x^p/p: N(f) = |f|_p p^(-1/p) and |f| = q^(1/q) |f|_p", 1e-8
)
def _pnorm_closed_form(_run, seed):
    rng = np.random.default_rng(seed)
    group = _Z2()
    for p in (1.5, 2.0, 3.0):
        pair = catalog_pair(f"pnorm:{p:g}")
        q = p / (p - 1.0)
        vecs = random_vectors(group, rng, 5, 7, 200)
        lp = np.array([np.sum(v.abs_amplitudes() ** p) for v in vecs]) ** (1.0 / p)
        orl, _, lux = orlicz_gauges(pair, vecs)
        yield np.abs(lux - lp * p ** (-1.0 / p))
        yield np.abs(orl - lp * q ** (1.0 / q))


@_law("norms", "holder", "sum |f g| <= min{ N_Phi(f) |g|_Psi, |f|_Phi N_Psi(g) }", 1e-9)
def _holder(run, seed):
    rng = np.random.default_rng(seed)
    group = _C7()
    pairs = _catalog()
    per = max(1, run.cfg.samples // len(pairs))
    for pair in pairs:
        fs = random_vectors(group, rng, 3, 5, per)
        gs = random_vectors(group, rng, 3, 5, per)
        yield -holder_gaps(pair, fs, gs)


@_law("norms", "weighted-norm", "|f|_{Phi,w} = |f w|_Phi; trivial weight changes nothing", 1e-9)
def _weighted_norm_identity(_run, seed):
    group = _Z2()
    pair = catalog_pair("pnorm:2")
    f = OrliczVector.delta(group, (2, 1))
    yield np.abs(weighted_norms(pair, polynomial_weight(group, 1.0), f) - 4.0 * math.sqrt(2.0))
    vs = random_vectors(group, seed, 4, 6, 20)
    yield np.abs(weighted_norms(pair, trivial_weight(group), vs) - orlicz_batch(pair, vs)[0])


# ---------------------------------------------------------------------------
# suite: cocycle


@_fixture
def _z2_catalog_cocycles(_cfg):
    """The cocycles the z2 scans exercise: coboundaries, a phase, a product."""
    group = _Z2()
    cob1 = coboundary_from_weight(polynomial_weight(group, 1.0))
    phase = bilinear_phase(group, np.array([[0, 0], [1, 0]], dtype=np.int64), math.pi)
    return [
        cob1,
        coboundary_from_weight(polynomial_weight(group, 2.0)),
        coboundary_from_weight(subexp_weight(group, 0.5, 1.0)),
        phase,
        product_cocycle(cob1, phase),
    ]


@_law("cocycle", "normalization", "Omega(g,e) == Omega(e,g) == 1", 1e-12)
def _normalization(run, _seed):
    for om in _z2_catalog_cocycles(run):
        yield normalization_residual(om, 2 * run.cfg.radius)


@_law(
    "cocycle",
    "identity-residual",
    "Omega(r,s) Omega(rs,t) == Omega(s,t) Omega(r,st) on ball triples",
    1e-10,
)
def _identity_residual(run, _seed):
    for om in _z2_catalog_cocycles(run):
        yield cocycle_identity_residual(om, run.cfg.radius)


def _broken_z2() -> Cocycle:
    base = coboundary_from_weight(polynomial_weight(_Z2(), 1.0))
    return perturbed(base, (1, 0), (0, 1), 1.1)


@_law(
    "cocycle",
    "broken-detected",
    "a pointwise perturbation by 1.1 breaks the identity by more than 1e-2",
    0.0,
)
def _broken_detected(_run, _seed):
    yield 1e-2 - cocycle_identity_residual(_broken_z2(), 2)


@_law(
    "cocycle",
    "polar-decomposition",
    "Omega = |Omega| * phase uniquely; both factors are cocycles",
    1e-10,
)
def _polar_decomposition(run, _seed):
    for om in _z2_catalog_cocycles(run):
        mod, phase = polar_decompose(om)
        elems = om.group.ball(3)
        for s in elems[::3]:
            for t in elems[::3]:
                yield abs(mod.value(s, t) * phase.value(s, t) - om.value(s, t))
                yield abs(abs(phase.value(s, t)) - 1.0)
        yield cocycle_identity_residual(mod, 2)
        yield cocycle_identity_residual(phase, 2)


@_law("cocycle", "product-group", "pointwise products of cocycles are cocycles", 1e-10)
def _product_group(run, _seed):
    cats = _z2_catalog_cocycles(run)
    yield cocycle_identity_residual(product_cocycle(cats[0], cats[3]), run.cfg.radius)


@_law(
    "cocycle",
    "coboundary-composition",
    "coboundary(w1 w2) == coboundary(w1) * coboundary(w2)",
    1e-12,
)
def _coboundary_composition(_run, _seed):
    z2 = _Z2()
    w1 = polynomial_weight(z2, 1.0)
    w2 = subexp_weight(z2, 0.5, 1.0)
    combined = coboundary_from_weight(product_weight(w1, w2))
    split = product_cocycle(coboundary_from_weight(w1), coboundary_from_weight(w2))
    elems = z2.ball(3)
    yield np.abs(combined.table(elems) - split.table(elems))


@_law(
    "cocycle", "sup-norm", "|Omega| <= 1 for submultiplicative coboundaries; == 1 for phases", 1e-12
)
def _sup_norm(run, _seed):
    cats = _z2_catalog_cocycles(run)
    radius = run.cfg.radius
    for om in cats[:3] + cats[4:]:
        yield sup_norm_estimate(om, radius) - 1.0
    yield abs(sup_norm_estimate(cats[3], radius) - 1.0)


def _witness_violation(radius, weights):
    """The witness violations of the coboundaries of weights(Z^2) on B_radius."""

    def check(_run, _seed):
        for w in weights(_Z2()):
            yield decomposition_witness(coboundary_from_weight(w), radius).max_violation

    return check


for _case, _text, _radius, _weights in (
    (
        "witness-polynomial",
        "|Omega(s,t)| <= u(s) + v(t) with u = v = 2^beta / w on B20 x B20",
        20,
        lambda z2: [polynomial_weight(z2, beta) for beta in (1.0, 2.0, 3.0)],
    ),
    (
        "witness-subexp",
        "|Omega(s,t)| <= u(s) + v(t) with u = v = exp(-C(2-2^a) tau^a)",
        15,
        lambda z2: [subexp_weight(z2, 0.5, 1.0)],
    ),
    (
        "witness-subexplog",
        "a grid-searched u = v = kappa / w' dominates the log-damped coboundary",
        10,
        lambda z2: [subexp_log_weight(z2, 1.0, 1.0)],
    ),
):
    _law("cocycle", _case, _text, 0.0)(_witness_violation(_radius, _weights))


@_law(
    "cocycle",
    "witness-trivial-finite",
    "constants u = v = 1 dominate the trivial cocycle with slack exactly 1",
    1e-12,
)
def _witness_trivial_finite(_run, _seed):
    wit = decomposition_witness(trivial_cocycle(Group.cyclic(5)), 2)
    yield abs(wit.max_violation + 1.0)


# ---------------------------------------------------------------------------
# suite: twisted


@_fixture
def _twisted_setups(_cfg):
    """(group, radius, cocycles) for Z_5, Z_7, Z^2 and H3(Z)."""
    setups = []
    for group, radius in (
        (Group.cyclic(5), 2),
        (Group.cyclic(7), 3),
        (Group.free_abelian(2), 4),
        (Group.heisenberg(), 3),
    ):
        oms = [trivial_cocycle(group), coboundary_from_weight(polynomial_weight(group, 1.0))]
        if group.kind != "heisenberg3":
            B = _default_phase_matrix(group.dim)
            theta = math.pi if group.kind == "free_abelian" else 2.0 * math.pi / group.param
            oms.append(bilinear_phase(group, B, theta))
            oms.append(product_cocycle(oms[1], oms[2]))
        setups.append((group, radius, oms))
    return setups


@_law("twisted", "delta-products", "delta_s * delta_t == Omega(s,t) delta_{st}", 1e-12)
def _delta_products(run, seed):
    rng = np.random.default_rng(seed)
    for group, radius, oms in _twisted_setups(run):
        ball = group.ball(radius)
        for om in oms:
            st = [
                (ball[int(rng.integers(len(ball)))], ball[int(rng.integers(len(ball)))])
                for _ in range(50)
            ]
            ss, ts = zip(*st)
            left = algebra.twisted_convolve(
                om, VectorBatch.deltas(group, ss), VectorBatch.deltas(group, ts)
            )
            prods = [group.multiply(s, t) for s, t in st]
            ref = VectorBatch.deltas(group, prods, [om.value(s, t) for s, t in st])
            yield left.distance_l1(ref)


@_law("twisted", "unit", "delta_e is a two-sided unit", 1e-12)
def _unit(run, _seed):
    for _group, radius, oms in _twisted_setups(run):
        for om in oms:
            seed = _derive_seed(run.cfg.seed, "twisted", om.label)
            yield from algebra.unit_check(om, samples=20, seed=seed, radius=radius)


@_law("twisted", "l1-bound", "|f*g|_1 <= sup|Omega| |f|_1 |g|_1", 1e-9)
def _l1_bound(run, seed):
    rng = np.random.default_rng(seed)
    for group, radius, oms in _twisted_setups(run):
        for om in oms:
            yield -algebra.l1_bound_gap(om, *random_vectors(group, rng, radius, 6, 60).deal(2))


@_law(
    "twisted",
    "l1-equality-positive",
    "the l1 bound is an equality for positive vectors and Omega == 1",
    1e-12,
)
def _l1_equality_positive(_run, seed):
    om = trivial_cocycle(Group.cyclic(7))
    fs, gs = random_vectors(om.group, seed, 3, 5, 60).deal(2)
    yield np.abs(algebra.l1_bound_gap(om, fs.abs(), gs.abs()))


@_law("twisted", "associativity", "(f*g)*h == f*(g*h) whenever the cocycle identity holds", 1e-10)
def _associativity(run, seed):
    rng = np.random.default_rng(seed)
    count = max(20, run.cfg.samples // 10)
    for group, radius, oms in _twisted_setups(run):
        for om in oms:
            fgh = random_vectors(group, rng, radius, 5, 3 * count).deal(3)
            yield algebra.associativity_residual(om, *fgh)


@_law(
    "twisted", "associativity-broken", "a broken cocycle shows up as an associativity defect", 0.0
)
def _associativity_broken(_run, seed):
    bad = _broken_z2()
    fgh = random_vectors(bad.group, seed, 2, 8, 150).deal(3)
    yield 1e-2 - np.max(algebra.associativity_residual(bad, *fgh))


@_law(
    "twisted", "oracle-agreement", "support-pair convolution matches the literal double loop", 1e-12
)
def _oracle_agreement(run, seed):
    rng = np.random.default_rng(seed)
    for group, radius, oms in _twisted_setups(run):
        for om in oms:
            fs, gs = random_vectors(group, rng, radius, 5, 20).deal(2)
            naive = [algebra.twisted_convolve_naive(om.value, f, g) for f, g in zip(fs, gs)]
            yield algebra.twisted_convolve(om, fs, gs).distance_l1(VectorBatch.of(naive))


@_law(
    "twisted",
    "anticommuting-sign",
    "on Z_2 with Omega(1,1) = -1: delta_1 * delta_1 == -delta_0",
    1e-12,
)
def _anticommuting_sign(_run, _seed):
    c2 = Group.cyclic(2)
    om = bilinear_phase(c2, np.array([[1]]), math.pi)
    d1 = OrliczVector.delta(c2, (1,))
    got = algebra.twisted_convolve(om, d1, d1)
    yield got.distance_l1(OrliczVector.delta(c2, (0,), -1.0))


@_law(
    "twisted",
    "submultiplicativity-probe",
    "|f*g|_Phi / (|f|_Phi |g|_Phi) stays finite across radii (empirical lower bound)",
    0.5,
)
def _submultiplicativity_probe(run, _seed):
    pair = catalog_pair(run.cfg.pair)
    om = coboundary_from_weight(polynomial_weight(_Z2(), 2.0))
    seed = _derive_seed(run.cfg.seed, "twisted", "probe")
    c_hats = [row[1] for row in algebra.submultiplicativity_probe(pair, om, (4, 8), 60, seed)]
    yield 0.0 if all(math.isfinite(c) and c > 0 for c in c_hats) else math.inf


# ---------------------------------------------------------------------------
# suite: duality


def _c7_coboundary() -> Cocycle:
    return coboundary_from_weight(polynomial_weight(_C7(), 1.0))


@_law("duality", "pairing-identity", "<f*g, h> == <f, g*'h> == <g, h*'f>", 1e-10)
def _pairing_identity(run, seed):
    om = _c7_coboundary()
    fgh = random_vectors(om.group, seed, 3, 5, 3 * run.cfg.samples).deal(3)
    yield algebra.duality_residual(om, *fgh)


@_law("duality", "action-oracle", "module actions match their literal double loops", 1e-12)
def _action_oracle(_run, seed):
    om = _c7_coboundary()
    gs, hs = random_vectors(om.group, seed, 3, 5, 200).deal(2)
    left = [algebra.module_action_left_naive(om.value, g, h) for g, h in zip(gs, hs)]
    yield algebra.module_action_left(om, gs, hs).distance_l1(VectorBatch.of(left))
    right = [algebra.module_action_right_naive(om.value, h, g) for g, h in zip(gs, hs)]
    yield algebra.module_action_right(om, hs, gs).distance_l1(VectorBatch.of(right))


@_law(
    "duality",
    "action-norm-bound",
    "|g*'h|_Psi <= 2 C |g|_Phi N_Psi(h) with the probed constant",
    1e-9,
)
def _action_norm_bound(run, seed):
    om = _c7_coboundary()
    pair = catalog_pair(run.cfg.pair)
    c_hat = algebra.submultiplicativity_probe(pair, om, (3,), 300, seed)[0][1]
    gs, hs = random_vectors(om.group, seed, 3, 5, 200).deal(2)
    lhs = orlicz_batch(pair.flip(), algebra.module_action_left(om, gs, hs))[0]
    yield lhs - 2.0 * c_hat * orlicz_batch(pair, gs)[0] * luxemburg_batch(pair.psi, hs)


# ---------------------------------------------------------------------------
# suite: splitting


@_fixture
def _z2_split(_cfg):
    """The coboundary of w_1 on Z^2 and its factors from the 2/w witness."""
    om = coboundary_from_weight(polynomial_weight(_Z2(), 1.0))
    return om, algebra.SplitFactors.from_witness(om, decomposition_witness(om, 12))


@_law(
    "splitting",
    "identity-weighted",
    "<f*g,h> == <f u, xi(g,h)> + <g v, eta(f,h)> for the 2/w witness",
    1e-10,
)
def _identity_weighted(run, seed):
    om, factors = _z2_split(run)
    fgh = random_vectors(om.group, seed, 4, 6, 3 * max(50, run.cfg.samples // 10)).deal(3)
    yield algebra.splitting_residual(om, factors, *fgh)


@_law("splitting", "identity-halves", "u = v = 1/2 splits the trivial cocycle exactly", 1e-12)
def _identity_halves(_run, seed):
    om = trivial_cocycle(Group.cyclic(5))
    half = lambda X: np.full(X.shape[:-1], 0.5)
    factors = algebra.SplitFactors(L=om.values, u=half, v=half)
    fgh = random_vectors(om.group, seed, 2, 4, 150).deal(3)
    yield algebra.splitting_residual(om, factors, *fgh)


@_law(
    "splitting",
    "identity-random-uv",
    "any positive u, v with L = Omega/(u+v) split the pairing",
    1e-10,
)
def _identity_random_uv(_run, seed):
    rng = np.random.default_rng(seed)
    c5 = Group.cyclic(5)
    om = coboundary_from_weight(polynomial_weight(c5, 1.0))
    uvals, vvals = rng.uniform(0.5, 1.5, size=(2, 5))  # at the rows 0, ..., 4 of Z_5
    u = lambda X: uvals[X[..., 0]]
    v = lambda X: vvals[X[..., 0]]
    factors = algebra.SplitFactors(lambda S, T: cdiv(om.values(S, T), u(S) + v(T)), u, v)
    fgh = random_vectors(c5, rng, 2, 4, 150).deal(3)
    yield algebra.splitting_residual(om, factors, *fgh)


@_law("splitting", "xi-eta-oracle", "xi and eta match their literal double loops", 1e-12)
def _xi_eta_oracle(run, seed):
    om, factors = _z2_split(run)
    L = factors.L
    Ls = lambda s, t: complex(L(np.array(s), np.array(t)))  # L at one pair
    gs, hs = random_vectors(om.group, seed, 3, 5, 80).deal(2)
    left = [algebra.module_action_left_naive(Ls, g, h) for g, h in zip(gs, hs)]
    yield algebra.xi(L, gs, hs).distance_l1(VectorBatch.of(left))
    right = [algebra.module_action_right_naive(Ls, h, g) for g, h in zip(gs, hs)]
    yield algebra.eta(L, gs, hs).distance_l1(VectorBatch.of(right))


@_law("splitting", "zeta-crosscheck", "sum f xi(g,h) == sum h zeta(f,g)", 1e-10)
def _zeta_crosscheck(run, seed):
    om, factors = _z2_split(run)
    L = factors.L
    fs, gs, hs = random_vectors(om.group, seed, 3, 5, 120).deal(3)
    yield modulus(fs.pairing(algebra.xi(L, gs, hs)) - hs.pairing(algebra.zeta(L, fs, gs)))


@_law(
    "splitting",
    "xi-pointwise-bound",
    "|xi(g,h)| <= |h| conv |g-check| pointwise when |L| <= 1",
    1e-12,
)
def _xi_pointwise_bound(run, seed):
    om, factors = _z2_split(run)
    gs, hs = random_vectors(om.group, seed, 3, 5, 80).deal(2)
    x = algebra.xi(factors.L, gs, hs)
    dom = algebra.convolve(hs.abs(), gs.abs().reverse())
    yield x.abs_amplitudes() - dom.values_at(x).real


# ---------------------------------------------------------------------------
# suite: lambda


@_law("lambda", "isometry", "|f/w|_{Phi,w} == |f|_Phi", 1e-12)
def _isometry(run, seed):
    w = polynomial_weight(_Z2(), 1.0)
    pair = catalog_pair(run.cfg.pair)
    fs = random_vectors(w.group, seed, 4, 6, 100)
    a = weighted_norms(pair, w, algebra.lambda_transform(w, fs))
    yield _rel_err(a, orlicz_batch(pair, fs)[0])


@_law(
    "lambda", "intertwining", "(f *_Omega g)/w == (f/w) conv (g/w) for the coboundary of w", 1e-12
)
def _intertwining(run, seed):
    w = polynomial_weight(_Z2(), 1.0)
    om = coboundary_from_weight(w)
    fs, gs = random_vectors(w.group, seed, 3, 6, 2 * max(100, run.cfg.samples // 5)).deal(2)
    lhs = algebra.lambda_transform(w, algebra.twisted_convolve(om, fs, gs))
    rhs = algebra.convolve(algebra.lambda_transform(w, fs), algebra.lambda_transform(w, gs))
    yield lhs.distance_l1(rhs)


@_law(
    "lambda",
    "augmentation-kernel",
    "augmentation(delta_s - delta_e) == 0 and augmentation(0) == 0",
    1e-15,
)
def _augmentation_kernel(_run, seed):
    rng = np.random.default_rng(seed)
    z2 = _Z2()
    ball = z2.ball(4)
    for _ in range(50):
        s = ball[int(rng.integers(len(ball)))]
        diff = OrliczVector.delta(z2, s) - OrliczVector.delta(z2, z2.identity())
        yield abs(algebra.augmentation(diff))
    yield abs(algebra.augmentation(OrliczVector.zero(z2)))


@_law(
    "lambda",
    "augmentation-multiplicative",
    "augmentation(f conv g) == augmentation(f) augmentation(g)",
    1e-10,
)
def _augmentation_multiplicative(_run, seed):
    aug = algebra.augmentation
    fs, gs = random_vectors(Group.cyclic(5), seed, 2, 4, 200).deal(2)
    yield modulus(aug(algebra.convolve(fs, gs)) - cmul(aug(fs), aug(gs)))


# ---------------------------------------------------------------------------
# suite: growth


@_law("growth", "ball-counts", "|B_n| on Z^2 is 2n^2 + 2n + 1; balls on Z_5 saturate at 5", 0.0)
def _ball_counts(_run, _seed):
    z2, c5 = _Z2(), Group.cyclic(5)
    for n in range(21):
        yield abs(z2.ball_count(n) - (2 * n * n + 2 * n + 1))
    yield from (abs(c5.ball_count(2) - 5), abs(c5.ball_count(10) - 5))


@_law("growth", "ball-nesting", "B_n strictly grows below the cap on infinite groups", 0.5)
def _ball_nesting(_run, _seed):
    for group, top in ((_Z2(), 10), (Group.heisenberg(), 6)):
        counts = [group.ball_count(n) for n in range(top + 1)]
        yield 1.0 if any(b <= a for a, b in zip([-1] + counts, counts)) else 0.0


def _small_groups(z2_radius, heis_radius):
    return ((_Z2(), z2_radius), (Group.heisenberg(), heis_radius), (_C7(), 3))


@_law("growth", "word-length-symmetry", "tau(g) == tau(g^-1)", 0.0)
def _word_length_symmetry(_run, _seed):
    for group, radius in _small_groups(8, 5):
        X = group.ball_array(radius)
        yield np.abs(group.tau_array(X) - group.tau_array(group.invert_array(X)))


@_law("growth", "word-length-subadditive", "tau(gh) <= tau(g) + tau(h)", 0.0)
def _word_length_subadditive(_run, _seed):
    for group, radius in _small_groups(6, 4):
        X = group.ball_array(radius)
        tau = group.tau_array(X)
        yield group.tau_array(group.product_array(X, X)) - tau[:, None] - tau[None, :]


@_law(
    "growth",
    "word-length-examples",
    "tau(e) = 0; tau((2,1)) = 3 on Z^2; tau((0,0,1)) = 4 on H3(Z)",
    0.0,
)
def _word_length_examples(_run, _seed):
    z2 = _Z2()
    yield abs(z2.word_length((0, 0)) - 0)
    yield abs(z2.word_length((2, 1)) - 3)
    yield abs(Group.heisenberg().word_length((0, 0, 1)) - 4)
    yield abs(Group.cyclic(5).word_length((3,)) - 2)


@_law("growth", "bfs-oracle", "closed-form word lengths match breadth-first search", 0.0)
def _bfs_oracle(_run, _seed):
    groups = (
        (Group.free_abelian(1), 8),
        (Group.free_abelian(2), 8),
        (Group.free_abelian(3), 6),
        (Group.cyclic(9), 4),
    )
    for group, radius in groups:
        X = group.ball_array(radius)
        yield np.abs(group.tau_array(X) - group.bfs_lengths(X))


@_law(
    "growth", "group-axioms", "associativity, identity, and inverses hold on sampled triples", 0.5
)
def _group_axioms(_run, seed):
    rng = np.random.default_rng(seed)
    for group, radius in _small_groups(5, 4):
        ball = group.ball(radius)
        e = group.identity()
        mul = group.multiply
        for _ in range(100):
            g, h, k = (ball[int(rng.integers(len(ball)))] for _ in range(3))
            assoc = mul(mul(g, h), k) == mul(g, mul(h, k))
            ident = mul(g, e) == g and mul(e, g) == g
            inv = mul(g, group.invert(g)) == e
            yield 0.0 if assoc and ident and inv else 1.0


def _growth_fit(make_group, max_r, target):
    def fit(_run, _seed):
        yield abs(make_group().growth_order_estimate(max_r).d_hat - target)

    return fit


for _case, _make_group, _max_r, _target, _window in (
    ("growth-z2", _Z2, 20, 2.0, 0.2),
    ("growth-z3", partial(Group.free_abelian, 3), 14, 3.0, 0.3),
    ("growth-heis", Group.heisenberg, 12, 4.0, 0.4),
):
    _law("growth", _case, f"log-log slope of ball volume near {_target:g}", _window)(
        _growth_fit(_make_group, _max_r, _target)
    )


@_law("growth", "weight-identity", "w(e) == 1 for every weight family", 0.0)
def _weight_identity(_run, _seed):
    z2 = _Z2()
    for w in (
        trivial_weight(z2),
        polynomial_weight(z2, 2.0),
        subexp_weight(z2, 0.5, 1.0),
        subexp_log_weight(z2, 1.0, 1.0),
    ):
        yield abs(w(z2.identity()) - 1.0)


@_law(
    "growth",
    "weight-submultiplicative",
    "w(st) <= w(s) w(t) for the polynomial and subexponential families",
    1e-12,
)
def _weight_submultiplicative(_run, _seed):
    z2 = _Z2()
    yield 0.0
    for w in (
        trivial_weight(z2),
        polynomial_weight(z2, 1.0),
        polynomial_weight(z2, 2.0),
        subexp_weight(z2, 0.5, 1.0),
    ):
        report = weight_axioms_report(w, 10)
        ok = report.identity_ok and report.inverse_bound <= 1.0 + 1e-12
        yield report.submult_sup - 1.0 if ok else math.inf


@_law(
    "growth",
    "weight-values",
    "w_poly1((2,1)) == 4 and w_subexp((2,1)) == e^sqrt(3) via tau = 3",
    1e-12,
)
def _weight_values(_run, _seed):
    z2 = _Z2()
    yield abs(polynomial_weight(z2, 1.0)((2, 1)) - 4.0)
    yield abs(subexp_weight(z2, 0.5, 1.0)((2, 1)) - math.exp(math.sqrt(3.0)))


# ---------------------------------------------------------------------------
# suite: membership


def _reciprocal_membership(make_group, beta, alphas, radii, expected):
    """0.0 when every verdict on sum Psi(alpha / w_beta), Psi of pnorm:2, is expected."""

    def check(_run, _seed):
        group = make_group()
        w = polynomial_weight(group, beta)
        psi = catalog_pair("pnorm:2").psi
        rep = membership_diagnostic(group, psi, lambda X: 1.0 / w.at(X), alphas, radii)
        yield 0.0 if all(v == expected for v in rep.verdicts.values()) else 1.0

    return check


for _case, _text, _check in (
    (
        "reciprocal-poly2-converges",
        "sum Psi(alpha / w_2) over growing balls flattens (beta above d/l)",
        _reciprocal_membership(_Z2, 2.0, (1.0, 10.0), (5, 10, 20, 40), "converging"),
    ),
    (
        "reciprocal-poly04-diverges",
        "sum Psi(alpha / w_0.4) keeps growing (beta below d/l)",
        _reciprocal_membership(_Z2, 0.4, (1.0,), (5, 10, 20, 40), "diverging"),
    ),
    (
        "finite-saturation",
        "on a finite group the sums saturate, trivially converging",
        _reciprocal_membership(
            partial(Group.cyclic, 5), 1.0, (1.0, 10.0), (1, 2, 3, 4), "converging"
        ),
    ),
):
    _law("membership", _case, _text, 0.5)(_check)


# ---------------------------------------------------------------------------
# registry and entry points

# Static registry: every law the suites must report on, suite by suite in
# run order.  run_suite checks its output against this list, so a silently
# dropped case is an error.
REGISTRY = {
    "young": (
        "biconjugation",
        "conjugate-closed-forms",
        "young-inequality",
        "young-equality-locus",
        "monotone-conjugacy",
        "catalog-roundtrip",
        "delta2-pnorm",
        "delta2-xlog",
        "delta2-expm-unbounded",
        "equivalence-identity",
        "equivalence-scaling",
        "equivalence-xlog-cosh",
    ),
    "norms": (
        "sandwich",
        "method-agreement",
        "unit-ball",
        "homogeneity",
        "triangle",
        "dual-sampling",
        "pnorm-closed-form",
        "holder",
        "weighted-norm",
    ),
    "cocycle": (
        "normalization",
        "identity-residual",
        "broken-detected",
        "polar-decomposition",
        "product-group",
        "coboundary-composition",
        "sup-norm",
        "witness-polynomial",
        "witness-subexp",
        "witness-subexplog",
        "witness-trivial-finite",
    ),
    "twisted": (
        "delta-products",
        "unit",
        "l1-bound",
        "l1-equality-positive",
        "associativity",
        "associativity-broken",
        "oracle-agreement",
        "anticommuting-sign",
        "submultiplicativity-probe",
    ),
    "duality": (
        "pairing-identity",
        "action-oracle",
        "action-norm-bound",
    ),
    "splitting": (
        "identity-weighted",
        "identity-halves",
        "identity-random-uv",
        "xi-eta-oracle",
        "zeta-crosscheck",
        "xi-pointwise-bound",
    ),
    "lambda": (
        "isometry",
        "intertwining",
        "augmentation-kernel",
        "augmentation-multiplicative",
    ),
    "growth": (
        "ball-counts",
        "ball-nesting",
        "word-length-symmetry",
        "word-length-subadditive",
        "word-length-examples",
        "bfs-oracle",
        "group-axioms",
        "growth-z2",
        "growth-z3",
        "growth-heis",
        "weight-identity",
        "weight-submultiplicative",
        "weight-values",
    ),
    "membership": (
        "reciprocal-poly2-converges",
        "reciprocal-poly04-diverges",
        "finite-saturation",
    ),
}
SUITE_ORDER = tuple(REGISTRY)


def run_suite(cfg: SuiteConfig, suite: str) -> List[VerificationRecord]:
    """Run one suite; deterministic given (cfg, cfg.seed)."""
    if suite not in SUITE_ORDER:
        raise ConfigError(f"unknown suite {suite!r} (choose from {', '.join(SUITE_ORDER)})")
    run = _Run(cfg)
    records = [run.record(law) for law in _LAWS if law.suite == suite]
    emitted = tuple(r.case for r in records)
    if emitted != REGISTRY[suite]:
        missing = set(REGISTRY[suite]) - set(emitted)
        raise OrliczLabError(
            f"suite {suite!r} did not report every registered law (missing {sorted(missing)})"
        )
    return records


def run_all(cfg: SuiteConfig, suites: Iterable[str] | None = None) -> List[VerificationRecord]:
    out: List[VerificationRecord] = []
    for suite in suites or SUITE_ORDER:
        out.extend(run_suite(cfg, suite))
    return out


# ---------------------------------------------------------------------------
# reports


def emit_report(records, fmt: str = "lines", cfg: SuiteConfig | None = None) -> str:
    """Render records; the lines format is byte-stable for fixed inputs."""
    if fmt == "lines":
        buf = io.StringIO()
        buf.write("# orlicz-lab verification report\n")
        if cfg is not None:
            for line in cfg.to_text().splitlines():
                buf.write(f"# {line}\n" if line else "#\n")
        buf.write("# fields: suite case law residual tolerance verdict seed note\n")
        for r in records:
            buf.write(
                f"{r.suite}\t{r.case}\t{r.law}\t{r.residual!r}\t{r.tolerance!r}"
                f"\t{r.verdict}\t{r.seed}\t{r.note}\n"
            )
        return buf.getvalue()
    if fmt == "table":
        buf = io.StringIO()
        by_suite: dict = {}
        for r in records:
            by_suite.setdefault(r.suite, []).append(r)
        total_pass = sum(1 for r in records if r.verdict == "pass")
        buf.write(f"{'suite':<12} {'pass':>5} {'fail':>5}\n")
        for suite, rows in by_suite.items():
            ok = sum(1 for r in rows if r.verdict == "pass")
            buf.write(f"{suite:<12} {ok:>5} {len(rows) - ok:>5}\n")
        buf.write(f"{'total':<12} {total_pass:>5} {len(records) - total_pass:>5}\n")
        failing = [r for r in records if r.verdict != "pass"]
        if failing:
            buf.write("\nfailing cases:\n")
            for r in failing:
                buf.write(
                    f"  {r.suite}/{r.case}: residual {r.residual!r} > {r.tolerance!r}"
                    + (f" ({r.note})" if r.note else "")
                    + "\n"
                )
        return buf.getvalue()
    raise ConfigError(f"unknown report format {fmt!r}")
