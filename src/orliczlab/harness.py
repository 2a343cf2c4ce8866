"""Deterministic verification suites and report emission.

run_suite executes one named suite of checks and returns a list of
VerificationRecord rows; run_all chains every suite.  Execution is
deterministic given (config, seed): each case derives its own seed from
the base seed and the case name, so cases can run in any order (or in
parallel) and still reproduce the same report bytes.  A failing or
crashing case becomes a failed record carrying the error text; it never
stops the remaining cases.

Suites: young, norms, cocycle, twisted, duality, splitting, lambda,
growth, membership.  The static REGISTRY below names every law each
suite must report on; run_suite refuses to return a partial case list,
which is what keeps the suites honest as the modules evolve.

The report's lines format is one record per line, tab-separated, fields
in fixed order (suite, case, law, residual, tolerance, verdict, seed,
note), residuals at full precision.  Identical config and seed give
byte-identical output.  Exit-code conventions for the CLI: 0 all pass,
1 any fail, 2 configuration error.
"""

from __future__ import annotations

import configparser
import io
import math
import zlib
from dataclasses import dataclass
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
from .errors import ConfigError, InputError, OrliczLabError
from .groups import (
    Group,
    Weight,
    polynomial_weight,
    product_weight,
    subexp_log_weight,
    subexp_weight,
    trivial_weight,
    weight_axioms_report,
)
from .space import (
    OrliczVector,
    amplitude_matrix as _amp_matrix,
    luxemburg_batch,
    luxemburg_norm,
    membership_diagnostic,
    modular,
    orlicz_batch,
    orlicz_norm,
    random_vector,
    weighted_norm,
)
from .young import (
    ComplementaryPair,
    SearchSpec,
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
    "SuiteConfig",
    "VerificationRecord",
    "SUITE_ORDER",
    "REGISTRY",
    "run_suite",
    "run_all",
    "emit_report",
    "parse_group",
    "parse_weight",
    "parse_cocycle",
    "parse_pair",
    "parse_vector_file",
    "format_vector",
]


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs shared by every suite; every field has a default.

    The canonical text form (to_text) round-trips byte-identically
    through from_text.
    """

    group: str = "z2"
    pair: str = "pnorm:2"
    weight: str = "poly:1"
    cocycle: str = "poly:1"
    radius: int = 4
    samples: int = 1000
    seed: int = 42
    tol_abs: float = 1e-9
    tol_rel: float = 1e-6

    def to_text(self) -> str:
        return (
            "[suite]\n"
            f"group = {self.group}\n"
            f"pair = {self.pair}\n"
            f"weight = {self.weight}\n"
            f"cocycle = {self.cocycle}\n"
            f"radius = {self.radius}\n"
            f"samples = {self.samples}\n"
            f"seed = {self.seed}\n"
            "\n"
            "[tolerances]\n"
            f"absolute = {self.tol_abs!r}\n"
            f"relative = {self.tol_rel!r}\n"
        )

    @classmethod
    def from_text(cls, text: str) -> "SuiteConfig":
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        known = {
            ("suite", "group"): ("group", str),
            ("suite", "pair"): ("pair", str),
            ("suite", "weight"): ("weight", str),
            ("suite", "cocycle"): ("cocycle", str),
            ("suite", "radius"): ("radius", int),
            ("suite", "samples"): ("samples", int),
            ("suite", "seed"): ("seed", int),
            ("tolerances", "absolute"): ("tol_abs", float),
            ("tolerances", "relative"): ("tol_rel", float),
        }
        values = {}
        for section in parser.sections():
            if section not in ("suite", "tolerances"):
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                spec = known.get((section, key))
                if spec is None:
                    raise ConfigError(f"unknown config key {section}.{key}")
                name, cast = spec
                try:
                    values[name] = cast(raw)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
        return cls(**values)

    @classmethod
    def from_file(cls, path: str) -> "SuiteConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


# ---------------------------------------------------------------------------
# spec parsers (shared by config, CLI, and suites)


def parse_group(spec: str) -> Group:
    """z<d> free abelian, heis, cyc<n> cyclic."""
    spec = spec.strip().lower()
    if spec == "heis":
        return Group.heisenberg()
    if spec.startswith("cyc"):
        return Group.cyclic(int(spec[3:]))
    if spec.startswith("z"):
        return Group.free_abelian(int(spec[1:]))
    raise ConfigError(f"unknown group spec {spec!r} (want z<d>, heis, or cyc<n>)")


def _parse_weight_atom(spec: str, group: Group) -> Weight:
    name, _, rest = spec.partition(":")
    args = [a for a in rest.split(":") if a] if rest else []
    try:
        if name == "trivial":
            return trivial_weight(group)
        if name == "poly":
            return polynomial_weight(group, float(args[0]))
        if name == "subexp":
            return subexp_weight(group, float(args[0]), float(args[1]))
        if name == "subexplog":
            return subexp_log_weight(group, float(args[0]), float(args[1]))
    except (IndexError, ValueError, InputError) as exc:
        raise ConfigError(f"bad weight spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown weight spec {spec!r}")


def parse_weight(spec: str, group: Group) -> Weight:
    """trivial | poly:<beta> | subexp:<alpha>:<C> | subexplog:<gamma>:<C>, '*'-products."""
    parts = [p.strip() for p in spec.split("*")]
    w = _parse_weight_atom(parts[0], group)
    for p in parts[1:]:
        w = product_weight(w, _parse_weight_atom(p, group))
    return w


def _parse_theta(token: str) -> float:
    token = token.strip().lower()
    if token == "pi":
        return math.pi
    if token.startswith("pi/"):
        return math.pi / float(token[3:])
    return float(token)


def _default_phase_matrix(d: int) -> np.ndarray:
    # strictly lower-triangular ones: on Z^2 the form is s2 * t1
    return np.tril(np.ones((d, d), dtype=np.int64), k=-1) if d > 1 else np.ones((1, 1), dtype=np.int64)


def _parse_cocycle_atom(spec: str, group: Group) -> Cocycle:
    if spec == "trivial":
        return trivial_cocycle(group)
    if spec.startswith("phase"):
        parts = spec.split(":")
        theta = _parse_theta(parts[1]) if len(parts) > 1 else math.pi
        if len(parts) > 2:
            rows = [[int(v) for v in row.split(",")] for row in parts[2].split(";")]
            B = np.asarray(rows, dtype=np.int64)
        else:
            B = _default_phase_matrix(group.dim)
        return bilinear_phase(group, B, theta)
    return coboundary_from_weight(parse_weight(spec, group))


def parse_cocycle(spec: str, group: Group) -> Cocycle:
    """trivial | phase[:theta[:b11,b12;b21,b22]] | <weight spec>, '*'-products.

    A bare weight spec means the coboundary of that weight.
    """
    parts = [p.strip() for p in spec.split("*")]
    # weight products inside a coboundary need the whole product as one
    # weight, so only split on '*' when a part is a phase or trivial atom
    if all(not p.startswith(("phase", "trivial")) for p in parts):
        return coboundary_from_weight(parse_weight(spec, group))
    om = _parse_cocycle_atom(parts[0], group)
    for p in parts[1:]:
        om = product_cocycle(om, _parse_cocycle_atom(p, group))
    return om


def parse_pair(spec: str) -> ComplementaryPair:
    try:
        return catalog_pair(spec.strip())
    except InputError as exc:
        raise ConfigError(str(exc)) from exc


def parse_vector_file(path: str, group: Group) -> OrliczVector:
    """Line format: coord1,coord2,...,re,im (blank lines and # comments skipped).

    Repeated (or aliased) coordinates sum, as in every OrliczVector.
    """
    data = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != group.dim + 2:
                raise ConfigError(
                    f"{path}:{lineno}: expected {group.dim} coordinates plus re,im"
                )
            coords = tuple(int(v) for v in parts[: group.dim])
            amp = complex(float(parts[-2]), float(parts[-1]))
            data.append((coords, amp))
    return OrliczVector(group, data)


def format_vector(f: OrliczVector) -> str:
    lines = []
    for g, a in f.items():
        coords = ",".join(str(c) for c in g)
        lines.append(f"{coords},{a.real!r},{a.imag!r}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# records


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


class _Recorder:
    """Collects records with per-case seeds and failure isolation."""

    def __init__(self, cfg: SuiteConfig, suite: str):
        self.cfg = cfg
        self.suite = suite
        self.records: List[VerificationRecord] = []

    def case(self, name: str, law: str, tolerance: float, fn: Callable[[int], float]) -> None:
        seed = _derive_seed(self.cfg.seed, self.suite, name)
        note = ""
        try:
            residual = float(fn(seed))
        except Exception as exc:  # failed case, never a crash
            residual = math.inf
            note = f"{type(exc).__name__}: {exc}"
        verdict = "pass" if residual <= tolerance else "fail"
        self.records.append(
            VerificationRecord(self.suite, name, law, residual, tolerance, verdict, seed, note)
        )


# ---------------------------------------------------------------------------
# shared helpers


def _sample_vectors(group: Group, rng, count: int, radius: int, support: int):
    return [random_vector(group, rng, radius, support) for _ in range(count)]


def _z2_catalog_cocycles(group: Group):
    """The cocycles the z2 scans exercise: coboundaries, a phase, a product."""
    w1 = polynomial_weight(group, 1.0)
    w2 = polynomial_weight(group, 2.0)
    sub = subexp_weight(group, 0.5, 1.0)
    B = np.array([[0, 0], [1, 0]], dtype=np.int64)
    phase = bilinear_phase(group, B, math.pi)
    cob1 = coboundary_from_weight(w1)
    return [
        cob1,
        coboundary_from_weight(w2),
        coboundary_from_weight(sub),
        phase,
        product_cocycle(cob1, phase),
    ]


# ---------------------------------------------------------------------------
# suite: young


def _suite_young(cfg: SuiteConfig) -> List[VerificationRecord]:
    rec = _Recorder(cfg, "young")
    pairs = [(name, catalog_pair(name)) for name in catalog_names()]
    probe = np.logspace(-2, 1, 30)
    tols = Tolerances(cfg.tol_abs, cfg.tol_rel)

    def biconjugation(_seed):
        worst = 0.0
        spec = SearchSpec(bracket_cap=1e200)
        for _, pair in pairs:
            bi = conjugate(conjugate(pair.phi, spec), spec)
            ref = np.asarray(pair.phi(probe), dtype=float)
            worst = max(worst, float(np.max(np.abs(bi(probe) - ref) / np.maximum(ref, 1e-300))))
        return worst

    rec.case(
        "biconjugation",
        "conj(conj(Phi)) == Phi on the probe grid (relative)",
        1e-6,
        biconjugation,
    )

    def conj_closed(_seed):
        grid = np.logspace(-2, 2, 100)
        worst = 0.0
        for name in ("pnorm:1.5", "pnorm:2", "pnorm:3", "expm"):
            pair = catalog_pair(name)
            num = conjugate(pair.phi, SearchSpec(bracket_cap=1e200))
            ref = np.asarray(pair.phi.closed_form_conjugate(grid), dtype=float)
            worst = max(worst, float(np.max(np.abs(num(grid) - ref) / np.maximum(ref, 1e-300))))
        return worst

    rec.case(
        "conjugate-closed-forms",
        "numeric conjugate of x^p/p is y^q/q; of e^x-x-1 is (1+y)ln(1+y)-y",
        1e-6,
        conj_closed,
    )

    def young_random(seed):
        rng = np.random.default_rng(seed)
        worst = -math.inf
        for _, pair in pairs:
            xy = rng.uniform(0.0, 50.0, size=(10_000, 2))
            gaps = young_gap(pair, xy[:, 0], xy[:, 1])
            worst = max(worst, float(-np.min(gaps)))
        return worst

    rec.case(
        "young-inequality",
        "x*y <= Phi(x) + Psi(y) on random sweeps of [0,50]^2",
        1e-9,
        young_random,
    )

    def equality_locus(_seed):
        xs = np.logspace(-2, 1, 40)
        worst = 0.0
        for _, pair in pairs:
            ys = np.asarray(pair.phi.derivative(xs), dtype=float)
            worst = max(worst, float(np.max(np.abs(young_gap(pair, xs, ys)))))
        return worst

    rec.case(
        "young-equality-locus",
        "gap vanishes at y = Phi'(x)",
        1e-8,
        equality_locus,
    )

    def monotone_conjugacy(_seed):
        small = catalog_pair("pnorm:2").phi  # x^2/2

        def big_fn(x):
            x = np.asarray(x, dtype=float)
            return x**2

        big = YoungFunction(fn=big_fn, name="x^2", derivative=lambda x: 2.0 * np.asarray(x, float))
        c_small = conjugate(small)
        c_big = conjugate(big)
        ys = np.logspace(-2, 1, 30)
        return float(np.max(np.asarray(c_big(ys)) - np.asarray(c_small(ys))))

    rec.case(
        "monotone-conjugacy",
        "Phi1 <= Phi2 pointwise implies conj(Phi1) >= conj(Phi2) pointwise",
        1e-9,
        monotone_conjugacy,
    )

    def roundtrip(_seed):
        grid = np.logspace(-2, 2, 60)
        worst = 0.0
        for name in ("pnorm:1.5", "pnorm:2", "pnorm:3", "expm"):
            pair = catalog_pair(name)
            back = conjugate(pair.psi, SearchSpec(bracket_cap=1e200))
            ref = np.asarray(pair.phi(grid), dtype=float)
            worst = max(worst, float(np.max(np.abs(back(grid) - ref) / np.maximum(ref, 1e-300))))
        short = np.logspace(-2, np.log10(30.0), 40)
        for name, partner in (("xlog", catalog_pair("cosh").phi), ("cosh", catalog_pair("xlog").phi)):
            res = strong_equivalence(catalog_pair(name).psi, partner, grid=short, tol=tols)
            if not res.found:
                return math.inf
        return worst

    rec.case(
        "catalog-roundtrip",
        "each catalog family round-trips against its stated partner",
        1e-6,
        roundtrip,
    )

    def delta2_pnorm(_seed):
        worst = 0.0
        for p in (1.5, 2.0, 3.0):
            est = delta2_estimate(catalog_pair(f"pnorm:{p:g}").phi)
            if not est.bounded:
                return math.inf
            worst = max(worst, abs(est.constant - 2.0**p))
        return worst

    rec.case("delta2-pnorm", "Phi(2x) <= 2^p Phi(x) exactly for x^p/p", 1e-9, delta2_pnorm)

    def delta2_xlog(_seed):
        est = delta2_estimate(catalog_pair("xlog").phi)
        if not est.bounded:
            return math.inf
        return abs(est.constant - 4.0)

    rec.case(
        "delta2-xlog",
        "doubling constant of x ln(1+x) is 4, attained toward x -> 0",
        1e-3,
        delta2_xlog,
    )

    def delta2_expm(_seed):
        est = delta2_estimate(catalog_pair("expm").phi)
        if est.bounded:
            return 1.0
        lo = float(est.ratios[np.searchsorted(est.grid, 5.0)])
        hi = float(est.ratios[np.searchsorted(est.grid, 20.0)])
        return 0.0 if hi > 1e6 * lo else 1.0

    rec.case(
        "delta2-expm-unbounded",
        "doubling ratio of e^x-x-1 diverges (ratio at 20 dwarfs ratio at 5)",
        0.5,
        delta2_expm,
    )

    def equivalence_identity(_seed):
        phi = catalog_pair("pnorm:2").phi
        res = strong_equivalence(phi, phi, tol=tols)
        if not res.found:
            return math.inf
        return abs(res.a - 1.0) + abs(res.b - 1.0)

    rec.case(
        "equivalence-identity",
        "a function is strongly equivalent to itself with witnesses (1, 1)",
        1e-12,
        equivalence_identity,
    )

    def equivalence_scaling(_seed):
        def sq(x):
            return np.asarray(x, dtype=float) ** 2

        phi1 = YoungFunction(fn=sq, name="x^2")
        phi2 = catalog_pair("pnorm:2").phi  # x^2/2
        res = strong_equivalence(phi1, phi2, tol=tols)
        if not res.found:
            return math.inf
        root_half = 2.0 ** (-0.5)
        return max(abs(res.a - root_half), abs(res.b - root_half))

    rec.case(
        "equivalence-scaling",
        "x^2 vs x^2/2 has witnesses (2^-1/2, 2^-1/2)",
        1e-12,
        equivalence_scaling,
    )

    def equivalence_xlog_cosh(_seed):
        short = np.logspace(-2, np.log10(30.0), 40)
        res = strong_equivalence(
            catalog_pair("xlog").psi, catalog_pair("cosh").phi, grid=short, tol=tols
        )
        return 0.0 if res.found else 1.0

    rec.case(
        "equivalence-xlog-cosh",
        "conj(x ln(1+x)) is strongly equivalent to cosh(x) - 1 on [0, 30]",
        0.5,
        equivalence_xlog_cosh,
    )

    return rec.records


# ---------------------------------------------------------------------------
# suite: norms


def _suite_norms(cfg: SuiteConfig) -> List[VerificationRecord]:
    rec = _Recorder(cfg, "norms")
    groups = [Group.cyclic(7), Group.free_abelian(2)]
    per_pair = max(100, cfg.samples)
    pairs = [(name, catalog_pair(name)) for name in catalog_names()]

    def sandwich_stats(seed):
        rng = np.random.default_rng(seed)
        worst_sandwich = -math.inf
        worst_gap = 0.0
        for _, pair in pairs:
            for group in groups:
                vecs = _sample_vectors(group, rng, per_pair, 6, 8)
                A = _amp_matrix(vecs)
                lux = luxemburg_batch(pair.phi, A)
                orl, gaps = orlicz_batch(pair, A)
                viol = np.maximum(lux - orl, orl - 2.0 * lux)
                worst_sandwich = max(worst_sandwich, float(viol.max()))
                worst_gap = max(worst_gap, float(gaps.max()))
        return worst_sandwich, worst_gap

    cache = {}

    def sandwich(seed):
        cache["stats"] = sandwich_stats(seed)
        return cache["stats"][0]

    rec.case(
        "sandwich",
        "N_Phi(f) <= |f|_Phi <= 2 N_Phi(f) on random vectors",
        1e-9,
        sandwich,
    )
    rec.case(
        "method-agreement",
        "stationarity and 1-d minimization agree on the dual norm (relative)",
        1e-5,
        lambda seed: cache["stats"][1] if "stats" in cache else sandwich_stats(seed)[1],
    )

    def unit_ball(seed):
        rng = np.random.default_rng(seed)
        group = groups[0]
        worst = 0.0
        pair = catalog_pair(cfg.pair)
        for f in _sample_vectors(group, rng, 100, 2, 5):
            if not f:
                continue
            n = luxemburg_norm(pair.phi, f)
            for c in (0.5, 0.9, 1.0, 1.1, 2.0):
                fc = f.scale(c / n)
                m = modular(pair.phi, fc)
                nc = luxemburg_norm(pair.phi, fc)
                if nc <= 1.0 and m > 1.0:
                    worst = max(worst, m - 1.0)
                if m <= 1.0 and nc > 1.0:
                    worst = max(worst, nc - 1.0)
        return worst

    rec.case(
        "unit-ball",
        "N_Phi(f) <= 1 exactly when modular(f) <= 1",
        1e-9,
        unit_ball,
    )

    def homogeneity(seed):
        rng = np.random.default_rng(seed)
        group = groups[1]
        worst = 0.0
        for name, pair in pairs[:4]:
            vecs = _sample_vectors(group, rng, 50, 4, 6)
            for c in (0.3, 2.5, 0.7 + 0.4j):
                scaled = [v.scale(c) for v in vecs]
                A, As = _amp_matrix(vecs), _amp_matrix(scaled)
                for base, sc in (
                    (luxemburg_batch(pair.phi, A), luxemburg_batch(pair.phi, As)),
                    (orlicz_batch(pair, A)[0], orlicz_batch(pair, As)[0]),
                ):
                    ref = abs(c) * base
                    worst = max(
                        worst,
                        float(np.max(np.abs(sc - ref) / np.maximum(ref, 1e-300))),
                    )
        return worst

    rec.case(
        "homogeneity",
        "both norms scale by |c| under f -> c f (relative)",
        1e-9,
        homogeneity,
    )

    def triangle(seed):
        rng = np.random.default_rng(seed)
        group = groups[1]
        worst = -math.inf
        for _, pair in pairs:
            fs = _sample_vectors(group, rng, 60, 4, 6)
            gs = _sample_vectors(group, rng, 60, 4, 6)
            sums = [f + g for f, g in zip(fs, gs)]
            for batch in (
                lambda A: luxemburg_batch(pair.phi, A),
                lambda A: orlicz_batch(pair, A)[0],
            ):
                nf, ng, nsum = batch(_amp_matrix(fs)), batch(_amp_matrix(gs)), batch(_amp_matrix(sums))
                worst = max(worst, float(np.max(nsum - nf - ng)))
        return worst

    rec.case(
        "triangle",
        "norm(f + g) <= norm(f) + norm(g) for both norms",
        1e-9,
        triangle,
    )

    def dual_sampling(seed):
        rng = np.random.default_rng(seed)
        group = groups[0]
        worst = -math.inf
        for _, pair in pairs:
            f = random_vector(group, rng, 3, 6)
            a = f.abs_amplitudes()
            V = np.abs(rng.uniform(-1.0, 1.0, size=(cfg.samples, a.size)))
            nv = luxemburg_batch(pair.psi, V)
            live = nv > 0.0
            pairings = (V[live] / nv[live][:, None]) @ a
            bound = orlicz_norm(pair, f)
            worst = max(worst, float(np.max(pairings - bound)))
        return worst

    rec.case(
        "dual-sampling",
        "sum |f v| <= |f|_Phi whenever modular(Psi, v) <= 1",
        1e-9,
        dual_sampling,
    )

    def pnorm_closed(seed):
        rng = np.random.default_rng(seed)
        group = groups[1]
        worst = 0.0
        for p in (1.5, 2.0, 3.0):
            pair = catalog_pair(f"pnorm:{p:g}")
            q = p / (p - 1.0)
            vecs = _sample_vectors(group, rng, 200, 5, 7)
            A = _amp_matrix(vecs)
            lp = (A**p).sum(axis=1) ** (1.0 / p)
            lux = luxemburg_batch(pair.phi, A)
            orl, _ = orlicz_batch(pair, A)
            worst = max(worst, float(np.max(np.abs(lux - lp * p ** (-1.0 / p)))))
            worst = max(worst, float(np.max(np.abs(orl - lp * q ** (1.0 / q)))))
        return worst

    rec.case(
        "pnorm-closed-form",
        "for x^p/p: N(f) = |f|_p p^(-1/p) and |f| = q^(1/q) |f|_p",
        1e-8,
        pnorm_closed,
    )

    def holder(seed):
        rng = np.random.default_rng(seed)
        group = groups[0]
        per = max(1, cfg.samples // len(pairs))
        worst = -math.inf
        for _, pair in pairs:
            flipped = pair.flip()
            fs = _sample_vectors(group, rng, per, 3, 5)
            gs = _sample_vectors(group, rng, per, 3, 5)
            nf = luxemburg_batch(pair.phi, _amp_matrix(fs))
            of = orlicz_batch(pair, _amp_matrix(fs))[0]
            ng = luxemburg_batch(pair.psi, _amp_matrix(gs))
            og = orlicz_batch(flipped, _amp_matrix(gs))[0]
            bound = np.minimum(nf * og, of * ng)
            pointwise = np.array(
                [sum(abs(a * g.amplitude(s)) for s, a in f.items()) for f, g in zip(fs, gs)]
            )
            worst = max(worst, float(np.max(pointwise - bound)))
        return worst

    rec.case(
        "holder",
        "sum |f g| <= min{ N_Phi(f) |g|_Psi, |f|_Phi N_Psi(g) }",
        1e-9,
        holder,
    )

    def weighted(seed):
        rng = np.random.default_rng(seed)
        group = groups[1]
        pair = catalog_pair("pnorm:2")
        w1 = polynomial_weight(group, 1.0)
        f = OrliczVector.delta(group, (2, 1))
        worst = abs(weighted_norm(pair, w1, f) - 4.0 * math.sqrt(2.0))
        triv = trivial_weight(group)
        for v in _sample_vectors(group, rng, 20, 4, 6):
            worst = max(worst, abs(weighted_norm(pair, triv, v) - orlicz_norm(pair, v)))
        return worst

    rec.case(
        "weighted-norm",
        "|f|_{Phi,w} = |f w|_Phi; trivial weight changes nothing",
        1e-9,
        weighted,
    )

    return rec.records


# ---------------------------------------------------------------------------
# suite: cocycle


def _suite_cocycle(cfg: SuiteConfig) -> List[VerificationRecord]:
    rec = _Recorder(cfg, "cocycle")
    z2 = Group.free_abelian(2)
    radius = cfg.radius
    cats = _z2_catalog_cocycles(z2)

    rec.case(
        "normalization",
        "Omega(g,e) == Omega(e,g) == 1",
        1e-12,
        lambda _s: max(normalization_residual(om, 2 * radius) for om in cats),
    )

    rec.case(
        "identity-residual",
        "Omega(r,s) Omega(rs,t) == Omega(s,t) Omega(r,st) on ball triples",
        1e-10,
        lambda _s: max(cocycle_identity_residual(om, radius) for om in cats),
    )

    def broken(_seed):
        base = coboundary_from_weight(polynomial_weight(z2, 1.0))
        bad = perturbed(base, (1, 0), (0, 1), 1.1)
        return 1e-2 - cocycle_identity_residual(bad, 2)

    rec.case(
        "broken-detected",
        "a pointwise perturbation by 1.1 breaks the identity by more than 1e-2",
        0.0,
        broken,
    )

    def polar(_seed):
        worst = 0.0
        for om in cats:
            mod, phase = polar_decompose(om)
            elems = z2.ball(3)
            for s in elems[::3]:
                for t in elems[::3]:
                    worst = max(worst, abs(mod.value(s, t) * phase.value(s, t) - om.value(s, t)))
                    worst = max(worst, abs(abs(phase.value(s, t)) - 1.0))
            worst = max(worst, cocycle_identity_residual(mod, 2))
            worst = max(worst, cocycle_identity_residual(phase, 2))
        return worst

    rec.case(
        "polar-decomposition",
        "Omega = |Omega| * phase uniquely; both factors are cocycles",
        1e-10,
        polar,
    )

    def product_group(_seed):
        om = product_cocycle(cats[0], cats[3])
        return cocycle_identity_residual(om, radius)

    rec.case(
        "product-group",
        "pointwise products of cocycles are cocycles",
        1e-10,
        product_group,
    )

    def coboundary_comp(_seed):
        w1 = polynomial_weight(z2, 1.0)
        w2 = subexp_weight(z2, 0.5, 1.0)
        combined = coboundary_from_weight(product_weight(w1, w2))
        split = product_cocycle(coboundary_from_weight(w1), coboundary_from_weight(w2))
        elems = z2.ball(3)
        return float(np.max(np.abs(combined.table(elems) - split.table(elems))))

    rec.case(
        "coboundary-composition",
        "coboundary(w1 w2) == coboundary(w1) * coboundary(w2)",
        1e-12,
        coboundary_comp,
    )

    def supnorm(_seed):
        worst = 0.0
        for om in cats[:3]:
            worst = max(worst, sup_norm_estimate(om, radius) - 1.0)
        worst = max(worst, abs(sup_norm_estimate(cats[3], radius) - 1.0))
        worst = max(worst, sup_norm_estimate(cats[4], radius) - 1.0)
        return worst

    rec.case(
        "sup-norm",
        "|Omega| <= 1 for submultiplicative coboundaries; == 1 for phases",
        1e-12,
        supnorm,
    )

    def witness_poly(_seed):
        worst = -math.inf
        for beta in (1.0, 2.0, 3.0):
            om = coboundary_from_weight(polynomial_weight(z2, beta))
            wit = decomposition_witness(om, 20)
            worst = max(worst, wit.max_violation)
        return worst

    rec.case(
        "witness-polynomial",
        "|Omega(s,t)| <= u(s) + v(t) with u = v = 2^beta / w on B20 x B20",
        0.0,
        witness_poly,
    )

    rec.case(
        "witness-subexp",
        "|Omega(s,t)| <= u(s) + v(t) with u = v = exp(-C(2-2^a) tau^a)",
        0.0,
        lambda _s: decomposition_witness(
            coboundary_from_weight(subexp_weight(z2, 0.5, 1.0)), 15
        ).max_violation,
    )

    rec.case(
        "witness-subexplog",
        "a grid-searched u = v = kappa / w' dominates the log-damped coboundary",
        0.0,
        lambda _s: decomposition_witness(
            coboundary_from_weight(subexp_log_weight(z2, 1.0, 1.0)), 10
        ).max_violation,
    )

    def witness_trivial(_seed):
        om = trivial_cocycle(Group.cyclic(5))
        wit = decomposition_witness(om, 2)
        return abs(wit.max_violation + 1.0)

    rec.case(
        "witness-trivial-finite",
        "constants u = v = 1 dominate the trivial cocycle with slack exactly 1",
        1e-12,
        witness_trivial,
    )

    return rec.records


# ---------------------------------------------------------------------------
# suite: twisted


def _twisted_setups():
    z2 = Group.free_abelian(2)
    heis = Group.heisenberg()
    c5, c7 = Group.cyclic(5), Group.cyclic(7)
    setups = []
    for group, radius in ((c5, 2), (c7, 3), (z2, 4), (heis, 3)):
        oms = [trivial_cocycle(group), coboundary_from_weight(polynomial_weight(group, 1.0))]
        if group.kind != "heisenberg3":
            d = group.dim
            B = _default_phase_matrix(d)
            theta = math.pi if group.kind == "free_abelian" else 2.0 * math.pi / group.param
            oms.append(bilinear_phase(group, B, theta))
            oms.append(product_cocycle(oms[1], oms[2]))
        setups.append((group, radius, oms))
    return setups


def _suite_twisted(cfg: SuiteConfig) -> List[VerificationRecord]:
    rec = _Recorder(cfg, "twisted")
    setups = _twisted_setups()
    triples = max(20, cfg.samples // 10)

    def deltas(seed):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for group, radius, oms in setups:
            ball = group.ball(radius)
            for om in oms:
                for _ in range(50):
                    s = ball[int(rng.integers(len(ball)))]
                    t = ball[int(rng.integers(len(ball)))]
                    left = algebra.twisted_convolve(
                        om, OrliczVector.delta(group, s), OrliczVector.delta(group, t)
                    )
                    ref = OrliczVector.delta(group, group.multiply(s, t), om.value(s, t))
                    worst = max(worst, left.distance_l1(ref))
        return worst

    rec.case(
        "delta-products",
        "delta_s * delta_t == Omega(s,t) delta_{st}",
        1e-12,
        deltas,
    )

    def unit(_seed):
        worst = 0.0
        for group, radius, oms in setups:
            for om in oms:
                rep = algebra.unit_check(om, samples=20, seed=_derive_seed(cfg.seed, "twisted", om.label), radius=radius)
                worst = max(worst, rep.max_left_deviation, rep.max_right_deviation)
        return worst

    rec.case("unit", "delta_e is a two-sided unit", 1e-12, unit)

    def l1_bound(seed):
        rng = np.random.default_rng(seed)
        worst = -math.inf
        for group, radius, oms in setups:
            for om in oms:
                for _ in range(30):
                    f = random_vector(group, rng, radius, 6)
                    g = random_vector(group, rng, radius, 6)
                    worst = max(worst, -algebra.l1_bound_gap(om, f, g))
        return worst

    rec.case(
        "l1-bound",
        "|f*g|_1 <= sup|Omega| |f|_1 |g|_1",
        1e-9,
        l1_bound,
    )

    def l1_equality(seed):
        rng = np.random.default_rng(seed)
        group = Group.cyclic(7)
        om = trivial_cocycle(group)
        worst = 0.0
        for _ in range(30):
            f = random_vector(group, rng, 3, 5).abs()
            g = random_vector(group, rng, 3, 5).abs()
            worst = max(worst, abs(algebra.l1_bound_gap(om, f, g)))
        return worst

    rec.case(
        "l1-equality-positive",
        "the l1 bound is an equality for positive vectors and Omega == 1",
        1e-12,
        l1_equality,
    )

    def associativity(seed):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for group, radius, oms in setups:
            for om in oms:
                for _ in range(triples):
                    f = random_vector(group, rng, radius, 5)
                    g = random_vector(group, rng, radius, 5)
                    h = random_vector(group, rng, radius, 5)
                    worst = max(worst, algebra.associativity_residual(om, f, g, h))
        return worst

    rec.case(
        "associativity",
        "(f*g)*h == f*(g*h) whenever the cocycle identity holds",
        1e-10,
        associativity,
    )

    def assoc_broken(seed):
        rng = np.random.default_rng(seed)
        z2 = Group.free_abelian(2)
        base = coboundary_from_weight(polynomial_weight(z2, 1.0))
        bad = perturbed(base, (1, 0), (0, 1), 1.1)
        worst = 0.0
        for _ in range(50):
            f = random_vector(z2, rng, 2, 8)
            g = random_vector(z2, rng, 2, 8)
            h = random_vector(z2, rng, 2, 8)
            worst = max(worst, algebra.associativity_residual(bad, f, g, h))
        return 1e-2 - worst

    rec.case(
        "associativity-broken",
        "a broken cocycle shows up as an associativity defect",
        0.0,
        assoc_broken,
    )

    def oracle(seed):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for group, radius, oms in setups:
            for om in oms:
                for _ in range(10):
                    f = random_vector(group, rng, radius, 5)
                    g = random_vector(group, rng, radius, 5)
                    fast = algebra.twisted_convolve(om, f, g)
                    slow = algebra.twisted_convolve_naive(om, f, g)
                    worst = max(worst, fast.distance_l1(slow))
        return worst

    rec.case(
        "oracle-agreement",
        "support-pair convolution matches the literal double loop",
        1e-12,
        oracle,
    )

    def sign_flip(_seed):
        c2 = Group.cyclic(2)
        om = bilinear_phase(c2, np.array([[1]]), math.pi)
        d1 = OrliczVector.delta(c2, (1,))
        got = algebra.twisted_convolve(om, d1, d1)
        ref = OrliczVector.delta(c2, (0,), -1.0)
        return got.distance_l1(ref)

    rec.case(
        "anticommuting-sign",
        "on Z_2 with Omega(1,1) = -1: delta_1 * delta_1 == -delta_0",
        1e-12,
        sign_flip,
    )

    def probe(_seed):
        pair = catalog_pair(cfg.pair)
        z2 = Group.free_abelian(2)
        om = coboundary_from_weight(polynomial_weight(z2, 2.0))
        spec = algebra.ProbeSpec(radii=(4, 8), samples=60, seed=_derive_seed(cfg.seed, "twisted", "probe"))
        rep = algebra.submultiplicativity_probe(pair, om, spec)
        c_hats = [row[1] for row in rep.rows]
        return 0.0 if all(math.isfinite(c) and c > 0 for c in c_hats) else math.inf

    rec.case(
        "submultiplicativity-probe",
        "|f*g|_Phi / (|f|_Phi |g|_Phi) stays finite across radii (empirical lower bound)",
        0.5,
        probe,
    )

    return rec.records


# ---------------------------------------------------------------------------
# suite: duality


def _suite_duality(cfg: SuiteConfig) -> List[VerificationRecord]:
    rec = _Recorder(cfg, "duality")
    group = Group.cyclic(7)
    om = coboundary_from_weight(polynomial_weight(group, 1.0))

    def pairing_identity(seed):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(cfg.samples):
            f = random_vector(group, rng, 3, 5)
            g = random_vector(group, rng, 3, 5)
            h = random_vector(group, rng, 3, 5)
            worst = max(worst, algebra.duality_residual(om, f, g, h))
        return worst

    rec.case(
        "pairing-identity",
        "<f*g, h> == <f, g*'h> == <g, h*'f>",
        1e-10,
        pairing_identity,
    )

    def action_oracle(seed):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(100):
            g = random_vector(group, rng, 3, 5)
            h = random_vector(group, rng, 3, 5)
            worst = max(
                worst,
                algebra.module_action_left(om, g, h).distance_l1(
                    algebra.module_action_left_naive(om, g, h)
                ),
                algebra.module_action_right(om, h, g).distance_l1(
                    algebra.module_action_right_naive(om, h, g)
                ),
            )
        return worst

    rec.case(
        "action-oracle",
        "module actions match their literal double loops",
        1e-12,
        action_oracle,
    )

    def action_norm_bound(seed):
        rng = np.random.default_rng(seed)
        pair = catalog_pair(cfg.pair)
        spec = algebra.ProbeSpec(radii=(3,), samples=300, seed=seed)
        c_hat = algebra.submultiplicativity_probe(pair, om, spec).rows[0][1]
        worst = -math.inf
        for _ in range(100):
            g = random_vector(group, rng, 3, 5)
            h = random_vector(group, rng, 3, 5)
            action = algebra.module_action_left(om, g, h)
            lhs = orlicz_norm(pair.flip(), action)
            rhs = 2.0 * c_hat * orlicz_norm(pair, g) * luxemburg_norm(pair.psi, h)
            worst = max(worst, lhs - rhs)
        return worst

    rec.case(
        "action-norm-bound",
        "|g*'h|_Psi <= 2 C |g|_Phi N_Psi(h) with the probed constant",
        1e-9,
        action_norm_bound,
    )

    return rec.records


# ---------------------------------------------------------------------------
# suite: splitting


def _suite_splitting(cfg: SuiteConfig) -> List[VerificationRecord]:
    rec = _Recorder(cfg, "splitting")
    z2 = Group.free_abelian(2)
    w1 = polynomial_weight(z2, 1.0)
    om_z2 = coboundary_from_weight(w1)
    wit = decomposition_witness(om_z2, 12)
    factors_z2 = algebra.SplitFactors.from_witness(om_z2, wit)

    def identity_weighted(seed):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(max(50, cfg.samples // 10)):
            f = random_vector(z2, rng, 4, 6)
            g = random_vector(z2, rng, 4, 6)
            h = random_vector(z2, rng, 4, 6)
            worst = max(worst, algebra.splitting_residual(om_z2, factors_z2, f, g, h))
        return worst

    rec.case(
        "identity-weighted",
        "<f*g,h> == <f u, xi(g,h)> + <g v, eta(f,h)> for the 2/w witness",
        1e-10,
        identity_weighted,
    )

    def identity_halves(seed):
        rng = np.random.default_rng(seed)
        c5 = Group.cyclic(5)
        om = trivial_cocycle(c5)
        factors = algebra.SplitFactors(L=lambda s, t: om.value(s, t), u=lambda g: 0.5, v=lambda g: 0.5)
        worst = 0.0
        for _ in range(50):
            f = random_vector(c5, rng, 2, 4)
            g = random_vector(c5, rng, 2, 4)
            h = random_vector(c5, rng, 2, 4)
            worst = max(worst, algebra.splitting_residual(om, factors, f, g, h))
        return worst

    rec.case(
        "identity-halves",
        "u = v = 1/2 splits the trivial cocycle exactly",
        1e-12,
        identity_halves,
    )

    def identity_random(seed):
        rng = np.random.default_rng(seed)
        c5 = Group.cyclic(5)
        om = coboundary_from_weight(polynomial_weight(c5, 1.0))
        uvals = {g: float(rng.uniform(0.5, 1.5)) for g in c5.ball(2)}
        vvals = {g: float(rng.uniform(0.5, 1.5)) for g in c5.ball(2)}
        factors = algebra.SplitFactors(
            L=lambda s, t: om.value(s, t) / (uvals[s] + vvals[t]),
            u=uvals.__getitem__,
            v=vvals.__getitem__,
        )
        worst = 0.0
        for _ in range(50):
            f = random_vector(c5, rng, 2, 4)
            g = random_vector(c5, rng, 2, 4)
            h = random_vector(c5, rng, 2, 4)
            worst = max(worst, algebra.splitting_residual(om, factors, f, g, h))
        return worst

    rec.case(
        "identity-random-uv",
        "any positive u, v with L = Omega/(u+v) split the pairing",
        1e-10,
        identity_random,
    )

    def xi_eta_oracle(seed):
        rng = np.random.default_rng(seed)
        L = factors_z2.L
        mul, inv = z2.multiply, z2.invert
        worst = 0.0
        for _ in range(40):
            g = random_vector(z2, rng, 3, 5)
            h = random_vector(z2, rng, 3, 5)
            xi_fast = algebra.xi(L, g, h)
            candidates = sorted({mul(u, inv(t)) for u, _ in h.items() for t, _ in g.items()})
            xi_slow = OrliczVector(
                z2,
                {
                    s: sum(a * h.amplitude(mul(s, t)) * L(s, t) for t, a in g.items())
                    for s in candidates
                },
            )
            worst = max(worst, xi_fast.distance_l1(xi_slow))
            eta_fast = algebra.eta(L, g, h)
            candidates = sorted({mul(inv(s), u) for u, _ in h.items() for s, _ in g.items()})
            eta_slow = OrliczVector(
                z2,
                {
                    t: sum(a * h.amplitude(mul(s, t)) * L(s, t) for s, a in g.items())
                    for t in candidates
                },
            )
            worst = max(worst, eta_fast.distance_l1(eta_slow))
        return worst

    rec.case(
        "xi-eta-oracle",
        "xi and eta match their literal double loops",
        1e-12,
        xi_eta_oracle,
    )

    def zeta_crosscheck(seed):
        rng = np.random.default_rng(seed)
        L = factors_z2.L
        worst = 0.0
        for _ in range(40):
            f = random_vector(z2, rng, 3, 5)
            g = random_vector(z2, rng, 3, 5)
            h = random_vector(z2, rng, 3, 5)
            lhs = f.pairing(algebra.xi(L, g, h))
            rhs = h.pairing(algebra.zeta(L, f, g))
            worst = max(worst, abs(lhs - rhs))
        return worst

    rec.case(
        "zeta-crosscheck",
        "sum f xi(g,h) == sum h zeta(f,g)",
        1e-10,
        zeta_crosscheck,
    )

    def xi_bound(seed):
        rng = np.random.default_rng(seed)
        L = factors_z2.L
        worst = -math.inf
        for _ in range(40):
            g = random_vector(z2, rng, 3, 5)
            h = random_vector(z2, rng, 3, 5)
            lhs = algebra.xi(L, g, h)
            dom = algebra.convolve(h.abs(), g.abs().reverse())
            worst = max(
                worst,
                max(
                    (abs(a) - dom.amplitude(s).real for s, a in lhs.items()),
                    default=-math.inf,
                ),
            )
        return worst

    rec.case(
        "xi-pointwise-bound",
        "|xi(g,h)| <= |h| conv |g-check| pointwise when |L| <= 1",
        1e-12,
        xi_bound,
    )

    return rec.records


# ---------------------------------------------------------------------------
# suite: lambda


def _suite_lambda(cfg: SuiteConfig) -> List[VerificationRecord]:
    rec = _Recorder(cfg, "lambda")
    z2 = Group.free_abelian(2)
    w = polynomial_weight(z2, 1.0)
    om = coboundary_from_weight(w)
    pair = catalog_pair(cfg.pair)

    def isometry(seed):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(100):
            f = random_vector(z2, rng, 4, 6)
            lifted = algebra.lambda_transform(w, f)
            a = weighted_norm(pair, w, lifted)
            b = orlicz_norm(pair, f)
            worst = max(worst, abs(a - b) / max(b, 1e-300))
        return worst

    rec.case(
        "isometry",
        "|f/w|_{Phi,w} == |f|_Phi",
        1e-12,
        isometry,
    )

    def intertwining(seed):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(max(100, cfg.samples // 5)):
            f = random_vector(z2, rng, 3, 6)
            g = random_vector(z2, rng, 3, 6)
            lhs = algebra.lambda_transform(w, algebra.twisted_convolve(om, f, g))
            rhs = algebra.convolve(
                algebra.lambda_transform(w, f), algebra.lambda_transform(w, g)
            )
            worst = max(worst, lhs.distance_l1(rhs))
        return worst

    rec.case(
        "intertwining",
        "(f *_Omega g)/w == (f/w) conv (g/w) for the coboundary of w",
        1e-12,
        intertwining,
    )

    def augmentation_kernel(seed):
        rng = np.random.default_rng(seed)
        ball = z2.ball(4)
        worst = 0.0
        for _ in range(50):
            s = ball[int(rng.integers(len(ball)))]
            diff = OrliczVector.delta(z2, s) - OrliczVector.delta(z2, z2.identity())
            worst = max(worst, abs(algebra.augmentation(diff)))
        worst = max(worst, abs(algebra.augmentation(OrliczVector.zero(z2))))
        return worst

    rec.case(
        "augmentation-kernel",
        "augmentation(delta_s - delta_e) == 0 and augmentation(0) == 0",
        1e-15,
        augmentation_kernel,
    )

    def augmentation_mult(seed):
        rng = np.random.default_rng(seed)
        c5 = Group.cyclic(5)
        worst = 0.0
        for _ in range(100):
            f = random_vector(c5, rng, 2, 4)
            g = random_vector(c5, rng, 2, 4)
            lhs = algebra.augmentation(algebra.convolve(f, g))
            rhs = algebra.augmentation(f) * algebra.augmentation(g)
            worst = max(worst, abs(lhs - rhs))
        return worst

    rec.case(
        "augmentation-multiplicative",
        "augmentation(f conv g) == augmentation(f) augmentation(g)",
        1e-10,
        augmentation_mult,
    )

    return rec.records


# ---------------------------------------------------------------------------
# suite: growth


def _suite_growth(cfg: SuiteConfig) -> List[VerificationRecord]:
    rec = _Recorder(cfg, "growth")
    z2 = Group.free_abelian(2)

    def ball_counts(_seed):
        worst = 0
        for n in range(0, 21):
            worst = max(worst, abs(z2.ball_count(n) - (2 * n * n + 2 * n + 1)))
        c5 = Group.cyclic(5)
        worst = max(worst, abs(c5.ball_count(2) - 5), abs(c5.ball_count(10) - 5))
        return float(worst)

    rec.case(
        "ball-counts",
        "|B_n| on Z^2 is 2n^2 + 2n + 1; balls on Z_5 saturate at 5",
        0.0,
        ball_counts,
    )

    def nesting(_seed):
        for group, top in ((z2, 10), (Group.heisenberg(), 6)):
            prev = -1
            for n in range(top + 1):
                count = group.ball_count(n)
                if count <= prev:
                    return 1.0
                prev = count
        return 0.0

    rec.case("ball-nesting", "B_n strictly grows below the cap on infinite groups", 0.5, nesting)

    def symmetry(_seed):
        worst = 0
        for group, radius in ((z2, 8), (Group.heisenberg(), 5), (Group.cyclic(7), 3)):
            for g in group.ball(radius):
                worst = max(worst, abs(group.word_length(g) - group.word_length(group.invert(g))))
        return float(worst)

    rec.case("word-length-symmetry", "tau(g) == tau(g^-1)", 0.0, symmetry)

    def subadditivity(_seed):
        worst = -math.inf
        for group, radius in ((z2, 6), (Group.heisenberg(), 4), (Group.cyclic(7), 3)):
            ball = group.ball(radius)
            for g in ball:
                for h in ball:
                    gh = group.multiply(g, h)
                    worst = max(
                        worst,
                        group.word_length(gh) - group.word_length(g) - group.word_length(h),
                    )
        return float(max(worst, 0.0))

    rec.case("word-length-subadditive", "tau(gh) <= tau(g) + tau(h)", 0.0, subadditivity)

    def length_examples(_seed):
        heis = Group.heisenberg()
        checks = [
            z2.word_length((0, 0)) - 0,
            z2.word_length((2, 1)) - 3,
            heis.word_length((0, 0, 1)) - 4,
            Group.cyclic(5).word_length((3,)) - 2,
        ]
        return float(max(abs(c) for c in checks))

    rec.case(
        "word-length-examples",
        "tau(e) = 0; tau((2,1)) = 3 on Z^2; tau((0,0,1)) = 4 on H3(Z)",
        0.0,
        length_examples,
    )

    def bfs_oracle(_seed):
        worst = 0
        for group, radius in (
            (Group.free_abelian(1), 8),
            (Group.free_abelian(2), 8),
            (Group.free_abelian(3), 6),
            (Group.cyclic(9), 4),
        ):
            for g in group.ball(radius):
                worst = max(worst, abs(group.word_length(g) - group.word_length_bfs(g)))
        return float(worst)

    rec.case(
        "bfs-oracle",
        "closed-form word lengths match breadth-first search",
        0.0,
        bfs_oracle,
    )

    def group_axioms(seed):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for group, radius in ((z2, 5), (Group.heisenberg(), 4), (Group.cyclic(7), 3)):
            ball = group.ball(radius)
            e = group.identity()
            for _ in range(100):
                g, h, k = (ball[int(rng.integers(len(ball)))] for _ in range(3))
                assoc = group.multiply(group.multiply(g, h), k) == group.multiply(
                    g, group.multiply(h, k)
                )
                ident = group.multiply(g, e) == g and group.multiply(e, g) == g
                inv = group.multiply(g, group.invert(g)) == e
                if not (assoc and ident and inv):
                    worst = 1.0
        return worst

    rec.case(
        "group-axioms",
        "associativity, identity, and inverses hold on sampled triples",
        0.5,
        group_axioms,
    )

    for name, group, max_r, target, window in (
        ("growth-z2", z2, 20, 2.0, 0.2),
        ("growth-z3", Group.free_abelian(3), 14, 3.0, 0.3),
        ("growth-heis", Group.heisenberg(), 12, 4.0, 0.4),
    ):
        def growth(_seed, group=group, max_r=max_r, target=target):
            fit = group.growth_order_estimate(max_r)
            return abs(fit.d_hat - target)

        rec.case(
            name,
            f"log-log slope of ball volume near {target:g}",
            window,
            growth,
        )

    def weight_identity(_seed):
        worst = 0.0
        for w in (
            trivial_weight(z2),
            polynomial_weight(z2, 2.0),
            subexp_weight(z2, 0.5, 1.0),
            subexp_log_weight(z2, 1.0, 1.0),
        ):
            worst = max(worst, abs(w(z2.identity()) - 1.0))
        return worst

    rec.case("weight-identity", "w(e) == 1 for every weight family", 0.0, weight_identity)

    def weight_submult(_seed):
        worst = -math.inf
        for w in (
            trivial_weight(z2),
            polynomial_weight(z2, 1.0),
            polynomial_weight(z2, 2.0),
            subexp_weight(z2, 0.5, 1.0),
        ):
            report = weight_axioms_report(w, 10)
            if not report.identity_ok or report.inverse_bound > 1.0 + 1e-12:
                return math.inf
            worst = max(worst, report.submult_sup - 1.0)
        return float(max(worst, 0.0))

    rec.case(
        "weight-submultiplicative",
        "w(st) <= w(s) w(t) for the polynomial and subexponential families",
        1e-12,
        weight_submult,
    )

    def weight_values(_seed):
        w1 = polynomial_weight(z2, 1.0)
        sub = subexp_weight(z2, 0.5, 1.0)
        return max(
            abs(w1((2, 1)) - 4.0),
            abs(sub((2, 1)) - math.exp(math.sqrt(3.0))),
        )

    rec.case(
        "weight-values",
        "w_poly1((2,1)) == 4 and w_subexp((2,1)) == e^sqrt(3) via tau = 3",
        1e-12,
        weight_values,
    )

    return rec.records


# ---------------------------------------------------------------------------
# suite: membership


def _suite_membership(cfg: SuiteConfig) -> List[VerificationRecord]:
    rec = _Recorder(cfg, "membership")
    z2 = Group.free_abelian(2)
    psi = catalog_pair("pnorm:2").psi
    radii = (5, 10, 20, 40)

    def converging(_seed):
        w = polynomial_weight(z2, 2.0)
        rep = membership_diagnostic(z2, psi, lambda g: 1.0 / w(g), (1.0, 10.0), radii)
        return 0.0 if all(v == "converging" for v in rep.verdicts.values()) else 1.0

    rec.case(
        "reciprocal-poly2-converges",
        "sum Psi(alpha / w_2) over growing balls flattens (beta above d/l)",
        0.5,
        converging,
    )

    def diverging(_seed):
        w = polynomial_weight(z2, 0.4)
        rep = membership_diagnostic(z2, psi, lambda g: 1.0 / w(g), (1.0,), radii)
        return 0.0 if rep.verdicts[1.0] == "diverging" else 1.0

    rec.case(
        "reciprocal-poly04-diverges",
        "sum Psi(alpha / w_0.4) keeps growing (beta below d/l)",
        0.5,
        diverging,
    )

    def finite(_seed):
        c5 = Group.cyclic(5)
        w = polynomial_weight(c5, 1.0)
        rep = membership_diagnostic(c5, psi, lambda g: 1.0 / w(g), (1.0, 10.0), (1, 2, 3, 4))
        return 0.0 if all(v == "converging" for v in rep.verdicts.values()) else 1.0

    rec.case(
        "finite-saturation",
        "on a finite group the sums saturate, trivially converging",
        0.5,
        finite,
    )

    return rec.records


# ---------------------------------------------------------------------------
# registry and entry points

SUITE_ORDER = (
    "young",
    "norms",
    "cocycle",
    "twisted",
    "duality",
    "splitting",
    "lambda",
    "growth",
    "membership",
)

_SUITES = {
    "young": _suite_young,
    "norms": _suite_norms,
    "cocycle": _suite_cocycle,
    "twisted": _suite_twisted,
    "duality": _suite_duality,
    "splitting": _suite_splitting,
    "lambda": _suite_lambda,
    "growth": _suite_growth,
    "membership": _suite_membership,
}

# Static registry: every law the suites must report on.  run_suite checks
# its output against this list, so a silently dropped case is an error.
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


def run_suite(cfg: SuiteConfig, suite: str) -> List[VerificationRecord]:
    """Run one suite; deterministic given (cfg, cfg.seed)."""
    fn = _SUITES.get(suite)
    if fn is None:
        raise ConfigError(f"unknown suite {suite!r} (choose from {', '.join(SUITE_ORDER)})")
    records = fn(cfg)
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
