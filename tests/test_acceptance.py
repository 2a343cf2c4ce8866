"""Acceptance criteria, one test per criterion, stated tolerances pinned.

Each test prints one line:  ACCEPTANCE <nn> <name>: PASS/FAIL (<elapsed>).
Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from orliczlab import algebra
from orliczlab.algebra import SplitFactors
from orliczlab.cocycles import (
    bilinear_phase,
    coboundary_from_weight,
    cocycle_identity_residual,
    decomposition_witness,
    perturbed,
    product_cocycle,
    trivial_cocycle,
)
from orliczlab.groups import Group, polynomial_weight, subexp_weight
from orliczlab.harness import SuiteConfig, emit_report, run_all
from orliczlab.space import (
    amplitude_matrix as _amp_matrix,
    luxemburg_batch,
    membership_diagnostic,
    orlicz_batch,
    orlicz_norm,
    random_vector,
)
from orliczlab.young import catalog_names, catalog_pair, conjugate, young_gap


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    failed = None
    try:
        yield
    except BaseException as exc:
        failed = exc
        raise
    finally:
        elapsed = time.perf_counter() - start
        verdict = "PASS" if failed is None and elapsed <= budget_seconds else "FAIL"
        print(f"ACCEPTANCE {number:02d} {name}: {verdict} ({elapsed:.2f}s / budget {budget_seconds:g}s)")
    assert elapsed <= budget_seconds, f"runtime {elapsed:.2f}s over budget {budget_seconds}s"


def test_01_conjugate_pair_reproduction():
    with criterion(1, "conjugate-pair-reproduction", 1.0):
        grid = np.logspace(-2, 2, 100)
        for p in (1.5, 2.0, 3.0):
            pair = catalog_pair(f"pnorm:{p:g}")
            num = conjugate(pair.phi, 1e200)
            ref = np.asarray(pair.psi(grid), float)
            rel = np.max(np.abs(np.asarray(num(grid)) - ref) / np.maximum(ref, 1e-300))
            assert rel <= 1e-6, f"pnorm:{p}"
        pair = catalog_pair("expm")
        num = conjugate(pair.phi, 1e200)
        ref = np.asarray(pair.psi(grid), float)
        rel = np.max(np.abs(np.asarray(num(grid)) - ref) / np.maximum(ref, 1e-300))
        assert rel <= 1e-6


def test_02_young_inequality():
    with criterion(2, "young-inequality", 1.0):
        rng = np.random.default_rng(42)
        xs_eq = np.logspace(-2, 1, 40)
        for name in catalog_names():
            pair = catalog_pair(name)
            xy = rng.uniform(0.0, 50.0, size=(10_000, 2))
            gaps = young_gap(pair, xy[:, 0], xy[:, 1])
            assert float(np.min(gaps)) >= -1e-9, name
            ys = pair.phi.derivative(xs_eq)
            assert float(np.max(np.abs(young_gap(pair, xs_eq, ys)))) <= 1e-8, name


def test_03_norm_sandwich():
    with criterion(3, "norm-sandwich", 10.0):
        rng = np.random.default_rng(42)
        groups = [Group.cyclic(7), Group.free_abelian(2)]
        for name in catalog_names():
            pair = catalog_pair(name)
            for group in groups:
                vecs = [random_vector(group, rng, 6, 8) for _ in range(1000)]
                A = _amp_matrix(vecs)
                lux = luxemburg_batch(pair.phi, A)
                orl, _ = orlicz_batch(pair, A)
                assert float(np.max(lux - orl)) <= 1e-9, name
                assert float(np.max(orl - 2.0 * lux)) <= 1e-9, name
        for p in (1.5, 2.0, 3.0):
            pair = catalog_pair(f"pnorm:{p:g}")
            vecs = [random_vector(groups[1], rng, 6, 8) for _ in range(1000)]
            A = _amp_matrix(vecs)
            lux = luxemburg_batch(pair.phi, A)
            lp = (A**p).sum(axis=1) ** (1.0 / p)
            assert float(np.max(np.abs(lux - lp * p ** (-1.0 / p)))) <= 1e-8


def test_04_orlicz_method_agreement_and_dual_sampling():
    with criterion(4, "orlicz-method-agreement", 10.0):
        rng = np.random.default_rng(42)
        group = Group.cyclic(7)
        for name in catalog_names():
            pair = catalog_pair(name)
            vecs = [random_vector(group, rng, 3, 6) for _ in range(500)]
            A = _amp_matrix(vecs)
            _, gaps = orlicz_batch(pair, A)  # hard-errors beyond 1e-5 anyway
            assert float(np.max(gaps)) <= 1e-5, name
            f = random_vector(group, rng, 3, 6)
            a = f.abs_amplitudes()
            V = np.abs(rng.uniform(-1.0, 1.0, size=(1000, a.size)))
            nv = luxemburg_batch(pair.psi, V)
            live = nv > 0
            pairings = (V[live] / nv[live][:, None]) @ a
            assert float(np.max(pairings)) <= orlicz_norm(pair, f) + 1e-9, name


def test_05_holder():
    with criterion(5, "holder-inequality", 5.0):
        rng = np.random.default_rng(42)
        group = Group.cyclic(7)
        names = catalog_names()
        per = 1000 // len(names) + 1
        for name in names:
            pair = catalog_pair(name)
            flipped = pair.flip()
            fs = [random_vector(group, rng, 3, 5) for _ in range(per)]
            gs = [random_vector(group, rng, 3, 5) for _ in range(per)]
            nf = luxemburg_batch(pair.phi, _amp_matrix(fs))
            of = orlicz_batch(pair, _amp_matrix(fs))[0]
            ng = luxemburg_batch(pair.psi, _amp_matrix(gs))
            og = orlicz_batch(flipped, _amp_matrix(gs))[0]
            bound = np.minimum(nf * og, of * ng)
            pointwise = np.array(
                [sum(abs(a * g.amplitude(s)) for s, a in f.items()) for f, g in zip(fs, gs)]
            )
            assert float(np.max(pointwise - bound)) <= 1e-9, name


def test_06_cocycle_identity():
    with criterion(6, "cocycle-identity", 5.0):
        z2 = Group.free_abelian(2)
        B = np.array([[0, 0], [1, 0]])
        phase = bilinear_phase(z2, B, math.pi)
        cob1 = coboundary_from_weight(polynomial_weight(z2, 1.0))
        oms = [
            cob1,
            coboundary_from_weight(polynomial_weight(z2, 2.0)),
            coboundary_from_weight(subexp_weight(z2, 0.5, 1.0)),
            phase,
            product_cocycle(cob1, phase),
        ]
        for om in oms:
            assert cocycle_identity_residual(om, 4) <= 1e-10, om.label
        broken = perturbed(cob1, (1, 0), (0, 1), 1.1)
        assert cocycle_identity_residual(broken, 4) > 1e-2


def _group_cocycles(group):
    oms = [trivial_cocycle(group), coboundary_from_weight(polynomial_weight(group, 1.0))]
    if group.kind == "free_abelian":
        B = np.tril(np.ones((group.dim, group.dim), dtype=np.int64), k=-1)
        oms.append(bilinear_phase(group, B, math.pi))
        oms.append(product_cocycle(oms[1], oms[2]))
    elif group.kind == "cyclic":
        oms.append(bilinear_phase(group, np.ones((1, 1), dtype=np.int64), 2.0 * math.pi / group.param))
        oms.append(product_cocycle(oms[1], oms[2]))
    return oms


def test_07_associativity_and_unit():
    with criterion(7, "associativity-and-unit", 30.0):
        rng = np.random.default_rng(42)
        setups = [
            (Group.cyclic(5), 2),
            (Group.cyclic(7), 3),
            (Group.free_abelian(2), 4),
            (Group.heisenberg(), 3),
        ]
        for group, radius in setups:
            for om in _group_cocycles(group):
                for _ in range(100):
                    f = random_vector(group, rng, radius, 5)
                    g = random_vector(group, rng, radius, 5)
                    h = random_vector(group, rng, radius, 5)
                    assert algebra.associativity_residual(om, f, g, h) <= 1e-10
                left, right = algebra.unit_check(om, samples=20, seed=42, radius=radius)
                assert left <= 1e-12
                assert right <= 1e-12


def test_08_duality():
    with criterion(8, "duality", 10.0):
        rng = np.random.default_rng(42)
        group = Group.cyclic(7)
        om = coboundary_from_weight(polynomial_weight(group, 1.0))
        for _ in range(1000):
            f = random_vector(group, rng, 3, 5)
            g = random_vector(group, rng, 3, 5)
            h = random_vector(group, rng, 3, 5)
            assert algebra.duality_residual(om, f, g, h) <= 1e-10


def test_09_splitting_identity():
    with criterion(9, "splitting-identity", 10.0):
        rng = np.random.default_rng(42)
        z2 = Group.free_abelian(2)
        om = coboundary_from_weight(polynomial_weight(z2, 1.0))
        factors = SplitFactors.from_witness(om, decomposition_witness(om, 12))
        for _ in range(100):
            f = random_vector(z2, rng, 4, 6)
            g = random_vector(z2, rng, 4, 6)
            h = random_vector(z2, rng, 4, 6)
            assert algebra.splitting_residual(om, factors, f, g, h) <= 1e-10


def test_10_decomposition_witness():
    with criterion(10, "decomposition-witness", 60.0):
        z2 = Group.free_abelian(2)
        for beta in (1.0, 2.0, 3.0):
            om = coboundary_from_weight(polynomial_weight(z2, beta))
            wit = decomposition_witness(om, 20)
            assert wit.max_violation <= 0.0
            assert wit.verified_radius == 20
        om = coboundary_from_weight(subexp_weight(z2, 0.5, 1.0))
        wit = decomposition_witness(om, 20)
        assert wit.max_violation <= 0.0


def test_11_membership_diagnostic():
    with criterion(11, "membership-diagnostic", 10.0):
        z2 = Group.free_abelian(2)
        psi = catalog_pair("pnorm:2").psi  # behaves like x^2 near 0: l = 2, d = 2
        w2 = polynomial_weight(z2, 2.0)
        rep = membership_diagnostic(z2, psi, lambda X: 1.0 / w2.at(X), (1.0, 10.0), (5, 10, 20, 40))
        assert all(v == "converging" for v in rep.verdicts.values())
        w04 = polynomial_weight(z2, 0.4)
        rep = membership_diagnostic(z2, psi, lambda X: 1.0 / w04.at(X), (1.0,), (5, 10, 20, 40))
        assert rep.verdicts[1.0] == "diverging"


def test_12_growth_orders():
    with criterion(12, "growth-orders", 60.0):
        assert abs(Group.free_abelian(2).growth_order_estimate(20).d_hat - 2.0) <= 0.2
        assert abs(Group.free_abelian(3).growth_order_estimate(14).d_hat - 3.0) <= 0.3
        assert abs(Group.heisenberg().growth_order_estimate(12).d_hat - 4.0) <= 0.4


def test_13_lambda_transform():
    with criterion(13, "lambda-transform", 10.0):
        rng = np.random.default_rng(42)
        z2 = Group.free_abelian(2)
        w = polynomial_weight(z2, 1.0)
        om = coboundary_from_weight(w)
        pair = catalog_pair("pnorm:2")
        fs = [random_vector(z2, rng, 3, 6) for _ in range(1000)]
        gs = [random_vector(z2, rng, 3, 6) for _ in range(1000)]
        # isometry, batched: |(f/w) w|_Phi == |f|_Phi
        round_trips = [algebra.lambda_transform(w, f).pointwise_mul(w.at) for f in fs]
        base, _ = orlicz_batch(pair, _amp_matrix(fs))
        lifted, _ = orlicz_batch(pair, _amp_matrix(round_trips))
        assert float(np.max(np.abs(base - lifted) / np.maximum(base, 1e-300))) <= 1e-12
        for f, g in zip(fs, gs):
            lhs = algebra.lambda_transform(w, algebra.twisted_convolve(om, f, g))
            rhs = algebra.convolve(algebra.lambda_transform(w, f), algebra.lambda_transform(w, g))
            assert lhs.distance_l1(rhs) <= 1e-12


# The default `orlicz-lab verify` report, committed as golden residuals.  A
# change that moves a residual by more than GOLDEN_DRIFT of its law's
# tolerance, or flips a verdict, regenerates the fixture and says why.
GOLDEN = Path(__file__).parent / "fixtures" / "verify_default.lines"
GOLDEN_DRIFT = 1e-2


def test_14_determinism():
    with criterion(14, "determinism", 300.0):
        reads = set()

        class ReadRecordingConfig(SuiteConfig):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        cfg = ReadRecordingConfig(seed=42)
        reads.clear()
        records = run_all(cfg)
        # every key the report header echoes is one the run actually used
        unread = {f.name for f in fields(SuiteConfig)} - reads
        assert not unread, sorted(unread)
        first = emit_report(records, "lines", cfg=cfg)
        second = emit_report(run_all(cfg), "lines", cfg=cfg)
        assert first.encode("utf-8") == second.encode("utf-8")
        bad = [r for r in records if r.verdict != "pass"]
        assert not bad, [f"{r.suite}/{r.case}" for r in bad]

        golden_lines = GOLDEN.read_text(encoding="utf-8").splitlines()
        header = [line for line in golden_lines if line.startswith("#")]
        assert first.splitlines()[: len(header)] == header
        golden = {}
        for line in golden_lines[len(header):]:
            suite, case, _law, residual, tolerance, verdict = line.split("\t")[:6]
            golden[(suite, case)] = (float(residual), float(tolerance), verdict)
        assert [(r.suite, r.case) for r in records] == list(golden)
        for r in records:
            residual, tolerance, verdict = golden[(r.suite, r.case)]
            assert r.verdict == verdict, (r.suite, r.case)
            drift = 0.0 if r.residual == residual else abs(r.residual - residual)
            assert drift <= GOLDEN_DRIFT * tolerance, (r.suite, r.case, residual, r.residual)
