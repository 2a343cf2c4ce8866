"""Harness tests: config round-trip, suites, registry, determinism, CLI."""

import collections
import itertools
import math

import numpy as np
import pytest

from orliczlab import algebra, cli, harness, space
from orliczlab.errors import ConfigError, OrliczLabError
from orliczlab.groups import Group
from orliczlab.harness import (
    REGISTRY,
    SUITE_ORDER,
    VerificationRecord,
    emit_report,
    run_all,
    run_suite,
)
from orliczlab.space import OrliczVector
from orliczlab.specs import (
    SuiteConfig,
    format_vector,
    parse_cocycle,
    parse_group,
    parse_pair,
    parse_vector_file,
    parse_weight,
)
from orliczlab.young import catalog_names


def test_config_round_trip_is_byte_identical():
    cfg = SuiteConfig()
    text = cfg.to_text()
    assert SuiteConfig.from_text(text) == cfg
    assert SuiteConfig.from_text(text).to_text() == text
    custom = SuiteConfig(pair="xlog", samples=15, seed=9, tol_abs=2.5e-10)
    assert SuiteConfig.from_text(custom.to_text()) == custom


def test_config_defaults_and_empty_text():
    assert SuiteConfig.from_text("") == SuiteConfig()


def test_config_rejects_unknown_keys_and_sections():
    with pytest.raises(ConfigError):
        SuiteConfig.from_text("[suite]\nbogus = 2\n")
    with pytest.raises(ConfigError):
        SuiteConfig.from_text("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        SuiteConfig.from_text("[suite]\nradius = lots\n")
    with pytest.raises(ConfigError):
        SuiteConfig.from_text("[suite]\npair = bogus\n")
    for line in ("samples = 0", "samples = -3", "radius = 0", "radius = -1"):
        with pytest.raises(ConfigError, match=">= 1"):
            SuiteConfig.from_text(f"[suite]\n{line}\n")
    with pytest.raises(ConfigError):
        SuiteConfig(samples=0)


@pytest.mark.parametrize("line", ["group = z2", "weight = poly:1", "cocycle = poly:1"])
def test_removed_config_keys_are_unknown(line):
    with pytest.raises(ConfigError, match="unknown config key"):
        SuiteConfig.from_text(f"[suite]\n{line}\n")


def test_parse_group_specs():
    assert parse_group("z2") == Group.free_abelian(2)
    assert parse_group("heis") == Group.heisenberg()
    assert parse_group("cyc5") == Group.cyclic(5)
    with pytest.raises(ConfigError):
        parse_group("dihedral3")


def test_parse_weight_and_cocycle_specs():
    z2 = Group.free_abelian(2)
    w = parse_weight("poly:2", z2)
    assert w((1, 0)) == 4.0
    w = parse_weight("poly:1*subexp:0.5:1", z2)
    assert w.kind == "product"
    om = parse_cocycle("poly:1", z2)
    assert om.kind == "coboundary"
    om = parse_cocycle("phase:pi", z2)
    assert om.value((0, 1), (1, 0)) == pytest.approx(-1.0, abs=1e-12)
    om = parse_cocycle("poly:1*phase:pi", z2)
    assert om.kind == "product"
    om = parse_cocycle("phase:pi:0,0;1,0", z2)
    assert om.value((0, 1), (1, 0)) == pytest.approx(-1.0, abs=1e-12)
    assert parse_cocycle("trivial", z2).value((1, 1), (2, 0)) == 1.0
    with pytest.raises(ConfigError):
        parse_weight("exp:1", z2)
    with pytest.raises(ConfigError):
        parse_pair("pnorm:0.5")


def test_vector_file_round_trip(tmp_path):
    z2 = Group.free_abelian(2)
    f = OrliczVector(z2, {(2, -1): 1.5 + 0.25j, (0, 0): -3.0})
    path = tmp_path / "f.vec"
    path.write_text(format_vector(f), encoding="utf-8")
    back = parse_vector_file(str(path), z2)
    assert back.distance_l1(f) == 0.0
    bad = tmp_path / "bad.vec"
    bad.write_text("1,2,3\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_vector_file(str(bad), z2)
    twice = tmp_path / "twice.vec"
    twice.write_text("1,0,1.0,0.0\n1,0,2.0,0.5\n", encoding="utf-8")
    assert dict(parse_vector_file(str(twice), z2).items()) == {(1, 0): 3.0 + 0.5j}


def test_registry_matches_suite_order():
    assert set(REGISTRY) == set(SUITE_ORDER)


def test_run_suite_unknown_name():
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(), "nonsense")


@pytest.mark.parametrize("suite", ["growth", "membership", "splitting", "cocycle"])
def test_individual_suites_pass_and_cover_registry(suite):
    cfg = SuiteConfig(samples=100)
    records = run_suite(cfg, suite)
    assert tuple(r.case for r in records) == REGISTRY[suite]
    for r in records:
        assert r.verdict == "pass", f"{r.case}: {r.residual} > {r.tolerance} {r.note}"
        assert (r.residual <= r.tolerance) == (r.verdict == "pass")


def test_failure_isolation_records_error_text(monkeypatch):
    monkeypatch.setattr(harness, "_LAWS", [])
    monkeypatch.setitem(harness.REGISTRY, "membership", ("explodes", "fine"))

    @harness._law("membership", "explodes", "law text", 1.0)
    def boom(_run, _seed):
        raise RuntimeError("deliberate")

    harness._law("membership", "fine", "law text", 1.0)(lambda _run, _seed: [0.0])
    first, second = run_suite(SuiteConfig(), "membership")
    assert first.verdict == "fail" and "deliberate" in first.note
    assert math.isinf(first.residual)
    assert second.verdict == "pass"  # later cases still ran


def _run_laws(monkeypatch, residuals):
    """Records of one law per residual list, each yielding that list, tolerance 1."""
    cases = tuple(f"law-{i}" for i in range(len(residuals)))
    monkeypatch.setattr(harness, "_LAWS", [])
    monkeypatch.setitem(harness.REGISTRY, "membership", cases)
    for case, values in zip(cases, residuals):
        harness._law("membership", case, "law text", 1.0)(lambda _run, _seed, v=values: iter(v))
    return run_suite(SuiteConfig(), "membership")


def test_law_residuals_fold_to_their_nan_propagating_max(monkeypatch):
    nan, mixed, empty = _run_laws(
        monkeypatch,
        [[0.1, math.nan, 0.2], [np.array([0.1, 0.3]), 0.2, 0, np.array([[0.05]])], []],
    )
    assert nan.verdict == "fail" and math.isnan(nan.residual) and nan.note == ""
    assert mixed.verdict == "pass" and mixed.residual == 0.3
    assert type(mixed.residual) is float
    assert empty.verdict == "fail" and math.isinf(empty.residual)
    assert "no residuals" in empty.note


def test_nan_associativity_residual_fails_the_law(monkeypatch):
    real, calls = algebra.associativity_residual, itertools.count()

    def every_other_nan(*args):
        return math.nan if next(calls) % 2 else real(*args)

    monkeypatch.setattr(algebra, "associativity_residual", every_other_nan)
    (law,) = [law for law in harness._LAWS if law.case == "associativity"]
    rec = harness._Run(SuiteConfig(samples=100)).record(law)
    assert rec.verdict == "fail" and math.isnan(rec.residual)


_LUX, _STAT = "solving for a Luxemburg norm", "solving the stationarity constraint"


@pytest.mark.parametrize(
    ("suite", "case", "want"),
    [
        # f + g, f and g: one segmented solve per catalog pair (three per pair
        # when solved apart, six when each support size was solved alone)
        ("norms", "triangle", {_LUX: len(catalog_names()), _STAT: len(catalog_names())}),
        # f and its three multiples, for the first four catalog pairs
        ("norms", "homogeneity", {_LUX: 4, _STAT: 4}),
        # |f*g|, |f| and |g| at each of the two radii, under pnorm:2
        ("twisted", "submultiplicativity-probe", {_STAT: 2}),
    ],
    ids=["triangle", "homogeneity", "submultiplicativity-probe"],
)
def test_batched_norm_laws_solve_each_norm_once_per_pair(suite, case, want, monkeypatch):
    tasks, real = collections.Counter(), space._find_root

    def counted(f, targets, cap, task, table=None):
        tasks[task] += 1
        return real(f, targets, cap, task, table)

    monkeypatch.setattr(space, "_find_root", counted)
    (law,) = [law for law in harness._LAWS if (law.suite, law.case) == (suite, case)]
    assert harness._Run(SuiteConfig()).record(law).verdict == "pass"
    assert tasks == want


def test_the_product_suites_make_one_kernel_call_per_batch(monkeypatch):
    # each law evaluates its products on whole batches, so the number of
    # _kernel_sum calls does not grow with samples (159 at any samples)
    real, calls = algebra._kernel_sum, itertools.count()

    def counted(*args):
        next(calls)
        return real(*args)

    monkeypatch.setattr(algebra, "_kernel_sum", counted)
    records = run_all(SuiteConfig(samples=200), ["twisted", "duality", "splitting", "lambda"])
    assert all(r.verdict == "pass" for r in records)
    assert next(calls) <= 500


def test_fixture_error_fails_only_the_cases_that_need_it(monkeypatch):
    def no_witness(*_args, **_kwargs):
        raise RuntimeError("witness search disabled")

    monkeypatch.setattr(harness, "decomposition_witness", no_witness)
    records = run_suite(SuiteConfig(samples=100), "splitting")
    assert tuple(r.case for r in records) == REGISTRY["splitting"]
    needs_witness = {"identity-weighted", "xi-eta-oracle", "zeta-crosscheck", "xi-pointwise-bound"}
    for r in records:
        if r.case in needs_witness:
            assert r.verdict == "fail" and math.isinf(r.residual)
            assert r.note == "RuntimeError: witness search disabled"
        else:  # the halves and random-uv splittings never use the witness
            assert r.verdict == "pass", r.note


def test_law_outside_the_registry_is_an_error(monkeypatch):
    monkeypatch.setitem(harness.REGISTRY, "membership", REGISTRY["membership"][:-1])
    with pytest.raises(OrliczLabError):
        run_suite(SuiteConfig(samples=60), "membership")


def test_lines_report_is_deterministic_and_structured():
    cfg = SuiteConfig(samples=60, seed=11)
    a = emit_report(run_all(cfg, ["membership", "growth"]), "lines", cfg=cfg)
    b = emit_report(run_all(cfg, ["membership", "growth"]), "lines", cfg=cfg)
    assert a.encode() == b.encode()
    body = [ln for ln in a.splitlines() if not ln.startswith("#")]
    for line in body:
        suite, case, law, residual, tolerance, verdict, seed, note = line.split("\t")
        float(residual), float(tolerance), int(seed)
        assert verdict in ("pass", "fail")
    # different seeds give different derived case seeds
    c = emit_report(run_all(SuiteConfig(samples=60, seed=12), ["membership"]), "lines")
    assert a.encode() != c.encode()


def test_table_report_counts():
    records = [
        VerificationRecord("s", "a", "law", 0.0, 1.0, "pass", 1),
        VerificationRecord("s", "b", "law", 2.0, 1.0, "fail", 1, "note"),
    ]
    text = emit_report(records, "table")
    assert "1     1" in text
    assert "failing cases" in text and "s/b" in text
    with pytest.raises(ConfigError):
        emit_report(records, "yaml")


def test_empty_config_report_header_echoes_defaults():
    cfg = SuiteConfig.from_text("")
    text = emit_report([], "lines", cfg=cfg)
    assert "# pair = pnorm:2" in text
    assert text.endswith("note\n")  # header only, no records


def test_cli_young_and_group(capsys):
    assert cli.main(["young", "conjugate", "--phi", "pnorm:3", "--at", "1"]) == 0
    out = capsys.readouterr().out
    assert "0.666666666666" in out
    assert cli.main(["group", "ball", "--group", "cyc5", "--radius", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("# |B_2| = 5")
    assert cli.main(["group", "weight", "--group", "z2", "--kind", "poly:1", "--at", "2,1"]) == 0
    assert "4.0" in capsys.readouterr().out


def test_cli_group_weight_takes_only_a_weight_spec(capsys):
    argv = ["group", "weight", "--group", "z2", "--kind", "poly", "--at", "2,1"]
    with pytest.raises(SystemExit) as err:  # the bare-kind flags are gone
        cli.main(argv + ["--beta", "2"])
    assert err.value.code == 2
    assert cli.main(argv) == 2  # a bare kind is an incomplete spec
    assert "bad weight spec 'poly'" in capsys.readouterr().err


def test_cli_cocycle_and_norm(tmp_path, capsys):
    assert cli.main(["cocycle", "check", "--group", "z2", "--weight", "poly:1", "--radius", "3"]) == 0
    capsys.readouterr()
    vec = tmp_path / "f.vec"
    vec.write_text("0,0,3,0\n1,0,4,0\n", encoding="utf-8")
    assert cli.main(["norm", "--phi", "pnorm:2", "--group", "z2", "--vec", str(vec)]) == 0
    out = capsys.readouterr().out
    assert "3.5355339059" in out and "7.0710678118" in out


def test_cli_conv_and_probe(tmp_path, capsys):
    f = tmp_path / "f.vec"
    g = tmp_path / "g.vec"
    f.write_text("1,0,1,0\n", encoding="utf-8")
    g.write_text("0,1,1,0\n", encoding="utf-8")
    assert cli.main([
        "conv", "--group", "z2", "--cocycle", "poly:1", "--f", str(f), "--g", str(g)
    ]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1,1,")
    assert cli.main([
        "conv", "probe", "--group", "z2", "--cocycle", "poly:2",
        "--phi", "pnorm:2", "--radius", "4", "--samples", "10", "--seed", "3",
    ]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# c_hat is an empirical lower bound for the true constant"
    assert [line.split(":")[0] for line in out[1:]] == ["radius 2", "radius 4"]
    assert all("(10 samples, seed 3)" in line for line in out[1:])


def test_cli_verify_exit_codes(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text("[suite]\nsamples = 50\nseed = 5\n", encoding="utf-8")
    rc = cli.main([
        "verify", "--suite", "membership", "--config", str(cfgfile), "--format", "table"
    ])
    assert rc == 0
    capsys.readouterr()
    bad = tmp_path / "bad.ini"
    bad.write_text("[suite]\nwhat = 1\n", encoding="utf-8")
    assert cli.main(["verify", "--suite", "membership", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_cli_verify_rejects_samples_and_radius_below_one(tmp_path, capsys):
    assert cli.main(["verify", "--suite", "duality", "--samples", "0"]) == 2
    assert "samples must be >= 1" in capsys.readouterr().err
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text("[suite]\nradius = -1\n", encoding="utf-8")
    assert cli.main(["verify", "--suite", "cocycle", "--config", str(cfgfile)]) == 2
    assert "radius must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "ball", "--group", "cycx", "--radius", "2"],
        ["group", "ball", "--group", "zz", "--radius", "2"],
        ["group", "ball", "--group", "z0", "--radius", "2"],
        ["group", "ball", "--group", "cyc1", "--radius", "2"],
        ["cocycle", "check", "--group", "z2", "--cocycle", "phase:abc"],
        ["cocycle", "check", "--group", "z2", "--cocycle", "phase:pi:1,2"],
        ["cocycle", "check", "--group", "z2", "--cocycle", "phase:pi/0"],
        ["young", "conjugate", "--phi", "pnorm:3", "--at", "1,x"],
        ["young", "conjugate", "--phi", "nope", "--at", "1"],
        ["young", "delta2", "--phi", "nope"],
        ["young", "equiv", "--phi1", "conj:nope", "--phi2", "pnorm:2"],
        ["norm", "--phi", "nope", "--vec", "VEC"],
        ["group", "weight", "--group", "z2", "--kind", "poly:1", "--at", "1"],
        ["norm", "--phi", "pnorm:2", "--vec", "BADVEC"],
        ["verify", "--config", "MISSING/cfg.ini"],
        ["conv", "--f", "MISSING/f.vec", "--g", "VEC"],
        ["group", "ball", "--group", "z2", "--radius", "-1"],
        ["cocycle", "check", "--group", "z2", "--weight", "poly:1", "--radius", "-1"],
        ["cocycle", "witness", "--weight", "poly:1", "--radius", "-1"],
        ["cocycle", "polar", "--group", "z2", "--cocycle", "poly:1", "--radius", "-1"],
        ["group", "growth", "--group", "z2", "--max-r", "5"],
        ["conv", "probe", "--phi", "pnorm:2", "--radius", "4", "--samples", "0"],
        ["conv", "probe", "--phi", "pnorm:2", "--radius", "0"],
        ["conv", "probe", "--phi", "pnorm:2", "--radius", "4", "--seed", "-1"],
        ["young", "equiv", "--phi1", "pnorm:2", "--phi2", "pnorm:2", "--xmax", "0"],
        ["young", "equiv", "--phi1", "pnorm:2", "--phi2", "pnorm:2", "--xmax", "-1"],
        ["verify", "--suite", "membership", "--out", "MISSING/r.txt"],
    ],
    ids=" ".join,
)
def test_cli_malformed_arguments_are_configuration_errors(tmp_path, capsys, monkeypatch, argv):
    def no_run(*_args):
        raise AssertionError("verify ran its suites")

    monkeypatch.setattr(cli, "run_all", no_run)  # a bad argument costs no run
    (tmp_path / "f.vec").write_text("1,0,1.0,0.0\n", encoding="utf-8")
    (tmp_path / "bad.vec").write_text("1,0,x,0.0\n", encoding="utf-8")
    paths = {"VEC": "f.vec", "BADVEC": "bad.vec", "MISSING/cfg.ini": "missing/cfg.ini",
             "MISSING/f.vec": "missing/f.vec", "MISSING/r.txt": "missing/r.txt"}
    argv = [str(tmp_path / paths[a]) if a in paths else a for a in argv]
    assert cli.main(argv) == 2
    assert "configuration error:" in capsys.readouterr().err


def test_cli_young_equiv_when_every_candidate_overflows(capsys):
    # every a-candidate blows the conjugate's bracket, so no failing
    # candidate exists: the command reports gap inf instead of crashing
    rc = cli.main(["young", "equiv", "--phi1", "conj:xlog", "--phi2", "pnorm:2", "--xmax", "1e8"])
    assert rc == 1
    out = capsys.readouterr().out
    assert out.startswith("not equivalent on the grid: candidate None") and "by inf" in out


@pytest.mark.parametrize("suite", ["lambda", "membership"])
@pytest.mark.parametrize(
    "line", ["group = nonsense", "weight = ???", "cocycle = !!", "pair = bogus"]
)
def test_cli_verify_rejects_bad_or_removed_keys(tmp_path, capsys, suite, line):
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text(f"[suite]\nsamples = 100\n{line}\n", encoding="utf-8")
    assert cli.main(["verify", "--suite", suite, "--config", str(cfgfile)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_verify_out_file(tmp_path):
    out = tmp_path / "report.txt"
    rc = cli.main([
        "verify", "--suite", "membership", "--seed", "3", "--out", str(out)
    ])
    assert rc == 0
    text = out.read_text(encoding="utf-8")
    assert "membership\t" in text
