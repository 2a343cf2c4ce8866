"""Command-line interface.

    orlicz-lab young conjugate --phi pnorm:3 --at 1,2,4
    orlicz-lab young delta2 --phi xlog
    orlicz-lab young equiv --phi1 pnorm:2 --phi2 cosh
    orlicz-lab group ball --group z2 --radius 8
    orlicz-lab group growth --group heis --max-r 12
    orlicz-lab group weight --group z2 --kind poly:2 --at 2,1
    orlicz-lab cocycle check --group z2 --weight poly:1 --radius 6
    orlicz-lab cocycle witness --group z2 --weight subexp:0.5:1 --radius 15
    orlicz-lab cocycle polar --group z2 --cocycle poly:1*phase:pi --radius 3
    orlicz-lab norm --phi pnorm:2 --group z2 --vec f.vec
    orlicz-lab conv --group z2 --cocycle poly:1 --f f.vec --g g.vec
    orlicz-lab conv probe --phi pnorm:2 --radius 8 --samples 500 --seed 42
    orlicz-lab verify [--suite young] [--config cfg.ini] [--seed 42]
                      [--format lines|table] [--out report.txt]

Vector files are line oriented: coord1,coord2,...,re,im.  Configuration
is a sectioned key=value file (see SuiteConfig); flags override the
file, the file overrides defaults, and ORLICZ_LAB_CONFIG names a default
file.  Exit codes: 0 all checks pass, 1 any failure, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from . import algebra
from .cocycles import (
    cocycle_identity_residual,
    decomposition_witness,
    normalization_residual,
    polar_decompose,
    sup_norm_estimate,
)
from .errors import ConfigError, OrliczLabError
from .harness import SUITE_ORDER, emit_report, run_all
from .space import orlicz_gauges
from .specs import (
    SuiteConfig,
    _config_errors,
    format_vector,
    parse_cocycle,
    parse_group,
    parse_pair,
    parse_vector_file,
    parse_weight,
)
from .young import conjugate, delta2_estimate, strong_equivalence

CONFIG_ENV = "ORLICZ_LAB_CONFIG"


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="orlicz-lab", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    young = sub.add_parser("young", help="Young-function calculus")
    ysub = young.add_subparsers(dest="young_command", required=True)
    yc = ysub.add_parser("conjugate", help="evaluate the numeric conjugate")
    yc.add_argument("--phi", required=True, help="catalog name, e.g. pnorm:3 or xlog")
    yc.add_argument("--at", required=True, help="comma-separated y values")
    yd = ysub.add_parser("delta2", help="doubling-constant estimate")
    yd.add_argument("--phi", required=True)
    ye = ysub.add_parser("equiv", help="strong-equivalence witnesses")
    ye.add_argument("--phi1", required=True, help="catalog name; conj:<name> for a conjugate")
    ye.add_argument("--phi2", required=True)
    ye.add_argument("--xmax", type=float, default=30.0)

    group = sub.add_parser("group", help="balls, growth, weights")
    gsub = group.add_subparsers(dest="group_command", required=True)
    gb = gsub.add_parser("ball", help="enumerate a ball")
    gb.add_argument("--group", required=True)
    gb.add_argument("--radius", type=int, required=True)
    gg = gsub.add_parser("growth", help="growth-order fit")
    gg.add_argument("--group", required=True)
    gg.add_argument("--max-r", type=int, required=True)
    gw = gsub.add_parser("weight", help="evaluate a weight")
    gw.add_argument("--group", required=True)
    gw.add_argument("--kind", required=True, help="weight spec, e.g. poly:2")
    gw.add_argument("--at", required=True, help="comma-separated coordinates")

    coc = sub.add_parser("cocycle", help="cocycle verification")
    csub = coc.add_subparsers(dest="cocycle_command", required=True)
    cc = csub.add_parser("check", help="identity and normalization residuals")
    cc.add_argument("--group", required=True)
    cc.add_argument("--weight", help="weight spec for a coboundary")
    cc.add_argument("--cocycle", help="full cocycle spec (overrides --weight)")
    cc.add_argument("--radius", type=int, default=4)
    cw = csub.add_parser("witness", help="decomposition witness search")
    cw.add_argument("--group", default="z2")
    cw.add_argument("--weight", required=True)
    cw.add_argument("--radius", type=int, default=15)
    cp = csub.add_parser("polar", help="polar decomposition report")
    cp.add_argument("--group", required=True)
    cp.add_argument("--cocycle", required=True)
    cp.add_argument("--radius", type=int, default=3)

    norm = sub.add_parser("norm", help="norms of a vector file")
    norm.add_argument("--phi", required=True, help="catalog pair name")
    norm.add_argument("--group", default="z2")
    norm.add_argument("--vec", required=True)

    conv = sub.add_parser("conv", help="twisted convolution")
    conv.add_argument("rest", nargs="?", choices=["probe"], help="subcommand: probe")
    conv.add_argument("--group", default="z2")
    conv.add_argument("--cocycle", default="trivial")
    conv.add_argument("--f")
    conv.add_argument("--g")
    conv.add_argument("--phi", default="pnorm:2")
    conv.add_argument("--radius", type=int, default=8)
    conv.add_argument("--samples", type=int, default=100)
    conv.add_argument("--seed", type=int, default=0)

    verify = sub.add_parser("verify", help="run the verification suites")
    verify.add_argument("--suite", action="append", choices=SUITE_ORDER, help="repeatable; default all")
    verify.add_argument("--config", help="config file path")
    verify.add_argument("--seed", type=int)
    verify.add_argument("--samples", type=int)
    verify.add_argument("--format", choices=["lines", "table"], default="lines")
    verify.add_argument("--out", help="write the report here instead of stdout")
    return top


def _load_config(args) -> SuiteConfig:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    cfg = SuiteConfig.from_file(path) if path else SuiteConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "samples", None) is not None:
        cfg = replace(cfg, samples=args.samples)
    return cfg


def _young_fn(spec: str):
    """A catalog function, or its numeric conjugate via a conj: prefix."""
    if spec.startswith("conj:"):
        return parse_pair(spec[5:]).psi
    return parse_pair(spec).phi


def _cmd_young(args) -> int:
    if args.young_command == "conjugate":
        pair = parse_pair(args.phi)
        with _config_errors("list of numbers", args.at):
            ys = np.array([float(v) for v in args.at.split(",")])
        psi = pair.psi if pair.psi.numeric else conjugate(pair.phi)
        for y, val in zip(ys, np.atleast_1d(psi(ys))):
            print(f"conj({args.phi})({y:g}) = {float(val)!r}")
        return 0
    if args.young_command == "delta2":
        est = delta2_estimate(parse_pair(args.phi).phi)
        if est.bounded:
            print(f"doubling constant K = {est.constant!r} (bounded)")
        else:
            print("unbounded: doubling ratios along the grid tail:")
            for x, r in list(zip(est.grid, est.ratios))[-5:]:
                print(f"  x = {x:.3e}   ratio = {r:.6e}")
        return 0
    phi1 = _young_fn(args.phi1)
    phi2 = _young_fn(args.phi2)
    grid = np.logspace(-2, math.log10(args.xmax), 40)
    res = strong_equivalence(phi1, phi2, grid=grid)
    if res.found:
        print(f"witnesses: a = {res.a!r}, b = {res.b!r}")
        return 0
    print(
        f"not equivalent on the grid: candidate {res.failing_candidate!r} "
        f"fails at x = {res.failing_x!r} by {res.gap!r}"
    )
    return 1


def _cmd_group(args) -> int:
    group = parse_group(args.group)
    if args.group_command == "ball":
        ball = group.ball(args.radius)
        print(f"# |B_{args.radius}| = {len(ball)} on {group!r}")
        for g in ball:
            print(",".join(str(c) for c in g))
        return 0
    if args.group_command == "growth":
        fit = group.growth_order_estimate(args.max_r)
        print(f"d_hat = {fit.d_hat!r}  fit_residual = {fit.fit_residual!r}")
        print(f"envelope constants: c1 = {fit.c1!r}, c2 = {fit.c2!r}")
        for n, c in zip(fit.radii, fit.counts):
            print(f"  |B_{n}| = {c}")
        return 0
    w = parse_weight(args.kind, group)
    with _config_errors("element", args.at):
        g = group.element(args.at.split(","))
    print(f"{w.label}({g}) = {w(g)!r}   (tau = {group.word_length(g)})")
    return 0


def _cmd_cocycle(args) -> int:
    group = parse_group(args.group)
    if args.cocycle_command == "check":
        spec = args.cocycle or args.weight
        if spec is None:
            raise ConfigError("give --weight or --cocycle")
        om = parse_cocycle(spec, group)
        ident = cocycle_identity_residual(om, args.radius)
        norm = normalization_residual(om, args.radius)
        sup = sup_norm_estimate(om, args.radius)
        print(f"cocycle {om.label} on {group!r}, ball radius {args.radius}")
        print(f"  identity residual      = {ident!r}")
        print(f"  normalization residual = {norm!r}")
        print(f"  sup |Omega|            = {sup!r}")
        return 0 if ident <= 1e-10 and norm <= 1e-12 else 1
    if args.cocycle_command == "witness":
        om = parse_cocycle(args.weight, group)
        wit = decomposition_witness(om, args.radius)
        print(f"witness for {om.label}: {wit.description}")
        print(f"  verified radius = {wit.verified_radius}")
        print(f"  max violation   = {wit.max_violation!r} (<= 0 means verified)")
        return 0 if wit.max_violation <= 0.0 else 1
    om = parse_cocycle(args.cocycle, group)
    modulus, phase = polar_decompose(om)
    print(f"polar factors of {om.label}:")
    for name, factor in (("modulus", modulus), ("phase", phase)):
        print(f"  {name}: identity residual on radius {args.radius} = "
              f"{cocycle_identity_residual(factor, args.radius)!r}")
    return 0


def _cmd_norm(args) -> int:
    group = parse_group(args.group)
    pair = parse_pair(args.phi)
    f = parse_vector_file(args.vec, group)
    norm, gap, lux = orlicz_gauges(pair, f)[:, 0].tolist()
    print(f"luxemburg = {lux!r}")
    print(f"orlicz    = {norm!r}")
    print(f"method agreement gap = {gap!r}")
    return 0


def _cmd_conv(args) -> int:
    group = parse_group(args.group)
    if args.rest == "probe":
        pair = parse_pair(args.phi)
        om = parse_cocycle(args.cocycle, group)
        radii = (max(1, args.radius // 2), args.radius)
        rows = algebra.submultiplicativity_probe(pair, om, radii, args.samples, args.seed)
        print("# c_hat is an empirical lower bound for the true constant")
        for radius, c_hat, samples in rows:
            print(f"radius {radius}: c_hat = {c_hat!r} ({samples} samples, seed {args.seed})")
        return 0
    if not args.f or not args.g:
        raise ConfigError("conv needs --f and --g vector files")
    om = parse_cocycle(args.cocycle, group)
    f = parse_vector_file(args.f, group)
    g = parse_vector_file(args.g, group)
    sys.stdout.write(format_vector(algebra.twisted_convolve(om, f, g)))
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    with _config_errors("output file", args.out):  # before the run, which it would lose
        out = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    with out as fh:
        records = run_all(cfg, args.suite)
        fh.write(emit_report(records, args.format, cfg=cfg))
    return 0 if all(r.verdict == "pass" for r in records) else 1


# The bound each numeric flag must meet, by subcommand: (flag, bound, strict).
_FLAG_BOUNDS = {
    "equiv": (("xmax", 0, True),),
    "ball": (("radius", 0, False),),
    "growth": (("max_r", 6, False),),
    "check": (("radius", 0, False),),
    "witness": (("radius", 0, False),),
    "polar": (("radius", 0, False),),
    "probe": (("radius", 1, False), ("samples", 1, False), ("seed", 0, False)),
}


def _check_flags(args) -> None:
    """Raise ConfigError for a numeric flag out of its subcommand's bounds."""
    sub = getattr(args, f"{args.command}_command", None) or getattr(args, "rest", None)
    for name, bound, strict in _FLAG_BOUNDS.get(sub, ()):
        value = getattr(args, name)
        if not (value > bound if strict else value >= bound):
            op = ">" if strict else ">="
            raise ConfigError(f"--{name.replace('_', '-')} must be {op} {bound}, got {value!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "young": _cmd_young,
        "group": _cmd_group,
        "cocycle": _cmd_cocycle,
        "norm": _cmd_norm,
        "conv": _cmd_conv,
        "verify": _cmd_verify,
    }
    try:
        _check_flags(args)
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OrliczLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
