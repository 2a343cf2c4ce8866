"""Spec grammar and files shared by the CLI and the harness.

SuiteConfig is the sectioned key=value config that the suites read, with
its canonical text form.  The parse_* functions turn the CLI's group,
weight, cocycle and pair specs into objects and read vector files;
format_vector writes the vector-file line format back.  A malformed spec
or an unreadable file becomes a ConfigError that names it (exit code 2
in the CLI).
"""

from __future__ import annotations

import configparser
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .cocycles import (
    Cocycle,
    bilinear_phase,
    coboundary_from_weight,
    product_cocycle,
    trivial_cocycle,
)
from .errors import ConfigError
from .groups import (
    Group,
    Weight,
    polynomial_weight,
    product_weight,
    subexp_log_weight,
    subexp_weight,
    trivial_weight,
)
from .space import OrliczVector
from .young import ComplementaryPair, catalog_pair

__all__ = [
    "SuiteConfig",
    "parse_group",
    "parse_weight",
    "parse_cocycle",
    "parse_pair",
    "parse_vector_file",
    "format_vector",
]


# ---------------------------------------------------------------------------
# configuration


@contextmanager
def _config_errors(what: str, spec: str):
    """Turn the ValueError (InputError included), IndexError, ArithmeticError
    or OSError of a block that parses spec, or reads the file spec, into a
    ConfigError that names it."""
    try:
        yield
    except (ValueError, IndexError, ArithmeticError, OSError) as exc:
        raise ConfigError(f"bad {what} {spec!r}: {exc}") from exc


_CONFIG_KEYS = (  # (section, key, field, cast), in to_text order
    ("suite", "pair", "pair", str),
    ("suite", "radius", "radius", int),
    ("suite", "samples", "samples", int),
    ("suite", "seed", "seed", int),
    ("tolerances", "absolute", "tol_abs", float),
    ("tolerances", "relative", "tol_rel", float),
)


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs the suites read; every field has a default.

    The canonical text form (to_text) round-trips byte-identically
    through from_text.  An unknown pair name, or a radius or samples
    below 1, is a ConfigError here, so a bad config fails before any
    suite runs.
    """

    pair: str = "pnorm:2"
    radius: int = 4
    samples: int = 1000
    seed: int = 42
    tol_abs: float = 1e-9
    tol_rel: float = 1e-6

    def __post_init__(self):
        parse_pair(self.pair)
        for name in ("radius", "samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)!r}")

    def to_text(self) -> str:
        blocks = []
        for section in ("suite", "tolerances"):
            lines = [
                f"{key} = {getattr(self, name)}\n"
                for sec, key, name, _ in _CONFIG_KEYS
                if sec == section
            ]
            blocks.append(f"[{section}]\n" + "".join(lines))
        return "\n".join(blocks)

    @classmethod
    def from_text(cls, text: str) -> "SuiteConfig":
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        known = {(section, key): (name, cast) for section, key, name, cast in _CONFIG_KEYS}
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
        with _config_errors("config file", path), open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


# ---------------------------------------------------------------------------
# spec parsers (shared by config, CLI, and suites)


def parse_group(spec: str) -> Group:
    """z<d> free abelian, heis, cyc<n> cyclic."""
    spec = spec.strip().lower()
    with _config_errors("group spec", spec):
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
    if name == "trivial":
        return trivial_weight(group)
    if name == "poly":
        return polynomial_weight(group, float(args[0]))
    if name == "subexp":
        return subexp_weight(group, float(args[0]), float(args[1]))
    if name == "subexplog":
        return subexp_log_weight(group, float(args[0]), float(args[1]))
    raise ConfigError(f"unknown weight spec {spec!r}")


def parse_weight(spec: str, group: Group) -> Weight:
    """trivial | poly:<beta> | subexp:<alpha>:<C> | subexplog:<gamma>:<C>, '*'-products."""
    parts = [p.strip() for p in spec.split("*")]
    with _config_errors("weight spec", spec):
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
    with _config_errors("cocycle spec", spec):
        om = _parse_cocycle_atom(parts[0], group)
        for p in parts[1:]:
            om = product_cocycle(om, _parse_cocycle_atom(p, group))
    return om


def parse_pair(spec: str) -> ComplementaryPair:
    with _config_errors("pair spec", spec):
        return catalog_pair(spec.strip())


def parse_vector_file(path: str, group: Group) -> OrliczVector:
    """Line format: coord1,coord2,...,re,im (blank lines and # comments skipped).

    Repeated (or aliased) coordinates sum, as in every OrliczVector.
    """
    data = []
    with _config_errors("vector file", path), open(path, "r", encoding="utf-8") as fh:
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
