"""Semantic exception hierarchy for the numerical laboratory.

Every public function raises one of these instead of bare ValueError so
callers (and the verification harness) can distinguish input mistakes
from genuine numerical failures.
"""

from __future__ import annotations


class OrliczLabError(Exception):
    """Base error for this package."""


class InputError(OrliczLabError, ValueError):
    """Inputs violate a documented precondition (domain, shape, arity)."""


class GroupMismatchError(InputError):
    """Operands belong to different groups or have wrong coordinate arity."""


class NonMonotoneGeneratorError(InputError):
    """A density generator failed the strict-monotonicity probe.

    Carries the violating sample pair (x1, x2) with gen(x1) >= gen(x2).
    """

    def __init__(self, x1: float, x2: float, v1: float, v2: float):
        self.pair = (x1, x2)
        super().__init__(
            f"generator not strictly increasing: gen({x1!r})={v1!r} "
            f">= gen({x2!r})={v2!r}"
        )


class BracketOverflowError(OrliczLabError):
    """A search bracket grew past its cap before enclosing the solution.

    Carries the offending target y, the cap, and what was being solved.
    """

    def __init__(self, y: float, cap: float, task: str):
        self.y = y
        self.cap = cap
        self.task = task
        super().__init__(
            f"bracket grew past cap {cap!r} while {task} at target {y!r}"
        )


class SolverCapError(OrliczLabError):
    """An iterative solver used up its step budget without converging."""

    def __init__(self, task: str, steps: int):
        self.task = task
        self.steps = steps
        super().__init__(f"no convergence within {steps} steps while {task}")


class RadiusCapError(OrliczLabError):
    """Breadth-first word-length search gave up before reaching the element."""

    def __init__(self, element, radius_cap: int, element_cap: int):
        self.element = element
        self.radius_cap = radius_cap
        self.element_cap = element_cap
        super().__init__(
            f"element {element!r} not reached within radius cap {radius_cap} "
            f"/ element cap {element_cap}"
        )


class MemoryCapError(OrliczLabError):
    """Ball enumeration hit the element cap; carries the partial count."""

    def __init__(self, partial_count: int, cap: int):
        self.partial_count = partial_count
        self.cap = cap
        super().__init__(
            f"ball enumeration stopped at {partial_count} elements (cap {cap})"
        )


class InvariantViolationError(OrliczLabError):
    """A value violated an invariant its type promises (zero where positive, ...)."""


class MethodDisagreementError(OrliczLabError):
    """Two independent computations of the same quantity disagreed.

    This is a hard error on purpose: it signals an implementation fault,
    not a tolerance issue.
    """

    def __init__(self, a: float, b: float, rel_gap: float, limit: float):
        self.values = (a, b)
        self.rel_gap = rel_gap
        super().__init__(
            f"independent methods disagree: {a!r} vs {b!r} "
            f"(relative gap {rel_gap:.3e} > {limit:.1e})"
        )


class WitnessSearchError(OrliczLabError):
    """No candidate pair (u, v) dominated the cocycle modulus on the ball."""

    def __init__(self, worst_pair, violation: float, candidate: str):
        self.worst_pair = worst_pair
        self.violation = violation
        self.candidate = candidate
        super().__init__(
            f"no dominating (u, v) found; best candidate {candidate} violated "
            f"by {violation!r} at pair {worst_pair!r}"
        )


class FactorizationError(InputError):
    """Split factors do not reproduce the cocycle on the probed pairs."""

    def __init__(self, worst_pair, residual: float):
        self.worst_pair = worst_pair
        self.residual = residual
        super().__init__(
            f"factorization L*(u+v) misses the cocycle by {residual!r} "
            f"at pair {worst_pair!r}"
        )


class ConfigError(OrliczLabError):
    """Configuration file or CLI flags could not be parsed."""
