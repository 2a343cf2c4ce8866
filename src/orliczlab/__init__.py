"""Numerical laboratory for twisted Orlicz algebras on discrete groups.

The package itself holds only __version__; import the layer you need, so
that importing one layer runs no module above it:

    errors    the exception hierarchy
    groups    discrete groups, word lengths, balls and weights
    young     Young functions, numeric conjugates and the shared solvers
    space     finitely supported vectors and their Orlicz norms
    cocycles  2-cocycles, their identities and decomposition witnesses
    algebra   twisted convolution, module actions, duality and splitting
    specs     the spec grammar, SuiteConfig and vector files
    harness   the verification suites and the report
    cli       the orlicz-lab command
"""

__version__ = "0.1.0"
