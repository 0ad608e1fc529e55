"""Exceptions of the torus solver, importable without numpy.

`zcrit.surface` re-exports them, so `zcrit.surface.SurfaceError` is the
same class; the command line catches them here and the exact
subcommands never load numpy.
"""


class SurfaceError(ValueError):
    pass


class ClassObstructionError(SurfaceError):
    """The twisted class admits no positive solution branch."""


class NumericalFailureError(SurfaceError):
    """The iteration failed to reach the requested tolerance."""
