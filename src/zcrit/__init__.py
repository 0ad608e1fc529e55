"""Exact asymptotic stability arithmetic and a torus critical-equation solver.

The exact layer (gaussian, numring, charge, stability, extension,
exactlp, realroots) works over rationals and Gaussian rationals with
no floating point. The numerical layer (surface) solves the critical
equation for a line bundle over a flat complex 2-torus through its
Monge-Ampere form. config and cli wire both into the zcrit command.
Import names from those submodules; the package exports only its version.
"""

__version__ = "0.1.0"
