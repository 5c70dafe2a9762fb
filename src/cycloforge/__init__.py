"""Exact arithmetic for cyclotomic and pseudocyclotomic polynomials.

Submodules: intpoly (polynomial ring), cyclotomic (the default route
and four oracles), pseudocyclo (coprime-parts generalization),
binary_structure (L diagrams), fjdecomp (residue-class families),
flatness (classifier and conjecture scans), verify_suites (property
bundles), cli.
"""

__version__ = "0.1.0"
