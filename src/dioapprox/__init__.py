"""Exact Diophantine approximation toolkit.

Modules:
    exactnum  -- integers, rationals, quadratic irrationals, exact signs
    farey     -- Farey series: enumeration, neighbors, embedding, brackets
    approx    -- Dirichlet / Segre / Hurwitz / one-sided certificates
    beatty    -- floor sequences: windows, partitions, certificates, probes
    nonarch   -- Laurent-series non-Archimedean field with an integer part
    oracle    -- brute-force references used by the test suite
    cli       -- command-line interface with exact-string JSON output
"""

from .exactnum import (
    ExactReal,
    QuadIrr,
    compare,
    ensure_exact,
    floor_of,
    format_exact,
    parse_exact,
    quad,
    radical_sign,
    sqrt_int,
)

__version__ = "0.1.0"

__all__ = [
    "ExactReal",
    "QuadIrr",
    "compare",
    "ensure_exact",
    "floor_of",
    "format_exact",
    "parse_exact",
    "quad",
    "radical_sign",
    "sqrt_int",
    "__version__",
]
