"""Verification toolkit for intermediate (Gentile) statistics.

Exact Laurent arithmetic in a formal deformation parameter q, dense
matrix representations of the deformed ladder algebra
[b, a†]_n = b a† − e^{i2π/(n+1)} a† b = 1, a symbolic engine (parser,
free expansion, quotient-algebra normal ordering), an identity-audit
catalog with symbolic and numeric cross-checks, generalized-Grassmann
coherent states, the intermediate-statistics oscillator spectrum, and
su(2) representations built from a single set of ladder operators.
"""
