"""Exact-arithmetic multiplicity polynomials for tensor products of
irreducible characters of finite general linear and unitary groups."""

__version__ = "0.1.0"
