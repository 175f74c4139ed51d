"""Exact-arithmetic multiplicity polynomials for tensor products of
irreducible characters of finite general linear and unitary groups."""

from .coeffs import PolyQU, poly_to_str
from .multiplicities import (
    MasterContext,
    SignData,
    T_poly,
    T_poly_product_oracle,
    U_poly,
    U_poly_product_oracle,
    Uprime_poly,
    Uprime_poly_product_oracle,
    V_poly,
    Vprime_poly,
    build_context,
    d_mu,
    phi_prime,
    phi_u,
    verify_suite,
)
from .partitions import (
    Partition,
    MultiPartition,
    parse_multipartition,
    parse_partition,
    partition_to_text,
)
from .types import parse_multitype, parse_type, type_to_text

__version__ = "0.1.0"

__all__ = [
    "MasterContext",
    "MultiPartition",
    "Partition",
    "PolyQU",
    "SignData",
    "T_poly",
    "T_poly_product_oracle",
    "U_poly",
    "U_poly_product_oracle",
    "Uprime_poly",
    "Uprime_poly_product_oracle",
    "V_poly",
    "Vprime_poly",
    "build_context",
    "d_mu",
    "parse_multipartition",
    "parse_multitype",
    "parse_partition",
    "parse_type",
    "partition_to_text",
    "phi_prime",
    "phi_u",
    "poly_to_str",
    "type_to_text",
    "verify_suite",
    "__version__",
]
