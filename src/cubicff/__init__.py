"""Exact arithmetic in cubic function fields of characteristic three.

Layers, bottom up: `ff` (GF(3^m)), `polyring` (F_q[x] and its number
theory), `curve` (standard models), `order` (integral basis, norms, genus),
`places` (splitting, prime power bases), `ideals`/`idealarith` (triangular
ideal arithmetic), `classgroup` (minimal elements, canonical bases,
composition/reduction), `oracle` (brute-force cross-checks), `cli`.
"""

from .ff import Fq, GF3
from .polyring import Poly
from .curve import Curve, GeneralCubic, standardize
from .order import OrderData, Element, compute_order_data
from .places import SplitTag, split_finite, split_infinite
from .ideals import Ideal, unit_ideal, principal_ideal
from .idealarith import (
    ideal_contains,
    ideal_divide,
    ideal_invert,
    ideal_mul,
    ideal_norm,
)
from .classgroup import comp_red, is_reduced, min_element, can_basis

__all__ = [
    "Fq",
    "GF3",
    "Poly",
    "Curve",
    "GeneralCubic",
    "standardize",
    "OrderData",
    "Element",
    "compute_order_data",
    "SplitTag",
    "split_finite",
    "split_infinite",
    "Ideal",
    "unit_ideal",
    "principal_ideal",
    "ideal_contains",
    "ideal_divide",
    "ideal_invert",
    "ideal_mul",
    "ideal_norm",
    "comp_red",
    "is_reduced",
    "min_element",
    "can_basis",
]

__version__ = "0.1.0"
