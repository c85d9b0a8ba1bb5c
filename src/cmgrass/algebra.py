"""Convenience facade over the scalar/polynomial/operator layers."""

from __future__ import annotations

from .laurent import LaurentJet, laurent_expand
from .pdo import MatPDO, DEFAULT_DEPTH

__all__ = ["LaurentJet", "laurent_expand", "MatPDO", "DEFAULT_DEPTH",
           "pdo_mul", "pdo_star_mul", "pdo_b", "pdo_invert", "is_differential"]


def pdo_mul(P: MatPDO, Q: MatPDO, depth: int = None) -> MatPDO:
    """Composition P . Q truncated below -depth."""
    return P.mul(Q, depth=depth)


def pdo_star_mul(P: MatPDO, Q: MatPDO) -> MatPDO:
    """Opposite-ring matrix product (Q^t P^t)^t."""
    return P.star_mul(Q)


def pdo_b(P: MatPDO) -> MatPDO:
    """Entrywise swap of the variable and the derivative symbol."""
    return P.b_involution()


def pdo_invert(P: MatPDO, depth: int = None) -> MatPDO:
    """Inverse of I + (negative orders), solved order by order."""
    return P.invert(depth=depth)


def is_differential(P: MatPDO, depth: int = None) -> bool:
    """True iff no negative orders survive above the truncation."""
    return P.is_differential(depth)
