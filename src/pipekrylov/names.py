"""The one spelling rule for the names of methods, preconditioner kinds,
problems and option keys."""

from __future__ import annotations


def canonical_name(value: str) -> str:
    """A name trimmed, lower-cased and with dashes as underscores, so that
    ``" Block-Jacobi "`` and ``"block_jacobi"`` name the same thing."""
    return value.strip().lower().replace("-", "_")
