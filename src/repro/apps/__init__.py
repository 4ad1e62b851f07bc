"""Downstream applications of the characterization (Sec. I use cases)."""

from .consolidation import (
    ConsolidationReport,
    consolidation_potential,
    pack_demands,
)
from .users import UserSummary, top_user_share, user_summary

__all__ = [
    "ConsolidationReport",
    "UserSummary",
    "consolidation_potential",
    "pack_demands",
    "top_user_share",
    "user_summary",
]
