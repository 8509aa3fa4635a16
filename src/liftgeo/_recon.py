"""The entry of a reconciled reference table.

A leaf module, so that only the readers of the paper's tables (gks and
oracle.reconcile_with_paper) load dataclasses; the other commands of the
cli never build an entry. ReconEntry stays a frozen dataclass because its
readers render it with dataclasses.asdict."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ReconEntry:
    """One reconciled entry. difference is computed - expected in printed
    form, given for a mismatch or an inconclusive entry; an annotated
    mismatch is a documented one, and note says why."""

    name: str
    status: str  # "match" | "mismatch" | "inconclusive"
    annotated: bool = False
    note: Optional[str] = None
    difference: Optional[str] = None
    witness: Optional[dict] = None
    value: Optional[float] = None
