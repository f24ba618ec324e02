"""Per-epoch run records shared by every training phase."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RunRecord"]


@dataclass
class RunRecord:
    """One epoch of one trial.

    ``phase`` names the stage that produced the record (for instance
    ``pretrain`` or ``train``).  Loss and accuracy fields are ``None`` when
    the phase has no matching split; ``metrics`` carries any extra per-epoch
    scalars (alignment angles, effective ranks, ...) keyed by name.
    """

    trial: int
    phase: str
    epoch: int
    train_loss: float | None
    test_loss: float | None
    train_acc: float | None
    test_acc: float | None
    metrics: dict[str, float] = field(default_factory=dict)
