"""Graceful degradation for the evaluation accelerator.

The algebra planner is an *optimization* with a built-in referee: its
``verify`` mode re-runs the tree walk and raises
:class:`~repro.errors.PlannerMismatch` when the plan disagrees.  Raising
is the right default for a correctness harness — but in production the
right response to "my accelerator is wrong" is not to fail the user's
commit, it is to *stop using the accelerator*: the slow path's answer is
in hand and is correct by construction.  The planner is this module's one
client.

``quarantine=True`` switches the planner to that posture.  On the
first mismatch the component disables itself for the rest of the run,
emits a structured :class:`QuarantineWarning`, increments
``repro_quarantined_total{component=...}``, and the commit/query proceeds
on the full evaluation.  Every later call bypasses the quarantined
component entirely, so one bad entry cannot keep paying verify costs or
re-trip on every access.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry


class QuarantineWarning(UserWarning):
    """An evaluation accelerator disagreed with the full path and was
    disabled for the rest of the run.

    Carries the component name and the mismatch detail so operators can
    alert on the warning (or on ``repro_quarantined_total``) and file the
    mismatch as the bug it is — quarantine keeps the database correct, it
    does not make the accelerator right.
    """

    def __init__(self, component: str, detail: str) -> None:
        self.component = component
        self.detail = detail
        super().__init__(
            f"{component} quarantined (falling back to full evaluation): "
            f"{detail}"
        )


def quarantine_event(
    metrics: "Optional[MetricsRegistry]", component: str, detail: str
) -> None:
    """Record one component entering quarantine: warning + metric."""
    if metrics is not None:
        metrics.counter(
            "repro_quarantined_total",
            "evaluation components disabled after a verify mismatch",
            component=component,
        ).inc()
    warnings.warn(QuarantineWarning(component, detail), stacklevel=3)
