"""Typed error hierarchy for runtime invariant violations.

Library code must not guard real invariants with bare ``assert`` — those
checks vanish under ``python -O`` and the repro-lint rule R005 rejects
them.  This module gives the replacement ``raise`` statements a common
root so callers (and the test suite) can catch "the simulator detected an
internal inconsistency" as one category, distinct from bad user input
(``ValueError``) or environmental failures.

The hierarchy is deliberately shallow:

``ReproError``
    Root of everything this package raises for *internal* defects.

``InvariantError``
    A structural invariant did not hold (block accounting, process
    results, conservation counts).  Raised by library code at the point
    of detection.

``SanitizerError``
    Raised only by the opt-in shadow validator in :mod:`repro.sanitize`,
    with the offending engine event attached — see ``docs/development.md``.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["ReproError", "InvariantError", "SanitizerError"]


class ReproError(RuntimeError):
    """Root for internal-defect errors raised by :mod:`repro`."""


class InvariantError(ReproError):
    """A structural runtime invariant did not hold."""


class SanitizerError(InvariantError):
    """An invariant broke during shadow validation of an engine run.

    Attributes
    ----------
    event:
        The ``(time_s, posted_s, seq, kind, payload)`` engine event (or a
        human-readable stand-in such as ``("arrival", request_id)``)
        after which the violation was detected; ``None`` when the
        violation was found outside event handling.
    check:
        Short machine-readable name of the failed check, e.g.
        ``"event-time-monotonic"`` or ``"kv-block-conservation"``.
    """

    def __init__(self, message: str, *, check: str,
                 event: Optional[Any] = None) -> None:
        detail = f"[{check}] {message}"
        if event is not None:
            detail += f" (offending event: {event!r})"
        super().__init__(detail)
        self.check = check
        self.event = event
