"""Query visibility levels (paper Sec. 3.3).

The visibility of a query controls how freely Mosaic may use the samples
underlying a population:

- ``CLOSED`` — answer directly over the sample, no debiasing.  This is the
  closed world assumption: tuples not in the database do not exist.
- ``SEMI_OPEN`` — the engine may *reweight* sample tuples (inverse
  inclusion probability when the mechanism is known, IPF against marginals
  otherwise).  Open world, but no new tuples: zero false positives, up to
  ``n`` false negatives where ``n`` is the number of population tuples
  missing from the sample.
- ``OPEN`` — the engine may additionally *generate* missing tuples with a
  generative model: at most ``n`` false negatives but possibly nonzero
  false positives.
"""

from __future__ import annotations

import enum

from repro.errors import VisibilityError


class Visibility(enum.Enum):
    """How much freedom query evaluation has over the underlying samples."""

    CLOSED = "CLOSED"
    SEMI_OPEN = "SEMI-OPEN"
    OPEN = "OPEN"

    @classmethod
    def parse(cls, text: str) -> "Visibility":
        """Parse the SQL keyword form (``SEMI-OPEN`` or ``SEMI_OPEN``)."""
        normalized = text.strip().upper().replace("_", "-")
        for member in cls:
            if member.value == normalized:
                return member
        raise VisibilityError(f"unknown visibility level: {text!r}")

    def __str__(self) -> str:
        return self.value
