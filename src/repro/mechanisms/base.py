"""The sampling-mechanism interface."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ReweightError
from repro.relational.relation import Relation


class SamplingMechanism(ABC):
    """The probability of each population tuple entering the sample.

    A mechanism must be able to (a) report per-tuple inclusion
    probabilities ``PrS(t)`` against a reference population and (b) draw a
    concrete sample.  ``CREATE SAMPLE ... USING MECHANISM`` uses (b);
    known-mechanism SEMI-OPEN evaluation never sees the population, so it
    weights by the declaration alone
    (:func:`repro.reweight.inverse_probability.declared_mechanism_weights`).
    """

    @abstractmethod
    def inclusion_probabilities(self, population: Relation) -> np.ndarray:
        """``PrS(t)`` for every tuple of ``population`` (values in (0, 1])."""

    @abstractmethod
    def draw(self, population: Relation, rng: np.random.Generator) -> np.ndarray:
        """Row indices of one concrete sample drawn from ``population``."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable rendering, e.g. ``UNIFORM PERCENT 10``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


def validate_percent(percent: float) -> float:
    """Validate a PERCENT clause value (0 < percent <= 100)."""
    if not 0.0 < percent <= 100.0:
        raise ReweightError(f"PERCENT must be in (0, 100], got {percent}")
    return float(percent)


def sample_size(population_rows: int, percent: float) -> int:
    """Number of tuples a ``percent`` sample of ``population_rows`` contains."""
    size = int(round(population_rows * percent / 100.0))
    return max(1, min(size, population_rows)) if population_rows > 0 else 0
