"""Known-mechanism reweighting: weights ``1 / PrS(t)`` (paper Sec. 4.1).

:func:`declared_mechanism_weights` works from the sample's *declaration*
alone (the real Mosaic setting, where populations are never stored).
Uniform mechanisms need nothing else; stratified mechanisms recover
per-stratum population counts from a 1-D marginal over the stratification
attribute.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.metadata import Marginal
from repro.catalog.sample import SampleRelation
from repro.errors import ReweightError
from repro.mechanisms.stratified import StratifiedMechanism
from repro.mechanisms.uniform import UniformMechanism
from repro.relational.groupby import group_rows


def declared_mechanism_weights(
    sample: SampleRelation,
    marginals: list[Marginal] | None = None,
) -> np.ndarray:
    """Inverse-probability weights from the sample's declared mechanism.

    Raises :class:`ReweightError` when the declaration alone cannot pin
    down ``PrS(t)`` (e.g. stratified without a marginal over the
    stratification attribute) — the engine then falls back to IPF.
    """
    mechanism = sample.mechanism
    if mechanism is None:
        raise ReweightError(
            f"sample {sample.name!r} has no declared sampling mechanism"
        )
    if isinstance(mechanism, UniformMechanism):
        weight = 100.0 / mechanism.percent
        return np.full(sample.num_rows, weight, dtype=np.float64)
    if isinstance(mechanism, StratifiedMechanism):
        return _stratified_weights(sample, mechanism, marginals or [])
    raise ReweightError(
        f"cannot derive inclusion probabilities for mechanism "
        f"{mechanism.describe()} from its declaration alone"
    )


def _stratified_weights(
    sample: SampleRelation,
    mechanism: StratifiedMechanism,
    marginals: list[Marginal],
) -> np.ndarray:
    """Stratified weights ``N_s / n_s`` using a marginal for the ``N_s``."""
    attribute = mechanism.attribute
    stratum_sizes = _stratum_sizes_from_marginals(attribute, marginals)
    if stratum_sizes is None:
        raise ReweightError(
            f"stratified mechanism on {attribute!r} needs a 1-D marginal over "
            f"{attribute!r} (or a 2-D marginal including it) to recover "
            "per-stratum population counts"
        )
    weights = np.zeros(sample.num_rows, dtype=np.float64)
    for key, indices in group_rows(sample.relation, [attribute]):
        population_count = stratum_sizes.get(key[0])
        if population_count is None:
            raise ReweightError(
                f"sample stratum {key[0]!r} is missing from the marginal over "
                f"{attribute!r}"
            )
        weights[indices] = population_count / len(indices)
    return weights


def _stratum_sizes_from_marginals(
    attribute: str, marginals: list[Marginal]
) -> dict[object, float] | None:
    for marginal in marginals:
        if attribute in marginal.attributes:
            projected = marginal.project(attribute)
            return {key[0]: mass for key, mass in projected.cells()}
    return None
