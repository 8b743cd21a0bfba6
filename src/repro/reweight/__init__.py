"""SEMI-OPEN query machinery: sample reweighting (paper Sec. 4.1).

Two regimes:

- **Known mechanism** — reweight each tuple by the inverse of its inclusion
  probability, derived from the sample's declared mechanism
  (:func:`~repro.reweight.inverse_probability.declared_mechanism_weights`).
- **Unknown mechanism** — Iterative Proportional Fitting against the
  population marginals (:mod:`repro.reweight.ipf`), the technique Mosaic
  inherits from Themis [42].  Our implementation rakes tuple weights
  directly (classical IPF restricted to sample-occupied cells); a dense
  contingency-cube IPF (:mod:`repro.reweight.cube`) exists for small
  domains and for cross-validating the raking path.
"""

from repro.reweight.ipf import IpfResult, ipf_reweight
from repro.reweight.inverse_probability import declared_mechanism_weights

__all__ = [
    "ipf_reweight",
    "IpfResult",
    "declared_mechanism_weights",
]
