"""Themis-style Bayesian-network population model (paper Sec. 4.1/4.2).

The paper's prior system Themis [42] pairs IPF with a Bayesian network
that "represent[s] the population probability distribution"; Sec. 4.2 notes
that with an explicit model like a BN, ``COUNT(*)`` queries can be answered
*by inference, without materialising tuples*, while group-by/top-k need a
materialised sample.  This subpackage provides both capabilities:

- :mod:`repro.bayesnet.structure` — Chow-Liu tree structure learning
  (maximum spanning tree over pairwise mutual information, computed from
  weighted sample counts) by Kruskal's algorithm.
- :mod:`repro.bayesnet.cpd` — conditional probability tables with Laplace
  smoothing.
- :mod:`repro.bayesnet.model` — fit / exact-COUNT inference / ancestral
  sampling, plus the marginal-calibration step that fits the BN to
  population marginals rather than the biased sample alone.
"""

from repro.bayesnet.model import BayesianNetworkModel

__all__ = ["BayesianNetworkModel"]
