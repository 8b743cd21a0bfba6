"""Layer calls no workload's default path reaches, timed directly.

Traced runs only.  The worker pool is off by default, so nothing shares
or attaches a segment; M-SWG is the default generator, so the other two
never fit.  They are timed here, on the workload's own inputs, so the
one-layout and one-OPEN-path refactors the roadmap plans have a number
to hold flat.  Each figure is the median of :data:`REPEATS` calls.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.engine.open_world import BayesNetGenerator, IPFSynthesizer
from repro.generative.streams import repetition_streams
from repro.relational import shm
from repro.relational.relation import Relation

from . import stats

REPEATS = 5
REPETITIONS = 10  # OpenQueryConfig().repetitions


def _median_ms(call) -> float:
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        call()
        times.append((perf_counter() - start) * 1e3)
    return stats.median(times)


def shm_times(sample: Relation) -> dict[str, float]:
    """``share_relation`` then ``attach_relation`` of the whole sample."""
    share_ms, attach_ms = [], []
    try:
        for _ in range(REPEATS):
            start = perf_counter()
            handle = shm.share_relation(sample)
            share_ms.append((perf_counter() - start) * 1e3)
            try:
                start = perf_counter()
                attached = shm.attach_relation(handle.descriptor)
                attach_ms.append((perf_counter() - start) * 1e3)
                attached.close()
            finally:
                handle.release()  # unlinks the segment
    except OSError:
        # No shared memory on this machine: the layer cannot be timed.
        return {}
    return {
        "relational.shm_share_ms": stats.median(share_ms),
        "relational.shm_attach_ms": stats.median(attach_ms),
    }


def generator_times(sample: Relation, marginals: list) -> dict[str, float]:
    """Fit and one R=10 batch of the two non-default generators.

    The IPF synthesizer fits a dense cube, so it gets the (carrier,
    elapsed_time) projection and that pair's marginal — the whole
    five-attribute domain exceeds its cell limit by design.
    """
    rows = sample.num_rows

    def streams():
        return repetition_streams(np.random.default_rng(0), REPETITIONS)

    bayes = BayesNetGenerator()
    bayes_fit = _median_ms(lambda: BayesNetGenerator().fit(sample, marginals))
    bayes.fit(sample, marginals)
    bayes_generate = _median_ms(lambda: bayes.generate_batch_streams(rows, streams()))

    pair = ("carrier", "elapsed_time")
    projected = sample.project(list(pair))
    pair_marginals = [m for m in marginals if tuple(m.attributes) == pair]
    synth = IPFSynthesizer()
    synth_fit = _median_ms(lambda: IPFSynthesizer().fit(projected, pair_marginals))
    synth.fit(projected, pair_marginals)
    synth_generate = _median_ms(lambda: synth.generate_batch_streams(rows, streams()))
    return {
        "bayesnet.fit_ms": bayes_fit,
        "bayesnet.generate_ms": bayes_generate,
        "generative.ipf_synth_fit_ms": synth_fit,
        "generative.ipf_synth_generate_ms": synth_generate,
    }
