"""Per-repetition RNG streams and repetition-id tagging for OPEN execution.

The OPEN path answers a query from ``repetitions`` independent generated
samples (paper Sec. 5.3).  The engine produces them as stacked
``c x n``-row chunks (``generate_batch_streams``, or one ``generate`` per
stream for a generator without it); Sec. 5.3's one-sample-at-a-time loop
survives only as the tests' reference.  Every repetition draws from its
*own* RNG stream, whichever way it is produced, so all of them are
bit-identical:

- :func:`repetition_streams` derives ``count`` independent generators from
  a single draw on the session RNG.  One ``integers`` draw seeds a root
  :class:`~numpy.random.SeedSequence` whose spawned children drive the
  generation rounds, so a round's output depends only on the session RNG
  state at query start and its own index — never on scheduling or on
  whether the rounds were batched.
- :func:`with_repetition_ids` appends the dense ``__rep__`` id column a
  batched generation carries (row ``i`` belongs to repetition ``i // n``),
  which the engine later composes with group codes into composite
  ``(rep, group)`` keys.
- :func:`repetition_chunks` decomposes a repetition budget into the
  contiguous ``[start, stop)`` ranges the stream generates one chunk at
  a time.

The chunked-stream contract: :class:`~numpy.random.SeedSequence` children
depend only on their spawn index, so ``repetition_streams(rng, cap)``
yields the *same* stream ``r`` regardless of ``cap`` — and a chunked
generation that consumes ``streams[start:stop]`` per chunk draws values
bit-identical to one monolithic batch (or the serial loop) over the same
repetitions.  Chunking never changes a drawn value; it only changes how
many repetitions are materialised at once.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GenerativeModelError
from repro.relational.dtypes import DType
from repro.relational.relation import Relation

#: Name of the dense repetition-id column a batched generation carries.
REPETITION_COLUMN = "__rep__"


def repetition_streams(
    rng: np.random.Generator, count: int
) -> list[np.random.Generator]:
    """``count`` independent RNG streams from a single draw on ``rng``."""
    root = np.random.SeedSequence(int(rng.integers(np.iinfo(np.int64).max)))
    return [np.random.default_rng(child) for child in root.spawn(count)]


def repetition_chunks(count: int, chunk: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` repetition ranges of at most ``chunk``.

    The OPEN stream walks these ranges in order, generating
    ``streams[start:stop]`` per round; the final range may be shorter.
    """
    if count <= 0:
        raise GenerativeModelError(f"need a positive repetition count, got {count}")
    step = max(1, chunk)
    return [(start, min(start + step, count)) for start in range(0, count, step)]


def with_repetition_ids(relation: Relation, repetitions: int) -> Relation:
    """Tag a stacked ``R x n``-row generation with its ``__rep__`` column.

    The relation must hold the repetitions contiguously in order: rows
    ``[r*n, (r+1)*n)`` are repetition ``r``.  The id column is appended
    without touching the existing columns (or their dictionary encodings).
    """
    if repetitions <= 0:
        raise GenerativeModelError(
            f"need a positive repetition count, got {repetitions}"
        )
    total = relation.num_rows
    if total % repetitions != 0:
        raise GenerativeModelError(
            f"batch of {total} row(s) is not divisible into {repetitions} "
            "equal repetitions"
        )
    per_repetition = total // repetitions
    ids = np.repeat(np.arange(repetitions, dtype=np.int64), per_repetition)
    return relation.with_column(REPETITION_COLUMN, DType.INT, ids)
