"""The OPEN aggregate path's test oracle: Sec. 5.3 read literally.

:func:`evaluate_open_loop` answers an aggregate one repetition at a time —
one ``generate`` and one ``execute_plan`` per repetition stream, the plan
run only up to its aggregate — then combines the answers with
``combine_open_answers`` (union, keep the keys present in every answer,
average) and runs the plan's ORDER BY/LIMIT once, over the combined
answer, through ``execute_plan`` as CLOSED queries run them.  It takes the
arguments of ``open_world._evaluate_open_stream``, so a test can patch it
in for the stream and compare the two answers.
"""

import numpy as np

from repro.engine import open_world
from repro.engine.compiler import execute_plan
from repro.engine.plan import AggregateNode, LogicalPlan
from repro.generative.streams import repetition_streams


def evaluate_open_loop(generator, config, population_size, rng, plan, predicate, rows):
    """One generate → execute round per repetition, then the combine."""
    end = next(
        index for index, node in enumerate(plan.nodes) if isinstance(node, AggregateNode)
    )
    aggregate = plan.nodes[end]
    through_aggregate = LogicalPlan(
        source_schema=plan.source_schema,
        nodes=plan.nodes[: end + 1],
        output_schema=aggregate.schema,
        weighted=plan.weighted,
    )
    repetitions = config.repetitions
    answers = []
    for stream in repetition_streams(rng, repetitions):
        generated = open_world._apply_view(
            open_world._generate(generator, rows, stream), predicate
        )
        if generated.num_rows:
            # Each generated tuple stands for population_size / rows
            # population tuples; the view filter keeps that scale.
            weights = np.full(generated.num_rows, population_size / rows)
            answers.append(execute_plan(through_aggregate, generated, weights))
    notes = open_world._participation_notes(repetitions, len(answers))
    notes.append(open_world._kept_note(len(answers)))
    aliases = {spec.alias for spec in aggregate.specs}
    combined = open_world.combine_open_answers(
        answers, [c for c in answers[0].column_names if c not in aliases]
    )
    tail = LogicalPlan(
        source_schema=combined.schema,
        nodes=plan.nodes[end + 1 :],
        output_schema=combined.schema,
    )
    return execute_plan(tail, combined), notes, {"repetitions_used": repetitions}
