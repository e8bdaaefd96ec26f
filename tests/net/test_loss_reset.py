"""Loss-model streams across a fault's swap-out and swap-back.

Loss models have no ``reset()``: ``LinkOutage`` and ``LossEpisode`` put
the *same object* back on the channel (pinned by object identity in
``tests/faults/test_faults.py``), so a model's stream is never rewound
and each model must own its stream from construction on.
"""

from repro.net import BernoulliLoss


def draw(model, n=200):
    return [model.is_lost() for _ in range(n)]


def test_default_stream_instances_are_independent():
    # Two models built without an explicit rng must not share a loss
    # sequence (the old shared random.Random(0) default did).
    a = BernoulliLoss(0.5)
    b = BernoulliLoss(0.5)
    assert draw(a, 500) != draw(b, 500)
