"""Indexed removal against a plain-list FIFO model.

``Scheduler.remove`` is an index lookup that marks the entry dead and
drops it once it reaches its class head.  Random enqueue / dequeue /
remove sequences — duplicates, re-enqueue after remove, removing absent
items, draining to empty — must leave every discipline agreeing with a
per-class list model: the same item served from the class the
discipline picked, the same ``backlog`` per class and the same ``len``
after every step.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import (
    DrrScheduler,
    LotteryScheduler,
    StrideScheduler,
    WfqScheduler,
)

CLASSES = ("a", "b", "c")

FACTORIES = {
    "stride": StrideScheduler,
    "lottery": lambda: LotteryScheduler(rng=random.Random(7)),
    "wfq": WfqScheduler,
    "drr": DrrScheduler,
}

_item = st.integers(min_value=0, max_value=4)
_cls = st.sampled_from(CLASSES)
_op = st.one_of(
    st.tuples(st.just("enq"), _cls, _item, st.sampled_from((0.5, 1.0, 2.0))),
    st.tuples(st.just("deq")),
    st.tuples(st.just("rm"), _cls, _item),
)


def _check_counts(scheduler, model):
    for name in CLASSES:
        assert scheduler.backlog(name) == len(model[name])
    assert len(scheduler) == sum(len(queue) for queue in model.values())


@pytest.mark.parametrize("discipline", sorted(FACTORIES))
@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_op, max_size=60))
def test_indexed_removal_matches_fifo_model(discipline, ops):
    scheduler = FACTORIES[discipline]()
    weights = {"a": 1.0, "b": 2.0, "c": 0.5}
    for name in CLASSES:
        scheduler.add_class(name, weight=weights[name])
    model = {name: [] for name in CLASSES}

    def serve_one():
        served = scheduler.dequeue()
        if served is None:
            assert not any(model.values())
            return False
        name, item = served
        assert model[name] and model[name][0] == item
        model[name].pop(0)
        return True

    for op in ops:
        if op[0] == "enq":
            _, name, item, size = op
            woke = not model[name]
            before = getattr(scheduler, "_pass", {}).get(name)
            scheduler.enqueue(name, item, size)
            model[name].append(item)
            if discipline == "stride":
                # Only a class waking from idle re-enters at the global
                # pass: the ``len == 1`` check must see through removed
                # entries.
                if woke:
                    assert scheduler._pass[name] >= scheduler._global_pass
                else:
                    assert scheduler._pass[name] == before
        elif op[0] == "deq":
            serve_one()
        else:
            _, name, item = op
            present = item in model[name]
            assert scheduler.remove(name, item) is present
            if present:
                model[name].remove(item)
        _check_counts(scheduler, model)
    while serve_one():
        _check_counts(scheduler, model)
    _check_counts(scheduler, model)
    assert scheduler.dequeue() is None
