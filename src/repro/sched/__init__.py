"""Proportional-share link schedulers.

Section 4 of the paper shares the sender's data bandwidth between a
"hot" (new data) and a "cold" (background retransmission) queue, and
names lottery scheduling, weighted fair queueing, and stride scheduling
as suitable mechanisms; Section 6 (Figure 12) uses a hierarchical
link-sharing scheduler (CBQ / H-FSC style) for application data classes.
This package implements all of them behind one interface
(:class:`~repro.sched.base.Scheduler`): items are enqueued into named
classes with weights, and ``dequeue()`` picks the next item to serve.
"""

from repro.sched.base import Scheduler, SchedulerError
from repro.sched.lottery import LotteryScheduler
from repro.sched.stride import StrideScheduler
from repro.sched.wfq import WfqScheduler
from repro.sched.drr import DrrScheduler
from repro.sched.hierarchical import HierarchicalScheduler

__all__ = [
    "DrrScheduler",
    "HierarchicalScheduler",
    "LotteryScheduler",
    "Scheduler",
    "SchedulerError",
    "StrideScheduler",
    "WfqScheduler",
]
