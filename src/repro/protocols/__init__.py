"""Soft-state protocol variants (Sections 3-5 of the paper).

* :mod:`repro.protocols.states` — the hot/cold/dead record state
  machine of Figure 7;
* :mod:`repro.protocols.queue_model` — an exact discrete-event twin of
  the Section 3 queueing model, for cross-validating the closed forms;
* :mod:`repro.protocols.session` — the skeleton every session family
  runs on: sampling and the ``run(horizon, warmup)`` loop, plus the
  publisher-lifecycle/announcement-loop and fault-surface mixins;
* :mod:`repro.protocols.base` — the unicast session and receiver, and
  the :class:`~repro.protocols.base.ProtocolResult` report;
* :mod:`repro.protocols.announce_listen` — the open-loop protocol
  (single FIFO announcement queue);
* :mod:`repro.protocols.two_queue` — Section 4: hot/cold transmission
  queues with proportional bandwidth sharing;
* :mod:`repro.protocols.feedback` — Section 5: receiver NACKs moving
  records back into the hot queue;
* :mod:`repro.protocols.arq` — a hard-state ACK/retransmit baseline;
* :mod:`repro.protocols.multicast` — a multicast group with slotted,
  damped NACKs over the same hot/cold queues and repair path;
* :mod:`repro.protocols.gateway` — a soft-state gateway bridging two
  bandwidth islands;
* :mod:`repro.protocols.sharded` — receiver populations partitioned
  into shard-count-invariant slices for million-receiver sweeps
  (docs/SCALE.md).
"""

from repro.protocols.states import RecordState, RecordStateMachine
from repro.protocols.queue_model import QueueModelResult, QueueModelSim
from repro.protocols.base import ProtocolResult, SoftStateReceiver
from repro.protocols.announce_listen import OpenLoopSession
from repro.protocols.two_queue import (
    RateCappedTwoQueueSession,
    TwoQueueSession,
)
from repro.protocols.feedback import FeedbackSession
from repro.protocols.arq import ArqResult, ArqSession
from repro.protocols.gateway import GatewayResult, GatewaySession
from repro.protocols.multicast import (
    MulticastFeedbackSession,
    MulticastResult,
)
from repro.protocols.sharded import (
    ScaleListenerSession,
    ShardedMulticastSession,
)

__all__ = [
    "ArqResult",
    "ArqSession",
    "FeedbackSession",
    "GatewayResult",
    "GatewaySession",
    "MulticastFeedbackSession",
    "MulticastResult",
    "OpenLoopSession",
    "ProtocolResult",
    "QueueModelResult",
    "QueueModelSim",
    "RateCappedTwoQueueSession",
    "RecordState",
    "RecordStateMachine",
    "ScaleListenerSession",
    "ShardedMulticastSession",
    "SoftStateReceiver",
    "TwoQueueSession",
]
