"""Network substrate: packets, loss models and channels.

The paper models the network as a lossy FIFO server with a given service
rate (the "session bandwidth") and an average per-transmission loss
probability.  This package provides that channel plus richer building
blocks (a propagation delay after service, bursty Gilbert-Elliott loss,
and multicast fan-out with independent per-receiver loss) so protocol
variants and SSTP can be simulated end-to-end.
"""

from repro.net.packet import Packet, PACKET_BITS
from repro.net.loss import (
    BernoulliLoss,
    CombinedLoss,
    DeterministicLoss,
    GilbertElliottLoss,
    LossModel,
    NoLoss,
    TotalLoss,
)
from repro.net.channel import Channel, MulticastChannel

__all__ = [
    "BernoulliLoss",
    "Channel",
    "CombinedLoss",
    "DeterministicLoss",
    "GilbertElliottLoss",
    "LossModel",
    "MulticastChannel",
    "NoLoss",
    "PACKET_BITS",
    "Packet",
    "TotalLoss",
]
