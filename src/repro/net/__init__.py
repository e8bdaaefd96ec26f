"""Network substrate: packets, loss models and channels.

The paper models the network as a lossy FIFO server with a given service
rate (the "session bandwidth") and an average per-transmission loss
probability.  This package provides that channel plus richer building
blocks (a propagation delay after service, bursty Gilbert-Elliott loss,
multicast fan-out with independent per-receiver loss, and a duplex path
for feedback traffic) so protocol variants and SSTP can be simulated
end-to-end.
"""

from repro.net.packet import Packet, PACKET_BITS, kbps_to_pps, pps_to_kbps
from repro.net.loss import (
    BernoulliLoss,
    CombinedLoss,
    DeterministicLoss,
    GilbertElliottLoss,
    LossModel,
    NoLoss,
    TotalLoss,
    TraceLoss,
)
from repro.net.channel import Channel, DuplexPath, MulticastChannel
from repro.net.capture import CaptureRecord, PacketCapture

__all__ = [
    "BernoulliLoss",
    "CaptureRecord",
    "Channel",
    "CombinedLoss",
    "DeterministicLoss",
    "DuplexPath",
    "GilbertElliottLoss",
    "LossModel",
    "MulticastChannel",
    "NoLoss",
    "PACKET_BITS",
    "Packet",
    "PacketCapture",
    "TotalLoss",
    "TraceLoss",
    "kbps_to_pps",
    "pps_to_kbps",
]
