"""Packet representation and the default packet size.

The paper quotes bandwidths in kbps without fixing a packet size; all of
its results depend only on *ratios* of rates.  We fix one announcement
packet at :data:`PACKET_BITS` = 1000 bits so that "45 kbps" maps to
45 packets/second, keeping every ratio in the paper intact while letting
the simulator count in whole packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

#: Default announcement packet size in bits (1 kbit): kbps == packets/s.
PACKET_BITS = 1000


@dataclass(slots=True)
class Packet:
    """One transmission unit (an ADU announcement, a NACK, a digest, ...).

    Treated as immutable once sent: a multicast fan-out hands the one
    serviced object to every surviving receiver, and no sink writes to
    it.  Slotted, so instances accept no ad-hoc attributes.

    Attributes
    ----------
    kind:
        Free-form type tag, e.g. ``"announce"``, ``"nack"``, ``"summary"``.
    key:
        The soft-state key this packet refers to, if any.
    payload:
        Arbitrary application content (the record value, a digest list, ...).
    seq:
        Sender-assigned sequence number, used by receivers for loss
        detection (ALF ADUs; no ordering is enforced on delivery).
    size_bits:
        Size on the wire; defaults to :data:`PACKET_BITS`.
    """

    kind: str = "announce"
    key: Optional[Any] = None
    payload: Any = None
    seq: Optional[int] = None
    size_bits: int = PACKET_BITS

    def __post_init__(self) -> None:
        if self.size_bits <= 0:
            raise ValueError(f"size_bits must be positive, got {self.size_bits}")
