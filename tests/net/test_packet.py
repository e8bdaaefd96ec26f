"""Unit tests for packet representation."""

import pytest

from repro.des import Environment
from repro.net import PACKET_BITS, Channel, Packet


def test_default_packet_size_makes_kbps_equal_pps():
    assert PACKET_BITS == 1000
    # A 45 kbps channel serves 45 default-size packets per second.
    channel = Channel(Environment(), rate_kbps=45.0)
    assert 1.0 / channel.service_time(Packet()) == pytest.approx(45.0)


def test_packet_fields_and_uid_uniqueness():
    a = Packet(kind="announce", key="k1", payload=123, seq=7)
    b = Packet(kind="announce", key="k1", payload=123, seq=7)
    assert a.kind == "announce"
    assert a.key == "k1"
    assert a.payload == 123
    assert a.seq == 7
    assert a.size_bits == PACKET_BITS
    # A packet's identity is the object itself: there is no uid field,
    # and two packets with equal content stay two packets.
    assert not hasattr(a, "uid")
    assert a == b and a is not b


def test_packet_rejects_non_positive_size():
    with pytest.raises(ValueError):
        Packet(size_bits=0)

