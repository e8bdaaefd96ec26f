"""Unit tests for packet representation and unit conversion."""

import pytest

from repro.net import PACKET_BITS, Packet, kbps_to_pps, pps_to_kbps


def test_default_packet_size_makes_kbps_equal_pps():
    assert PACKET_BITS == 1000
    assert kbps_to_pps(45.0) == 45.0
    assert pps_to_kbps(128.0) == 128.0


def test_round_trip_conversion():
    assert pps_to_kbps(kbps_to_pps(17.5)) == pytest.approx(17.5)


def test_conversion_with_other_packet_size():
    # 8000-bit (1 KB) packets: 80 kbps is 10 packets/s.
    assert kbps_to_pps(80.0, packet_bits=8000) == 10.0


def test_negative_rates_rejected():
    with pytest.raises(ValueError):
        kbps_to_pps(-1.0)
    with pytest.raises(ValueError):
        pps_to_kbps(-1.0)


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

