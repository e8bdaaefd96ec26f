"""Unit tests: each invariant's state machine on synthetic streams."""

from repro.obs.fold import replay
from repro.spec.checker import ShadowChecker
from repro.spec.invariants import (
    BoundedReconsistency,
    DeliveryConservation,
    DigestAgreement,
    MonotoneClock,
    MonotoneTransferIds,
    NoFalseExpiry,
)


def _run(invariant, rows):
    """Feed (t, cat, ev, fields) rows straight into one invariant."""
    for index, (t, cat, ev, fields) in enumerate(rows):
        invariant.feed(index, t, cat, ev, fields)
    invariant.finish()
    return invariant.violations


# -- monotone clock --------------------------------------------------------


def test_clock_accepts_monotone_and_none():
    violations = _run(
        MonotoneClock(),
        [
            (0.0, "run", "x", {}),
            (None, "run", "cell_start", {}),
            (1.0, "run", "x", {}),
            (1.0, "run", "x", {}),
        ],
    )
    assert violations == []


def test_clock_flags_time_running_backwards():
    violations = _run(
        MonotoneClock(),
        [(2.0, "run", "x", {}), (1.5, "run", "x", {})],
    )
    assert len(violations) == 1
    assert "backwards" in violations[0].message


# -- monotone transfer ids -------------------------------------------------


def test_transfer_ids_strictly_increase_per_channel():
    sent = lambda chan, seq: (  # noqa: E731 - local table of events
        0.0,
        "packet",
        "packet_sent",
        {"chan": chan, "seq": seq, "lost": False},
    )
    assert _run(
        MonotoneTransferIds(),
        [sent("c0", 0), sent("c1", 0), sent("c0", 1), sent("c1", 5)],
    ) == []
    violations = _run(
        MonotoneTransferIds(), [sent("c0", 3), sent("c0", 3)]
    )
    assert len(violations) == 1
    assert "not greater" in violations[0].message


def test_transfer_ids_checked_through_conservation_in_the_checker():
    # The checker folds the transfer-id check into DeliveryConservation's
    # packet_sent handler; the verdict must not change.
    rows = [
        (0.0, "packet", "packet_sent", {"chan": "c0", "seq": 3, "lost": True}),
        (1.0, "packet", "packet_sent", {"chan": "c1", "seq": 0, "lost": True}),
        (2.0, "packet", "packet_sent", {"chan": "c0", "seq": 3, "lost": True}),
    ]
    checker = ShadowChecker()
    assert "packet_sent" in checker.handlers
    (report,) = replay(rows, checker)
    (violation,) = report.violations
    assert violation.invariant == MonotoneTransferIds.name
    assert violation.index == 2
    assert violation.message == (
        "transfer id 3 on c0 not greater than previously serviced 3"
    )
    # Alone, either invariant keeps its own books.
    (report,) = replay(rows, ShadowChecker([MonotoneTransferIds]))
    assert [v.invariant for v in report.violations] == [
        MonotoneTransferIds.name
    ]
    (report,) = replay(rows, ShadowChecker([DeliveryConservation]))
    assert report.ok


# -- delivery conservation -------------------------------------------------


def _sent(seq, lost=False, t=0.0):
    return (
        t,
        "packet",
        "packet_sent",
        {"chan": "c0", "seq": seq, "lost": lost},
    )


def _delivered(seq, receiver=None, t=0.0):
    fields = {"chan": "c0", "seq": seq}
    if receiver is not None:
        fields["receiver"] = receiver
    return (t, "packet", "packet_delivered", fields)


def test_unicast_sent_then_delivered_is_clean():
    assert _run(
        DeliveryConservation(), [_sent(0), _delivered(0), _sent(1, lost=True)]
    ) == []


def test_delivery_of_lost_packet_is_flagged():
    violations = _run(
        DeliveryConservation(), [_sent(0, lost=True), _delivered(0)]
    )
    assert len(violations) == 1
    assert "without a surviving transmission" in violations[0].message


def test_double_delivery_of_unicast_packet_is_flagged():
    violations = _run(
        DeliveryConservation(), [_sent(0), _delivered(0), _delivered(0)]
    )
    assert len(violations) == 1


def test_multicast_fanout_order_deliveries_before_sent():
    # The multicast channel emits per-receiver deliveries before the
    # aggregate packet_sent of the same service instant.
    rows = [
        _delivered(0, receiver="r0"),
        _delivered(0, receiver="r2"),
        (
            0.0,
            "packet",
            "packet_sent",
            {"chan": "c0", "seq": 0, "receivers": 3, "lost": 1},
        ),
    ]
    assert _run(DeliveryConservation(), rows) == []


def test_multicast_duplicate_receiver_is_flagged():
    rows = [
        _delivered(0, receiver="r0"),
        _delivered(0, receiver="r0"),
        (
            0.0,
            "packet",
            "packet_sent",
            {"chan": "c0", "seq": 0, "receivers": 3, "lost": 0},
        ),
    ]
    violations = _run(DeliveryConservation(), rows)
    assert len(violations) == 1
    assert "twice" in violations[0].message


def test_delivery_never_serviced_is_flagged_at_finish():
    violations = _run(DeliveryConservation(), [_delivered(7, receiver="r0")])
    assert len(violations) == 1
    assert "never serviced" in violations[0].message


# -- no false expiry -------------------------------------------------------


def _refresh(key, t, hold):
    return (
        t,
        "record",
        "refresh_received",
        {"table": "t1", "key": key, "hold": hold, "version": 0},
    )


def _expired(key, t, deadline):
    return (
        t,
        "record",
        "record_expired",
        {
            "table": "t1",
            "key": key,
            "role": "subscriber",
            "deadline": deadline,
            "version": 0,
        },
    )


def test_honest_expiry_after_hold_is_clean():
    rows = [_refresh("k", 1.0, 4.0), _expired("k", 5.2, 5.0)]
    assert _run(NoFalseExpiry(), rows) == []


def test_expiry_before_own_deadline_is_flagged():
    # The off-by-one mutation: timer fires before the deadline it reports.
    rows = [_expired("k", 4.0, 5.0)]
    violations = _run(NoFalseExpiry(), rows)
    assert len(violations) == 1
    assert "before its own deadline" in violations[0].message


def test_expiry_despite_covering_refresh_is_flagged():
    # The dropped-refresh mutation: a refresh promised hold until 11.0
    # but the record expired at 6.0 anyway.
    rows = [_refresh("k", 5.0, 6.0), _expired("k", 6.0, 6.0)]
    violations = _run(NoFalseExpiry(), rows)
    assert len(violations) == 1
    assert "despite a refresh" in violations[0].message


def test_publisher_expiry_is_out_of_scope():
    rows = [
        (
            3.0,
            "record",
            "record_expired",
            {"table": "t0", "key": "k", "role": "publisher", "deadline": 9.0},
        )
    ]
    assert _run(NoFalseExpiry(), rows) == []


# -- digest agreement ------------------------------------------------------


def _digest(digest, fingerprint, t=0.0):
    return (
        t,
        "record",
        "summary_digest",
        {"digest": digest, "fingerprint": fingerprint},
    )


def _checked(digest, fingerprint, match=True, t=0.0):
    return (
        t,
        "record",
        "summary_checked",
        {
            "digest": digest,
            "mirror_digest": digest if match else "00",
            "match": match,
            "fingerprint": fingerprint,
            "receiver": "rcv-0",
        },
    )


def test_matching_digest_and_content_is_clean():
    rows = [_digest("ab", "f1"), _checked("ab", "f1")]
    assert _run(DigestAgreement(), rows) == []
    rows = [_digest("ab", "f1"), _checked("ab", None, match=False)]
    assert _run(DigestAgreement(), rows) == []


def test_digest_collision_across_contents_is_flagged():
    rows = [_digest("ab", "f1"), _digest("ab", "f2")]
    violations = _run(DigestAgreement(), rows)
    assert len(violations) == 1
    assert "two different namespace contents" in violations[0].message


def test_matched_digest_with_divergent_mirror_is_flagged():
    rows = [_digest("ab", "f1"), _checked("ab", "f-other")]
    violations = _run(DigestAgreement(), rows)
    assert len(violations) == 1
    assert "mirrors different content" in violations[0].message


# -- bounded reconsistency -------------------------------------------------


def _window(start, end, t=None):
    return (
        t if t is not None else start,
        "fault",
        "fault_window",
        {"label": "outage@x", "kind": "link-outage", "start": start, "end": end},
    )


def _sample(t, value, session="s0"):
    return (t, "run", "consistency_sample", {"value": value, "session": session})


def test_recovery_within_bound_is_clean():
    rows = [_sample(float(t), 0.9) for t in range(0, 30)]
    rows.append(_window(30.0, 35.0))
    rows += [_sample(30.0 + float(t), 0.2) for t in range(0, 5)]
    rows += [_sample(35.0 + float(t), 0.9) for t in range(0, 40)]
    rows.sort(key=lambda row: row[0])
    assert _run(BoundedReconsistency(bound=30.0), rows) == []


def test_failure_to_recover_is_flagged():
    rows = [_sample(float(t), 0.9) for t in range(0, 30)]
    rows.append(_window(30.0, 35.0))
    rows += [_sample(30.0 + float(t), 0.1) for t in range(0, 60)]
    rows.sort(key=lambda row: row[0])
    violations = _run(BoundedReconsistency(bound=20.0), rows)
    assert len(violations) == 1
    assert "did not recover" in violations[0].message


def test_trace_ending_before_deadline_is_skipped():
    rows = [_sample(float(t), 0.9) for t in range(0, 30)]
    rows.append(_window(30.0, 35.0))
    rows.append(_sample(36.0, 0.1))  # trace stops long before end+bound
    assert _run(BoundedReconsistency(bound=30.0), rows) == []


def test_window_overlapping_recovery_interval_is_skipped():
    rows = [_sample(float(t), 0.9) for t in range(0, 30)]
    rows.append(_window(30.0, 35.0))
    rows.append(_window(40.0, 45.0))  # disturbs the first recovery
    rows += [_sample(30.0 + float(t), 0.1) for t in range(0, 60)]
    rows.sort(key=lambda row: row[0])
    violations = _run(BoundedReconsistency(bound=20.0), rows)
    # The first window's recovery is disturbed -> skipped; the second
    # window's own recovery fails undisturbed -> flagged once.
    assert len(violations) == 1
    assert "45" in violations[0].message


# -- dispatch sanity -------------------------------------------------------


def test_checker_routes_only_interesting_events():
    # A stream full of unrelated events must not disturb any invariant.
    rows = [(float(t), "kernel", "timer_set", {"delay": 1}) for t in range(50)]
    (report,) = replay(rows, ShadowChecker())
    assert report.ok
    assert report.events_checked == 50


def test_checker_report_pinpoints_first_violation():
    rows = [
        (0.0, "packet", "packet_sent", {"chan": "c0", "seq": 1, "lost": False}),
        (1.0, "packet", "packet_sent", {"chan": "c0", "seq": 1, "lost": False}),
    ]
    (report,) = replay(rows, ShadowChecker())
    assert not report.ok
    assert report.first_violation.index == 1
