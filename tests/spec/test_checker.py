"""Shadow-checker tests: live sessions, cells, sinks, and mutations.

The two mutation tests are the acceptance gate for the invariant
library: each deliberately breaks one soft-state mechanism the paper
relies on and asserts the checker pinpoints the violation.
"""

import pytest

from repro.core.record import SoftStateTable
from repro.obs import runtime as _obs
from repro.obs.fold import replay, replay_file
from repro.obs.trace import (
    FAULT,
    PACKET,
    RECORD,
    RUN,
    JsonlSink,
    RingBufferSink,
    Tracer,
)
from repro.protocols import OpenLoopSession, TwoQueueSession
from repro.spec import CheckingSink, ShadowChecker
from repro.sstp import SstpSession

_CATS = (PACKET, RECORD, FAULT, RUN)


def _check(records):
    (report,) = replay(records, ShadowChecker())
    return report


def _traced_run(builder, horizon=60.0):
    tracer = Tracer(RingBufferSink(capacity=None), categories=_CATS)
    with _obs.tracing(tracer):
        session = builder()
        session.run(horizon)
    return tracer.sink.records()


# -- golden runs are clean -------------------------------------------------


def test_openloop_session_trace_passes_all_invariants():
    records = _traced_run(
        lambda: OpenLoopSession(
            data_kbps=50.0, loss_rate=0.2, update_rate=1.0, seed=3
        )
    )
    report = _check(records)
    assert report.ok, report.describe()
    assert report.events_checked == len(records)
    assert report.cells_checked == 1


def test_sstp_session_trace_passes_all_invariants():
    def build():
        session = SstpSession(
            total_kbps=50.0, n_receivers=3, loss_rate=0.2, seed=4
        )
        for index in range(8):
            session.publish(f"data/item{index}", index)
        return session

    report = _check(_traced_run(build))
    assert report.ok, report.describe()


# -- mutation A: expiry timer fires early ----------------------------------


@pytest.fixture
def early_expiry(monkeypatch):
    """Subscriber expiry timers fire 1s before their own deadline."""
    original = SoftStateTable.expire

    def buggy(self, now):
        if self.role != "subscriber":
            return original(self, now)
        # Pops every record due within the next second but stamps the
        # rows with the real clock: each row still carries the record's
        # *true* deadline while acting a second early — an off-by-one.
        return self._drop_expired(self._pop_due(now + 1.0), now)

    monkeypatch.setattr(SoftStateTable, "expire", buggy)


def test_early_expiry_mutation_is_caught(early_expiry):
    records = _traced_run(
        lambda: OpenLoopSession(
            data_kbps=50.0, loss_rate=0.3, update_rate=1.0, seed=5
        ),
        horizon=80.0,
    )
    report = _check(records)
    assert not report.ok
    first = report.first_violation
    assert first.invariant == "no-false-expiry"
    assert "before its own deadline" in first.message
    # The violating event is pinpointed and really is an expiry row.
    assert records[first.index][2] == "record_expired"


# -- mutation B: refreshes are dropped on the floor ------------------------


@pytest.fixture
def dropped_refresh(monkeypatch):
    """Received refreshes no longer reset the subscriber's timer."""

    def noop(self, key, now):
        return key in self._records

    monkeypatch.setattr(SoftStateTable, "refresh", noop)


def test_dropped_refresh_mutation_is_caught(dropped_refresh):
    records = _traced_run(
        lambda: OpenLoopSession(
            data_kbps=50.0, loss_rate=0.3, update_rate=1.0, seed=5
        ),
        horizon=80.0,
    )
    report = _check(records)
    assert not report.ok
    first = report.first_violation
    assert first.invariant == "no-false-expiry"
    assert "despite a refresh" in first.message
    assert records[first.index][2] == "record_expired"


# -- multi-cell traces -----------------------------------------------------


def test_cell_markers_reset_invariant_state():
    # Each cell restarts the simulation clock at zero; without the
    # cell_start reset the second cell would violate monotone-clock.
    def one_cell():
        tracer = _obs.current_tracer()
        tracer.emit(RUN, "cell_start", None, index=one_cell.calls)
        one_cell.calls += 1
        session = TwoQueueSession(
            data_kbps=50.0, loss_rate=0.1, update_rate=1.0, seed=1
        )
        session.run(20.0)
        tracer.emit(RUN, "cell_end", None, index=one_cell.calls - 1)

    one_cell.calls = 0
    tracer = Tracer(RingBufferSink(capacity=None), categories=_CATS)
    with _obs.tracing(tracer):
        one_cell()
        one_cell()
    report = _check(tracer.sink.records())
    assert report.ok, report.describe()
    assert report.cells_checked == 2


def test_violations_are_tagged_with_their_cell():
    rows = [
        (None, "run", "cell_start", {"index": 0}),
        (0.0, "run", "x", {}),
        (None, "run", "cell_end", {"index": 0}),
        (None, "run", "cell_start", {"index": 1}),
        (5.0, "run", "x", {}),
        (1.0, "run", "x", {}),  # clock runs backwards inside cell 1
    ]
    report = _check(rows)
    assert not report.ok
    assert report.first_violation.cell == 1


# -- file checking and the live sink ---------------------------------------


def test_check_file_roundtrip_and_truncation(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(str(path))
    tracer = Tracer(sink, categories=_CATS)
    with _obs.tracing(tracer):
        session = OpenLoopSession(
            data_kbps=50.0, loss_rate=0.1, update_rate=1.0, seed=2
        )
        session.run(30.0)
    tracer.close()
    (report,) = replay_file(str(path), ShadowChecker())
    assert report.ok
    assert not report.truncated

    # Chop the file mid-row: still checkable, flagged as truncated.
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    (truncated_report,) = replay_file(str(path), ShadowChecker())
    assert truncated_report.truncated
    assert truncated_report.events_checked == report.events_checked - 1


def test_checking_sink_checks_live_and_forwards(tmp_path):
    inner = RingBufferSink(capacity=None)
    checking = CheckingSink(inner)
    tracer = Tracer(checking, categories=_CATS)
    with _obs.tracing(tracer):
        session = OpenLoopSession(
            data_kbps=50.0, loss_rate=0.1, update_rate=1.0, seed=2
        )
        session.run(30.0)
    report = checking.finalize()
    assert report.ok
    assert report.events_checked == len(inner.records())


def test_violations_bump_the_metric_counter():
    with _obs.cell_context() as ctx:
        report = _check(
            [(2.0, "run", "x", {}), (1.0, "run", "x", {})]
        )
        assert not report.ok
        snapshot = ctx.registry.snapshot()
    series = snapshot["repro_spec_violations_total"]["series"]
    assert any(
        "monotone-clock" in entry["labels"] and entry["value"] == 1
        for entry in series
    )


def test_finalize_is_idempotent():
    checking = CheckingSink(None)
    for record in [(2.0, "run", "x", {}), (1.0, "run", "x", {})]:
        checking.write(record)
    first = checking.finalize()
    second = checking.finalize()
    assert len(first.violations) == len(second.violations) == 1
