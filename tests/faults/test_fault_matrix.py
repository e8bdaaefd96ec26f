"""Every session family under every fault class, pinned by digest.

Seven session classes (the five unicast ladder sessions, the multicast
group and SSTP) each run under six faults: a warm and a cold sender
crash, a link outage, a loss episode, receiver churn and a partition.
Each case stores the SHA-256 of its result dataclass, JSON-encoded with
sorted keys, in ``fault_digests.json`` next to this file.  A refactor
of the shared fault surface must leave every digest unchanged; a
deliberate behaviour change updates exactly the digests it explains.

Regenerate the file (only for a reviewed behaviour change) with::

    PYTHONPATH=src python tests/faults/test_fault_matrix.py --write
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.faults import (
    FaultSchedule,
    LinkOutage,
    LossEpisode,
    Partition,
    ReceiverChurn,
    SenderCrash,
)
from repro.protocols import (
    ArqSession,
    FeedbackSession,
    MulticastFeedbackSession,
    OpenLoopSession,
    RateCappedTwoQueueSession,
    TwoQueueSession,
)
from repro.sstp import SstpSession

DIGESTS_JSON = Path(__file__).resolve().parent / "fault_digests.json"

HORIZON = 100.0
WARMUP = 10.0
SEED = 1
LOSS = 0.2

_LADDER = dict(loss_rate=LOSS, update_rate=1.0, seed=SEED)

#: Session class name -> factory(faults).
SESSIONS = {
    "OpenLoopSession": lambda faults: OpenLoopSession(
        data_kbps=40.0, faults=faults, **_LADDER
    ),
    "TwoQueueSession": lambda faults: TwoQueueSession(
        data_kbps=40.0, hot_share=0.6, faults=faults, **_LADDER
    ),
    "RateCappedTwoQueueSession": lambda faults: RateCappedTwoQueueSession(
        hot_kbps=24.0, cold_kbps=16.0, faults=faults, **_LADDER
    ),
    "FeedbackSession": lambda faults: FeedbackSession(
        data_kbps=40.0, feedback_kbps=8.0, hot_share=0.6, faults=faults,
        **_LADDER
    ),
    "ArqSession": lambda faults: ArqSession(
        data_kbps=40.0, ack_kbps=8.0, faults=faults, **_LADDER
    ),
    "MulticastFeedbackSession": lambda faults: MulticastFeedbackSession(
        n_receivers=3, data_kbps=40.0, feedback_kbps=8.0, faults=faults,
        **_LADDER
    ),
    "SstpSession": lambda faults: SstpSession(
        total_kbps=50.0, n_receivers=3, loss_rate=LOSS, seed=SEED,
        faults=faults,
    ),
}


def _receiver_ids(name):
    if name == "MulticastFeedbackSession" or name == "SstpSession":
        return ["rcv-0", "rcv-1", "rcv-2"]
    return ["receiver"]


def _partition_groups(ids):
    # With a group, one member stays on the sender's side of the cut.
    if len(ids) > 1:
        return [["sender", ids[0]], ids[1:]]
    return [["sender"], ids]


#: Fault name -> factory(receiver ids).
FAULTS = {
    "warm_crash": lambda ids: SenderCrash(at=40.0, down_for=10.0),
    "cold_crash": lambda ids: SenderCrash(at=40.0, down_for=10.0, cold=True),
    "outage": lambda ids: LinkOutage(at=40.0, duration=10.0),
    "loss_episode": lambda ids: LossEpisode(
        at=40.0, duration=15.0, mean_loss=0.6, burst_length=5.0
    ),
    "churn": lambda ids: ReceiverChurn(
        rate=0.05, down_mean=10.0, start=20.0, stop=80.0
    ),
    "partition": lambda ids: Partition(
        _partition_groups(ids), at=40.0, heal_at=55.0
    ),
}


def _sstp_driver(session):
    """An application whose namespace keeps evolving for the whole run.

    A static namespace would make warm and cold crashes look the same:
    nothing published after the restart differs from the lost state.
    """
    rng = session.rng["driver"]
    paths = [f"store/s{i % 5}/item{i}" for i in range(30)]
    for i, path in enumerate(paths):
        session.publish(path, {"v": 0, "i": i})
    version = 0
    while True:
        yield session.env.timeout(rng.expovariate(1.0))
        version += 1
        session.publish(rng.choice(paths), {"v": version})


def run_case(session_name, fault_name):
    ids = _receiver_ids(session_name)
    faults = FaultSchedule([FAULTS[fault_name](ids)])
    session = SESSIONS[session_name](faults)
    if session_name == "SstpSession":
        session.env.process(_sstp_driver(session))
    return session.run(horizon=HORIZON, warmup=WARMUP)


def result_digest(result):
    """SHA-256 of every result field, JSON-encoded with sorted keys."""
    blob = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _case_id(session_name, fault_name):
    return f"{session_name}/{fault_name}"


CASES = [
    (session_name, fault_name)
    for session_name in SESSIONS
    for fault_name in FAULTS
]


@pytest.fixture(scope="module")
def recorded():
    with open(DIGESTS_JSON, encoding="utf-8") as handle:
        return json.load(handle)["cases"]


@pytest.mark.parametrize(
    "session_name, fault_name",
    CASES,
    ids=[_case_id(*case) for case in CASES],
)
def test_fault_digest_is_pinned(recorded, session_name, fault_name):
    result = run_case(session_name, fault_name)
    assert result.fault_reports, "the fault never registered a window"
    assert result_digest(result) == recorded[_case_id(session_name, fault_name)]


def test_every_case_has_a_recorded_digest(recorded):
    assert sorted(recorded) == sorted(_case_id(*case) for case in CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_fault_matrix.py --write")
    digests = {
        _case_id(*case): result_digest(run_case(*case)) for case in CASES
    }
    with open(DIGESTS_JSON, "w", encoding="utf-8") as handle:
        json.dump({"cases": digests}, handle, indent=2, sort_keys=True)
        handle.write("\n")
