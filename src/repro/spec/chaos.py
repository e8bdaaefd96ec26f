"""Chaos harness: seeded random fault schedules, shadow-checked.

The paper's robustness story (Section 7) is a *universal* claim —
soft-state sessions survive any failure pattern and re-converge — so a
handful of hand-written fault scenarios undertests it.  This module
property-tests it: hypothesis generates seeded random scenarios
(session kind, topology, loss, and a fault schedule drawn from the
whole ``repro.faults`` vocabulary), each scenario runs with tracing on,
and the shadow checker replays its trace against the invariant library.

Execution is three-phase, so scenarios flow through the same cached
parallel runner as every experiment:

1. **Collect** — hypothesis runs in generate-only mode under a fixed
   ``@seed``; scenarios are gathered as plain dicts, not executed.
2. **Execute** — :func:`~repro.experiments.runner.map_cells` fans the
   scenarios out over :func:`_chaos_cell`, a module-level pure function
   of its kwargs (picklable, content-addressable: a warm cache replays
   a chaos sweep without re-simulating).
3. **Shrink** — only if a scenario failed: hypothesis re-runs *with*
   execution under the same seed, so its shrinker minimizes the failing
   schedule before reporting it.

The report is a plain dict with no timestamps or machine identity:
the same ``(seed, runs)`` yields a byte-identical report on every
machine, which is what lets CI pin the chaos smoke job.

hypothesis is an optional dependency: importing this module is safe
without it, and :func:`run_chaos` raises a clear error if it is absent.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import map_cells
from repro.faults.schedule import (
    FaultSchedule,
    LinkOutage,
    LossEpisode,
    Partition,
    ReceiverChurn,
    SenderCrash,
)
from repro.obs import runtime as _obs
from repro.obs.trace import FAULT, PACKET, RECORD, RUN, Tracer
from repro.spec.checker import CheckingSink

try:  # optional: the harness degrades to "unavailable", not ImportError
    from hypothesis import HealthCheck, Phase, given
    from hypothesis import seed as _hyp_seed
    from hypothesis import settings as _hyp_settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - image always ships hypothesis
    HAVE_HYPOTHESIS = False

__all__ = [
    "HAVE_HYPOTHESIS",
    "generate_scenarios",
    "run_chaos",
]

#: Session kinds under test (the protocol ladder, the multicast group
#: and SSTP); the last two have receiver groups.
_SESSIONS = ("openloop", "twoqueue", "feedback", "multicast", "sstp")
_GROUPS = ("multicast", "sstp")
_HORIZONS = (60.0, 120.0)

#: Exclusive claim groups, mirrored from ``repro.faults.schedule`` so
#: generated schedules are valid by construction (the library rejects
#: same-claim overlap; the generator simply never proposes it).
_CLAIMS = {
    "crash": "sender",
    "outage": "link",
    "loss": "link",
    "partition": "link",
}


def _spec_window(spec: Tuple) -> Optional[Tuple[float, float]]:
    kind = spec[0]
    if kind in ("crash", "outage", "loss"):
        return (spec[1], spec[1] + spec[2])
    if kind == "partition":
        return (spec[1], spec[2])
    return None  # churn: stochastic, exempt from overlap rules


def _sanitize(drafts: Sequence[Tuple], horizon: float) -> Tuple[Tuple, ...]:
    """Drop drafts that the fault library would reject (deterministic).

    Keeps the first of any same-claim overlapping pair and anything
    whose earliest start falls inside the horizon — a pure function of
    the drawn values, so generation stays reproducible.
    """
    kept: List[Tuple] = []
    for spec in drafts:
        claim = _CLAIMS.get(spec[0])
        window = _spec_window(spec)
        start = window[0] if window is not None else spec[3]
        if start >= horizon:
            continue
        if claim is not None and window is not None:
            clash = False
            for other in kept:
                if _CLAIMS.get(other[0]) != claim:
                    continue
                other_window = _spec_window(other)
                if other_window is None:
                    continue
                if (
                    window[0] < other_window[1]
                    and other_window[0] < window[1]
                ):
                    clash = True
                    break
            if clash:
                continue
        kept.append(spec)
    return tuple(kept)


if HAVE_HYPOTHESIS:

    def _bounded(draw, lo: float, hi: float) -> float:
        value = draw(
            st.floats(
                min_value=lo,
                max_value=hi,
                allow_nan=False,
                allow_infinity=False,
            )
        )
        return round(value, 3)

    @st.composite
    def _fault_drafts(draw, horizon: float) -> Tuple:
        kind = draw(
            st.sampled_from(("crash", "outage", "loss", "churn", "partition"))
        )
        at = _bounded(draw, 5.0, horizon * 0.6)
        duration = _bounded(draw, 1.0, 15.0)
        if kind == "crash":
            return ("crash", at, duration, draw(st.booleans()))
        if kind == "outage":
            return ("outage", at, duration)
        if kind == "loss":
            mean_loss = _bounded(draw, 0.2, 0.8)
            burst = _bounded(draw, 2.0, 10.0)
            return ("loss", at, duration, mean_loss, burst)
        if kind == "churn":
            rate = _bounded(draw, 0.02, 0.2)
            down_mean = _bounded(draw, 2.0, 10.0)
            stop = round(min(horizon - 1.0, at + 30.0), 3)
            return ("churn", rate, down_mean, at, stop)
        return ("partition", at, round(at + duration, 3))

    @st.composite
    def _scenarios(draw) -> Dict[str, Any]:
        session = draw(st.sampled_from(_SESSIONS))
        horizon = draw(st.sampled_from(_HORIZONS))
        scenario: Dict[str, Any] = {
            "session": session,
            "horizon": horizon,
            "seed": draw(st.integers(min_value=0, max_value=2**16 - 1)),
            "loss_rate": _bounded(draw, 0.0, 0.4),
        }
        if session in _GROUPS:
            scenario["n_receivers"] = draw(st.integers(min_value=1, max_value=4))
        if session == "sstp":
            scenario["total_kbps"] = draw(st.sampled_from((32.0, 50.0)))
        else:
            scenario["update_rate"] = draw(st.sampled_from((0.5, 1.0, 2.0)))
            scenario["data_kbps"] = draw(st.sampled_from((32.0, 50.0)))
        drafts = draw(
            st.lists(_fault_drafts(horizon), min_size=0, max_size=3)
        )
        scenario["faults"] = _sanitize(drafts, horizon)
        return scenario

    def _quiet_settings(runs: int, phases=None) -> "_hyp_settings":
        extra = {} if phases is None else {"phases": phases}
        return _hyp_settings(
            max_examples=runs,
            database=None,
            deadline=None,
            derandomize=False,
            print_blob=False,
            suppress_health_check=list(HealthCheck),
            **extra,
        )


def _require_hypothesis() -> None:
    if not HAVE_HYPOTHESIS:
        raise RuntimeError(
            "the chaos harness needs the 'hypothesis' package, which is "
            "not importable in this environment"
        )


def generate_scenarios(runs: int, seed: int) -> List[Dict[str, Any]]:
    """Phase 1: collect ``runs`` scenarios under a fixed seed, no execution."""
    _require_hypothesis()
    collected: List[Dict[str, Any]] = []

    @_hyp_seed(seed)
    @_quiet_settings(runs, phases=(Phase.generate,))
    @given(scenario=_scenarios())
    def collect(scenario: Dict[str, Any]) -> None:
        collected.append(scenario)

    collect()
    return collected


def _receiver_ids(session: str, n_receivers: Optional[int]) -> List[str]:
    if session in _GROUPS:
        return [f"rcv-{index}" for index in range(n_receivers or 1)]
    return ["receiver"]


def _build_schedule(
    specs: Sequence[Tuple], receiver_ids: Sequence[str]
) -> Optional[FaultSchedule]:
    faults = []
    for spec in specs:
        kind = spec[0]
        if kind == "crash":
            faults.append(
                SenderCrash(at=spec[1], down_for=spec[2], cold=spec[3])
            )
        elif kind == "outage":
            faults.append(LinkOutage(at=spec[1], duration=spec[2]))
        elif kind == "loss":
            faults.append(
                LossEpisode(
                    at=spec[1],
                    duration=spec[2],
                    mean_loss=spec[3],
                    burst_length=spec[4],
                )
            )
        elif kind == "churn":
            faults.append(
                ReceiverChurn(
                    rate=spec[1],
                    down_mean=spec[2],
                    start=spec[3],
                    stop=spec[4],
                )
            )
        elif kind == "partition":
            faults.append(
                Partition(
                    [["sender"], list(receiver_ids)],
                    at=spec[1],
                    heal_at=spec[2],
                )
            )
        else:
            raise ValueError(f"unknown fault spec kind {kind!r}")
    return FaultSchedule(faults) if faults else None


def _chaos_cell(
    session: str,
    horizon: float,
    seed: int,
    loss_rate: float,
    faults: Sequence[Tuple] = (),
    update_rate: Optional[float] = None,
    data_kbps: Optional[float] = None,
    n_receivers: Optional[int] = None,
    total_kbps: Optional[float] = None,
) -> Dict[str, Any]:
    """Run one scenario traced, replay the checker, return the verdict.

    Module-level and pure in its kwargs: the runner can fork it to a
    pool and the result cache can content-address it.
    """
    from repro.protocols import (
        FeedbackSession,
        MulticastFeedbackSession,
        OpenLoopSession,
        TwoQueueSession,
    )
    from repro.sstp import SstpSession

    # Checked live: no record buffer, no second pass.
    checking = CheckingSink(None)
    tracer = Tracer(checking, categories=(PACKET, RECORD, FAULT, RUN))
    # Sessions cache the ambient tracer at construction, so the whole
    # lifecycle — construction included — happens inside the context.
    with _obs.tracing(tracer):
        schedule = _build_schedule(
            faults, _receiver_ids(session, n_receivers)
        )
        if session == "sstp":
            sim = SstpSession(
                total_kbps=total_kbps or 50.0,
                n_receivers=n_receivers or 1,
                loss_rate=loss_rate,
                seed=seed,
                faults=schedule,
            )
        else:
            kwargs = dict(
                data_kbps=data_kbps or 50.0,
                loss_rate=loss_rate,
                update_rate=update_rate or 1.0,
                seed=seed,
                faults=schedule,
            )
            if session == "openloop":
                sim = OpenLoopSession(**kwargs)
            elif session == "twoqueue":
                sim = TwoQueueSession(**kwargs)
            elif session == "feedback":
                sim = FeedbackSession(feedback_kbps=8.0, **kwargs)
            elif session == "multicast":
                sim = MulticastFeedbackSession(
                    n_receivers=n_receivers or 1, feedback_kbps=8.0, **kwargs
                )
            else:
                raise ValueError(f"unknown session kind {session!r}")
        sim.run(horizon)
    report = checking.finalize()
    return {
        "ok": report.ok,
        "events": report.events_checked,
        "violations": [violation.describe() for violation in report.violations],
    }


def _shrink(
    runs: int, seed: int
) -> Tuple[Optional[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """Phase 3: re-run with execution so hypothesis shrinks the failure."""
    holder: Dict[str, Any] = {}

    @_hyp_seed(seed)
    @_quiet_settings(runs)
    @given(scenario=_scenarios())
    def execute(scenario: Dict[str, Any]) -> None:
        verdict = _chaos_cell(**scenario)
        if not verdict["ok"]:
            # hypothesis replays the minimal falsifying example last, so
            # whatever is in the holder when the error escapes is minimal.
            holder["scenario"] = scenario
            holder["verdict"] = verdict
        assert verdict["ok"], "invariant violation"

    try:
        execute()
    except AssertionError:
        pass
    return holder.get("scenario"), holder.get("verdict")


def run_chaos(
    runs: int = 20,
    seed: int = 0,
    jobs: int = 1,
    shrink: bool = True,
) -> Dict[str, Any]:
    """Generate, execute, and check ``runs`` chaos scenarios.

    Returns a deterministic report dict: same ``(seed, runs)`` in, same
    bytes out (scenario generation is pinned by the hypothesis seed and
    every cell is a deterministic simulation).
    """
    _require_hypothesis()
    scenarios = generate_scenarios(runs, seed)
    verdicts = map_cells(_chaos_cell, scenarios, jobs=jobs)
    failures = [
        {"scenario": scenario, "verdict": verdict}
        for scenario, verdict in zip(scenarios, verdicts)
        if verdict is not None and not verdict["ok"]
    ]
    report: Dict[str, Any] = {
        "seed": seed,
        "runs": runs,
        "scenarios_executed": len(scenarios),
        "events_checked": sum(
            verdict["events"] for verdict in verdicts if verdict is not None
        ),
        "failures": len(failures),
        "failing": failures,
        "minimal": None,
    }
    if failures and shrink:
        minimal_scenario, minimal_verdict = _shrink(runs, seed)
        if minimal_scenario is not None:
            report["minimal"] = {
                "scenario": minimal_scenario,
                "verdict": minimal_verdict,
            }
    return report
