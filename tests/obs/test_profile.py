"""Wall-time profiler: sampling, attribution, determinism, merging."""

from repro.des import Environment
from repro.net import Channel, Packet
from repro.obs import runtime as _obs
from repro.obs.profile import Profiler, ProfilingSink, profile_enabled
from repro.obs.trace import RingBufferSink
from repro.protocols import TwoQueueSession


def _two_process_scenario():
    """Two named generators plus a bare timer callback."""
    env = Environment()
    ticks = []

    def pinger(env):
        for _ in range(40):
            yield env.timeout(1.0)
            ticks.append(env.now)

    def ponger(env):
        for _ in range(40):
            yield env.timeout(2.0)

    env.process(pinger(env))
    env.process(ponger(env))
    env.run()
    return env, ticks


def test_profiled_run_is_byte_identical():
    _, baseline = _two_process_scenario()
    with _obs.profiling(Profiler(sample_every=1)):
        env, profiled = _two_process_scenario()
    assert profiled == baseline
    assert env.now == 80.0  # ponger's 40 x 2s timeouts end the run


def test_attribution_keys_are_generator_names():
    profiler = Profiler(sample_every=1)
    with _obs.profiling(profiler):
        _two_process_scenario()
    assert "pinger" in profiler.processes
    assert "ponger" in profiler.processes
    calls, wall = profiler.processes["pinger"]
    assert calls > 0 and wall >= 0.0


def test_bare_callbacks_keyed_by_owner_type_and_method():
    # Channel service runs as kernel callbacks, not a process: its time
    # must still land under a name that says where it went.
    profiler = Profiler(sample_every=1)
    with _obs.profiling(profiler):
        env = Environment()
        channel = Channel(env, rate_kbps=8.0)
        for _ in range(5):
            channel.send(Packet())
        env.run()
    assert profiler.processes["Channel._on_serviced"][0] == 5
    assert profiler.processes["Channel._next"][0] == 1  # the start entry
    assert "Timeout" not in profiler.processes
    assert "Event" not in profiler.processes


def test_each_callback_of_a_sampled_event_is_keyed_on_its_own():
    profiler = Profiler(sample_every=1)
    with _obs.profiling(profiler):
        env = Environment()
        shared = env.timeout(1.0)

        def first(env):
            yield shared

        def second(env):
            yield shared

        env.process(first(env))
        env.process(second(env))
        env.run()
    # One start entry each, then one resume each off the shared timer.
    assert profiler.processes["first"][0] == 2
    assert profiler.processes["second"][0] == 2


def test_settled_sender_resume_keyed_by_its_generator():
    # A pull-mode completion is dispatched in place by the kernel, not
    # from inside the channel's callback: the sender's resume stays
    # under its own generator name, about once per announcement.
    profiler = Profiler(sample_every=1)
    with _obs.profiling(profiler):
        session = TwoQueueSession(
            data_kbps=50.0, loss_rate=0.1, update_rate=1.0, seed=1
        )
        session.run(20.0)
    sent = session.data_channel.packets_sent
    assert sent > 500
    assert profiler.processes["Channel._on_serviced"][0] == sent
    assert sent <= profiler.processes["_sender_loop"][0] <= sent * 1.05


def test_sampling_reduces_accounted_calls():
    dense = Profiler(sample_every=1)
    with _obs.profiling(dense):
        _two_process_scenario()
    sparse = Profiler(sample_every=16)
    with _obs.profiling(sparse):
        _two_process_scenario()
    dense_calls = sum(calls for calls, _ in dense.processes.values())
    sparse_calls = sum(calls for calls, _ in sparse.processes.values())
    assert sparse_calls < dense_calls
    assert sparse_calls > 0


def test_snapshot_shape_and_estimate():
    profiler = Profiler(sample_every=4)
    profiler.account("proc", 0.5)
    profiler.account("proc", 0.25)
    profiler.account_category("kernel", 0.125)
    snap = profiler.snapshot()
    assert snap["sample_every"] == 4
    entry = snap["processes"]["proc"]
    assert entry["sampled_calls"] == 2
    assert entry["sampled_wall_s"] == 0.75
    assert entry["wall_s_est"] == 0.75 * 4
    assert snap["categories"]["kernel"] == {"calls": 1, "wall_s": 0.125}


def test_merge_sums_across_cells():
    a = Profiler(sample_every=8)
    a.account("p", 1.0)
    b = Profiler(sample_every=8)
    b.account("p", 2.0)
    b.account("q", 3.0)
    merged = Profiler.merge(None, a.snapshot())
    merged = Profiler.merge(merged, b.snapshot())
    assert merged["sample_every"] == 8
    assert merged["processes"]["p"]["sampled_calls"] == 2
    assert merged["processes"]["p"]["sampled_wall_s"] == 3.0
    assert merged["processes"]["q"]["sampled_wall_s"] == 3.0


def test_profiling_sink_attributes_write_cost_per_category():
    profiler = Profiler()
    sink = ProfilingSink(RingBufferSink(capacity=None), profiler)
    sink.write((0.0, "kernel", "timer_set", {"delay": 1.0}))
    sink.write((0.5, "packet", "packet_sent", {"chan": "c", "seq": 1}))
    sink.write((0.5, "packet", "packet_lost", {"chan": "c", "seq": 1}))
    sink.flush()
    sink.close()
    assert profiler.categories["kernel"][0] == 1
    assert profiler.categories["packet"][0] == 2
    assert len(sink.inner.records()) == 3


def test_profile_enabled_env_flag(monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    assert not profile_enabled()
    monkeypatch.setenv("REPRO_PROFILE", "1")
    assert profile_enabled()
    monkeypatch.setenv("REPRO_PROFILE", "0")
    assert not profile_enabled()


def test_runner_records_profile_blocks(monkeypatch, tmp_path):
    """REPRO_PROFILE=1 lands per-cell and merged profile telemetry."""
    monkeypatch.setenv("REPRO_PROFILE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    from repro.experiments.registry import run_experiment

    result = run_experiment("figure9", quick=True, jobs=1, cache=False)
    payload = result.telemetry
    assert payload["profile"]["enabled"] is True
    assert payload["profile"]["processes"]
    assert all("profile" in cell for cell in payload["cells"])


def test_environment_without_profiler_has_no_hook_cost_path():
    # The guarded slot is None unless a profiler is ambient at
    # construction — the unprofiled hot loop never consults one.
    env = Environment()
    assert env._profile is None
    with _obs.profiling(Profiler()):
        profiled_env = Environment()
    assert profiled_env._profile is not None
