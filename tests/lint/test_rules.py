"""Fixture-based tests: every rule fires, stays quiet, and suppresses.

Each rule gets three kinds of fixture source:

* positive — the hazard, expected to fire with the right code/line;
* negative — the compliant idiom, expected to stay silent;
* suppressed — the hazard plus an inline suppression, expected silent.

Fixtures are linted through :func:`repro.lint.lint_source` restricted
to the rule under test, so an unrelated rule can never mask or pollute
an assertion.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import RULES, lint_source

#: Path handed to fixtures that need a hot-path scope (RPR005).
HOT_PATH = "src/repro/des/fake_hot.py"


def findings_for(code, source, path="src/repro/fake.py"):
    return lint_source(textwrap.dedent(source), path=path, codes=[code])


# -- RPR001: global / fixed-seed-cloned RNG -------------------------------


def test_rpr001_fires_on_module_level_random_call():
    found = findings_for(
        "RPR001",
        """
        import random

        def draw():
            return random.random()
        """,
    )
    assert [f.code for f in found] == ["RPR001"]
    assert "random.random" in found[0].message


def test_rpr001_fires_on_from_import():
    found = findings_for(
        "RPR001",
        """
        from random import expovariate
        """,
    )
    assert [f.code for f in found] == ["RPR001"]


def test_rpr001_fires_on_literal_seeded_default_in_function():
    found = findings_for(
        "RPR001",
        """
        import random

        class Model:
            def __init__(self, rng=None):
                self._rng = rng if rng is not None else random.Random(0)
        """,
    )
    assert [f.code for f in found] == ["RPR001"]
    assert "fixed-literal-seed" in found[0].message


def test_rpr001_quiet_on_injected_streams():
    found = findings_for(
        "RPR001",
        """
        import random
        from repro.des.rng import RngStreams

        def simulate(seed, rng: random.Random):
            streams = RngStreams(seed=seed)
            return streams["loss"].random() + rng.random()
        """,
    )
    assert found == []


def test_rpr001_quiet_on_variable_seed_and_module_level_literal():
    found = findings_for(
        "RPR001",
        """
        import random

        SHARED = random.Random(7)  # module-level singleton, not a clone

        def make(seed):
            return random.Random(seed)
        """,
    )
    assert found == []


def test_rpr001_suppressed_inline():
    found = findings_for(
        "RPR001",
        """
        import random

        def draw():
            return random.random()  # repro-lint: disable=RPR001
        """,
    )
    assert found == []


def test_rpr001_fires_on_numpy_global_draw():
    found = findings_for(
        "RPR001",
        """
        import numpy as np

        def draw():
            return np.random.normal()
        """,
    )
    assert [f.code for f in found] == ["RPR001"]
    assert "numpy.random.normal" in found[0].message


def test_rpr001_fires_on_numpy_global_seed_call():
    found = findings_for(
        "RPR001",
        """
        import numpy

        def reseed(seed):
            numpy.random.seed(seed)
        """,
    )
    assert [f.code for f in found] == ["RPR001"]


def test_rpr001_fires_on_uninjected_default_rng_in_function():
    found = findings_for(
        "RPR001",
        """
        from numpy.random import default_rng

        class Model:
            def __init__(self, rng=None):
                self._rng = rng if rng is not None else default_rng()
        """,
    )
    assert [f.code for f in found] == ["RPR001"]
    assert "un-injected" in found[0].message


def test_rpr001_fires_on_literal_seeded_generator_in_function():
    found = findings_for(
        "RPR001",
        """
        import numpy as np

        def make():
            return np.random.default_rng(0)
        """,
    )
    assert [f.code for f in found] == ["RPR001"]


def test_rpr001_quiet_on_injected_numpy_generator():
    found = findings_for(
        "RPR001",
        """
        import numpy as np

        GOLDEN = np.random.default_rng(1234)  # module-level singleton

        def make(seed):
            return np.random.default_rng(seed)

        def draw(gen):
            return gen.normal()
        """,
    )
    assert found == []


def test_rpr001_numpy_suppressed_inline():
    found = findings_for(
        "RPR001",
        """
        import numpy as np

        def draw():
            return np.random.random()  # repro-lint: disable=RPR001
        """,
    )
    assert found == []


# -- RPR002: wall clock ---------------------------------------------------


def test_rpr002_fires_on_time_time_and_datetime_now():
    found = findings_for(
        "RPR002",
        """
        import time
        from datetime import datetime

        def stamp():
            return time.time(), datetime.now()
        """,
    )
    assert [f.code for f in found] == ["RPR002", "RPR002"]


def test_rpr002_fires_on_perf_counter():
    found = findings_for(
        "RPR002",
        """
        import time

        def cost():
            return time.perf_counter()
        """,
    )
    assert len(found) == 1


def test_rpr002_quiet_on_env_now():
    found = findings_for(
        "RPR002",
        """
        def sample(env):
            return env.now
        """,
    )
    assert found == []


def test_rpr002_suppressed_with_disable_next():
    found = findings_for(
        "RPR002",
        """
        import time

        def cost():
            # repro-lint: disable-next=RPR002
            return time.perf_counter()
        """,
    )
    assert found == []


# -- RPR003: process generators -------------------------------------------


def test_rpr003_fires_when_process_target_never_yields():
    found = findings_for(
        "RPR003",
        """
        def worker(env):
            env.now

        def start(env):
            env.process(worker(env))
        """,
    )
    assert [f.code for f in found] == ["RPR003"]
    assert "never yields" in found[0].message


def test_rpr003_fires_on_bare_and_literal_yield():
    found = findings_for(
        "RPR003",
        """
        def worker(env):
            yield
            yield 5
            yield env.timeout(1.0)

        def start(env):
            env.process(worker(env))
        """,
    )
    messages = " | ".join(f.message for f in found)
    assert len(found) == 2
    assert "bare 'yield'" in messages and "literal 5" in messages


def test_rpr003_fires_via_process_constructor():
    found = findings_for(
        "RPR003",
        """
        from repro.des.core import Process

        def worker(env):
            return 3

        def start(env):
            Process(env, worker(env))
        """,
    )
    assert [f.code for f in found] == ["RPR003"]


def test_rpr003_quiet_on_proper_generator_and_yield_from():
    found = findings_for(
        "RPR003",
        """
        def child(env):
            yield env.timeout(1.0)

        def worker(env):
            yield from child(env)

        def start(env):
            env.process(worker(env))
        """,
    )
    assert found == []


def test_rpr003_quiet_when_name_shared_with_non_generator():
    # Two classes define ``run``; only one is a generator.  The call
    # cannot be resolved statically, so the rule must stay quiet.
    found = findings_for(
        "RPR003",
        """
        class Session:
            def run(self, horizon):
                return horizon

        class Workload:
            def run(self, env):
                yield env.timeout(1.0)

        def start(env, workload):
            env.process(workload.run(env))
        """,
    )
    assert found == []


def test_rpr003_quiet_on_unresolvable_deep_receiver():
    found = findings_for(
        "RPR003",
        """
        class Session:
            def run(self, horizon):
                return horizon

            def start(self):
                self.env.process(self.workload.run(self.env))
        """,
    )
    assert found == []


def test_rpr003_suppressed_inline():
    found = findings_for(
        "RPR003",
        """
        def worker(env):
            env.now

        def start(env):
            env.process(worker(env))  # repro-lint: disable=RPR003
        """,
    )
    assert found == []


# -- RPR004: unsorted set iteration ---------------------------------------


def test_rpr004_fires_on_for_over_set_call():
    found = findings_for(
        "RPR004",
        """
        def merge(results, keys):
            for key in set(keys):
                results.append(key)
        """,
    )
    assert [f.code for f in found] == ["RPR004"]


def test_rpr004_fires_on_tracked_set_variable():
    found = findings_for(
        "RPR004",
        """
        def merge(results, a, b):
            pending = set(a) | set(b)
            return [results[k] for k in pending]
        """,
    )
    assert [f.code for f in found] == ["RPR004"]


def test_rpr004_fires_on_annotated_set_and_list_of_set():
    found = findings_for(
        "RPR004",
        """
        def report(rows):
            seen: set = set()
            for row in rows:
                seen.add(row)
            return list(seen)
        """,
    )
    assert [f.code for f in found] == ["RPR004"]


def test_rpr004_quiet_on_sorted_and_order_free_reducers():
    found = findings_for(
        "RPR004",
        """
        def merge(results, keys, weights):
            for key in sorted(set(keys)):
                results.append(key)
            total = sum(weights[k] for k in set(keys))
            biggest = max(len(k) for k in set(keys))
            return total, biggest
        """,
    )
    assert found == []


def test_rpr004_quiet_on_membership_and_dict_iteration():
    found = findings_for(
        "RPR004",
        """
        def merge(table, blocked):
            blocked = set(blocked)
            return [k for k, v in table.items() if k not in blocked]
        """,
    )
    assert found == []


def test_rpr004_suppressed_inline():
    found = findings_for(
        "RPR004",
        """
        def merge(results, keys):
            for key in set(keys):  # repro-lint: disable=RPR004
                results.append(key)
        """,
    )
    assert found == []


# -- RPR005: unguarded tracer emits ---------------------------------------


def test_rpr005_fires_on_unguarded_emit_in_hot_path():
    found = findings_for(
        "RPR005",
        """
        class Channel:
            def pump(self):
                self._trace.emit("packet", "packet_sent", 0.0)
        """,
        path=HOT_PATH,
    )
    assert [f.code for f in found] == ["RPR005"]


def test_rpr005_quiet_when_guarded_by_precomputed_bool():
    found = findings_for(
        "RPR005",
        """
        class Env:
            def step(self):
                if self._trace_kernel:
                    self._trace.emit("kernel", "timer_fired", self._now)
        """,
        path=HOT_PATH,
    )
    assert found == []


def test_rpr005_quiet_when_guarded_by_receiver_check():
    found = findings_for(
        "RPR005",
        """
        class Channel:
            def pump(self):
                tr = self._trace
                if tr is not None and tr.packet:
                    tr.emit("packet", "packet_sent", 0.0)
        """,
        path=HOT_PATH,
    )
    assert found == []


def test_rpr005_quiet_when_tracer_is_parameter():
    # Injected-tracer contract: the caller holds the guard
    # (Environment._run_instrumented / _emit_fired).
    found = findings_for(
        "RPR005",
        """
        class Env:
            def _emit_fired(self, tr, when, event):
                tr.emit("kernel", "event_fired", when)
        """,
        path=HOT_PATH,
    )
    assert found == []


def test_rpr005_out_of_scope_path_is_quiet():
    found = findings_for(
        "RPR005",
        """
        class Anything:
            def hook(self):
                self._trace.emit("run", "cell_done", None)
        """,
        path="src/repro/experiments/fake.py",
    )
    assert found == []


def test_rpr005_suppressed_inline():
    found = findings_for(
        "RPR005",
        """
        class Channel:
            def pump(self):
                self._trace.emit("packet", "packet_sent", 0.0)  # repro-lint: disable=RPR005
        """,
        path=HOT_PATH,
    )
    assert found == []


# -- RPR006: mutable defaults ---------------------------------------------


def test_rpr006_fires_on_list_dict_set_defaults():
    found = findings_for(
        "RPR006",
        """
        def build(a=[], b={}, *, c=set()):
            return a, b, c
        """,
    )
    assert [f.code for f in found] == ["RPR006"] * 3


def test_rpr006_quiet_on_none_and_immutable_defaults():
    found = findings_for(
        "RPR006",
        """
        def build(a=None, b=(), c="x", d=0):
            return a, b, c, d
        """,
    )
    assert found == []


def test_rpr006_suppressed_inline():
    found = findings_for(
        "RPR006",
        """
        def build(a=[]):  # repro-lint: disable=RPR006
            return a
        """,
    )
    assert found == []


# -- RPR007: float timestamp equality -------------------------------------


def test_rpr007_fires_on_env_now_equality():
    found = findings_for(
        "RPR007",
        """
        def check(env, deadline):
            return env.now == deadline
        """,
    )
    assert [f.code for f in found] == ["RPR007"]
    assert found[0].severity == "warning"


def test_rpr007_fires_on_timestamp_attribute():
    found = findings_for(
        "RPR007",
        """
        def stale(record, packet):
            return packet.created_at != record.refreshed_at
        """,
    )
    assert len(found) == 1


def test_rpr007_quiet_on_ordering_and_inf_sentinel():
    found = findings_for(
        "RPR007",
        """
        _INF = float("inf")

        def check(env, stop_time, deadline):
            if stop_time == _INF:
                return True
            if stop_time == float("inf"):
                return True
            return env.now >= deadline
        """,
    )
    assert found == []


def test_rpr007_suppressed_inline():
    found = findings_for(
        "RPR007",
        """
        def check(env, deadline):
            return env.now == deadline  # repro-lint: disable=RPR007
        """,
    )
    assert found == []


# -- RPR008: naming conventions -------------------------------------------


def test_rpr008_fires_on_bad_instrument_names():
    found = findings_for(
        "RPR008",
        """
        def instruments(registry):
            registry.counter("events", "h", ())
            registry.counter("repro_events_count", "h", ())
            registry.gauge("repro_depth_total", "h", ())
        """,
    )
    assert [f.code for f in found] == ["RPR008"] * 3


def test_rpr008_fires_on_bad_event_name():
    found = findings_for(
        "RPR008",
        """
        def hook(tr, now):
            tr.emit("kernel", "Timer-Fired", now)
        """,
    )
    assert len(found) == 1
    assert "lower_snake_case" in found[0].message


def test_rpr008_quiet_on_conventional_names():
    found = findings_for(
        "RPR008",
        """
        def instruments(registry, tr, now):
            registry.counter("repro_events_total", "h", ())
            registry.gauge("repro_queue_depth", "h", ())
            registry.histogram("repro_latency_seconds", "h", ())
            tr.emit("kernel", "timer_fired", now)
        """,
    )
    assert found == []


def test_rpr008_quiet_on_collections_counter():
    found = findings_for(
        "RPR008",
        """
        from collections import Counter

        def tally(xs):
            return Counter(xs)
        """,
    )
    assert found == []


def test_rpr008_suppressed_inline():
    found = findings_for(
        "RPR008",
        """
        def instruments(registry):
            registry.counter("events", "h", ())  # repro-lint: disable=RPR008
        """,
    )
    assert found == []


# -- RPR009: unguarded span/profiler hooks --------------------------------


def test_rpr009_fires_on_unguarded_hook_in_hot_path():
    found = findings_for(
        "RPR009",
        """
        class Channel:
            def pump(self):
                self._spans.feed_raw(0.0, "packet", "packet_sent", {})
                self._profile.account("pump", 0.001)
        """,
        path=HOT_PATH,
    )
    assert [f.code for f in found] == ["RPR009", "RPR009"]


def test_rpr009_quiet_when_guarded_by_precomputed_check():
    found = findings_for(
        "RPR009",
        """
        class Env:
            def step(self):
                if self._profile is not None:
                    self._profile.account("step", 0.001)
                builder = self._spans
                if builder is not None:
                    builder.feed_raw(0.0, "kernel", "timer_fired", {})
        """,
        path=HOT_PATH,
    )
    assert found == []


def test_rpr009_quiet_when_hook_target_is_parameter():
    # Injected-observer contract: the caller holds the guard
    # (Environment._run_instrumented receives ``prof`` pre-checked).
    found = findings_for(
        "RPR009",
        """
        class Env:
            def _run_profiled(self, prof, when):
                prof.account("run", 0.001)
        """,
        path=HOT_PATH,
    )
    assert found == []


def test_rpr009_out_of_scope_path_is_quiet():
    found = findings_for(
        "RPR009",
        """
        class SpanSink:
            def write(self, record):
                self._feed(record)
                self.builder.feed_raw(0.0, "run", "cell_start", {})
        """,
        path="src/repro/obs/spans_fake.py",
    )
    assert found == []


def test_rpr009_suppressed_inline():
    found = findings_for(
        "RPR009",
        """
        class Channel:
            def pump(self):
                self._spans.feed_raw(0.0, "packet", "packet_sent", {})  # repro-lint: disable=RPR009
        """,
        path=HOT_PATH,
    )
    assert found == []


# -- cross-cutting ---------------------------------------------------------


@pytest.mark.parametrize("code", sorted(RULES))
def test_every_rule_has_code_name_severity(code):
    rule = RULES[code]()
    assert rule.code == code
    assert rule.name and rule.name == rule.name.lower()
    assert rule.severity in ("error", "warning")


def test_findings_are_sorted_and_carry_locations():
    found = lint_source(
        textwrap.dedent(
            """
            import random

            def f(a=[]):
                return random.random()
            """
        ),
        path="src/repro/fake.py",
    )
    assert found == sorted(found, key=lambda f: f.sort_key())
    assert all(f.line > 0 for f in found)
    assert {f.code for f in found} == {"RPR001", "RPR006"}
