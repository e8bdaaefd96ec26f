"""Discrete-event simulation kernel.

A small, deterministic, process-interaction simulation engine in the style
of simpy.  Simulation processes are plain Python generators that yield
*events*; the :class:`~repro.des.core.Environment` advances virtual time
and resumes processes when the events they wait on are triggered.

The kernel is sized to its callers: events (``succeed``/``fail``/
``settle``), timeouts (one at a time or ``timeout_many``), processes that
can wait on each other and be interrupted, and named seeded RNG streams.
simpy's resources, stores and condition events are not provided; a model
that needs a queue keeps a ``deque`` and has an idle process wait on a
fresh ``env.event()`` that the producer succeeds.

Example
-------
>>> from repro.des import Environment
>>> env = Environment()
>>> def clock(env, ticks):
...     for _ in range(ticks):
...         yield env.timeout(1.0)
>>> _ = env.process(clock(env, 3))
>>> env.run()
>>> env.now
3.0
"""

from repro.des.core import (
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.des.rng import RngStreams

__all__ = [
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RngStreams",
    "SimulationError",
    "Timeout",
]
