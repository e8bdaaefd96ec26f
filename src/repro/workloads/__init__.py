"""Update-process workloads for soft-state publishers.

The paper's model (Section 2) drives the publisher's table with an
update process: records arrive, are updated, and die.  This package
provides the Poisson process the analysis and the figures use, and a
static bulk load (every record inserted once, then only refreshed).

Every workload implements :class:`~repro.workloads.base.Workload`: a
generator-driven process that calls ``actions`` on a publisher
(insert/update/delete with lifetimes) according to its own clock.
"""

from repro.workloads.base import PublisherActions, Workload
from repro.workloads.poisson import PoissonUpdateWorkload
from repro.workloads.static_bulk import StaticBulkWorkload

__all__ = [
    "PoissonUpdateWorkload",
    "PublisherActions",
    "StaticBulkWorkload",
    "Workload",
]
