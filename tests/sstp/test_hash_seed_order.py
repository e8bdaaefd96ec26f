"""SSTP walks of name sets must not depend on the string hash seed.

Python salts ``str`` hashes per process (``PYTHONHASHSEED``), so
iterating a set of names yields an order that changes between runs.
Pytest's own process draws one random seed, so an in-process test sees
one arbitrary order and catches an unsorted walk only by luck.  Here a
probe runs in fresh interpreters under fixed seeds, where an unsorted
walk shows up as a different order on every run of the suite alike.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
HASH_SEEDS = (0, 1, 2, 3)
PRUNED = ["a", "b", "c", "d", "e"]
DIFFERING = ["k0", "k1", "k2", "k3", "k4", "k5"]

#: Given ``[pruned, differing]`` name lists as JSON in argv, prints the
#: receiver's ``on_remove`` order when a digest listing for "dir" drops
#: every pruned leaf, and ``diff_paths`` of two namespaces whose
#: differing leaves under "dir" all disagree.
PROBE = """
import json, sys
from repro.des import Environment
from repro.net import Packet
from repro.sstp.namespace import Namespace
from repro.sstp.protocol import SstpReceiver

pruned, differing = json.loads(sys.argv[1])
receiver = SstpReceiver("r", Environment(), feedback=None)
for seq, name in enumerate(pruned):
    payload = {"path": "dir/" + name, "value": seq, "version": 1,
               "right_edge": 100, "metadata": {}, "repairs": ()}
    receiver.deliver(Packet(kind="adu", seq=seq, payload=payload))
removed = []
receiver.on_remove = removed.append
listing = {"path": "dir", "children": [], "leaf": {}}
receiver.deliver(Packet(kind="digests", seq=len(pruned), payload=listing))

left, right = Namespace(), Namespace()
for name in differing:
    left.publish("dir/" + name, 1)
    right.publish("dir/" + name, 2)
print(json.dumps({"removed": removed, "diff": left.diff_paths(right)}))
"""


@pytest.fixture(scope="module")
def orders():
    """Probe output per fixed hash seed."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = {}
    for seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", PROBE, json.dumps([PRUNED, DIFFERING])],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        result[seed] = json.loads(done.stdout)
    return result


def test_receiver_prunes_unlisted_leaves_in_sorted_order(orders):
    expected = [f"dir/{name}" for name in PRUNED]
    assert {seed: out["removed"] for seed, out in orders.items()} == {
        seed: expected for seed in HASH_SEEDS
    }


def test_diff_paths_lists_differing_siblings_in_sorted_order(orders):
    expected = [f"dir/{name}" for name in DIFFERING]
    assert {seed: out["diff"] for seed, out in orders.items()} == {
        seed: expected for seed in HASH_SEEDS
    }
