"""The benchmark's output digests at seed 777, pinned.

One checked pass of each gated workload runs through the benchmark's own
``workloads.build``, ``child.run_pass`` and ``child.digest``, so a change
that alters any certificate, mask, verdict or report shows here, before a
timed benchmark run would report ``correct: false``.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import child  # noqa: E402
import workloads  # noqa: E402

DIGESTS = {
    "decide-mixed": "e67a37b352306d13918aa177d736e9ac38efd70a017e432f9f816a793e846aa0",
    "masks-accepted": "c9312862ca4ee5bcc286488c2295d846f5c2cec21fd64dc85967509cadf2c38e",
    "certify-orbits": "ca68d1b08d4f9272a0d59e5718b1d97b6c2f04a83ae576df46fc646c474b3b55",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_checked_pass_keeps_the_digest_at_seed_777(name):
    workload = workloads.WORKLOADS[name]
    items = workloads.build(workload, 777)
    workload.warmup()
    _, failed, texts, _ = child.run_pass(workload, items, check=True)
    assert not failed
    assert child.digest(texts) == DIGESTS[name]
