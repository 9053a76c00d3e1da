"""The benchmark's output digests at seed 777, pinned.

One checked pass of each gated workload runs through the benchmark's own
``workloads.build``, ``child.run_pass`` and ``child.digest``, so a change
that alters any certificate, mask, verdict or report shows here, before a
timed benchmark run would report ``correct: false``.  The long doubles
that masks-accepted's float kernels read are pinned too.
"""

import hashlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import child  # noqa: E402
import workloads  # noqa: E402
from refinable.refinery import decide_univariate  # noqa: E402
from refinable.splinecore import _longdouble  # noqa: E402

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


# sha256 over the exact (numerator, denominator) of the long double of
# every irrational dilation, translation and normalised column of
# masks-accepted's items, 737 values at each seed
LONGDOUBLE_DIGESTS = {
    777: "f1a2c834941538dc7757417628a4561f152930c759133b48f8c1d0b7f8086d5f",
    101: "83fab4a5a73e36d63ed93086c15c984e92631fc071536d2abb5882ed1b1d233a",
    515: "b3822748809bff04835877d1b921dcf2a417ab916d6ed7bb2b8b943ff5a24c3b",
}


@pytest.mark.parametrize("seed", sorted(LONGDOUBLE_DIGESTS))
def test_long_doubles_of_the_accepted_masks_are_pinned(seed):
    h = hashlib.sha256()
    for item in workloads.build(workloads.WORKLOADS["masks-accepted"], seed):
        A, lam, _ = item.data
        rep = decide_univariate(A, lam)
        for x in (rep.mask.lam, *rep.mask.translations, *rep.normalized_columns):
            if not x.is_rational:
                h.update(repr(_longdouble(x).as_integer_ratio()).encode())
    assert h.hexdigest() == LONGDOUBLE_DIGESTS[seed]
