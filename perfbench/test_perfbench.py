"""Self-tests of the benchmark: frozen generators and tracing.

Run with ``PYTHONPATH=src python -m pytest perfbench`` from the
repository root.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (HERE, os.path.join(HERE, "..", "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gen_instances  # noqa: E402

import child  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from refinable.exactreal import FieldElement  # noqa: E402
from spans import PER_LAYER_UNITS  # noqa: E402


# cheap template items per workload: enough to cross every layer
SMALL = {
    "decide-mixed": range(0, 8),
    "masks-accepted": range(0, 4),
    "certify-orbits": range(1, 6),
    "decide-2d": range(3, 6),
}


def _key(instance):
    A, lam = instance
    return [(a.desc.n, a.desc.k, a.coeffs) for a in A], (lam.desc.n, lam.desc.k, lam.coeffs)


def test_univariate_generator_is_frozen_at_seed_777():
    frozen = gen.instance_batch(200, 777)
    live = gen_instances.instance_batch(200, 777)
    assert [_key(x) for x in frozen] == [_key(x) for x in live]


def test_accepted_generator_matches_the_test_generator():
    frozen = gen.accepted_batch(100, 777)
    live = gen_instances.accepted_batch(100, 777)
    assert [_key(x) for x in frozen] == [_key(x) for x in live]


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS.values():
        a = workloads.build(workload, 5)
        b = workloads.build(workload, 5)
        assert [(i.index, repr(i.data)) for i in a] == [(i.index, repr(i.data)) for i in b]


def test_variants_keep_the_verdict():
    for name, keep in SMALL.items():
        workload = workloads.WORKLOADS[name]
        items = [i for i in workloads.build(workload, 3) if i.index in keep]
        variant = workloads.vary_items(workload, items, 3, 1)
        assert [repr(i.data) for i in variant] != [repr(i.data) for i in items], name
        _, failed, _, verdicts = child.run_pass(workload, items, check=False)
        _, failed_again, _, again = child.run_pass(workload, variant, check=False)
        assert (failed, verdicts) == (failed_again, again), name


def test_traced_and_untraced_digests_agree(tmp_path):
    mul = FieldElement.__mul__
    for name, keep in SMALL.items():
        workload = workloads.WORKLOADS[name]
        items = [i for i in workloads.build(workload, 3) if i.index in keep]
        spans = tmp_path / f"{name}.jsonl"
        result = child.traced_run(workload, items, str(spans))
        assert result["digest"] == result["untraced_digest"], name
        assert result["correct"], name
        assert set(result["metrics"]) == set(PER_LAYER_UNITS)
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert spans.read_text().strip()
        assert FieldElement.__mul__ is mul  # wrappers restored
