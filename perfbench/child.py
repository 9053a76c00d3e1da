"""One benchmark process: set up a workload, then time it or trace it.

    python3 perfbench/child.py setup --workload NAME --seed N
    python3 perfbench/child.py run --workload NAME --seed N --seconds S --trace 0|1

Both modes print ``READY`` once the inputs are built and every entry
point has been called once on a small input.  ``setup`` exits there;
``run`` then prints one JSON line with its results.  ``run.py`` starts
the ``run`` process with ``refinable`` importable from the checkout;
the timed run starts the ``setup`` processes itself, between items.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import workloads
from spans import Tracer

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

REPEAT_S = 1.0  # pass p re-times an item whose best time b has (p - 1) * b < REPEAT_S
SETUP_EVERY_S = 10.0
SETUP_TIMEOUT_S = 20.0


class ItemTimeout(Exception):
    pass


def run_item(workload, data):
    """The product call, interrupted if it outlives the workload's deadline."""
    def expire(signum, frame):
        raise ItemTimeout(f"still running after {workload.deadline_s:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, workload.deadline_s)
    try:
        return workload.run(data)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class SetupSampler:
    """Times fresh ``setup`` interpreters of the workload, each from its
    start to its READY line: one when asked to ``sample``, and one on
    ``between`` whenever SETUP_EVERY_S have passed since the last.  The
    calling process waits meanwhile, so the samples are spread over the
    timed run without running beside it."""

    def __init__(self, workload, seed: int):
        self.cmd = [sys.executable, os.path.abspath(__file__), "setup",
                    "--workload", workload.name, "--seed", str(seed)]
        self.samples: list[float] = []
        self.last = time.perf_counter()

    def sample(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if line.strip() != "READY" or code != 0:
            raise RuntimeError(f"setup process failed (exit {code})")
        self.samples.append(elapsed)
        self.last = time.perf_counter()

    def between(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.sample()


def run_pass(workload, items, check: bool, tracer: Tracer | None = None,
             setups: SetupSampler | None = None, until: float | None = None):
    """Run every item once, or those started before ``until`` (a
    ``time.perf_counter()`` value).  Returns the product-call time of
    each item that did not raise, the indices of failed items (raised or
    failed their check), and the canonical text and the verdict of each
    item's output.  ``setups`` may sample set-up times between items."""
    timings: dict[int, float] = {}
    failed: set[int] = set()
    texts: dict[int, str] = {}
    verdicts: dict[int, str] = {}
    for item in items:
        if setups is not None:
            setups.between()
        if until is not None and time.perf_counter() >= until:
            break
        if tracer is not None:
            tracer.item = item.index
        t0 = time.perf_counter()
        try:
            out = run_item(workload, item.data)
        except Exception as exc:  # a refused or crashed item counts as failed
            failed.add(item.index)
            texts[item.index] = f"error:{type(exc).__name__}:{exc}"
            print(f"{workload.name}: item {item.index} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            continue
        timings[item.index] = time.perf_counter() - t0
        texts[item.index] = workload.canon(out)
        verdicts[item.index] = workload.verdict(out)
        if not check:
            continue
        try:
            if tracer is not None:
                with tracer.span("bench.check"):
                    workload.check(item.data, out)
            else:
                workload.check(item.data, out)
        except Exception as exc:
            failed.add(item.index)
            print(f"{workload.name}: item {item.index} failed its check: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return timings, failed, texts, verdicts


def digest(texts: dict[int, str]) -> str:
    """sha256 over the outputs in template order."""
    return hashlib.sha256("\n".join(texts[i] for i in sorted(texts)).encode()).hexdigest()


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(workload, items, seed: int, seconds: float) -> dict:
    """The first pass, then further passes until ``seconds`` have elapsed.

    The first pass runs every item and its check, however long it takes;
    the digest is taken over its outputs.  Pass p >= 2 runs again the
    items that passed and whose best time b satisfies
    (p - 1) * b < REPEAT_S, so cheaper items are timed more often, about
    REPEAT_S seconds' worth each while the run lasts; it stops starting
    items when ``seconds`` have elapsed.  Each repeat is a
    fresh variant of the item (``workloads.vary_items``), so no input is
    ever repeated in the process; a variant must give the first pass's
    verdict.  Each item's latency is its best time.  The host's speed
    drifts by tens of percent over seconds; the best of timings spread
    over the run removes most of that drift and the one-off costs
    (caches, lazily computed constants) that land on whichever item runs
    first; an item above REPEAT_S averages over both by itself.

    Set-up samples are taken before the first pass, between items every
    SETUP_EVERY_S and after the last pass; ``setup_s`` is the least.
    """
    setups = SetupSampler(workload, seed)
    setups.sample()
    start = time.perf_counter()
    timings, failed, texts, verdicts = run_pass(workload, items, check=True, setups=setups)
    best = {i: dt for i, dt in timings.items() if i not in failed}
    n_timings = len(timings)
    consistent = True
    passes = 1
    end = start + seconds
    while time.perf_counter() < end:
        repeat = [item for item in items if item.index in best
                  and item.index not in failed and passes * best[item.index] < REPEAT_S]
        if not repeat:
            break
        variants = workloads.vary_items(workload, repeat, seed, passes)
        timings, failed_now, _, again = run_pass(workload, variants, check=False,
                                                 setups=setups, until=end)
        consistent &= all(verdicts[i] == v for i, v in again.items())
        failed |= failed_now
        for i, dt in timings.items():
            best[i] = min(best[i], dt)
        n_timings += len(timings)
        passes += 1
    setups.sample()
    latencies = [dt for i, dt in best.items() if i not in failed]
    metrics = {
        "setup_s": {"value": min(setups.samples), "unit": "s"},
        "items_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "latency_p50_ms": {"value": 1e3 * _quantile(latencies, 50), "unit": "ms"},
        "latency_p90_ms": {"value": 1e3 * _quantile(latencies, 90), "unit": "ms"},
        "success_share": {"value": 1.0 - len(failed) / len(items), "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    return {"correct": consistent, "attempted": len(items), "failed": len(failed),
            "metrics": metrics, "digest": digest(texts),
            "passes": passes, "samples": len(latencies), "timings": n_timings,
            "setup_samples": len(setups.samples)}


def traced_run(workload, items, spans_path: str) -> dict:
    """One untraced pass, then one traced pass with checks; the two
    digests must agree.  Span records go to ``spans_path``."""
    plain, _, plain_texts, _ = run_pass(workload, items, check=False)
    tracer = Tracer()
    with tracer:
        traced, failed, traced_texts, _ = run_pass(workload, items, check=True, tracer=tracer)
    plain_digest, traced_digest = digest(plain_texts), digest(traced_texts)
    tracer.write(spans_path)
    ratio = sum(traced.values()) / sum(plain.values())
    return {"correct": plain_digest == traced_digest, "attempted": len(items),
            "failed": len(failed), "metrics": tracer.metrics(ratio),
            "extra_metrics": tracer.extra_metrics(),
            "digest": traced_digest, "untraced_digest": plain_digest,
            "passes": 1, "samples": len(traced), "timings": len(traced)}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    items = workloads.build(workload, args.seed)
    workload.warmup()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        result = traced_run(workload, items,
                            os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        result = timed_run(workload, items, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
