"""Benchmark entry point for ``refinable``.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout: the library is imported from ``src/``
of the current directory and nowhere else.  With ``--trace 0`` it
reports the end-to-end metrics, with ``--trace 1`` the per-layer ones
(see ``perfbench/README.md``).  Every measurement runs in a fresh child
interpreter with numeric-library threads limited to one; ``setup_s`` is
the least time from process start to the end of the warm-up over fresh
interpreters that the timed run starts before, during and after it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print each metric with its unit and the output digest.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("decide-mixed", "masks-accepted", "certify-orbits", "decide-2d")
RUN_TIMEOUT_S = 170.0


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def child_cmd(args) -> list[str]:
    return [sys.executable, os.path.join(HERE, "child.py"), "run",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]


def measure(args, env: dict) -> dict:
    proc = subprocess.run(child_cmd(args), env=env, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark process failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=777)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "refinable", "__init__.py")):
        print("run.py: no src/refinable in the current directory; run it from the "
              "root of a refinable checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    try:
        result = measure(args, env)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"items {result['attempted']}  failed {result['failed']}")
    if not args.trace:
        print(f"  latency samples {result['samples']} (best of {result['timings']} timings "
              f"in {result['passes']} passes), {result['setup_samples']} set-up samples")
    for name, m in {**result["metrics"], **result.get("extra_metrics", {})}.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  output digest sha256:{result['digest']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
