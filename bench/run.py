"""Benchmark of hopfgalois: degree rows and the pq cross-check.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload rows-8-12 --seconds 20 --trace 0
    python3 bench/run.py --workload all --trace 1

A run repeats whole rounds of its workload until ``--seconds`` have passed
(at least one round).  Each round is a fresh interpreter (bench/worker.py)
with a fresh cache directory, so every round pays for the same work.
Set-up time is measured separately, by starting fresh interpreters that
only import the package.  Times are reported in reference seconds (see
speed.py): measured seconds scaled by the machine's speed, sampled next to
the work.  The last line of output is one JSON object:
the operations attempted and failed, whether every checked output was
correct, and the median over the rounds of each metric: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The workloads have no random inputs, so ``--seed`` changes nothing; it is
accepted so that every run is started the same way.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from spans import UNITS as LAYER_UNITS  # noqa: E402

WORKLOADS = ("rows-8-12", "row-55-part", "verify-pq-7-3")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "catalogue_s": "s",
    "parallel_s": "s",
    "resume_s": "s",
    "peak_rss_mb": "MB",
}

# Permutations are bytes, whose hashes are salted per process, and set and
# dict iteration order steers the lattice and the searches.  Every round
# uses this one seed so that every run does the same computation.
HASH_SEED = "0"

SETUP_PROBES = 9
EXIT_LIMIT_S = 170.0


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def import_seconds(env: dict) -> float:
    """Fresh interpreter start to ``import hopfgalois`` done."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", "import time, hopfgalois; print(time.monotonic())"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    if out.returncode != 0:
        fail(f"importing the package failed:\n{out.stderr}")
    return float(out.stdout.split()[-1]) - t0


def run_round(root: Path, env: dict, workload: str, index: int, trace: bool, timeout: float) -> dict:
    work = HERE / ".work" / f"{workload}-{os.getpid()}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--cache-dir", str(work)]
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(out_dir / f"spans-{workload}.tsv")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: round {index} did not finish within {timeout:.0f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"{workload}: round {index} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["package"]).resolve().is_relative_to((root / "src").resolve()):
        fail(f"imported {result['package']}, not the package under {root / 'src'}")
    return result


def setup_seconds(env: dict) -> float:
    """Median import time in reference seconds, probes between speed samples."""
    samples = [speed.sample()]
    probes = []
    for _ in range(SETUP_PROBES):
        probes.append(import_seconds(env))
        samples.append(speed.sample())
    return statistics.median(probes) * speed.scale(samples)


def run_workload(root: Path, workload: str, seconds: float, trace: bool) -> dict:
    env = child_env(root)
    started = time.monotonic()
    setup_s = None if trace else setup_seconds(env)
    rounds = []
    t0 = time.monotonic()
    while True:
        spent = time.monotonic() - started
        rounds.append(run_round(root, env, workload, len(rounds), trace, EXIT_LIMIT_S - spent))
        elapsed = time.monotonic() - t0
        # stop early rather than let a round run past the exit limit
        next_round = elapsed / len(rounds) * 1.5
        if elapsed >= seconds or time.monotonic() - started + next_round > EXIT_LIMIT_S:
            break
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {}
    for name, unit in units.items():
        value = setup_s if name == "setup_s" else statistics.median(
            r["metrics"][name] for r in rounds
        )
        metrics[name] = {"value": value, "unit": unit}
    for r in rounds:
        print(f"{workload}: {'traced' if trace else 'untraced'} round, measured wall "
              f"{r['measured_wall_s']:.3f} s, scale {r['scale']:.3f} from "
              f"{r['speed_samples']} speed samples "
              f"(about {r['measured_wall_s'] * r['scale']:.3f} reference s), "
              f"checks {r['checks_s']:.3f} s",
              file=sys.stderr)
    return {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hopfgalois" / "__init__.py").is_file():
        fail(f"no package source at {root / 'src' / 'hopfgalois'}; run from the repository root")
    if args.workload != "all":
        print(json.dumps(run_workload(root, args.workload, args.seconds, bool(args.trace))))
        return 0
    results = {}
    for workload in WORKLOADS:
        results[workload] = run_workload(root, workload, args.seconds, bool(args.trace))
        print(workload, json.dumps(results[workload]))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
