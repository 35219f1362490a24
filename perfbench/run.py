"""End-to-end, layer-attributed benchmark of the PRAM simulation stack.

Usage (from the repository root)::

    python3 perfbench/run.py                      # all four workloads
    python3 perfbench/run.py --workload access-model --seed 3 --seconds 20
    python3 perfbench/run.py --workload serve-fleet --trace 1

A run prints a human-readable report, then a provenance line, and as its
last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics listed in
``BENCHMARK.json``; ``--trace 1`` reports its per-layer metrics (layers
that do not run on the workload read 0 there).  The exit code is 0 only
if every output was checked correct.  The metric definitions, the
workloads and which layer metric should move which end-to-end metric
are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Environment the program reads that would change what a run measures.
#: Cleared so every run gets the defaults users get; REPRO_CACHE_DIR is
#: then pointed at a fresh directory for every cold build.
PINNED_ENV = (
    "REPRO_SHARDS",
    "REPRO_KERNELS",
    "REPRO_CACHE_DIR",
    "REPRO_OBS_WORKER",
    "REPRO_MP_START",
    "REPRO_STRICT_ACCOUNTING",
)

DEFAULT_SEED = 1


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git
    (which would search directories above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Content hash of ``src/``: identifies the code even without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance() -> dict:
    import networkx
    import numpy

    spec = importlib.util.spec_from_file_location(
        "bench_harness", ROOT / "benchmarks" / "_harness.py"
    )
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    return {
        "instance": harness.instance_metadata(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def header(name: str, seed: int, trace: bool, result) -> None:
    print(f"== {name}  seed={seed}  trace={int(trace)}  "
          + "  ".join(f"{k}={v}" for k, v in result.info.items()))
    error_rate = result.failed / max(1, result.attempted)
    print(f"  {'error_rate':<34}{error_rate:>14.6f} ratio  "
          f"({result.failed} of {result.attempted} failed)")
    for problem in result.problems:
        print(f"  FAILED: {problem}")


def collect(entries: list, measured: dict, fill: bool) -> dict:
    """The JSON metrics in ``BENCHMARK.json`` order, checking each unit;
    with ``fill``, a metric the workload did not measure reads 0."""
    metrics = {}
    for entry in entries:
        name = entry["name"]
        if name not in measured and not fill:
            raise RuntimeError(f"workload did not measure {name}")
        value, unit = measured.pop(name, (0.0, entry["unit"]))[:2]
        if unit != entry["unit"]:
            raise RuntimeError(f"{name}: unit {unit}, BENCHMARK.json says "
                               f"{entry['unit']}")
        metrics[name] = {"value": value, "unit": unit}
    if measured:
        raise RuntimeError(f"not in BENCHMARK.json: {sorted(measured)}")
    return metrics


def print_metrics(metrics: dict, notes: dict, trace: bool) -> None:
    for name, metric in metrics.items():
        # A traced run lists only the layers that ran on this workload;
        # engine.route_s is listed even at 0, where nothing is routed.
        if trace and not metric["value"] and name not in (
            "trace.overhead", "unattributed_s", "engine.route_s"
        ):
            continue
        note = notes.get(name, "")
        print(f"  {name:<34}{metric['value']:>14.6g} {metric['unit']:<10}"
              + (f" ({note})" if note else ""))


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    for var in PINNED_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    from workloads import WORKLOADS

    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix=f"{name}-", dir=scratch)
    try:
        result = WORKLOADS[name](seed, seconds, trace, tmp_root)
    except Exception:  # noqa: BLE001 - a crash is a failed run, not a result
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    correct = result.failed == 0 and result.attempted > 0
    header(name, seed, trace, result)
    metrics = {}
    if correct:  # a failed check never yields a timing
        notes = {k: v[2] for k, v in result.end_to_end.items()}
        if trace:
            metrics = collect(spec["per_layer"], result.per_layer, fill=True)
        else:
            metrics = collect(spec["end_to_end"], result.end_to_end, fill=False)
        print_metrics(metrics, notes, trace)
    print("provenance: " + json.dumps(
        {**provenance(), "workload": name, "seed": seed, "seconds": seconds,
         "trace": int(trace), **{f"resolved_{k}": v for k, v in result.info.items()
                                 if k in ("shards", "kernels")}}))
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int | None, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another."""
    spec = load_spec()
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for entry in spec["workloads"]:
        name = entry["name"]
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seconds", str(seconds), "--trace", str(int(trace))]
        if seed is not None:
            argv += ["--seed", str(seed)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            last = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        totals["correct"] &= bool(last["correct"]) and proc.returncode == 0
        totals["attempted"] += last["attempted"]
        totals["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            totals["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(totals))
    return 0 if totals["correct"] else 1


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + [w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=None,
                        help=f"input seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured window (default: "
                        "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    seed = DEFAULT_SEED if args.seed is None else args.seed
    return run_one(args.workload, seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
