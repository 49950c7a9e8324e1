"""sourcescope benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload score-screen --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  The run writes the workload's inputs from the seed into
``perfbench/.work/`` and runs the workload in a fresh interpreter
(``worker.py``).  Between the workload's passes, while it waits, this
process times ``setup_s`` over more fresh interpreters and writes the next
list of URLs never scored before in the run (``corpus.Editions``).  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a step-by-step traced replay, whose spans are kept
in ``perfbench/.work/traces/``.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (why each was chosen is in BENCHMARK.json):
  score-screen  mimicry screen against 1,000 known domains dominates
  score-pages   HTML parsing and the five detectors dominate
  dataset       CSV ingest, fit, diagnostics and statistics at 10^5 rows
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("score-screen", "score-pages", "dataset")
# Set-up probes per run, spread over the run's pauses: on a shared host the
# machine's speed drifts over seconds, and a median over the whole run moves
# less with it.
SETUP_PROCESSES = 10
WORKER_TIMEOUT = 150


def metric_units(kind: str) -> dict:
    """Name to unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def worker_cmd(mode: str, args, work: Path) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
            "--work", str(work), "--root", str(ROOT)]


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def measure_setup(args, work: Path) -> tuple[float, dict]:
    """Wall time of a fresh interpreter that imports the package and builds
    the workload's known-domain DB, lexicon and model, and its own report."""
    t0 = time.perf_counter()
    done = subprocess.run(worker_cmd("setup", args, work), env=child_env(),
                          capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{done.stderr}")
    return wall, last_json(done.stdout)


def run_worker(args, work: Path, meta: dict) -> tuple[dict, list, list]:
    """The workload in a fresh interpreter.  Between its passes the worker
    waits while this process runs the set-up probes due by then and writes
    the next URL list (``worker.Feed``).  Returns the worker's result and
    the probes' wall times and reports."""
    cmd = worker_cmd("run", args, work) + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(HERE / ".work" / "traces" / f"{args.workload}-s{args.seed}.jsonl")]
    editions = None if args.workload == "dataset" else corpus.Editions(
        args.workload, args.seed, ROOT, work, meta)
    walls, probes = [], []

    def probe_until(count: int) -> None:
        while len(walls) < count:
            wall, probe = measure_setup(args, work)
            walls.append(wall)
            probes.append(probe)

    result = None
    with open(work / "worker.err", "w+", encoding="utf-8") as err:
        worker = subprocess.Popen(cmd, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  stderr=err, text=True)
        watchdog = threading.Timer(WORKER_TIMEOUT, worker.kill)
        watchdog.start()
        try:
            for line in worker.stdout:
                message = json.loads(line)
                if "result" in message:
                    result = message["result"]
                    break
                probe_until(round(SETUP_PROCESSES * min(message["progress"], 1.0)))
                reply = editions.next() if editions else {}
                worker.stdin.write(json.dumps(reply) + "\n")
                worker.stdin.flush()
            worker.wait()
        finally:
            watchdog.cancel()
            if worker.poll() is None:
                worker.kill()
                worker.wait()
            worker.stdin.close()
            worker.stdout.close()
        if worker.returncode != 0 or result is None:
            err.seek(0)
            raise RuntimeError(f"worker failed:\n{err.read()}")
    probe_until(SETUP_PROCESSES)
    return result, walls, probes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sourcescope" / "__init__.py").is_file():
        print(f"no sourcescope source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        meta = corpus.build(args.workload, args.seed, ROOT, work)
        measure_setup(args, work)             # warm-up: compiles the package's bytecode
        result, walls, probes = run_worker(args, work, meta)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if args.trace:
        metrics["setup.import_ms"] = statistics.median(p["import_ms"] for p in probes)
        metrics["screener.db_build_ms"] = statistics.median(p["db_build_ms"] for p in probes)
        metrics["check.known_defect_ratio"] = result["known_defect"] / result["sent"]
        units = metric_units("per_layer")
        for name in units:
            metrics.setdefault(name, 0.0)    # a layer this workload never calls
    else:
        metrics["setup_s"] = statistics.median(walls)
        units = metric_units("end_to_end")
    attempted, failed = result["sent"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  inputs: {meta['summary']}")
    print(f"  setup: {len(walls)} fresh interpreters, sent {len(walls)} succeeded {len(walls)} failed 0")
    for phase, row in result["phases"].items():
        print(f"  phase {phase}: sent {row['sent']} succeeded {row['ok']} failed {row['failed']}"
              f" known-defect {row['known-defect']}")
    print(f"  {result['note']}")
    print(f"  ops_failed_ratio {failed / attempted:.4f} ({failed}/{attempted}); "
          f"known-defect slices {result['known_defect'] / attempted:.4f} "
          f"({result['known_defect']}/{attempted})")
    for name in sorted(metrics):
        print(f"  {name:34s} {metrics[name]:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
