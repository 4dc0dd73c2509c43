"""ggslab benchmark: census, length and verify workloads, every answer checked.

    python3 perfbench/run.py --workload census --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a ggslab checkout; the package is imported from ./src.
Each batch runs in a fresh interpreter (perfbench/worker.py), one at a time, so
memos start cold and peak memory is per batch. Batches repeat the same inputs
as long as another one is expected to end within --seconds. Every time is
scaled to the machine's full speed by the probe readings taken during and
around it (see worker.SpeedMeter and scaled). An item's time is the median of
its scaled times over the batches; wall_s, item_p50_s and slowest_item_s are
the sum, the median and the largest of those. peak_rss_mb is the median over
the batches. Set-up is also sampled on its own, SETUPS_PER_BATCH times before each
batch and then up to MIN_SETUPS samples in all; setup_s is their median.

With --trace 1, untraced and traced batches alternate; the per-layer metrics
are lower medians over the traced batches, and trace.overhead_s is the traced
minus the untraced median wall time.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("item_p50_s", "s"),
    ("slowest_item_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
MIN_SETUPS = 15
SETUPS_PER_BATCH = 2
# the probe loop's time (worker.probe) on a 2-vCPU Intel Xeon VM at 2.1 GHz,
# Python 3.11, when no other tenant slows it
PROBE_REF_S = 0.0026
RUN_LIMIT_S = 170  # workers are killed this long after the run starts


class BatchError(Exception):
    pass


def source_state():
    """Machine and source facts recorded with every result."""
    digest = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
                lines += data.count(b"\n")
    commit = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass  # not a git checkout of this repository
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


def run_worker(workload, started, hash_seed, trace=False, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    timeout = RUN_LIMIT_S - (time.perf_counter() - started)
    if timeout <= 0:
        raise BatchError("no time left for another batch")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
                              env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)))
    except subprocess.TimeoutExpired:
        raise BatchError(f"batch did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BatchError(f"worker exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BatchError("worker printed no result") from None
    if not trace and out["wrapped"]:
        raise BatchError("untraced run saw traced wrappers: " + ", ".join(out["wrapped"]))
    return out


def _room_for_another(started, rounds, seconds):
    """Whether one more round, taking as long as the average so far, ends in time."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / rounds <= seconds


def scaled(sec, probe_s):
    """`sec` as it would read on the machine running at full speed, where the
    probe takes PROBE_REF_S; `probe_s` is the probe's mean time during and
    around the step that took `sec`."""
    return sec * PROBE_REF_S / probe_s


def measure(workload, seconds, trace):
    """Run batches for up to `seconds`; returns (attempted, failed, metrics, notes).

    metrics is None when no batch completed."""
    started = time.perf_counter()
    plain, traced, setups = [], [], []
    failures = []
    attempted = failed = 0
    while not plain or (trace and not traced) or _room_for_another(started, len(plain), seconds):
        # The k-th batch of every run has string hash seed k, so runs differ
        # only by the machine, while a run still spans several hash orders.
        hash_seed = len(plain) + 1
        try:
            # set-up samples spread over the run, not bunched at one moment
            for _ in range(SETUPS_PER_BATCH):
                setups.append(run_worker(workload, started, hash_seed, setup_only=True))
            batches = [run_worker(workload, started, hash_seed)]
            if trace:
                batches.append(run_worker(workload, started, hash_seed, trace=True))
        except BatchError as exc:
            # a batch that cannot finish is one failed attempt; stop there
            attempted += 1
            failed += 1
            failures.append(str(exc))
            break
        plain.append(batches[0])
        traced.extend(batches[1:])
        setups.append(batches[0])
        for batch in batches:
            for name, _, reason, _ in batch["items"]:
                attempted += 1
                if reason is not None:
                    failed += 1
                    failures.append(f"{name}: {reason}")
    if not plain or (trace and not traced):
        return attempted, failed, None, failures
    try:
        while len(setups) < MIN_SETUPS:
            setups.append(run_worker(workload, started, len(setups) + 1, setup_only=True))
    except BatchError as exc:
        failures.append(str(exc))

    def med(rows, key):
        return statistics.median(row[key] for row in rows)

    if trace:
        # the lower median is a value one traced batch produced, so counts stay whole
        metrics = {name: (statistics.median_low(b["layers"][name] for b in traced), unit)
                   for name, unit, _ in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (med(traced, "wall_s") - med(plain, "wall_s"), "s")
    else:
        per_item = {}
        for batch in plain:
            for name, sec, _, probe_s in batch["items"]:
                per_item.setdefault(name, []).append(scaled(sec, probe_s))
        item_s = [statistics.median(secs) for secs in per_item.values()]
        values = {
            "wall_s": sum(item_s),
            "item_p50_s": statistics.median(item_s),
            "slowest_item_s": max(item_s),
            "setup_s": statistics.median(scaled(s["setup_s"], s["setup_probe_s"]) for s in setups),
            "peak_rss_mb": med(plain, "peak_rss_mb"),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    notes = failures + [f"batches={len(plain)} traced_batches={len(traced)} "
                        f"setup_samples={len(setups)}"]
    probes = [row[3] for batch in plain for row in batch["items"]]
    notes.append("probe median {:.4g} s, fastest {:.4g} s; unscaled wall_s of the median "
                 "batch {:.4g} s".format(statistics.median(probes), min(probes),
                                         med(plain, "wall_s")))
    if trace:
        notes.append("spans' self time {:.4g} s of traced wall_s {:.4g} s".format(
            med(traced, "span_self_total_s"), med(traced, "wall_s")))
    return attempted, failed, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    # accepted and recorded; no workload's inputs depend on it (see workloads.py)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ggslab", "__init__.py")):
        print(f"error: no ggslab package under {SRC}", file=sys.stderr)
        return 2
    # byte-compile up front so that no batch pays for it inside set-up
    compileall.compile_dir(SRC, quiet=1)
    print("env " + json.dumps(dict(source_state(), seed=args.seed), sort_keys=True))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total_attempted = total_failed = 0
    result_metrics = {}
    for name in names:
        attempted, failed, metrics, notes = measure(name, args.seconds, args.trace)
        total_attempted += attempted
        total_failed += failed
        for note in notes:
            print(f"{name} note {note}")
        if metrics is None:
            print(f"error: workload {name} produced no complete batch", file=sys.stderr)
            return 1
        print(f"{name} failed_frac {failed / attempted:.6g} (failed {failed} of {attempted})")
        for metric, (value, unit) in metrics.items():
            print(f"{name} {metric} {value:.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            result_metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": total_failed == 0, "attempted": total_attempted,
                      "failed": total_failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
