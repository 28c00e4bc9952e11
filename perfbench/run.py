"""The cmparity benchmark: one workload per call, untraced or traced.

Run from the root of a cmparity checkout:

    python3 perfbench/run.py --workload odd-family --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh worker process (worker.py) with
CMPARITY_THREADS=1: one client calling `cmparity.cli.main` in a closed loop.
With --trace 0 the end-to-end metrics come from that untraced run, and
set-up time is the median over several fresh processes. With --trace 1 an
untraced worker runs for half the time, then a traced worker repeats exactly
the same rounds; the per-layer metrics come from the traced one and the
ratio of their operation times is the tracing overhead. Times are reported
at the reference speed of calibrate.py. Outputs are checked (checks.py)
after the workers have exited. The last line on stdout is the result as one
JSON object; traces and a summary of each run go to .perfbench_out/ in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import calibrate
import checks
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9  # fresh processes that only import cmparity
SETUP_KERNELS = 4  # calibration kernel runs between two of them
WORKER_TIMEOUT_S = 170
# lookup-stream's tail: at its minimum of 1,000 operations a run, the highest
# percentile with at least ten operations beyond it
TAIL_QUANTILE = 0.99


def start_worker(root: Path, *args: str) -> dict:
    """Run worker.py to its end; its summary plus the set-up seconds."""
    env = dict(os.environ, CMPARITY_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    started = time.monotonic_ns()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=root, env=env,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    summary["setup_s"] = (summary["ready_ns"] - started) / 1e9
    return summary


def run_workload(root: Path, records: Path, args: argparse.Namespace,
                 *extra: str) -> tuple[dict, list[dict]]:
    """Run the workload in a worker; its summary and its operations' records."""
    summary = start_worker(root, "--workload", args.workload, "--seed", str(args.seed),
                           "--records", str(records), *extra)
    with open(records) as handle:
        ops = [json.loads(line) for line in handle]
    records.unlink()
    return summary, ops


def items_per_op(workload: str) -> int:
    """j-samples a density report emits, or 1 query a lookup operation."""
    if workload == "odd-family":
        return len(workloads.odd_pairs())
    if workload == "complex-scatter":
        return workloads.COMPLEX_DRAWS
    return 1


def at_reference(run: dict, ops: list[dict]) -> list[float]:
    """Each operation's factor to the reference speed, from its run's kernel samples."""
    return calibrate.speed_factors([(r["start"], r["start"] + r["ns"]) for r in ops],
                                   run["kernel"])


def end_to_end(workload: str, run: dict, ops: list[dict], setups: list[float]) -> dict:
    times = sorted(r["ns"] * f for r, f in zip(ops, at_reference(run, ops)))
    p50_ms = statistics.median(times) / 1e6
    # density runs make fewer than forty operations: their tail is their median
    tail_ms = p50_ms
    if workload == "lookup-stream":
        tail_ms = times[math.ceil(TAIL_QUANTILE * len(times)) - 1] / 1e6
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": items_per_op(workload) * len(ops) / (sum(times) / 1e9),
        "op_p50_ms": p50_ms,
        "op_tail_ms": tail_ms,
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(workload: str, run: dict, ops: list[dict], base: dict, untraced: list[dict],
              outputs: dict) -> dict:
    n = len(ops)
    speeds = at_reference(run, ops)
    total = {}
    for r, speed in zip(ops, speeds):
        for layer, (calls, ns) in r["layers"].items():
            entry = total.setdefault(layer, [0, 0])
            entry[0] += calls
            entry[1] += ns * speed

    def calls(layer):
        return total[layer][0]

    def self_s(layer):  # seconds of self time per operation
        return total[layer][1] / 1e9 / n

    def per_query(prefix, layer):  # calls per answered query of one command
        answered = [r for r in ops if r["argv"][0] == prefix and r["code"] == 0]
        return sum(r["layers"][layer][0] for r in answered) / len(answered) if answered else 0.0

    draws = workloads.COMPLEX_DRAWS * n if workload == "complex-scatter" else 0
    distinct = 0.0
    if workload == "odd-family":
        points = len({Fraction(m, q) for m, q in workloads.odd_pairs()})
        distinct = points * n / calls("modular.j_numeric")
    emitted = 0
    if workload != "lookup-stream":
        for r in ops:
            text = outputs[r["sha256"]]
            emitted += len(text.rstrip("\n").rpartition("\n")[0]) + 1
    traced_ms = sum(r["ns"] * f for r, f in zip(ops, speeds)) / n / 1e6
    untraced_ms = (sum(r["ns"] * f for r, f in zip(untraced, at_reference(base, untraced)))
                   / len(untraced) / 1e6)
    j = "modular.j_numeric"
    return {
        "cli.self_ms_per_op": self_s("cli") * 1e3,
        "density.self_s": self_s("density"),
        "density.distinct_point_ratio": distinct,
        "density.emit.self_s": self_s("density.emit"),
        "density.emit.bytes": emitted / n,
        "density.draw_accept_ratio": draws / calls("isogenies.in_odd_group") if draws else 0.0,
        "modular.j_numeric.calls": calls(j) / n,
        "modular.j_numeric.self_s": self_s(j),
        "modular.j_numeric.us_per_call": total[j][1] / 1e3 / calls(j) if calls(j) else 0.0,
        "modular.j_per_classify": per_query("classify", j),
        "modular.t_representative.self_s": self_s("modular.t_representative"),
        "modular.is_real_j.self_s": self_s("modular.is_real_j"),
        "cmpoints.TauExact.calls": calls("cmpoints.TauExact") / n,
        "cmpoints.TauExact.self_s": self_s("cmpoints.TauExact"),
        "cmpoints.parity_of_tau.self_s": self_s("cmpoints.parity_of_tau"),
        "isogenies.moebius.calls": calls("isogenies.moebius") / n,
        "isogenies.moebius.self_s": self_s("isogenies.moebius"),
        "isogenies.moebius_per_draw": calls("isogenies.moebius") / draws if draws else 0.0,
        "isogenies.odd_isogeny.self_s": self_s("isogenies.odd_isogeny"),
        "isogenies.in_odd_group.self_s": self_s("isogenies.in_odd_group"),
        "factorint.factorize.calls": calls("factorint.factorize") / n,
        "factorint.factorize.self_s": self_s("factorint.factorize"),
        "factorint.factorize_per_enumerate": per_query("enumerate", "factorint.factorize"),
        "enumeration.enumerate_real_odd_cm.self_s": self_s("enumeration.enumerate_real_odd_cm"),
        "quadorders.order_from_discriminant.self_s": self_s("quadorders.order_from_discriminant"),
        "trace.overhead_ratio": traced_ms / untraced_ms,
        "trace.traced_ms_per_op": traced_ms,
        "trace.untraced_ms_per_op": untraced_ms,
    }


def units() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "cmparity" / "__init__.py").is_file():
        print("error: run from the root of a cmparity checkout (no src/cmparity here)",
              file=sys.stderr)
        return 2
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    records = out_dir / f"{name}.jsonl"

    if args.trace:
        base, untraced = run_workload(root, records, args, "--seconds", str(args.seconds / 2))
        run, ops = run_workload(root, records, args, "--rounds", str(base["rounds"]),
                              "--trace", str(out_dir / f"{name}.spans.tsv"))
        checked = untraced + ops
    else:
        kernel, probes, setups = [], [], []
        for _ in range(SETUP_PROBES):
            kernel += [calibrate.sample() for _ in range(SETUP_KERNELS)]
            started = time.perf_counter_ns()
            setups.append(start_worker(root, "--probe")["setup_s"])
            probes.append((started, time.perf_counter_ns()))
        kernel += [calibrate.sample() for _ in range(SETUP_KERNELS)]
        setups = [s * f for s, f in zip(setups, calibrate.speed_factors(probes, kernel))]
        run, ops = run_workload(root, records, args, "--seconds", str(args.seconds))
        checked = ops
    failed, problems = checks.check_run(checked, args.seed)
    outputs = {r["sha256"]: r["out"] for r in checked if "out" in r}
    if args.trace:
        values = per_layer(args.workload, run, ops, base, untraced, outputs)
    else:
        values = end_to_end(args.workload, run, ops, setups)
    unit = units()
    metrics = {k: {"value": v, "unit": unit[k]} for k, v in values.items()}
    round0 = b"".join(outputs[r["sha256"]].encode() for r in ops if r["round"] == 0)
    with open(out_dir / f"{name}.json", "w") as handle:
        json.dump({"metrics": metrics, "ops": len(checked), "failed": failed,
                   "round0_sha256": hashlib.sha256(round0).hexdigest(),
                   "problems": problems}, handle, indent=1)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(checked), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
