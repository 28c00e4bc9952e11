"""Runs one workload in a fresh process: a single client in a closed loop.

Started by run.py with CMPARITY_THREADS=1 and cmparity's sources on
PYTHONPATH. Set-up ends when `cmparity.cli` is imported; the monotonic clock
reading at that moment goes back to run.py, which started the clock before it
started this process. Each operation is one in-process call of
`cmparity.cli.main(argv)` with stdout and stderr captured; only that call is
timed. Between calls the calibration kernel (calibrate.py) runs until its
total time is calibrate.SHARE of the operations' time, so the CPU's speed is
sampled evenly over the run. One JSON record per operation goes to the
records file, written between operations; the last line on stdout is the
run's own summary, with the kernel's samples.
"""

import time

import cmparity.cli

READY_NS = time.monotonic_ns()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402

# lookup-stream needs at least 1,000 operations for its tail percentile
MIN_ROUNDS = {"lookup-stream": 10}


def call(argv: list[str]) -> tuple[int, int, int, bytes, str]:
    """One operation: exit code, start and duration in perf_counter
    nanoseconds, stdout bytes and stderr text."""
    text = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n", write_through=True)
    err = io.StringIO()
    sys.stdout, sys.stderr = text, err
    start = time.perf_counter_ns()
    try:
        code = cmparity.cli.main(argv)
    finally:
        elapsed = time.perf_counter_ns() - start
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    text.flush()
    return code, start, elapsed, text.detach().getvalue(), err.getvalue()


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark. getrusage's ru_maxrss is
    not used: on Linux it keeps the parent's peak across exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true", help="report set-up and exit")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0, help="run exactly this many rounds")
    parser.add_argument("--records", help="path of the JSON-lines records file")
    parser.add_argument("--trace", help="trace the layers; write the spans here")
    args = parser.parse_args()
    if args.probe:
        print(json.dumps({"ready_ns": READY_NS}))
        return 0

    tracer = None
    if args.trace:
        from tracer import LAYERS, Tracer, layer_totals

        tracer = Tracer()
        tracer.install()
    kept_spans = {}  # kind -> (op, spans) of the first operation of each kind

    seen = set()
    ops = rounds = op_ns = kernel_ns = 0
    calibrate.sample()  # warm-up
    kernel = []  # (midpoint, duration) of each kernel run
    began = time.monotonic()
    with open(args.records, "w") as records:
        while True:
            for kind, argv in workloads.round_ops(args.workload, args.seed, rounds):
                code, start, elapsed, out, err = call(argv)
                # sample the CPU's speed evenly over the run, outside the timed calls
                op_ns += elapsed
                while kernel_ns < calibrate.SHARE * op_ns:
                    kernel.append(calibrate.sample())
                    kernel_ns += kernel[-1][1]
                digest = hashlib.sha256(out).hexdigest()
                record = {"op": ops, "round": rounds, "kind": kind, "argv": argv,
                          "code": code, "start": start, "ns": elapsed, "sha256": digest,
                          "err": err}
                if digest not in seen:
                    seen.add(digest)
                    record["out"] = out.decode()
                if tracer:
                    spans = tracer.take()
                    record["layers"] = layer_totals(spans)
                    kept_spans.setdefault(kind, (ops, spans))
                records.write(json.dumps(record) + "\n")
                ops += 1
            rounds += 1
            if args.rounds:
                if rounds >= args.rounds:
                    break
            elif (time.monotonic() - began >= args.seconds
                  and rounds >= MIN_ROUNDS.get(args.workload, 1)):
                break
    peak_mb = peak_rss_mb()
    if tracer:
        with open(args.trace, "w") as trace_file:
            trace_file.write("op\tspan\tparent\tlayer\tstart_ns\tend_ns\tself_ns\n")
            for op, spans in kept_spans.values():
                for span, parent, layer, start, end, self_ns in spans:
                    trace_file.write(f"{op}\t{span}\t{parent}\t{LAYERS[layer]}"
                                     f"\t{start}\t{end}\t{self_ns}\n")
    print(json.dumps({"ready_ns": READY_NS, "ops": ops, "rounds": rounds,
                      "peak_rss_mb": peak_mb, "kernel": kernel}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
