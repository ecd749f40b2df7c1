"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload search-1m --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from `src/` as a
library; nothing in it is modified. With `--trace 0` the last line of stdout
holds the end-to-end metrics listed in BENCHMARK.json; with `--trace 1` it
holds the per-layer metrics, measured through span wrappers (see spans.py),
and the spans themselves are written to `perfbench/out/`. Lines before the
last one give the environment and each workload's stage timings by name and
unit. Each invocation runs one workload. The timed loop runs in a forked
child; `peak_rss_mb` is that child's peak resident set up to the end of the
loop, so it holds the workload's inputs and the program's working set, not
the generator's temporaries or the oracle's arrays.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import layers
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu": cpu,
    }


def in_child(fn):
    """Run fn() in a forked child, wait for it to end, and return fn's result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(fn(), fh)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError("forked child exited with code "
                           f"{os.waitstatus_to_exitcode(status)}")
    return pickle.loads(data)


def timed_setup(workload, seed: int) -> float:
    t0 = time.perf_counter()
    workload.setup(seed)
    return time.perf_counter() - t0


def setup_dir(workdir: Path) -> Path:
    return Path(f"{workdir}-setup")


def child_setup(workload, seed: int) -> float:
    """Time one more set-up in a forked child, in a work directory of its own,
    so the parent's inputs stay as they are."""
    def setup():
        workload.workdir = setup_dir(workload.workdir)
        workload.workdir.mkdir(parents=True, exist_ok=True)
        return timed_setup(workload, seed)
    return in_child(setup)


def run_requests(workload, seconds: float, min_requests: int, recorder=None,
                 extra_setup=None, setups: int = 0):
    """Closed loop: issue, wait, check; until `seconds` pass and `min_requests` ran.

    With a recorder, odd-numbered requests run with the span wrappers
    installed, so traced and untraced requests share the same stretch of time
    and their difference is the tracing overhead. `extra_setup` is called
    `setups` times at even intervals of the loop, so that set-up is timed
    over the same stretch as the requests; its time does not count against
    `seconds`. Returns the number of requests attempted, per-request
    latencies, stage figures and traced flags, {request: problems}, and the
    set-up times.
    """
    latencies, stages, traced, failed, setup_times = [], [], [], {}, []
    start = time.perf_counter()
    paused = 0.0  # time spent in extra set-ups
    i = 0
    while (elapsed := time.perf_counter() - start - paused) < seconds or i < min_requests:
        if len(setup_times) < setups and elapsed >= seconds * len(setup_times) / setups:
            t0 = time.perf_counter()
            setup_times.append(extra_setup())
            paused += time.perf_counter() - t0
        tracing = recorder is not None and i % 2 == 1
        try:
            patched = spans.install(recorder) if tracing else []
            if recorder is not None:
                recorder.op = i
            try:
                t0 = time.perf_counter()
                stage, result = workload.request(i)
                latency = time.perf_counter() - t0
            finally:
                if tracing:
                    spans.uninstall(patched)
            latencies.append(latency)
            stages.append(stage)
            traced.append(tracing)
            problems = workload.check(i, result)
        except Exception:  # a failed request is counted, and the loop goes on
            traceback.print_exc()
            problems = ["request raised"]
        if problems:
            failed[i] = problems
        i += 1
    while len(setup_times) < setups:
        setup_times.append(extra_setup())
    return i, latencies, stages, traced, failed, setup_times


def stage_lines(stages: list[dict]) -> dict:
    """Per-stage figures by the names the workloads use: medians for `_s`
    stages, p50 and p95 for `_ms` stages."""
    out = {}
    for key in stages[0] if stages else ():
        values = [s[key] for s in stages]
        if key.endswith("_ms"):
            base = key[:-3]
            out[f"{base}_p50_ms"] = (statistics.median(values), "ms")
            out[f"{base}_p95_ms"] = (float(np.percentile(values, 95)), "ms")
        else:
            out[key] = (statistics.median(values), "s")
    return out


def layer_metrics(recorder, requests: int, overhead: float) -> dict:
    return {spec.name: {"value": overhead if spec.name == "trace.overhead_pct"
                        else spec.value(recorder, requests), "unit": spec.unit}
            for spec in layers.PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "jointhash" / "__init__.py").is_file():
        print(f"error: no jointhash package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
               bool(args.trace))


def run(cls, seed: int, seconds: float, trace: bool, tiny: bool = False,
        out_dir: Path = OUT) -> int:
    tag = f"{cls.name}-seed{seed}-trace{int(trace)}"
    workload = cls(out_dir / f"work-{tag}", tiny=tiny)
    workload.workdir.mkdir(parents=True, exist_ok=True)
    try:
        first_setup = timed_setup(workload, seed)
        # The timed loop runs in a forked child, whose peak RSS counts from the
        # set-up state: the generator's temporaries do not raise peak_rss_mb.
        lines = in_child(lambda: measure(workload, seed, seconds, trace, first_setup,
                                         out_dir / tag))
    finally:
        for workdir in (workload.workdir, setup_dir(workload.workdir)):
            shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    return 0


def measure(workload, seed: int, seconds: float, trace: bool, first_setup: float,
            out_stem: Path) -> list[str]:
    """Time the requests, check them, and return the lines to print; the
    result and the spans are also written beside `out_stem`."""
    setup_times = [first_setup]
    recorder = spans.Recorder() if trace else None
    if trace:
        attempted, latencies, stages, traced, failed, _ = run_requests(
            workload, seconds, 2, recorder)
        traced_latencies = [t for t, on in zip(latencies, traced) if on]
        latencies = [t for t, on in zip(latencies, traced) if not on]
        stages = [s for s, on in zip(stages, traced) if not on]
    else:
        attempted, latencies, stages, traced, failed, more = run_requests(
            workload, seconds, workload.min_requests,
            extra_setup=lambda: child_setup(workload, seed),
            setups=workload.setup_samples - 1)
        setup_times += more
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for i, problems in workload.verify().items():
        failed.setdefault(i, []).extend(problems)
    for i, problems in sorted(failed.items()):
        print(f"FAILED request {i}: {'; '.join(problems)}", file=sys.stderr)

    details = {"setup_s": (statistics.median(setup_times), "s"),
               "setup_samples": (len(setup_times), "count"),
               "requests": (len(latencies), "count"),
               "error_rate": (len(failed) / attempted, "ratio"),
               "request_p95_ms": (1e3 * float(np.percentile(latencies, 95)), "ms"),
               "requests_per_s": (len(latencies) / sum(latencies), "1/s"),
               **stage_lines(stages),
               **workload.details()}
    lines = []
    if trace:
        overhead = 100.0 * (statistics.median(traced_latencies)
                            / statistics.median(latencies) - 1.0)
        details["traced_requests"] = (len(traced_latencies), "count")
        details["trace_overhead_pct"] = (overhead, "%")
        metrics = layer_metrics(recorder, len(traced_latencies), overhead)
        spans_path = out_stem.parent / f"spans-{out_stem.name}.tsv"
        recorder.write(spans_path)
        lines.append(f"spans {len(recorder.spans)} written to {spans_path}")
    else:
        details["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics = {
            "setup_s": statistics.median(setup_times),
            "request_p50_ms": 1e3 * statistics.median(latencies),
            "map": workload.quality(),
            "peak_rss_mb": peak_rss_mb,
            "success_rate": 1.0 - len(failed) / attempted,
        }
        units = {"setup_s": "s", "request_p50_ms": "ms", "map": "ratio", "peak_rss_mb": "MB",
                 "success_rate": "ratio"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    env = environment()
    lines.append("env " + json.dumps(env, sort_keys=True))
    lines += [f"{workload.name} {name} {value} {unit}"
              for name, (value, unit) in details.items()]
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": metrics}
    out_stem.parent.mkdir(parents=True, exist_ok=True)
    (out_stem.parent / f"result-{out_stem.name}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": seed, "seconds": seconds, "env": env,
         "details": {k: {"value": v, "unit": u} for k, (v, u) in details.items()},
         "latencies_s": latencies, "setup_times_s": setup_times,
         **result}, indent=1) + "\n")
    lines.append(json.dumps(result))
    return lines


if __name__ == "__main__":
    sys.exit(main())
