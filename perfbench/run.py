"""sawbound benchmark: wall time to a certified bound, end to end and per layer.

Run from the repository root, for example

    python3 perfbench/run.py --workload k14-default --seed 1 --seconds 55 --trace 0

A run is one fresh, single-threaded process. It drives the public calls
(`build`, `save_graph`, `load_graph`, `optimize`) in a closed loop, one
operation at a time: a build phase builds and saves every row of the
workload, a solve phase loads and optimizes every row. The pair runs
MIN_PAIRS times, then again while the next pair would end within
`--seconds` of the process's start; set-up counts toward that budget.
Every output is checked against `workloads.json`: the state count, the
graph file's trailing checksum, the reloaded state count and the
9-decimal bound. A run with any failed check reports no timings and
exits 1.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end figures, medians over the pairs. With `--trace 1` one untraced
pair and one pair with the layers traced (see tracer.py) run, whatever
`--seconds`, and the metrics are the per-layer figures. The line before
the result is a JSON record of the host, the number of pairs, every
sample and the solver's convergence.

The workloads are fixed by k and the build options alone, so `--seed` is
recorded but changes no input.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = HERE / "workloads.json"

# numpy and scipy read these when they load; the tool is single-threaded.
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 9
# Every untraced run takes its medians over at least this many build/solve
# pairs, however fast the code under test, so parent and change are measured
# alike.
MIN_PAIRS = 2
CALIBRATION_LOOPS = 2_000_000

clock = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Gate:
    """Counts checked operations and those whose output missed the reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failed += 1
            self.errors.append(f"{what}: got {got!r}, expected {want!r}")

    def error(self, what: str, ops: int, exc: BaseException) -> None:
        self.attempted += ops
        self.failed += ops
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


def trailer(path: Path) -> str:
    with open(path, "rb") as fh:
        fh.seek(-8, os.SEEK_END)
        return fh.read(8).hex()


def build_phase(sb, spec: dict, gate: Gate, workdir: Path) -> float:
    """Build every row and save its graph; returns the timed seconds.

    With `timed_io` the save is part of the timed build, as in `sawbound
    build`; otherwise it happens outside the timed region, only so that the
    graph's checksum can be checked.
    """
    timed_io = spec["timed_io"]
    total = 0.0
    for n, row in enumerate(spec["rows"]):
        what = f"row {n} (k={row['k']}, {row['options']})"
        path = workdir / f"row{n}.graph"
        try:
            t0 = clock()
            g = sb.build(row["k"], sb.Options(**row["options"]))
            if timed_io:
                sb.save_graph(g, str(path))
            t1 = clock()
            if not timed_io:
                sb.save_graph(g, str(path))
        except Exception as exc:  # a failed operation is counted, not fatal
            gate.error(f"{what} build", 2, exc)
            continue
        total += t1 - t0
        gate.check(f"{what} states", len(g), row["states"])
        gate.check(f"{what} trailer", trailer(path), row["trailer"])
    return total


def solve_phase(sb, spec: dict, gate: Gate, workdir: Path) -> tuple[float, list[dict]]:
    """Solve every row's saved graph; returns the timed seconds and convergence.

    With `timed_io` loading the graph is part of the timed solve, as in
    `sawbound solve`; otherwise only `optimize` is timed, as in `sawbound
    ablate`, which solves the graph it has just built.
    """
    timed_io = spec["timed_io"]
    total = 0.0
    solver = []
    for n, row in enumerate(spec["rows"]):
        what = f"row {n} (k={row['k']}, {row['options']})"
        path = str(workdir / f"row{n}.graph")
        try:
            if not timed_io:
                g = sb.load_graph(path)
            t0 = clock()
            if timed_io:
                g = sb.load_graph(path)
            res = sb.optimize(g)
            t1 = clock()
        except Exception as exc:  # a failed operation is counted, not fatal
            gate.error(f"{what} solve", 2, exc)
            continue
        total += t1 - t0
        gate.check(f"{what} loaded states", len(g), row["states"])
        gate.check(f"{what} bound", f"{res.lambda_hi:.9f}", row["bound"])
        solver.append({
            "rounds_used": res.rounds_used,
            "fixed_point": res.fixed_point,
            "last_round_bounds": res.round_bounds[-2:],
        })
    return total, solver


def measure(sb, spec: dict, gate: Gate, workdir: Path, min_pairs: int,
            deadline: float) -> tuple[dict, float, list]:
    """Run `min_pairs` build/solve pairs, then more while the next would end by `deadline`.

    Host speed on a shared machine drifts over tens of seconds, so the
    medians are steadier the longer the stretch of time their samples span.
    Returns the samples, the peak RSS in MB over the first pair (what one
    build and solve needs, however many pairs fit) and the convergence of
    the last solve.
    """
    samples: dict[str, list[float]] = {"build_s": [], "solve_s": []}
    laps: list[float] = []
    peak_rss_mb = 0.0
    while True:
        t = clock()
        samples["build_s"].append(build_phase(sb, spec, gate, workdir))
        solve_s, solver = solve_phase(sb, spec, gate, workdir)
        samples["solve_s"].append(solve_s)
        laps.append(clock() - t)
        if not peak_rss_mb:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if gate.failed or (len(laps) >= min_pairs
                           and clock() + statistics.median(laps) > deadline):
            return samples, peak_rss_mb, solver


def traced_pipeline(sb, spec: dict, gate: Gate, workdir: Path):
    """One build and solve with every layer traced; returns the tracer, timed seconds, convergence."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        build_s = build_phase(sb, spec, gate, workdir)
        solve_s, solver = solve_phase(sb, spec, gate, workdir)
    finally:
        tracer.uninstall()
    return tracer, build_s + solve_s, solver


def host_record() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def calibration_s() -> float:
    """A fixed pure-Python loop: host speed context, not a gated metric."""
    t = clock()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i & 7
    return clock() - t


def setup_samples() -> list[float]:
    """Wall time of interpreter start plus `import sawbound`, each in a fresh process."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, **SINGLE_THREAD,
               PYTHONPATH=str(SRC) if not path else f"{SRC}{os.pathsep}{path}")
    out = []
    for _ in range(SETUP_SAMPLES):
        t = clock()
        subprocess.run([sys.executable, "-c", "import sawbound"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        out.append(clock() - t)
    return out


def solver_metrics(solver: list[dict]) -> dict[str, float]:
    """Convergence of the workload's solves; the last two bounds are the last row's."""
    bounds = solver[-1]["last_round_bounds"]
    return {
        "spectral.optimize.rounds_used": sum(r["rounds_used"] for r in solver),
        "spectral.optimize.fixed_point": sum(r["fixed_point"] for r in solver),
        "spectral.optimize.bound_prev": bounds[0],
        "spectral.optimize.bound_last": bounds[-1],
    }


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if ".bound_" in name:
        return "1"
    return "count"


def emit(gate: Gate, metrics: dict[str, float]) -> None:
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))


def main(argv=None) -> int:
    began = clock()
    args = parse_args(argv)
    if not (SRC / "sawbound" / "__init__.py").is_file():
        print(f"error: no sawbound source under {SRC}", file=sys.stderr)
        return 2
    with open(WORKLOADS, encoding="utf-8") as fh:
        table = json.load(fh)
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(table)}",
              file=sys.stderr)
        return 2
    spec = table[args.workload]

    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    import sawbound as sb

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(),
        "calibration_s": calibration_s(),
        "calibration_loops": CALIBRATION_LOOPS,
    }
    setup = [] if args.trace else setup_samples()

    gate = Gate()
    workdir = RESULTS / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            samples, peak_rss_mb, solver = measure(sb, spec, gate, workdir, 1, began)
        else:
            samples, peak_rss_mb, solver = measure(sb, spec, gate, workdir, MIN_PAIRS,
                                                   began + args.seconds)
        if args.trace and not gate.failed:
            tracer, traced_s, solver = traced_pipeline(sb, spec, gate, workdir)
            spans = RESULTS / f"{args.workload}.spans.npz"
            tracer.save(str(spans))
            detail["spans_file"] = str(spans.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail["pairs"] = len(samples["build_s"])
    detail["solver"] = solver
    detail["samples"] = samples
    detail["setup_s_samples"] = setup
    detail["errors"] = gate.errors
    print(json.dumps({"detail": detail}))
    if gate.failed:
        for line in gate.errors:
            print(f"check failed: {line}", file=sys.stderr)
        emit(gate, {})
        return 1

    build_s = statistics.median(samples["build_s"])
    solve_s = statistics.median(samples["solve_s"])
    if args.trace:
        metrics = tracer.summary()
        metrics.update(solver_metrics(solver))
        metrics["trace.bound_s"] = traced_s
        metrics["trace.untraced_bound_s"] = build_s + solve_s
        metrics["trace.overhead_s"] = traced_s - build_s - solve_s
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "build_s": build_s,
            "solve_s": solve_s,
            "bound_s": build_s + solve_s,
            "peak_rss_mb": peak_rss_mb,
        }
    emit(gate, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
