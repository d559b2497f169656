"""catproj benchmark: drives ``catproj.cli.main`` in-process, one workload per run.

    python3 perfbench/run.py --workload {sweep,reconstruct,campaign} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` repeats a pool of calls drawn from the seed and prints the
end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1`` runs each call
of one pass once untraced and once with every public catproj function
wrapped, and prints the per-layer metrics.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--write-reference`` records the outputs of the first calls
at the default seed into ``perfbench/reference.json``.

The run is serial: ``CATPROJ_THREADS`` is removed, no ``--threads`` flag is
passed and BLAS is pinned to one thread.
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
DEFAULT_SEED = 1
SETUP_SPAWNS = 5
P90_MIN_CALLS = 100
REFERENCE_CALLS = 4  # calls 1..4 of the default seed's pool are compared with reference.json
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "system": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "serial": True,
    }


def _setup_seconds(workload: str, work: Path) -> list[float]:
    """Fresh-interpreter import time plus the probe call's cold-over-warm excess."""
    samples = []
    for _ in range(SETUP_SPAWNS):
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(work)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if child.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{child.stderr}")
        probe = json.loads(child.stdout.splitlines()[-1])
        excess = max(0.0, probe["cold"] - statistics.median(probe["warm"]))
        samples.append(probe["imported"] - start + excess)
    return samples


def _compare_reference(run, workload: str) -> None:
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[workload]
    for index, want in reference.items():
        got = run.summaries.get(int(index))
        if got is None:
            run.problems.append(f"reference call {index} was not reached")
        elif isinstance(want, dict) or isinstance(got, dict):
            if not (isinstance(want, dict) and isinstance(got, dict)):
                run.problems.append(f"reference call {index}: {got!r} vs reference {want!r}")
        else:
            try:
                run.wl.compare(got, want)
            except AssertionError as exc:
                run.problems.append(f"reference call {index}: {exc}")


def _report(correct: bool, attempted: int, failed: int, metrics: dict, spec: list) -> None:
    units = {m["name"]: m["unit"] for m in spec}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    for name in units:
        print(f"  {name:44s} {metrics[name]!r:>24} {units[name]}")
    out = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))


def end_to_end(args, wl, cli, work: Path, spec: dict) -> None:
    from workloads import Run, execute

    setup = _setup_seconds(args.workload, work)
    run = Run(wl, cli)
    execute(wl.probe(work), cli)  # lazy first-call set-up, outside the timed window
    passes = wl.passes(args.seed, work)
    timed = 0.0
    rates = []
    # at least two passes, so every call is rerun and its bytes compared
    while timed < args.seconds or len(rates) < 2:
        seconds = sum(run.do(call) for call in next(passes))
        timed += seconds
        rates.append(sum(run.items.values()) / seconds)
    if args.seed == DEFAULT_SEED:
        _compare_reference(run, wl.name)

    best = list(run.best.values())
    n = len(run.durations)
    metrics = {
        "items_per_s": sum(run.items.values()) / sum(best),
        "call_s_p50": statistics.median(best),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"# {wl.name}: seed {args.seed}, {len(best)} calls x {len(rates)} passes = {n} calls "
          f"in {timed:.3f} s timed")
    print(f"# items_per_s and call_s_p50 take each call at its fastest of {len(rates)} runs "
          f"(n={len(best)} calls); items/s by pass: " + ", ".join(f"{r:.4f}" for r in rates))
    print(f"# every run: call_s_p50 = {statistics.median(run.durations)!r} s (n={n} calls)")
    if n >= P90_MIN_CALLS:
        print(f"# every run: call_s_p90 = {statistics.quantiles(run.durations, n=10)[8]!r} s (n={n} calls)")
    else:
        print(f"# call_s_p90 not reported: {n} calls < {P90_MIN_CALLS}")
    print(f"# setup_s is the median of {len(setup)} fresh interpreters: "
          + ", ".join(f"{s:.4f}" for s in setup))
    print(f"# error_rate = {run.failed / n!r} ({run.failed} failed of {n} attempted calls)")
    for problem in run.problems:
        print(f"# PROBLEM {problem}")
    _report(not run.problems, n, run.failed, metrics, spec["end_to_end"])


def traced(args, wl, cli, work: Path, spec: dict) -> None:
    import catproj
    from layers import Tracer
    from workloads import Run, execute

    execute(wl.probe(work), cli)
    calls = next(wl.passes(args.seed, work))
    tracer = Tracer(catproj)
    plain, run = Run(wl, cli), Run(wl, cli)
    run.artifacts = plain.artifacts  # traced runs must write what untraced runs wrote
    untraced = with_trace = 0.0
    for k, call in enumerate(calls):
        # alternate which run goes first so drift and file creation favour neither;
        # wrappers are installed only around traced calls, so untraced calls pay nothing
        for traced_run in (k % 2 == 1, k % 2 == 0):
            if traced_run:
                tracer.install()
                try:
                    with_trace += run.do(call, tracer.recorder)
                finally:
                    tracer.uninstall()
            else:
                untraced += plain.do(call)
    uncovered = tracer.uncovered(wl.name)

    metrics = tracer.metrics()
    metrics["trace.overhead"] = untraced / with_trace  # traced over untraced items_per_s
    metrics["trace.items"] = sum(run.items.values())
    metrics["trace.absent"] = len(tracer.absent)
    metrics["trace.uncovered"] = len(uncovered)
    print(f"# {wl.name}: {len(calls)} calls traced, {untraced:.3f} s untraced, {with_trace:.3f} s traced")
    for name in tracer.absent:
        print(f"# ABSENT {name}: no longer defined; its metrics read 0")
    for name in uncovered:
        print(f"# UNCOVERED {name}: expected calls on {wl.name}, saw none")
    print("# all wrapped functions by self time: calls, self_s, total_s")
    for name in sorted(tracer.targets, key=lambda n: -metrics[f"{n}.self_s"]):
        if metrics[f"{name}.calls"]:
            print(f"#   {name:44s} {metrics[name + '.calls']:8d} "
                  f"{metrics[name + '.self_s']:10.4f} {metrics[name + '.total_s']:10.4f}")
    for problem in plain.problems + run.problems:
        print(f"# PROBLEM {problem}")
    metrics = {m["name"]: metrics.get(m["name"], 0) for m in spec["per_layer"]}
    _report(
        not (plain.problems or run.problems),
        len(calls) * 2,
        plain.failed + run.failed,
        metrics,
        spec["per_layer"],
    )


def write_reference(wl, cli, work: Path) -> None:
    from workloads import Run

    run = Run(wl, cli)
    for call in next(wl.passes(DEFAULT_SEED, work)):
        run.do(call)
    if run.problems:
        raise RuntimeError("\n".join(run.problems))
    path = HERE / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    reference[wl.name] = {str(i): s for i, s in sorted(run.summaries.items()) if i <= REFERENCE_CALLS}
    text = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(reference.items()))
    path.write_text("{\n" + text + "\n}\n", encoding="utf-8")
    print(f"wrote {len(reference[wl.name])} reference calls for {wl.name} to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "reconstruct", "campaign"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "catproj" / "__init__.py").is_file():
        print(f"error: no catproj sources at {ROOT / 'src' / 'catproj'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    # before numpy loads: one BLAS thread, and no worker pool in the CLI
    for name in BLAS_ENV:
        os.environ[name] = "1"
    os.environ.pop("CATPROJ_THREADS", None)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import numpy as np
    import scipy

    import catproj
    import catproj.cli as cli
    from workloads import WORKLOADS

    if not Path(catproj.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: catproj was imported from {catproj.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"# env: {json.dumps(_environment(np, scipy), sort_keys=True)}")

    wl = WORKLOADS[args.workload]()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.write_reference:
            write_reference(wl, cli, work)
        elif args.trace:
            traced(args, wl, cli, work, spec)
        else:
            end_to_end(args, wl, cli, work, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
