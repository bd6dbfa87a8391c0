"""Benchmark of lpqcycles: one workload per run, one caller in a closed loop.

    python3 bench/run.py --workload certify|solve|cli --seed N --seconds S --trace 0|1

Run it from the root of a source tree; it imports lpqcycles from ./src and
refuses to run without it.  A run replays rounds of seeded calls for
--seconds (at least one round) and checks every answer outside the timed
region.  With --trace 0 it prints the end-to-end metrics; with
--trace 1 it alternates untraced and traced replays of each round and
prints the per-layer metrics.  Human-readable lines come first; the last
line is one JSON object.  Metric names, units and the workloads' rationale
are in BENCHMARK.json; bench/METRICS.md says what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from importlib import import_module
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
IMPORT_PROBES = 5


def _machine_header(seed: int) -> list[str]:
    commit = "unknown (not a git checkout)"
    try:
        top, _, head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.partition("\n")
        if top and Path(top).resolve() == ROOT:  # not an enclosing repository
            commit = head.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git not available)"
    digest = hashlib.sha256()
    for path in sorted((SRC / "lpqcycles").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return [
        f"commit: {commit}",
        f"source sha256: {digest.hexdigest()[:16]}",
        f"python: {platform.python_version()}  numpy: {numpy.__version__}",
        f"nproc: {len(os.sched_getaffinity(0))}  cpu: {cpu}",
        f"seed: {seed}",
    ]


def _child_seconds(argv: list[str], from_output: bool) -> float:
    """Seconds one child takes: its own report, or its wall time."""
    t0 = perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=150, check=True)
    wall = perf_counter() - t0
    return float(proc.stdout.strip().splitlines()[-1]) if from_output else wall


def _run_round(calls, tracer=None) -> list[tuple[str, float | None, int, str | None]]:
    """Make the calls one after another; (group, seconds, cells, error) each.

    Only call.run is timed.  A call that raises or fails its check counts as
    failed; its time still counts.  Each call starts from a freshly collected
    heap: otherwise a cyclic collection that earlier calls' allocations made
    due lands in whichever call comes next, and a call's time depends on the
    calls before it.  Collections its own allocations trigger still count.
    """
    out = []
    for call in calls:
        try:
            if call.prepare:
                call.prepare()
        except Exception as exc:  # noqa: BLE001 - the benchmark records it and goes on
            out.append((call.group, None, call.cells, f"set-up: {type(exc).__name__}: {exc}"))
            continue
        if tracer is not None:
            tracer.call_id += 1
        gc.collect()
        t0 = perf_counter()
        try:
            result = call.run()
        except Exception as exc:  # noqa: BLE001
            out.append((call.group, perf_counter() - t0, call.cells,
                        f"{type(exc).__name__}: {exc}"))
            continue
        seconds = perf_counter() - t0
        try:
            error = call.check(result)
        except Exception as exc:  # noqa: BLE001
            error = f"check raised {type(exc).__name__}: {exc}"
        out.append((call.group, seconds, call.cells, error))
    return out


def _wall(rnd) -> float:
    return sum(s for _g, s, _c, _e in rnd if s is not None)


def _end_to_end(rounds, setup_s: float, rss_kb: int) -> dict[str, float]:
    times = [s for rnd in rounds for _g, s, _c, _e in rnd if s is not None]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(_wall(rnd) for rnd in rounds),
        "call_p50_ms": 1000.0 * statistics.median(times),
        "cells_per_s": statistics.median(
            sum(c for _g, _s, c, _e in rnd) / _wall(rnd) for rnd in rounds
        ),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    if len(times) >= 100:
        metrics["call_p90_ms"] = 1000.0 * statistics.quantiles(times, n=10)[-1]
    return metrics


def _report(rounds, metrics: dict[str, float], units: dict[str, str]) -> list[str]:
    calls = [c for rnd in rounds for c in rnd]
    failed = [c for c in calls if c[3] is not None]
    lines = [f"rounds: {len(rounds)}  calls: {len(calls)}  "
             f"failed_ratio: {len(failed) / len(calls):.4f} ({len(failed)}/{len(calls)})",
             "round walls (s): " + " ".join(f"{_wall(rnd):.3f}" for rnd in rounds)]
    if "call_p90_ms" not in metrics and "call_p50_ms" in metrics:
        lines.append(f"call_p90_ms: not reported, {len(calls)} calls < 100")
    units = {"call_p90_ms": "ms", **units}
    for name, value in metrics.items():
        lines.append(f"{name}: {value:.6g} {units.get(name, '')}".rstrip())
    groups: dict[str, list[float]] = {}
    for g, s, _c, _e in calls:
        if s is not None:
            groups.setdefault(g, []).append(s)
    for g, ts in groups.items():
        lines.append(f"  p50 {g}: {1000 * statistics.median(ts):.3f} ms (n={len(ts)})")
    lines += [f"FAILED {g}: {e}" for g, _s, _c, e in failed[:10]]
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["certify", "solve", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lpqcycles" / "__init__.py").is_file():
        print(f"error: no lpqcycles sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        spec = json.load(fp)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    for line in _machine_header(args.seed):
        print(f"# {line}")
    print(f"# workload: {args.workload}  seconds: {args.seconds}  trace: {args.trace}")

    if args.trace:
        import_ms = 1000.0 * statistics.median(
            _child_seconds([sys.executable, "-c", "import lpqcycles"], False)
            for _ in range(IMPORT_PROBES)
        )
    else:
        setup_s = statistics.median(
            _child_seconds([sys.executable, str(BENCH / "setup_probe.py")], True)
            for _ in range(SETUP_PROBES)
        )

    lpq = import_module("lpqcycles")
    if not Path(lpq.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: lpqcycles was imported from {lpq.__file__}", file=sys.stderr)
        return 2
    from setup_probe import warm_up
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        kwargs = {"in_process": True} if args.workload == "cli" and args.trace else {}
        workload = WORKLOADS[args.workload](lpq, args.seed, Path(tmp), **kwargs)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            warm_up(lpq)
        finally:
            if tracer:
                tracer.uninstall()

        def replay_traced(r: int):
            tracer.install()
            try:
                return _run_round(workload.calls(r), tracer)
            finally:
                tracer.uninstall()

        # a round starts only if one more as long as the last still ends
        # within --seconds, so a run never overshoots its time
        rounds, traced = [], []
        start = last = perf_counter()
        while not rounds or 2 * perf_counter() - start - last <= args.seconds:
            last = perf_counter()
            r = len(rounds)
            # the traced replay goes first on odd rounds, so that neither
            # side of the overhead always runs on warmer caches
            if tracer and r % 2:
                traced.append(replay_traced(r))
            rounds.append(_run_round(workload.calls(r)))
            if tracer and not r % 2:
                traced.append(replay_traced(r))

    if tracer:
        metrics = layer_metrics(tracer, len(traced))
        metrics["cli.import_ms"] = import_ms
        metrics["trace.wall_s"] = statistics.median(_wall(rnd) for rnd in traced)
        metrics["trace.overhead_s"] = statistics.median(
            _wall(t) - _wall(u) for u, t in zip(rounds, traced)
        )
        checked = rounds + traced
        missing = tracer.missing + getattr(workload, "missing", [])
        lines = _report(checked, metrics, units)
        lines.append("missing names: " + (", ".join(missing) if missing else "none"))
        summary = tracer.summary()
        lines += [f"  span {name}: calls {s['calls']}, self {1000 * s['self_s']:.1f} ms, "
                  f"total {1000 * s['total_s']:.1f} ms" for name, s in sorted(summary.items())]
    else:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics = _end_to_end(rounds, setup_s, resource.getrusage(who).ru_maxrss)
        checked = rounds
        lines = _report(checked, metrics, units)

    for line in lines:
        print(line)
    calls = [c for rnd in checked for c in rnd]
    failed = sum(c[3] is not None for c in calls)
    absent = [name for name in units if name not in metrics]
    if absent:
        print(f"error: metrics {absent} were not measured", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
