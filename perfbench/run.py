#!/usr/bin/env python3
"""Host-speed benchmark of the repro simulator.

    python3 perfbench/run.py --workload strongarm --seed 1 --seconds 10 --trace 0

Run from the repository root.  Workloads: ``strongarm`` and ``ppc750``
(the paper's two case-study models), ``iss`` (the standalone
instruction-set simulator) and ``fleet`` (``repro serve`` with a client
over TCP).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``,
named and with units as in ``BENCHMARK.json``.  Trace runs also write
their spans to ``.perfbench/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("strongarm", "ppc750", "iss", "fleet")
#: set-ups per run; the median is reported as ``setup_s``
SETUP_SAMPLES = 5
SETUP_CALIBRATION_SLICES = 20


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # one timed set-up, then exit
    return parser.parse_args(argv)


def _metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _timed_setup(setup, speed=None) -> float:
    """Seconds ``setup()`` takes, scaled to the reference host by
    calibration slices timed just before and after it."""
    from hostspeed import HostSpeed

    speed = speed or HostSpeed()
    speed.sample(SETUP_CALIBRATION_SLICES)
    start = time.perf_counter()
    setup()
    elapsed = time.perf_counter() - start
    speed.sample(SETUP_CALIBRATION_SLICES)
    return elapsed * speed.scale()


def _probe_setup(args) -> float:
    """One set-up in a fresh interpreter, so imports and code generation
    are paid again, as a user's new process pays them."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    return float(out.stdout.split()[-1])


def _run_sim(args, tracer, profile):
    from hostspeed import HostSpeed
    from simjobs import SimWorkload, end_to_end, per_layer

    setups = [] if args.trace else [_probe_setup(args)
                                    for _ in range(SETUP_SAMPLES - 1)]
    workload = SimWorkload(args.workload, args.seed)
    setups.append(_timed_setup(workload.setup))
    speed = HostSpeed()
    jobs = workload.measure(args.seconds, speed, tracer, profile)
    failed = workload.count_failures(jobs)
    if args.trace:
        metrics = per_layer(jobs, tracer, profile, speed.scale())
    else:
        metrics = {**end_to_end(jobs),
                   "setup_s": statistics.median(setups)}
    return len(jobs), failed, metrics


def _run_fleet(args, tracer):
    import repro.fleet.client  # noqa: F401  (imported before set-up timing)
    from fleetjob import FleetWorkload, end_to_end, per_layer
    from hostspeed import HostSpeed

    fleet = FleetWorkload(ROOT, args.seed)
    setups = []
    try:
        for _ in range(1 if args.trace else SETUP_SAMPLES):
            fleet.stop()
            setups.append(_timed_setup(fleet.start, HostSpeed(fleet.paused)))
        speed = HostSpeed(fleet.paused)
        subs = fleet.measure(args.seconds, speed, tracer)
    finally:
        fleet.stop()
    failed = fleet.count_failures(subs)
    if args.trace:
        metrics = per_layer(subs, speed.scale())
    else:
        metrics = {**end_to_end(subs),
                   "setup_s": statistics.median(setups)}
    return len(subs), failed, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_probe:
        from simjobs import SimWorkload

        print(_timed_setup(SimWorkload(args.workload, args.seed).setup))
        return 0

    end_units, layer_units = _metric_units()
    tracer = profile = None
    if args.trace:
        from layers import LayerProfile, Tracer

        tracer, profile = Tracer(), LayerProfile()
    if args.workload == "fleet":
        attempted, failed, metrics = _run_fleet(args, tracer)
    else:
        attempted, failed, metrics = _run_sim(args, tracer, profile)

    units = layer_units if args.trace else end_units
    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if args.trace:
        # layers a workload does not run in the benchmark's process read 0
        tracer.write(os.path.join(ROOT, ".perfbench",
                                  f"trace-{args.workload}-{args.seed}.json"))
        metrics = {**dict.fromkeys(units, 0.0), **metrics}
    elif set(units) - set(metrics):
        raise RuntimeError(f"end-to-end metrics not measured: "
                           f"{sorted(set(units) - set(metrics))}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
