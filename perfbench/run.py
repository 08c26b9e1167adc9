"""permlab benchmark: one workload, one seed, one line of JSON metrics.

    python3 perfbench/run.py --workload {analyze,incidence,battery} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root.  Every round of a workload runs in a
fresh single-threaded worker process (perfbench/worker.py), so every
functools.cache in permlab starts cold; see perfbench/workloads.py for
what each workload sends and why.

--trace 0 measures the end-to-end metrics.  After one untimed import
that leaves the bytecode cache warm, it times the entry-module import in
SETUP_PROBES fresh processes, then runs rounds of requests, starting
another round only while it would end within --seconds (at least one
round).  Round i sends the requests workloads.py draws from (seed, i), so
a run pools several draws of one seed's inputs.  Times are medians over
rounds; request percentiles pool the latencies of all rounds.  Every
time is normalised to the
reference machine speed by the worker's speed probe (perfbench/speed.py):
a measured time times the speed factor of the interval it was measured
in, which for a request is the speed within speed.WINDOW_S of it.  The
raw times and the round and import factors are in the run record.

--trace 1 gives the per-layer metrics from one traced round under
``-X importtime``, run between two untraced rounds; tracing overhead is
the traced wall time minus the mean of the untraced ones, both raw.

Each run writes its record (versions, nproc, load average, commit, seed,
every failed request) to perfbench/out/, and the traced run its spans.
The last line of stdout is the JSON result; the exit code is 0 only when
every round ran to the end.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 7
RUN_LIMIT_S = 175  # a run must end within 180 s

PROPERTIES = (
    "primitivity-two-routes",
    "separation-witnesses",
    "coset-covers",
    "involution-factorization",
    "almost-regular-decomposition",
    "wreath-algebra",
    "subset-incidence",
    "dense-order-maps",
    "tree-relation-axioms",
    "jordan-span-geometry",
)
LAYER_METRICS = (
    "perms.compose.calls",
    "perms.compose.self_s",
    "perms.cycle_type.calls",
    "groups.self_s",
    "groups.elements_materialized",
    "groups.stabilizer.s",
    "groups.subgroup_from_elements.s",
    "groups.transitivity_degree.s",
    "groups.separation_search.s",
    "blocks.self_s",
    "blocks.is_primitive.s",
    "blocks.congruences.s",
    "blocks.almost_regular_decomposition.s",
    "jordan.self_s",
    "jordan.jordan_sets.s",
    "jordan.jordan_sets.candidates",
    "jordan.is_jordan.calls",
    "jordan.span.s",
    "jordan.geometry_audit.s",
    "wreath.self_s",
    "wreath.imprimitive_embedding.s",
    "incidence.self_s",
    "incidence.build.s",
    "incidence.matmul.s",
    "incidence.matmul.mults",
    "incidence.rank.s",
    "incidence.rank.cells",
    "incidence.rank_mod_p.s",
    "incidence.orbit_count_inequality.s",
    "orders.self_s",
    "trees.self_s",
    "fixtures.fixture.calls",
    "fixtures.fixture.s",
    "cli.self_s",
)
MATRIX_CONSTRUCTORS = ("build_r_matrix", "build_theta_matrix", "subset_permutation_matrix")


class BenchError(Exception):
    pass


def unit(name: str) -> str:
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


def worker(args, tag: str, *, round_index=0, trace=False, setup_only=False,
           deadline: float) -> dict:
    out = OUT / f"{args.workload}-seed{args.seed}-{tag}.json"
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--round", str(round_index), "--out", str(out)]
    if trace:
        cmd += ["--trace", "--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} passed the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(out.read_text())
    out.unlink()
    if trace:
        record["numpy_import_s"] = numpy_import_s(proc.stderr)
    return record


def numpy_import_s(importtime: str) -> float:
    """Cumulative import time of numpy from ``-X importtime`` output."""
    for line in importtime.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)$", line)
        if match and match.group(3) == "numpy":
            return int(match.group(1)) / 1e6
    raise BenchError("numpy does not appear in the -X importtime output")


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def source_identity() -> dict:
    """The commit when the checkout has git metadata, and always a digest
    of the package sources, which names the code in a bare checkout."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else ref[5:]
        else:
            commit = ref
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def end_to_end(args, deadline: float, record: dict) -> tuple[dict, list]:
    worker(args, "warm", setup_only=True, deadline=deadline)
    probes = [worker(args, f"setup{i}", setup_only=True, deadline=deadline)
              for i in range(SETUP_PROBES)]
    rounds = []
    started = time.monotonic()
    while True:
        rounds.append(worker(args, f"round{len(rounds)}", round_index=len(rounds),
                             deadline=deadline))
        elapsed = time.monotonic() - started
        if elapsed + elapsed / len(rounds) > args.seconds:
            break
    latencies = [s * f for r in rounds for s, f in zip(r["latencies_s"], r["latency_speeds"])]
    record["rounds"] = [
        {k: r[k] for k in ("requests", "wall_s", "speed", "speed_samples", "peak_rss_mb",
                           "import_s", "import_speed")}
        for r in rounds
    ]
    record["failures"] = [f for r in rounds for f in r["failures"]]
    record["latency_samples"] = len(latencies)
    record["setup_probes"] = [{k: p[k] for k in ("import_s", "import_speed")} for p in probes]
    metrics = {
        "setup_s": statistics.median(p["import_s"] * p["import_speed"] for p in probes + rounds),
        "wall_s": statistics.median(r["wall_s"] * r["speed"] for r in rounds),
        "request_p50_ms": 1000 * statistics.median(latencies),
        "request_p90_ms": 1000 * percentile(latencies, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    units = {"setup_s": "s", "wall_s": "s", "request_p50_ms": "ms", "request_p90_ms": "ms",
             "peak_rss_mb": "MB"}
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}, rounds


def per_layer(args, deadline: float, record: dict) -> tuple[dict, list]:
    before = worker(args, "untraced0", deadline=deadline)
    traced = worker(args, "traced", trace=True, deadline=deadline)
    after = worker(args, "untraced1", deadline=deadline)
    untraced_wall_s = (before["wall_s"] + after["wall_s"]) / 2
    layers = traced["layers"]
    values = {name: layers.get(name, 0) for name in LAYER_METRICS}
    values["incidence.build.s"] = sum(layers[f"incidence.{b}.s"] for b in MATRIX_CONSTRUCTORS)
    props = traced.get("properties_s", {})
    for name in PROPERTIES:
        values[f"suite.{name}.s"] = props.get(name, 0.0)
    values["setup.numpy_s"] = traced["numpy_import_s"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced_wall_s
    record["trace"] = {
        "untraced_wall_s": [before["wall_s"], after["wall_s"]],
        "traced_wall_s": traced["wall_s"],
        "layers": layers,
        "spans": f"perfbench/out/spans-{args.workload}-seed{args.seed}.jsonl",
    }
    rounds = [before, traced, after]
    record["failures"] = [f for r in rounds for f in r["failures"]]
    return {name: {"value": v, "unit": unit(name)} for name, v in values.items()}, rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("analyze", "incidence", "battery"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "permlab" / "__init__.py").is_file():
        print(f"error: no permlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **source_identity(), **environment()}
    try:
        if args.trace:
            metrics, rounds = per_layer(args, deadline, record)
        else:
            metrics, rounds = end_to_end(args, deadline, record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["loadavg_end"] = os.getloadavg()
    record["metrics"] = metrics
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    attempted = sum(r["requests"] for r in rounds)
    failed = len(record["failures"])
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of "
          f"{rounds[0]['requests']} requests, {failed} failed")
    for f in record["failures"]:
        print(f"  failed: {f['group']} {f['name']}: {f['reason']}")
    if not args.trace:
        print(f"  latency percentiles over {record['latency_samples']} requests")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
