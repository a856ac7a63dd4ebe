"""ecgauth benchmark: one seeded workload per run, untraced or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-hard --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with tracing
off; ``--trace 1`` does one untraced and one traced set-up and pass and
reports the per-layer metrics. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Wall-clock
files (the result with its environment stamp, the spans) go to
``.perfbench_work/``, outside every ecgauth output directory.
"""

from __future__ import annotations

import os

# BLAS threads must be fixed before numpy loads; one thread matches the
# paper's one-core claim and keeps the runs apart from other load.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"no BENCHMARK.json in {ROOT}; run from the root of a checkout")
    return json.loads(path.read_text(encoding="utf-8"))


def _blas_threads() -> int | None:
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def environment_stamp() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "ecgauth").glob("*.py")):
        source.update(path.name.encode())
        source.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
        "source_sha256": source.hexdigest(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    spec = _load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ecgauth" / "__init__.py").is_file():
        _fail(f"ecgauth sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]

    from tracing import Tracer
    from layers import layer_metrics, stage_accounting
    from workloads import WORKLOADS, Runner

    runner = Runner(WORKLOADS[args.workload], args.seed, WORK / args.workload)
    if args.trace:
        tracer = Tracer()
        plain, traced, plain_stages = runner.run_traced(tracer)
        overhead = traced / plain - 1.0
        values = layer_metrics(tracer, overhead)
        declared = spec["per_layer"]
        print(f"tracing overhead {overhead:+.3f} "
              f"(untraced {plain:.3f} s, traced {traced:.3f} s)")
        print("stage            untraced_s  traced_s  sum_self_s")
        for name, wall, own in stage_accounting(tracer):
            print(f"{name:16s} {plain_stages.get(name, 0.0):10.3f} "
                  f"{wall:9.3f} {own:11.3f}")
        tracer.write(WORK / f"{args.workload}-spans.jsonl")
    else:
        runner.run_untraced(args.seconds)
        values = runner.end_to_end()
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                 / 1024.0)
        declared = spec["end_to_end"]

    state = runner.state
    problems = state.problems + runner.consistency_problems()
    missing = sorted({m["name"] for m in declared} - set(values))
    problems += [f"metric {name} not measured" for name in missing]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}

    stamp = environment_stamp()
    result = {"correct": not problems, "attempted": state.attempted,
              "failed": state.failed, "metrics": metrics}
    WORK.mkdir(exist_ok=True)
    (WORK / f"{args.workload}-result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "environment": stamp, "passes": len(state.pass_s),
         "problems": problems, **result}, indent=2) + "\n")

    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print("environment " + json.dumps(stamp, sort_keys=True))
    print(f"{args.workload} seed={args.seed}: {state.attempted} operations, "
          f"{state.failed} failed, {len(state.pass_s)} passes")
    for m in declared:
        print(f"  {m['name']:40s} {values.get(m['name'], 0.0):14.6g} {m['unit']} "
              f"({m['better']} is better)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
