"""Run the repository benchmark described by BENCHMARK.json.

    python perf/run.py --seed 7 [--workloads a,b] [--trace] [--out FILE]
    python perf/run.py --workload corpus-cold --seed 3 --seconds 10 --trace 0

Each workload runs in a fresh interpreter (``perf/workloads.py``), one
at a time, with the program's telemetry off. Every metric is printed by
name with its unit and sample count; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace`` the metrics are the per-layer ones from a traced rerun.
The exit code is non-zero when an output check fails.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A workload child is killed after this long (the benchmark contract
#: allows 180 s per invocation).
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run."""


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from None


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # Fixed string hashing keeps set iteration, and so timing, the same
    # from run to run.
    env["PYTHONHASHSEED"] = "0"
    # One BLAS thread: the program's arrays are small, and an idle pool
    # thread would add CPU time that is not the program's work.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_child(workload, args, spans_path=None):
    """One workload in a fresh interpreter; returns its result document."""
    argv = [sys.executable, str(HERE / "workloads.py"), workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        argv.append("--trace")
    if args.smoke:
        argv.append("--smoke")
    if spans_path:
        argv += ["--spans", spans_path]
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within "
                         f"{CHILD_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            # The workload's own children (cli-bugs) share its group.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    raise BenchError(f"{workload}: workload process exited "
                     f"{proc.returncode} without a result")


def declared(spec, trace):
    """The metrics this run must report: name -> unit."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def print_doc(doc, units):
    n, rounds = doc["attempted"], doc["rounds"]
    status = "correct" if doc["correct"] else "OUTPUT CHECK FAILED"
    print(f"{doc['workload']}: {status}; {n} operations in {rounds} "
          f"rounds, {doc['failed']} failed")
    for problem in doc["problems"]:
        print(f"  problem: {problem}")
    notes = {"setup_s": "CPU time at the reference host speed",
             "latency_geomean_s": f"geometric mean over {n // rounds} "
                                  f"operations of each one's median of "
                                  f"{rounds} rounds",
             "ops_per_s": "from the same median times",
             "latency_tail_s": f"p{doc.get('tail_pct', 0):g} of all {n} "
                               "samples; not bounded"}
    for name, value in doc["metrics"].items():
        unit = units.get(name, "s" if name.endswith("_s") else "")
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<30} {value:>14.6g} {unit}{note}")
    for name, value in doc["exact"].items():
        print(f"  {name:<30} {value}")


def run_once(spec, args, workloads):
    """Every requested workload once; returns {workload: document}."""
    units = declared(spec, args.trace)
    docs = {}
    for name in workloads:
        spans_path = (f"{args.out}.{name}.spans.jsonl"
                      if args.out and args.trace else None)
        doc = run_child(name, args, spans_path)
        missing = sorted(set(units) - set(doc["metrics"]))
        if missing:
            raise BenchError(f"{name}: no value for {', '.join(missing)}")
        print_doc(doc, units)
        docs[name] = doc
    return docs


def summary(runs, units):
    """The final JSON line: one workload flat, several nested by name.
    A metric measured in several runs reports its median."""
    names = list(runs[0])
    docs = [doc for run in runs for doc in run.values()]

    def metrics(name):
        return {m: {"value": statistics.median(r[name]["metrics"][m]
                                               for r in runs),
                    "unit": unit}
                for m, unit in units.items()}

    return {
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": (metrics(names[0]) if len(names) == 1
                    else {n: metrics(n) for n in names}),
    }


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--workload", dest="workloads",
                        help="one workload (same as --workloads NAME)")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--out", metavar="FILE",
                        help="also write every result to FILE as JSON")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run the workloads N times")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one round: checks that the "
                             "benchmark works, measures nothing")
    args = parser.parse_args(argv)
    if args.out:
        # Children run in the repository root; spans go next to FILE.
        args.out = str(Path(args.out).resolve())
    args.workloads = args.workloads.split(",")
    unknown = sorted(set(args.workloads) - set(names))
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; "
                     f"known: {', '.join(names)}")
    return args


def main(argv=None):
    try:
        spec = load_spec()
        args = parse_args(argv, spec)
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program source under {ROOT / 'src'}")
        runs = [run_once(spec, args, args.workloads)
                for _ in range(args.repeat)]
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    if args.out:
        doc = {"seed": args.seed, "trace": bool(args.trace),
               "smoke": args.smoke, "seconds": args.seconds,
               "host_cpus": os.cpu_count(),
               "python": platform.python_version(),
               "numpy": metadata.version("numpy"), "runs": runs}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n",
                                  encoding="utf-8")
    result = summary(runs, declared(spec, args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
