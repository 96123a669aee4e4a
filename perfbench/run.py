"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
The exit code is 0 only when every correctness gate passed.  See README.md
in this directory for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

WORKLOAD_NAMES = ("prove-cold", "kv-mixed", "kv-read", "vm-churn")
HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    # the script's own directory too: Python leaves it off the path when
    # PYTHONSAFEPATH is set
    sys.path[:0] = [src, HERE]

    import workloads

    # a name no earlier run can have left behind, even one that was killed
    os.makedirs(os.path.join(root, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=os.path.join(root, ".perfbench_work"))
    try:
        result = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is still using it
    declared_path = os.path.join(root, "BENCHMARK.json")
    if os.path.isfile(declared_path):
        with open(declared_path, encoding="utf-8") as handle:
            declared = json.load(handle)["per_layer" if args.trace
                                         else "end_to_end"]
        if ({m["name"]: m["unit"] for m in declared}
                != {name: m["unit"] for name, m in result["metrics"].items()}):
            result["problems"].append("metrics differ from BENCHMARK.json")
            result["correct"] = False
    for note in result.pop("notes"):
        print(f"perfbench: {note}", file=sys.stderr)
    for problem in result.pop("problems"):
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
