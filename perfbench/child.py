"""Fresh-interpreter steps of a benchmark run.

    child.py setup <workload> <seed>    build the workload's system, exit
    child.py prove <cache-dir> <mode>   one cold prove in mode e2e, plain
                                        or traced; prints its result as
                                        one JSON line

``run.py`` starts these with ``PYTHONPATH`` pointing at the program and
at this directory.
"""

import json
import sys

import workloads


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        workloads.build_system(argv[1], int(argv[2]))
        return 0
    if argv[:1] == ["prove"] and len(argv) == 3:
        print(json.dumps(workloads.prove_in_process(argv[1], argv[2])))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
