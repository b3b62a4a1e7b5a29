"""Record the reports the output gate compares every run against.

The reference is the program at the commit that defined the benchmark.
Each file holds the exit status and the JSON report, minus ``elapsed_ms``,
of one command run with ``--k 1,2,3,4,5,6,7``; a run with any five of
those ks is compared with the records of its own ks.  Run from the
repository root, at the reference commit only:

    python3 perfbench/record_expected.py
"""

import json
import sys

from run import (
    ALL_KS, EXPECTED_DIR, SMOKE_QCAP, WORKLOADS, expected_name, invoke,
    strip_timing, verify_args,
)


def main() -> int:
    EXPECTED_DIR.mkdir(exist_ok=True)
    for workload, (qcap, *_rest) in WORKLOADS.items():
        for q in (0, SMOKE_QCAP, qcap):
            path = EXPECTED_DIR / expected_name(workload, q)
            if path.exists():
                continue
            _, _, status, stdout = invoke(verify_args(workload, ALL_KS, q, jobs=2))
            reports = [strip_timing(r) for r in json.loads(stdout)]
            path.write_text(json.dumps({"exit_status": status, "reports": reports}, indent=1) + "\n")
            print(f"{path.name}: exit {status}, {len(reports)} checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
