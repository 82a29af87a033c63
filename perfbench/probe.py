"""Set-up probe, run in a fresh interpreter with ``src`` on PYTHONPATH.

    python perfbench/probe.py <workload> <scratch-file>

Imports bibeta and makes the first call into each layer the workload uses,
then prints one JSON object with the import time measured inside this
process.  The caller times the whole process.
"""

import json
import sys
from time import perf_counter


def main(workload: str, scratch: str) -> None:
    t0 = perf_counter()
    if workload == "cli":
        import bibeta.cli as cli
    else:
        import bibeta
    t1 = perf_counter()
    if workload == "cli":
        code = cli.main(["moments", "--alpha", "2,3,4,5", "--output", scratch])
        if code != 0:
            raise SystemExit(f"bibeta.cli exited with {code}")
    else:
        alpha = bibeta.AlphaBivariate(2.0, 3.0, 4.0, 5.0)
        if workload == "grid":
            bibeta.pdf_grid(alpha, resolution=2)
        elif workload == "points":
            bibeta.pdf(alpha, 0.3, 0.6)
        elif workload == "sample-fit":
            data = bibeta.sample_bivariate(alpha, 1000, bibeta.RandomStream(0))
            bibeta.fit_data(data, bibeta.FitOptions(restarts=1))
        else:
            raise SystemExit(f"unknown workload {workload!r}")
    print(json.dumps({"import_s": t1 - t0}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
