"""Record a workload's batch outputs as the benchmark's expected outputs.

Usage (from the root of a checkout)::

    python3 bench/record_expected.py WORKLOAD SEED [SEED ...]

Runs the workload's batch once per seed and writes ``histogram.csv``, the
per-run supports and the objectives to ``bench/expected/WORKLOAD.json``
(replacing it), together with the workload definition and a digest of the
package source that produced them. Every later run of that workload and seed must then
reproduce them, so record only from a commit whose outputs are trusted,
and only when the workload definition changes.
"""

import json
import os
import shutil
import sys
import time

import run


def main(argv):
    name, seeds = argv[0], [int(s) for s in argv[1:]]
    workload = run.WORKLOADS[name]
    path = os.path.join(run.EXPECTED, f"{name}.json")
    doc = {"args": list(workload.args), "instances": workload.instances,
           "source_sha256": run._source_digest(), "seeds": {}}
    work = os.path.join(run.OUT, "record", name)
    for seed in seeds:
        out_dir = os.path.join(work, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        res = run.run_child("plain", workload.batch_args(seed, out_dir), work,
                            time.monotonic() + 600)
        code = None if res is None else res["exit_code"]
        if run.count_failed(workload, out_dir, code, None):
            raise SystemExit(f"{name} seed {seed}: batch failed; see {work}")
        doc["seeds"][str(seed)] = run.read_outputs(out_dir, workload)
        print(f"{name} seed {seed}: recorded", flush=True)
    os.makedirs(run.EXPECTED, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
