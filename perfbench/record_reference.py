"""Record the reference outputs the output gate compares against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each named workload (default: all) once at REFERENCE_SEED and
stores its CSV outputs, gzipped, in perfbench/reference/<workload>/.  Record them
only from a commit whose outputs are known good; the references in the
repository come from the seed commit of the package.
"""

from __future__ import annotations

import gzip
import shutil
import sys

from run import HERE, OUT_ROOT, Spawner, child_env, cli_args, nproc
from workloads import REFERENCE_SEED, WORKLOADS


def main(names: list[str]) -> int:
    for name in names or sorted(WORKLOADS):
        w = WORKLOADS[name]
        workers = min(w.workers, nproc())
        outdir = OUT_ROOT / f"reference-{name}"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        argv = [sys.executable, "-m", "shakenbec",
                *cli_args(w, REFERENCE_SEED, outdir / "out", workers)]
        with Spawner() as spawner:
            run = spawner.run(argv, child_env(workers), outdir / "log")
        if run.exit_code != 0:
            print(f"{name}: exit code {run.exit_code}; see {outdir / 'log'}", file=sys.stderr)
            return 1
        target = HERE / "reference" / name
        target.mkdir(parents=True, exist_ok=True)
        for spec in w.outputs:
            data = (outdir / "out" / spec.filename).read_bytes()
            (target / f"{spec.filename}.gz").write_bytes(gzip.compress(data, 9, mtime=0))
        print(f"{name}: recorded {', '.join(s.filename for s in w.outputs)} "
              f"in {run.wall_s:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
