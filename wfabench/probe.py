"""Set-up time of one workload's entry point, in a fresh interpreter.

Usage: ``python3 probe.py <workload> <tmp-dir>``.  Prints the seconds
from before the program's first import to the end of its first call:
import, construction and one small call through the same entry point the
measured run uses.  ``tmp-dir`` holds ``setup.fastq`` (two pairs of the
workload), written by the parent run.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(workload: str, tmp: Path) -> float:
    if workload in ("reads_batch", "longread_banded"):
        from batch_paths import WORKLOADS, cli_argv

        from repro.cli import main as cli_main

        argv = cli_argv(WORKLOADS[workload], tmp / "setup.fastq", tmp / "setup.json")
        with contextlib.redirect_stdout(io.StringIO()):
            if cli_main(argv) != 0:
                raise SystemExit(f"repro-wfasic {' '.join(argv)} failed")
    elif workload == "paper_sim":
        from repro.soc import Soc
        from repro.wfasic import WfasicConfig
        from repro.workloads import make_input_set

        pairs = make_input_set("100-5%", 2)
        soc = Soc(WfasicConfig.paper_default(backtrace=True))
        soc.run_accelerated(pairs, backtrace=True)
        soc.run_cpu(pairs)
    else:
        raise SystemExit(f"no set-up probe for {workload!r}")
    return time.perf_counter() - START


if __name__ == "__main__":
    print(main(sys.argv[1], Path(sys.argv[2])))
