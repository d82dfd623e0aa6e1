"""Hold the relay chain's size counts to committed ceilings.

Runs the benchmark's traced mode (``perfbench/run.py --trace 1``)
briefly on the two workloads that build relay chains and checks the
counts it reports for them: the CNF kernel's taps, its overlap-save FFT
size and its lookahead.  These counts depend on the seed and the
program, never on the host, and repeat exactly, so unlike a timing
gate this one can be judged on a small shared runner.

The ceilings are the values measured at seed 1 once the relay's CNF
kernel was compiled at the signal-path tolerance
(``repro.core.relay.SIGNAL_PATH_TAIL_REL``) with the FFT sized from the
kernel: before that the service chain ran 8,053-tap kernels through
16,384-point FFTs.

Usage::

    python benchmarks/check_counts.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SECONDS = 2

CEILINGS = {
    "service-saturated": {"runtime.kernel_taps": 225,
                          "runtime.fft_size": 1024,
                          "runtime.lookahead_samples": 112},
    "phy-relay-link": {"runtime.kernel_taps": 47,
                       "runtime.fft_size": 256,
                       "runtime.lookahead_samples": 23},
}


def traced_counts(workload):
    """The last-line result of one traced benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: no output (exit {proc.returncode})"
                           f"\n{proc.stderr}")
    return json.loads(lines[-1])


def main():
    failed = False
    for workload, ceilings in CEILINGS.items():
        result = traced_counts(workload)
        if not result["correct"]:
            failed = True
            print(f"FAIL: {workload}: the traced run failed its "
                  "correctness checks")
        for name, ceiling in ceilings.items():
            value = result["metrics"][name]["value"]
            failed |= value > ceiling
            print(f"{'PASS' if value <= ceiling else 'FAIL'}: {workload} "
                  f"{name}: measured {value} (need ≤ {ceiling})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
