#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json`` from the current program.

Usage, from the repository root::

    python3 perfbench/record_reference.py

Records the netsim reference panels (per-client rates and the median
FF/HD gain at seed 2014) and the service event digest of the saturated
scenario at seed 2014.  The digest must equal the one committed in
``BENCH_service.json``.  Regenerate only for a deliberate change of
numerical method, and justify the new values where the change lands.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads
    from perfbench.calibrate import SpeedClock

    reference = {"reference_seed": workloads.REFERENCE_SEED}
    for name in ("netsim-mimo", "netsim-siso"):
        reference[name] = workloads.make(name).panel()
    service = workloads.make("service-saturated")
    unit = service.run_pump(service.config(workloads.REFERENCE_SEED),
                            SpeedClock(fft=True))
    reference[service.name] = {"seed": workloads.REFERENCE_SEED,
                               "duration_s": service.duration_s,
                               "event_digest": unit.output}
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
