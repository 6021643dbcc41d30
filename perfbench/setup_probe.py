"""Time a fresh interpreter's set-up for one workload and print it in seconds.

Set-up is what every `lettucesim ...` call pays before it does work:
importing `lettucesim.cli` (numpy, scipy.optimize) and loading the
workload's configs. Run by run.py as `python3 perfbench/setup_probe.py
<workload> <size>` with lettucesim's `src` on PYTHONPATH.
"""

import sys
import time

start = time.perf_counter()
import lettucesim.cli  # noqa: E402,F401

imported = time.perf_counter() - start

import workloads  # noqa: E402  (the config list; lettucesim is already imported)

start = time.perf_counter()
for path, overrides in workloads.WORKLOADS[sys.argv[1]].setup_configs_for(sys.argv[2]):
    lettucesim.config.load_config(path, list(overrides))
print(repr(imported + time.perf_counter() - start))
