"""Time one set-up of a workload from a fresh interpreter.

usage: python3 perfbench/setup_probe.py WORKLOAD WORKDIR

Set-up is what a user pays before the first cycle: ``import ospkit``,
writing the config JSON, and ``load_config`` (which builds the
``SystemModel``).  Prints the elapsed seconds scaled to the nominal host
speed (see speed.py), then the elapsed seconds as measured.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import ospkit  # noqa: E402

from cases import config_dicts  # noqa: E402


def main() -> None:
    workload, workdir = sys.argv[1], sys.argv[2]
    paths = []
    for label, data in config_dicts(workload, ospkit, seed=0):
        paths.append(os.path.join(workdir, f"probe-{os.getpid()}-{label}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(data, fh)
        ospkit.load_config(paths[-1])
    elapsed = time.perf_counter() - t0
    import speed  # after the timed region

    scale = speed.scale(speed.reference_seconds(), speed.reference_seconds())
    for path in paths:
        os.unlink(path)
    print(repr(elapsed * scale), repr(elapsed))


if __name__ == "__main__":
    main()
