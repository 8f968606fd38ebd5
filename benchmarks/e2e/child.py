"""Child-process entry of the end-to-end benchmark (one role per process).

``run.py`` starts every measurement in a fresh interpreter so that set-up
(imports, FFT plans, first-touch pages) is paid and timed each time and
each ``ru_maxrss`` belongs to one workload.  Roles:

``generate``  write the seeded datasets to disk (benchmark-side cost);
``measure``   set-up, then repeat the workload's operation untraced for
              ``seconds`` (at least three times), verifying every output;
``trace``     set-up, then the step-by-step replay in ``replay.py``.

The request is one JSON object in ``argv[1]``; the reply is one JSON
object on the last line of stdout.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # child start, before any heavy import

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def generate(request: dict) -> dict:
    from workloads import make_dataset

    generate_s = {}
    for key, directory in request["datasets"].items():
        t0 = time.perf_counter()
        make_dataset(key, int(request["seed"]), Path(directory),
                     bool(request.get("smoke")))
        generate_s[key] = time.perf_counter() - t0
    return {"generate_s": generate_s}


def main() -> int:
    request = json.loads(sys.argv[1])
    # One thread per core for any BLAS/OpenMP pool numpy brings along, set
    # before numpy loads; recorded so numbers from different settings are
    # never compared.
    threads = str(os.cpu_count() or 1)
    os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = threads
    role = request["role"]
    if role == "generate":
        reply = generate(request)
    elif role == "measure":
        from measure import measure

        reply = measure(request, T_START)
    else:
        from replay import traced_run

        reply = traced_run(request)
    reply["threads"] = int(threads)
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
