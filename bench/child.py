"""One fresh benchmark process: runs CLI commands in-process and reports on them.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds {"src": dir holding the asymshap package, "commands": [argv, ...],
"trace": bool, "result": path}. The commands run in order through
`asymshap.cli.main`, stopping at the first that fails. The result file gets each
command's exit code, the wall and CPU seconds of the whole sequence (imports
excluded) and, when traced, the span summary. Exit code 0 means every command
returned 0.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv) -> int:
    spec = json.loads(argv[1])
    sys.path.insert(0, spec["src"])
    import asymshap.cli  # noqa: F401  (imported before timing starts)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cli = sys.modules["asymshap.cli"]
    codes = []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for command in spec["commands"]:
        try:
            code = cli.main(command)
        except Exception:
            traceback.print_exc()
            code = 1
        codes.append(code)
        if code != 0:
            break
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    result = {
        "codes": codes,
        "wall_s": wall,
        "cpu_s": cpu,
        "trace": tracer.summary() if tracer is not None else None,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
