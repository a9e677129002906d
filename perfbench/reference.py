"""Fixed reference work, timed next to every measured iteration.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x over minutes as other tenants come and go.  Wall time alone then
measures the host as much as the program.  So every iteration is timed
between two runs of this fixed pure-Python work on the same cores:
in the same process, or for an iteration that is a fresh process, in a
fresh interpreter that runs this file, timed from spawn to exit.  The
end-to-end metric `wall_vs_ref` is the iteration's wall time divided by the
mean of the two reference times around it: a slower host slows both, a
slower program raises only the numerator.

The work never touches permscan, so no change to the program moves it.
Changing this file shifts every `wall_vs_ref`; compare only runs made with
the same reference.
"""

from __future__ import annotations

import gc
import json
import time

REPS = 30  # ~0.25 s on a quiet 2-vCPU VM


def _kernel() -> int:
    """Dict, set, list and string work, calls, a sort and a JSON dump: the
    mix permscan's stages are made of."""
    graph = {f"n{i}": [f"n{(i * 7 + k) % 3000}" for k in range(1, 5)] for i in range(3000)}
    depth = {"n0": 0}
    seen = {"n0"}
    frontier = ["n0"]
    while frontier:
        nxt = []
        for u in frontier:
            for v in graph[u]:
                if v not in seen:
                    seen.add(v)
                    depth[v] = depth[u] + 1
                    nxt.append(v)
        frontier = nxt
    items = sorted(depth.items(), key=lambda kv: (kv[1], kv[0]))
    return len(json.dumps(items[:500]))


def reference_s() -> float:
    """Wall time of REPS kernels.  The cyclic collector is off meanwhile (the
    kernel makes no cycles), so the time does not depend on how many objects
    the calling process holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(REPS):
            _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    reference_s()
