"""Per-layer timings of the engine's convolution kernels.

Times forward (_conv_fwd) and backward with the input gradient
(_conv_bwd) of the layers that dominate scoring: the default space's
k5/k7 stride-1 depthwise layers, explore-2d's k3 depthwise layers, and
explore-1d's most frequent small layers (k5 and k3 regular, pointwise
and k3 depthwise convolutions at stride 1), whose cost is mostly the
fixed cost of a call.  Each layer runs on standard-normal data with He
weights; the time of a kernel is the best of REPEAT calls in each of
ROUNDS runs.

Run from the root of a checkout:

    python3 scripts/layer_timings.py                       # this checkout's src/
    python3 scripts/layer_timings.py --src OTHER/src --src src

Each tree is timed in its own process, ROUNDS times; with several --src
trees, the trees alternate within every round.  Each layer's best time
over the rounds is reported per tree, with the last tree's speedup over
the first (forward plus backward) and whether the trees' outputs, dx and
dw have the same bits (a sha256 of their bytes).  BLAS is pinned to one
thread.
The last line of standard output is one JSON object with every number.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REPEAT = 7  # calls per kernel in one run; the best is kept
ROUNDS = 6  # runs of every tree, alternating which tree goes first

# (batch, channels, *spatial), kernel, stride, groups; padding is kernel // 2
# and a layer has as many outputs as inputs
LAYERS = [
    ((16, 36, 64, 64), 7, 1, 36),  # default space, the largest taps
    ((16, 36, 64, 64), 5, 1, 36),
    ((16, 16, 64, 64), 3, 2, 16),  # explore-2d
    ((16, 26, 64, 64), 3, 2, 26),
    ((16, 29, 64, 64), 3, 2, 29),
    ((16, 26, 32, 32), 3, 1, 26),
    ((16, 29, 32, 32), 3, 1, 29),
    ((16, 12, 32), 5, 1, 1),  # explore-1d
    ((16, 12, 32), 3, 1, 1),
    ((16, 12, 32), 1, 1, 1),
    ((16, 12, 32), 3, 1, 12),
    ((16, 24, 64), 5, 1, 1),
    ((16, 24, 64), 3, 1, 1),
    ((16, 24, 64), 1, 1, 1),
    ((16, 24, 64), 3, 1, 24),
]


def label(shape, kernel, stride, groups) -> str:
    return f"{tuple(shape)} k{kernel} s{stride} g{groups}"


def time_layers() -> dict:
    """Best-of-REPEAT forward and backward milliseconds per layer, with
    a digest of the bits of the output, dx and dw."""
    import numpy as np

    from protonas.tensorcore import engine

    engine.retain_freed_memory()
    results = {}
    for shape, kernel, stride, groups in LAYERS:
        rng = np.random.default_rng(0)
        x = rng.standard_normal(shape)
        w_shape = (shape[1], shape[1] // groups) + (kernel,) * (len(shape) - 2)
        w = rng.normal(0.0, math.sqrt(2.0 / math.prod(w_shape[1:])), size=w_shape)
        padding = kernel // 2
        out = engine._conv_fwd(x, w, None, stride, padding)
        dout = rng.standard_normal(out.shape)
        digest = hashlib.sha256(out.tobytes())
        for grad in engine._conv_bwd(x, w, dout, stride, padding, False)[:2]:
            digest.update(grad.tobytes())
        times = {}
        for name, call in (
            ("forward_ms", lambda: engine._conv_fwd(x, w, None, stride, padding)),
            ("backward_ms", lambda: engine._conv_bwd(x, w, dout, stride, padding, False)),
        ):
            best = math.inf
            for _ in range(REPEAT):
                t0 = time.perf_counter()
                call()
                best = min(best, time.perf_counter() - t0)
            times[name] = best * 1e3
        results[label(shape, kernel, stride, groups)] = dict(times, sha256=digest.hexdigest())
    return results


def run_child(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), **PINNED_THREADS)
    cmd = [sys.executable, __file__, "--child"]
    done = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", type=Path,
                    help="a tree's src/ directory (repeatable; default: this checkout's src/)")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(time_layers()))
        return 0
    srcs = args.src or [Path(__file__).resolve().parent.parent / "src"]
    best: dict[str, dict] = {str(s): {} for s in srcs}
    for k in range(ROUNDS):
        # alternate which tree runs first
        for src in srcs if k % 2 == 0 else srcs[::-1]:
            for layer, res in run_child(src.resolve()).items():
                kept = best[str(src)].setdefault(layer, dict(res))
                for key in ("forward_ms", "backward_ms"):
                    kept[key] = min(kept[key], res[key])
                if kept["sha256"] != res["sha256"]:
                    raise SystemExit(f"{src}: {layer} gave different bits in two runs")
    first, last = str(srcs[0]), str(srcs[-1])
    trees = "".join(f"  {f'fwd / bwd ms, tree {i}':>26}" for i in range(len(srcs)))
    print("layer".ljust(30) + trees + "  last tree's speedup  same bits")
    for layer in best[first]:
        line = layer.ljust(30)
        for src in best:
            r = best[src][layer]
            line += f"  {r['forward_ms']:>14.3f} / {r['backward_ms']:>7.3f}"
        base, r = best[first][layer], best[last][layer]
        total = (base["forward_ms"] + base["backward_ms"]) / (r["forward_ms"] + r["backward_ms"])
        same = all(best[src][layer]["sha256"] == base["sha256"] for src in best)
        print(line + f"  {total:>19.2f}x  {same}")
    for i, src in enumerate(srcs):
        print(f"tree {i}: {src}")
    print(json.dumps({"trees": [str(s) for s in srcs], "rounds": ROUNDS,
                      "repeat": REPEAT, "layers": best}))
    return 0


if __name__ == "__main__":
    os.environ.update(PINNED_THREADS)
    sys.exit(main())
