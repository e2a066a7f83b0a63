"""Run one protonas command in a fresh process and record what it cost.

Usage (from run.py, with PYTHONPATH pointing at the checkout's src):

    python3 pipebench/child.py '<spec JSON>'

The spec names the command line for protonas.cli.main, its config file,
the CLOCK_MONOTONIC time at which the parent launched this process,
whether to trace, and where to write the result.  Set-up ends once
protonas is imported and the templates and config are loaded and
validated; the command's wall time starts there.  The result JSON holds
set-up and command times, the exit code, getrusage figures for this
process and its (pool) children, and the mean time of a fixed speed
probe sampled in this process every 50 ms during set-up and during the
command, which run.py uses to correct for the host's changing speed.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import struct
import sys
import time
from pathlib import Path

import numpy as np

SAMPLE_INTERVAL_S = 0.05


class SpeedSampler:
    """Times a fixed probe on this process's own CPU at a steady rate.

    The probe mixes an interpreter loop, dict lookups and small matrix
    products, the kinds of work protonas does.  Its mean time over an
    interval tracks how fast the host ran the command in that interval.
    Processes forked from this one (protonas's --jobs pool) sample
    themselves too and append to speed-<pid>.bin files in worker_dir.
    """

    def __init__(self, worker_dir: Path):
        self.samples: list[float] = []
        self.worker_dir = worker_dir
        self._fd: int | None = None
        self._table = {i: float(i) for i in range(14_000)}
        self._keys = list(range(0, 14_000, 7))
        self._mat = np.random.default_rng(0).standard_normal((64, 64))
        self._busy = False

    def sample(self, *_signal_args) -> int:
        if not self._busy:
            self._busy = True
            t0 = time.perf_counter()
            acc = 0.0
            for i in range(3000):
                acc += i * i
            for k in self._keys:
                acc += self._table[k]
            for _ in range(20):
                self._mat @ self._mat
            self.samples.append(time.perf_counter() - t0)
            if self._fd is not None:
                os.write(self._fd, struct.pack("d", self.samples[-1]))
            self._busy = False
        return len(self.samples)

    def start(self) -> int:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        os.register_at_fork(after_in_child=self._start_in_worker)
        return self.sample()

    def _start_in_worker(self) -> None:
        # Timers are not inherited across fork; arm one for the worker.
        path = self.worker_dir / f"speed-{os.getpid()}.bin"
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def worker_samples(self) -> list[float]:
        out: list[float] = []
        for path in sorted(self.worker_dir.glob("speed-*.bin")):
            data = path.read_bytes()
            out += [v for (v,) in struct.iter_unpack("d", data[: len(data) // 8 * 8])]
        return out

    def stop(self) -> int:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return self.sample()

    def mean(self, lo: int, hi: int) -> float:
        part = self.samples[lo:hi]
        return sum(part) / len(part)


def _fingerprint() -> dict:
    from protonas.hvss import HAVE_COMPILED

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "have_compiled": bool(HAVE_COMPILED),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(__file__).resolve().parent.parent / "src"
    sampler = SpeedSampler(Path(spec["result"]).parent)
    first = sampler.start()

    import protonas.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"protonas was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    from protonas.archspace.templates import load_templates
    from protonas.config import load_config

    cfg = load_config(Path(spec["config"]))
    load_templates(cfg.templates_path)
    result = {"setup_s": time.monotonic() - spec["launched"]}
    ready = sampler.sample()
    result["probe_setup_s"] = sampler.mean(first - 1, ready)

    if spec.get("fingerprint"):
        result["env"] = _fingerprint()
    if spec.get("argv"):
        main_fn = cli.main
        tracer = None
        if spec.get("trace"):
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            main_fn = tracer.wrap("cli.main", cli.main)
        t0 = time.perf_counter()
        result["exit_code"] = main_fn(spec["argv"])
        result["wall_s"] = time.perf_counter() - t0
        end = sampler.stop()
        # With a --jobs pool the work runs in the workers, and this
        # process's own samples would mostly time the wait for a CPU.
        pooled = sampler.worker_samples()
        result["probe_samples"] = len(pooled) or end - ready + 1
        result["probe_command_s"] = sum(pooled) / len(pooled) if pooled else sampler.mean(ready - 1, end)
        if tracer is not None:
            tracer.dump(spec["spans"])

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["cpu_self_s"] = own.ru_utime + own.ru_stime
    result["cpu_children_s"] = kids.ru_utime + kids.ru_stime
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = max(own.ru_maxrss, kids.ru_maxrss) / 1024.0
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        # An armed timer would kill the interpreter during shutdown.
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
    sys.exit(code)
