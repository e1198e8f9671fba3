"""One repeat of one workload, in a fresh process.

Usage: python3 bench/worker.py SPEC_JSON RESULT_JSON

The spec names the workload, its seed and sizes, the working directory,
whether to trace, and the monotonic time at which the parent started this
process.  Set-up runs from that instant to the first timed command: the
interpreter start, ``import qubolab.cli`` and writing the inputs.  The
result (timings, stage metrics, check outcomes, artifact digests, and the
per-layer metrics of a traced repeat) is written to RESULT_JSON.
"""

from __future__ import annotations

import os
import sys

# BLAS and OpenMP run on one thread; this must happen before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io as _io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

# numpy and qubolab are imported only inside functions, after the clock of
# import_s has started, so that set-up time includes loading them.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class CommandFailed(RuntimeError):
    """A CLI command returned a nonzero status or raised; already recorded."""


class Repeat:
    """What a workload function sees: paths, seeds, the CLI and checks."""

    def __init__(self, spec: dict, cli_main, tracer):
        self.dir = spec["workdir"]
        self._seed = spec["seed"]
        self._t_spawn = spec["t_spawn"]
        self._main = cli_main
        self._tracer = tracer
        self.setup_s: float | None = None
        self.walls: dict[str, float] = {}
        self.rss_mb = 0.0
        self.counts: dict[str, float] = {}
        self.operations = 0
        self.failures: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _sequence(self, purpose: str):
        import numpy as np
        from workloads import PURPOSES

        return np.random.SeedSequence([self._seed, PURPOSES.index(purpose)])

    def seed(self, purpose: str) -> int:
        """A child seed for one purpose, as passed to a CLI --seed flag."""
        return int(self._sequence(purpose).generate_state(1)[0])

    def rng(self, purpose: str):
        import numpy as np

        return np.random.default_rng(self._sequence(purpose))

    def write_vector(self, path: str, values) -> None:
        """Write an input vector through qubolab.io, so a trace records it."""
        from qubolab import io

        io.write_vector(path, values)

    def cli(self, argv: list[str], timed: bool = False, label: str | None = None) -> None:
        """Run one CLI command in-process; a timed command counts toward wall_s."""
        if timed and self.setup_s is None:
            self.setup_s = time.monotonic() - self._t_spawn
        out = _io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                if self._tracer is None:
                    status = self._main(argv)
                else:
                    status = self._tracer.call(f"cli.{argv[0]}", self._main, argv)
        except Exception as err:  # a traceback is a failed command, not a crash
            status = repr(err)
        wall = time.perf_counter() - t0
        self.operations += 1
        if status != 0:
            self.failures.append(f"{' '.join(argv[:1])}: {status}: {out.getvalue()[-500:]}")
            raise CommandFailed(argv[0])
        if timed:
            self.walls[label or argv[0]] = wall

    def end_timed(self) -> None:
        """Record peak memory and stop tracing once the timed commands are done."""
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self._tracer is not None:
            self._tracer.uninstall()

    def check(self, what: str, ok: bool) -> None:
        self.operations += 1
        if not ok:
            self.failures.append(f"check failed: {what}")


def calibrate(rounds: int = 5) -> float:
    """Seconds a fixed reference computation takes at the machine's current speed.

    The speed of a shared host drifts by up to 2x over tens of seconds.
    Timings divided by this figure, taken in the same process right after
    the timed commands, keep most of the program's own cost and lose most
    of the drift.  Like the workloads, the reference mixes an interpreted
    loop with small numpy products.
    """
    import numpy as np

    a = np.full((32, 32), 0.01)

    def interpreted() -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        return time.perf_counter() - t0

    def vectorised() -> float:
        x = np.ones((32, 32))
        t0 = time.perf_counter()
        for _ in range(2000):
            x = np.tanh(a @ x + 0.1)
        return time.perf_counter() - t0

    return (statistics.median(interpreted() for _ in range(rounds))
            + statistics.median(vectorised() for _ in range(rounds)))


def environment() -> dict:
    """Machine, library and thread facts of this process."""
    import ctypes
    import platform

    import numpy as np
    import scipy

    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), "")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, libs = {}, []
    with contextlib.suppress(OSError), open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(lib)] = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": threads},
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
    }


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import qubolab.cli

    import_s = time.perf_counter() - t0
    if not os.path.abspath(qubolab.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qubolab was imported from {qubolab.cli.__file__}, not {SRC}")
    import workloads
    from tracing import Tracer

    tracer = Tracer(spec["run_id"]) if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    r = Repeat(spec, qubolab.cli.main, tracer)
    stages, digests = {}, {}
    try:
        stages, artifacts = workloads.WORKLOADS[spec["workload"]](r, spec["sizes"])
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()}
    except CommandFailed:
        pass
    except Exception as err:  # recorded as a failed operation
        r.operations += 1
        r.failures.append(f"{type(err).__name__}: {err}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "calibration_s": calibrate(),
        "setup_s": r.setup_s,
        "import_s": import_s,
        "walls": r.walls,
        "wall_s": sum(r.walls.values()),
        "peak_rss_mb": r.rss_mb,
        "stages": stages,
        "digests": digests,
        "operations": r.operations,
        "failures": r.failures,
        "environment": environment(),
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers.update({"datagen.refined_frac": 0.0, "datagen.flips_mean": 0.0,
                       "model.epochs": 0})
        layers.update(r.counts)
        layers["io.bytes_written"] = sum(
            os.path.getsize(os.path.join(r.dir, f)) for f in os.listdir(r.dir))
        ckpt = r.path("model.json")
        layers["io.checkpoint_bytes"] = os.path.getsize(ckpt) if os.path.exists(ckpt) else 0
        result["layers"] = layers
        result["spans_per_layer"] = tracer.spans_per_layer()
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
