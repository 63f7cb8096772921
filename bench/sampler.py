"""A stdlib ``SIGPROF`` sampler that charges CPU time to ``repro`` modules.

Every :data:`INTERVAL_S` seconds of process CPU time the kernel delivers
``SIGPROF``; the handler walks the interrupted stack from the innermost
frame outwards and charges one sample to the first frame whose code lives
in ``src/repro``.  Time spent in numpy or the standard library is thereby
charged to the ``repro`` module that called it.  Samples with no ``repro``
frame on the stack (the benchmark's own code) count as ``outside``.

Python runs signal handlers between bytecodes, so a long native call
(one big numpy reduction) is seen as a single late sample: the sampler
under-counts native time.  The handler times itself, so its own cost is
reported next to the profile.
"""

from __future__ import annotations

import signal
import time
from collections import Counter
from pathlib import Path

#: The layers the benchmark reports, as ``repro`` module paths.
MODULES = (
    "simulation.engine",
    "simulation.medium",
    "simulation.spatial",
    "simulation.mobility",
    "simulation.stats",
    "simulation.node",
    "simulation.packet",
    "routing.aodv",
    "routing.dsr",
    "routing.base",
    "traffic.cbr",
    "traffic.tcp",
    "features.extraction",
    "features.traffic",
    "features.topology",
    "core.model",
    "core.discretization",
    "ml.decision_tree",
    "stream.replay",
    "stream.extractor",
    "stream.ring",
    "stream.detector",
    "stream.fleet",
    "attribution.attributor",
    "attribution.taxonomy",
    "attribution.changepoint",
    "attribution.contributions",
    "runtime.session",
    "runtime.cache",
)

#: Seconds of process CPU time between samples.
INTERVAL_S = 0.001

#: Buckets for samples that land in no listed module.
OTHER = "repro_other"
OUTSIDE = "outside"
BUCKETS = MODULES + (OTHER, OUTSIDE)


class Sampler:
    """Context manager sampling the main thread's stack on ``SIGPROF``.

    ``package_dir`` is the directory of the ``repro`` package being
    measured; frames are matched by file path, so a ``repro`` imported
    from anywhere else is not charged.  Re-entering accumulates into the
    same counts, so one sampler can cover several disjoint regions.
    """

    def __init__(self, package_dir: str | Path):
        self.prefix = str(Path(package_dir).resolve()) + "/"
        self.counts: Counter[str] = Counter()
        self.handler_s = 0.0
        self._buckets: dict[str, str | None] = {}
        self._previous = None

    def _bucket(self, filename: str) -> str | None:
        bucket = self._buckets.get(filename, "")
        if bucket != "":
            return bucket
        if filename.startswith(self.prefix) and filename.endswith(".py"):
            module = filename[len(self.prefix):-3].replace("/", ".")
            bucket = module if module in MODULES else OTHER
        else:
            bucket = None
        self._buckets[filename] = bucket
        return bucket

    def _handle(self, signum, frame) -> None:
        t0 = time.perf_counter()
        bucket = None
        while frame is not None:
            bucket = self._bucket(frame.f_code.co_filename)
            if bucket is not None:
                break
            frame = frame.f_back
        self.counts[bucket or OUTSIDE] += 1
        self.handler_s += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._handle)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    @property
    def samples(self) -> int:
        """Samples taken so far."""
        return sum(self.counts.values())

    def shares(self) -> dict[str, float]:
        """Percent of samples per bucket (all of :data:`BUCKETS`)."""
        total = self.samples
        return {
            name: (100.0 * self.counts.get(name, 0) / total if total else 0.0)
            for name in BUCKETS
        }
