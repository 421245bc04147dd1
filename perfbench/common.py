"""Helpers shared by the benchmark's workloads."""

from __future__ import annotations

import resource
import time

import numpy as np


def derived_seed(root: int, *spawn_key: int) -> int:
    """One integer seed from a position in a SeedSequence spawn tree."""
    sequence = np.random.SeedSequence(int(root), spawn_key=spawn_key)
    return int(sequence.generate_state(1, np.uint64)[0] >> 1)


def peak_rss_mb(children: bool = False) -> float:
    """Peak RSS of this process in MiB, plus its largest waited-for child."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


_PROBE_DATA = np.random.default_rng(0).normal(size=(150, 40))


def speed_probe() -> float:
    """Seconds a fixed reference computation takes on this host right now.

    The computation mixes small numpy kernels with interpreted Python, like
    the causal-discovery loop, and does not touch the program under test.
    """
    began = time.perf_counter()
    total = 0.0
    for column in range(32):
        total += float(np.corrcoef(_PROBE_DATA.T)[0, column])
        total += float(np.linalg.lstsq(_PROBE_DATA[:, :12],
                                       _PROBE_DATA[:, 12 + column % 28],
                                       rcond=None)[0][0])
        total += sum(i * 0.5 for i in range(3000))
    return time.perf_counter() - began


# Seconds speed_probe() takes on the reference host; timings rescaled with
# host_scaled() read as if measured there.
PROBE_REFERENCE_S = 0.010


def host_scaled(seconds: float, probe_before: float,
                probe_after: float) -> float:
    """``seconds`` measured between two probes, rescaled to the reference.

    A shared host's speed moves by tens of percent within seconds and
    between minutes; work timed between two probes is divided by the
    host's slowdown at that time, their mean over PROBE_REFERENCE_S.
    """
    return seconds * PROBE_REFERENCE_S / ((probe_before + probe_after) / 2.0)


def percentile_ms(seconds, q: float) -> float:
    """The ``q``-th percentile of a list of durations, in milliseconds."""
    return float(np.percentile(np.asarray(seconds, dtype=float), q)) * 1e3
