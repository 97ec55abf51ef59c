"""Host-speed calibration for the benchmark's timings.

On a shared virtual machine the same code runs up to 40 % slower in spells
that last from under a second to minutes: neighbours compete for the core,
its caches and the memory bus, and process CPU time slows with the wall
clock, so it does not help. A run of 25 s cannot average out the longer
spells, and raw medians of the same code spread by up to 30 % across runs.

So the runner times a fixed workload that uses no tweetsent code (`Calibrator`)
before and after every child process, in its own process and on the same
CPU (`pin_to_one_cpu`): at the same moment the two vCPUs of this machine
often differ in speed by a third. A child's time is multiplied by
CAL_REF_S over the mean of the two calibration times around it, and reads
as the seconds it would take on a host where the calibration takes
CAL_REF_S. A change to tweetsent moves the scaled time in the same
proportion as the wall time; only the host's speed is divided out.
"""

from __future__ import annotations

import os
import random
import re
from time import perf_counter

CAL_REF_S = 0.15  # the calibration's seconds on a 2-CPU Xeon VM at full speed, Python 3.11
_TOKEN = re.compile(r"[#@]?\w+(?:'\w+)?")


class Calibrator:
    """Calling it returns the seconds of one calibration.

    The work is of the two kinds tweetsent does: short-text work
    (casefolding, regex tokenising, counting in a small dict) and n-gram-like
    counting of 60,000 tuple keys into a dict, then sorting it, with a
    working set larger than the CPU's caches; the second kind tracks the
    slow-downs of the memory-heavy workloads. The input is made once, from
    a fixed seed, and is the same for every benchmark seed.
    """

    def __init__(self) -> None:
        rng = random.Random(20200501)
        letters = "abcdefghijklmnopqrstuvwxyz"
        words = ["".join(rng.choices(letters, k=rng.randint(2, 10))) for _ in range(3000)]
        self.texts = [" ".join(rng.choices(words, k=rng.randint(6, 24))) + "!" for _ in range(1500)]
        self.keys = [(rng.randrange(400), rng.randrange(400), rng.randrange(400)) for _ in range(60_000)]

    def __call__(self) -> float:
        t0 = perf_counter()
        words: dict[str, int] = {}
        for text in self.texts:
            for token in _TOKEN.findall(text.casefold()):
                words[token] = words.get(token, 0) + 1
        grams: dict[tuple, int] = {}
        for key in self.keys:
            grams[key] = grams.get(key, 0) + 1
        sorted(grams.items(), key=lambda kv: (-kv[1], kv[0]))
        return perf_counter() - t0


def pin_to_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU, so that a
    calibration and the child it brackets run on the same one. tweetsent is
    single-process; a multi-process mode would need this lifted."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
