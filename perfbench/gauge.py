"""A host-speed gauge that runs alongside the measured work, in its process.

The host this benchmark runs on changes speed in spells that last from
seconds to minutes: the same pass can take 1.3x its usual time in one
minute and 0.7x in the next.  A timing taken alone mixes that drift with the
program's own speed.  The gauge times a fixed reference chunk of work, which
touches no gpdkit code, every ``interval`` seconds of wall time while the
measured work runs.  A timer signal interrupts the work between two
bytecodes, so chunk and work share the same CPU and the same spell.

A measured time divided by the mean chunk time of the same stretch is the
work in chunk units, which holds still when the host speeds up or slows
down.  The gauge keeps a running total of the time its chunks took, so the
caller can take that time out of what it measured.

No thread and no child process: the chunks run in the signal handler.
"""

import gc
import random
import signal
import statistics
import time


class HostGauge:
    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (end, seconds) of each chunk
        self.busy = 0.0  # seconds spent in chunks and their handler so far
        rng = random.Random(0)
        self._keys = [(rng.randrange(997), rng.randrange(991), i) for i in range(256)]
        self._perm = list(range(4096))
        rng.shuffle(self._perm)
        self._table = [rng.randrange(1 << 20) for _ in range(4096)]
        self._previous = None

    def chunk(self) -> int:
        """The reference work: tuple hashing, dict traffic and scattered reads."""
        d = {}
        for k in self._keys:
            d[k] = len(d)
        acc = 0
        for k in self._keys:
            acc += d[k]
        table, perm = self._table, self._perm
        for i in perm[:1024]:
            acc = (acc + table[i]) & 0xFFFFF
        return acc

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        # The cyclic collector would make a chunk's time depend on how many
        # objects the measured work holds, so it is held off meanwhile.
        collecting = gc.isenabled()
        gc.disable()
        # The first run brings the chunk's data back into cache after the
        # measured work evicted it; only the second is timed, so the reading
        # follows the host's speed rather than the work's memory footprint.
        self.chunk()
        t1 = time.perf_counter()
        self.chunk()
        t2 = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((t2, t2 - t1))
        self.busy += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def chunk_s(self, start: float, end: float) -> float | None:
        """Mean chunk time between two perf_counter readings, or None.

        The work between chunks is slowed by the host's mean slowdown over
        the stretch, so the mean is taken, not the median; the slowest tenth
        of the chunks, which the OS interrupted, is left out.
        """
        inside = sorted(s for t, s in self.samples if start <= t <= end)
        return statistics.fmean(inside[:max(1, len(inside) * 9 // 10)]) if inside else None
