"""Machine speed, measured alongside each timed operation.

On a shared host the CPU speed changes by tens of percent from one second to
the next, so raw times of the same work spread too widely to compare two
versions of a program.  `calibrate()` times a fixed piece of stdlib work that
no change to isoprof can move.  A `Meter` takes one calibration sample just
before an operation, one every INTERVAL_S while it runs (from a SIGALRM
handler, which Python runs between two bytecodes of the operation) and one
just after.  The operation's time, less the time the handler took, times
REFERENCE_S over the mean sample, is its time at the reference speed: the
speed at which `calibrate()` takes REFERENCE_S.
"""

import gc
import signal
from time import perf_counter

INTERVAL_S = 0.05
REFERENCE_S = 0.0012


def _depth(n):
    return 0 if n == 0 else 1 + _depth(n - 1)


def calibrate():
    """Seconds taken by a fixed piece of work, about 1 ms.

    The work mixes what isoprof's hot loops do: building and walking a dict
    of tuples, bit operations on a 300-bit integer (the kernels' sets),
    recursive calls (the searches) and list indexing.  It runs twice and
    only the second run is timed, so that it starts from warm caches whatever
    the program left in them; the cyclic collector is off meanwhile, so that
    no collection of the program's objects lands in a sample.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            t0 = perf_counter()
            table = {}
            for i in range(1500):
                table[(i, i ^ 5)] = i
            total = 0
            for key, value in table.items():
                total += key[0] * value
            mask = (1 << 300) - 1
            bits = 0
            for i in range(1500):
                bits = (bits | (1 << (i % 290))) & ~(mask >> (i % 7))
                if bits & (1 << (i % 13)):
                    bits ^= i
            for _ in range(15):
                _depth(60)
            cells = list(range(500))
            for i in range(1500):
                cells[i % 500] = cells[(i * 7) % 500] + 1
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def at_reference(seconds, samples):
    """`seconds` measured while calibrate() took `samples`, stated at the reference speed."""
    return seconds * REFERENCE_S * len(samples) / sum(samples)


class Meter:
    """Context manager that times its body and samples the speed it ran at.

    With `sample=False` only the two samples around the body are taken and
    no signal is used, so the body runs exactly as it would unmeasured.
    """

    def __init__(self, sample=True):
        self.sample = sample
        self.samples = []
        self.seconds = None  # the body's time, less the time spent in the handler
        self.spent = 0.0  # all time spent calibrating, inside the body and around it
        self._handler_s = 0.0

    def _calibrate(self):
        t0 = perf_counter()
        self.samples.append(calibrate())
        elapsed = perf_counter() - t0
        self.spent += elapsed
        return elapsed

    def _tick(self, signum, frame):
        self._handler_s += self._calibrate()

    def __enter__(self):
        self._calibrate()
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc_info):
        elapsed = perf_counter() - self._t0
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.seconds = elapsed - self._handler_s
        self._calibrate()
        return False
