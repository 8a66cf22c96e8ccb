"""Operations, rounds and the host-speed calibration.

An operation pairs a timed call into topocode with an untimed check of its
output.  A round runs a workload's operations once, in order, in a closed
loop: each call starts when the previous operation has been checked.

On a shared host the same Python code can run up to twice as slowly, and
the speed changes within milliseconds as well as over minutes.  A fixed
pure-Python calibration kernel, run right before and right after each call,
slows down with it.  Latencies are therefore reported at the reference
speed: measured seconds times REFERENCE_KERNEL_S over the mean of the
kernel's time before and after the call.  For a short call that is the run
right next to it; for a long one, the median of the last few runs, since a
single run right next to a long call says little about the speed during it.
"""

from __future__ import annotations

import io
import math
import statistics
import time
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

# the calibration kernel's time at the reference speed (about its fastest
# time on a 2.1 GHz 2-core shared host under Python 3.11)
REFERENCE_KERNEL_S = 0.00075
# a call shorter than this in the warm-up round is short; a short
# operation's timing scatters most, so it is called SHORT_CALLS times a round
SHORT_S = 0.005
SHORT_CALLS = 3
KERNEL_WINDOW = 9


def calibration_kernel() -> int:
    """Fixed interpreter work: dict updates, integer arithmetic, sorting,
    string joins, a bytes generator and big-integer division."""
    d: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        k = i % 97
        d[k] = d.get(k, 0) + i
        acc += (i * 7) % 13
    text = "".join(str(v) for v in sorted(d.values(), reverse=True))
    data = bytes((x + 3) % 256 for x in range(2000))
    big = math.factorial(500)
    for i in range(300, 312):
        acc += divmod(big, math.factorial(i))[1] & 0xFF
    return acc + len(text) + len(data)


def kernel_seconds() -> float:
    """One timed run of the calibration kernel."""
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def at_reference_speed(seconds: float, kernel_before: float, kernel_after: float) -> float:
    return seconds * REFERENCE_KERNEL_S * 2 / (kernel_before + kernel_after)


class Speed:
    """The kernel's times, one run before and one after every call."""

    def __init__(self) -> None:
        self._recent: deque[float] = deque(maxlen=KERNEL_WINDOW)

    def kernel(self, short: bool) -> float:
        """Run the kernel once.  Returns its time for a short call, whose
        speed is that of the moment, and the median of the last
        KERNEL_WINDOW runs for a long call, which spans many changes."""
        seconds = kernel_seconds()
        self._recent.append(seconds)
        return seconds if short else statistics.median(self._recent)


@dataclass(frozen=True)
class Fault:
    """A named program fault and the failure it causes: the start of the
    failure reason, `<exception type>: <message>`.  A failure with another
    reason is unexpected."""

    name: str
    reason: str


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    # the program fault expected to make this operation fail
    fault: Fault | None = None


@dataclass
class Tally:
    # latencies[i] holds operation i's latency, at the reference speed, in
    # every timed round run so far
    latencies: list[list[float]]
    # passes[i] counts the rounds in which operation i was checked correct
    passes: list[int]
    # short[i]: operation i took less than SHORT_S in the warm-up round
    short: list[bool]
    speed: Speed = field(default_factory=Speed)
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    mended: set[str] = field(default_factory=set)

    @staticmethod
    def of(ops: list[Op]) -> "Tally":
        return Tally([[] for _ in ops], [0] * len(ops), [False] * len(ops))

    def end_warm_up(self) -> None:
        """Mark the operations that were short in the warm-up round and
        discard its latencies."""
        self.short = [samples[-1] < SHORT_S for samples in self.latencies]
        for samples in self.latencies:
            samples.clear()

    def typical(self) -> list[float]:
        """Each operation's mean latency over the timed rounds.  A run makes
        2 or more rounds, as the host's speed allows; a median of 2 is a
        mean, while a median of 3 falls below the mean of timings skewed
        towards slow, so a median would move with the number of rounds."""
        return [statistics.fmean(samples) for samples in self.latencies]

    def completed_per_s(self) -> float:
        """Checked operations completed per round over the summed mean
        latencies of the operations that completed.  A failing operation's
        time is left out: it is counted in `failed`, and one long failing
        search would otherwise set the figure's noise."""
        typical = self.typical()
        busy = sum(t for t, passes in zip(typical, self.passes) if passes)
        return sum(self.passes) / self.rounds / busy


def run_round(ops: list[Op], tally: Tally) -> None:
    """Attempt every operation once, in order.  A short operation is called
    SHORT_CALLS times in a row, each output checked, and its latency is the
    median of its calls.  An attempt stops at its first failure."""
    tally.rounds += 1
    for i, (op, samples) in enumerate(zip(ops, tally.latencies)):
        tally.attempted += 1
        short = tally.short[i]
        times: list[float] = []
        ok = True
        while ok and len(times) < (SHORT_CALLS if short else 1):
            ok = _call(op, tally, short, times)
        samples.append(statistics.median(times))
        if ok:
            tally.passes[i] += 1
            if op.fault is not None:
                tally.mended.add(f"{op.name} ({op.fault.name})")


def _call(op: Op, tally: Tally, short: bool, times: list[float]) -> bool:
    """Call and check the operation once and append its latency at the
    reference speed; False when it failed."""
    before = tally.speed.kernel(short)
    start = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # the program raised: the operation failed
        times.append(at_reference_speed(time.perf_counter() - start, before, tally.speed.kernel(short)))
        _fail(tally, op, f"{type(exc).__name__}: {exc}")
        return False
    times.append(at_reference_speed(time.perf_counter() - start, before, tally.speed.kernel(short)))
    try:
        op.check(out)
    except Exception as exc:  # a wrong output, or one the check cannot read
        _fail(tally, op, f"{type(exc).__name__}: {exc}")
        return False
    return True


def _fail(tally: Tally, op: Op, reason: str) -> None:
    tally.failed += 1
    if op.fault is not None and reason.startswith(op.fault.reason):
        return
    if len(tally.unexpected) < 20:
        expected = "" if op.fault is None else f" (expected {op.fault.reason!r})"
        tally.unexpected.append(f"{op.name}: {reason}{expected}")


def run_cli(main: Callable[[list[str]], int], argv: list[str]) -> tuple[object, str, str]:
    """Run the CLI in-process; returns (exit code, stdout, stderr).  Any
    exception other than SystemExit propagates, as it would as a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()
