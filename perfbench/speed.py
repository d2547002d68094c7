"""The machine's current speed, measured with a fixed piece of work.

On the shared 2-vCPU guest this benchmark was built on, the same code runs
up to twice as fast in one minute as in the next.  `calibrate()` times a
fixed piece of stdlib work of the kind the program does (exact rationals,
tuple keys, dict updates); `scale()` converts a wall time measured among
calibrations into seconds at the reference speed, at which the calibration
takes REF_S.

The workloads do not speed up as much as the calibration does: across
rounds, their time went as the calibration's time to the power 0.37-0.67
(0.55 on exact, 0.67 on mc-zero, 0.37 on mc-shifted).  So the scaling uses
the square root of the speed ratio; full scaling over-corrected and spread
the results as much as no scaling.
"""
from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# The calibration's typical time on the reference machine (2-vCPU KVM guest,
# Python 3.11.7); it fixes the unit of the scaled times, not their spread.
REF_S = 0.025
# How a workload's time follows the calibration's (see above).
ELASTICITY = 0.5


def calibrate() -> float:
    """Seconds the fixed work takes now.  The cyclic garbage collector is
    off meanwhile: the work makes no cycles, and a collection over the heap
    that the workload keeps would time the heap, not the machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        table: dict = {}
        for i in range(2500):
            if i % 16 == 0:
                acc = Fraction(0)  # keeps the numbers small, as in the program
            acc += Fraction(i % 13 + 1, i % 11 + 2) * Fraction(1, 3)
            key = (i % 97, i % 89, i % 83)
            table[key] = table.get(key, 0) + acc
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, calibrations) -> float:
    """A wall time at the reference speed, given calibrations taken while
    it ran; their median ignores a calibration that a short burst slowed."""
    return seconds * (REF_S / statistics.median(calibrations)) ** ELASTICITY
