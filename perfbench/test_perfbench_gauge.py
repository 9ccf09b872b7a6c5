"""The host-speed gauge samples while work runs and leaves no timer behind."""

import signal
import time

from gauge import HostGauge
from run import NOMINAL_CHUNK_S, at_nominal_speed


def busy_loop(seconds: float) -> int:
    acc, end = 0, time.perf_counter() + seconds
    while time.perf_counter() < end:
        acc = (acc * 31 + 7) % 1_000_003
    return acc


def test_gauge_samples_during_work_and_accounts_its_time():
    with HostGauge(interval=0.01) as gauge:
        t0 = time.perf_counter()
        busy_loop(0.3)
        t1 = time.perf_counter()
    assert len(gauge.samples) >= 10
    assert 0 < gauge.busy < (t1 - t0) / 2
    assert 0 < gauge.chunk_s(t0, t1) < 0.01
    assert gauge.chunk_s(t1 + 1, t1 + 2) is None


def test_gauge_restores_the_previous_handler_and_stops_its_timer():
    before = signal.getsignal(signal.SIGALRM)
    with HostGauge(interval=0.01):
        busy_loop(0.05)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_scaling_to_the_nominal_speed():
    assert at_nominal_speed(2.0, NOMINAL_CHUNK_S) == 2.0
    assert at_nominal_speed(2.0, 2 * NOMINAL_CHUNK_S) == 1.0
