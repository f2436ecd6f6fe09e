"""Self time subtracts nested wrapped calls and keeps threads apart."""

import threading

import pytest

from layers import SEARCH, bound_sites, install
from selftime import Patcher, SelfTimer


class VirtualClock:
    """Per-thread virtual time that only the code under test advances."""

    def __init__(self) -> None:
        self._local = threading.local()

    def __call__(self) -> float:
        return getattr(self._local, "now", 0.0)

    def advance(self, seconds: float) -> None:
        self._local.now = self() + seconds


def test_nested_calls_are_subtracted_from_the_parent():
    clock = VirtualClock()
    timer = SelfTimer(clock)
    inner = timer.wrap("inner", lambda: clock.advance(3.0))

    def outer_body():
        clock.advance(1.0)
        inner()
        inner()
        clock.advance(0.5)

    outer = timer.wrap("outer", outer_body)
    with timer.collect() as table:
        outer()
    assert table["self"]["outer"] == pytest.approx(1.5)
    assert table["self"]["inner"] == pytest.approx(6.0)
    assert table["calls"] == {"outer": 1, "inner": 2}


def test_threads_keep_separate_stacks():
    """Thread B's call, made while A is inside ``outer``, is not A's child."""
    clock = VirtualClock()
    timer = SelfTimer(clock)
    a_inside, b_done = threading.Event(), threading.Event()
    inner = timer.wrap("inner", lambda: clock.advance(4.0))

    def outer_body():
        clock.advance(1.0)
        a_inside.set()
        assert b_done.wait(10)
        clock.advance(1.0)

    outer = timer.wrap("outer", outer_body)
    tables = {}

    def thread_a():
        with timer.collect() as table:
            outer()
        tables["a"] = table

    def thread_b():
        assert a_inside.wait(10)
        with timer.collect() as table:
            inner()
        tables["b"] = table
        b_done.set()

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    assert dict(tables["a"]["self"]) == {"outer": pytest.approx(2.0)}
    assert dict(tables["b"]["self"]) == {"inner": pytest.approx(4.0)}


def test_inactive_threads_are_not_charged():
    timer = SelfTimer()
    f = timer.wrap("f", lambda x: x + 1)
    assert f(1) == 2
    assert timer.table()["calls"] == {}


def test_install_patches_every_binding_and_restores():
    import repro.core.matching as matching
    import repro.parallel.parallel_sma as parallel_sma
    from repro.core.continuous import solve_accumulated

    sites = bound_sites(solve_accumulated)
    assert ("repro.core.matching", "solve_accumulated") in sites
    assert ("repro.parallel.parallel_sma", "solve_accumulated") in sites
    timer = SelfTimer()
    with Patcher() as patcher:
        install(timer, patcher, SEARCH)
        assert matching.solve_accumulated is parallel_sma.solve_accumulated
        assert matching.solve_accumulated is not solve_accumulated
        assert bound_sites(solve_accumulated) == []
    assert matching.solve_accumulated is solve_accumulated
    assert bound_sites(solve_accumulated) == sites
