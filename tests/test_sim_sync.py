"""Unit tests for semaphores (timed wait, wake order)."""

from repro.sim import (
    Compute,
    MulticoreScheduler,
    Semaphore,
    Simulator,
    Sleep,
    WaitSem,
    msec,
)


def make():
    sim = Simulator()
    sched = MulticoreScheduler(sim, n_cores=1)
    return sim, sched


class TestSemaphoreBasics:
    def test_initial_count_allows_immediate_acquire(self):
        sim, sched = make()
        sem = Semaphore(sim)
        sem.post()
        sem.post()
        acquired = []

        def body(_):
            acquired.append((yield WaitSem(sem)))
            acquired.append((yield WaitSem(sem)))

        sched.spawn("t", body)
        sim.run()
        assert acquired == [True, True]
        assert sim.now == 0
        assert sem.count == 0

    def test_post_without_waiter_increments_count(self):
        sim, _ = make()
        sem = Semaphore(sim)
        sem.post()
        sem.post()
        assert sem.count == 2

    def test_posts_are_counted(self):
        sim, _ = make()
        sem = Semaphore(sim)
        sem.post()
        assert sem.posts == 1


class TestSemaphoreWakeOrder:
    def test_highest_priority_waiter_wakes_first(self):
        sim, sched = make()
        sem = Semaphore(sim)
        woken = []

        def waiter(name):
            def gen(_):
                yield WaitSem(sem)
                woken.append(name)
            return gen

        sched.spawn("low", waiter("low"), priority=1)
        sched.spawn("high", waiter("high"), priority=10)
        sim.schedule_at(msec(1), sem.post)
        sim.schedule_at(msec(2), sem.post)
        sim.run()
        assert woken == ["high", "low"]

    def test_fifo_among_equal_priority(self):
        sim, sched = make()
        sem = Semaphore(sim)
        woken = []

        def waiter(name):
            def gen(_):
                yield WaitSem(sem)
                woken.append(name)
            return gen

        sched.spawn("first", waiter("first"), priority=5)
        sched.spawn("second", waiter("second"), priority=5)
        sim.schedule_at(msec(1), sem.post)
        sim.schedule_at(msec(2), sem.post)
        sim.run()
        assert woken == ["first", "second"]


class TestSemaphoreTimeout:
    def test_timeout_returns_false_at_deadline(self):
        sim, sched = make()
        sem = Semaphore(sim)
        results = []

        def body(_):
            results.append(((yield WaitSem(sem, timeout=msec(7))), sim.now))

        sched.spawn("t", body)
        sim.run()
        assert results == [(False, msec(7))]
        assert sem.timeouts == 1

    def test_post_before_timeout_cancels_it(self):
        sim, sched = make()
        sem = Semaphore(sim)
        results = []

        def body(_):
            results.append(((yield WaitSem(sem, timeout=msec(7))), sim.now))

        sched.spawn("t", body)
        sim.schedule_at(msec(3), sem.post)
        sim.run()
        assert results == [(True, msec(3))]
        assert sem.timeouts == 0

    def test_timed_wait_loop_monitor_pattern(self):
        """The paper's monitor loop: repeated sem_timedwait with periodic
        posts interleaved with timeouts."""
        sim, sched = make()
        sem = Semaphore(sim)
        outcomes = []

        def monitor(_):
            for _round in range(4):
                got = yield WaitSem(sem, timeout=msec(10))
                outcomes.append((got, sim.now))

        sched.spawn("mon", monitor, priority=99)
        sim.schedule_at(msec(4), sem.post)   # round 1: acquired at 4ms
        # round 2: times out at 14ms
        sim.schedule_at(msec(20), sem.post)  # round 3: acquired at 20ms
        # round 4: times out at 30ms
        sim.run()
        assert outcomes == [
            (True, msec(4)),
            (False, msec(14)),
            (True, msec(20)),
            (False, msec(30)),
        ]


class TestSemaphoreStress:
    def test_producer_consumer_counts_match(self):
        sim, sched = make()
        sem = Semaphore(sim)
        consumed = []

        def producer(_):
            for _i in range(50):
                yield Sleep(msec(1))
                sem.post()

        def consumer(_):
            for _i in range(50):
                yield WaitSem(sem)
                consumed.append(sim.now)
                yield Compute(msec(0.2))

        sched.spawn("prod", producer, priority=5)
        sched.spawn("cons", consumer, priority=4)
        sim.run()
        assert len(consumed) == 50
