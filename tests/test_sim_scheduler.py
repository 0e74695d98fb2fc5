"""Unit tests for the preemptive fixed-priority multicore scheduler."""

import pytest

from repro.sim import (
    Compute,
    Ecu,
    MulticoreScheduler,
    Semaphore,
    Simulator,
    Sleep,
    SimThread,
    ThreadState,
    WaitSem,
    Yield,
    msec,
    usec,
)


def make_sched(n_cores=1, seed=0):
    sim = Simulator(seed=seed)
    sched = MulticoreScheduler(sim, n_cores=n_cores)
    return sim, sched


class TestSingleThread:
    def test_compute_completes_after_duration(self):
        sim, sched = make_sched()
        done = []

        def body(_):
            yield Compute(msec(5))
            done.append(sim.now)

        sched.spawn("t", body)
        sim.run()
        assert done == [msec(5)]

    def test_sequential_computes_accumulate(self):
        sim, sched = make_sched()
        marks = []

        def body(_):
            yield Compute(msec(2))
            marks.append(sim.now)
            yield Compute(msec(3))
            marks.append(sim.now)

        sched.spawn("t", body)
        sim.run()
        assert marks == [msec(2), msec(5)]

    def test_zero_compute_takes_no_time(self):
        sim, sched = make_sched()
        marks = []

        def body(_):
            yield Compute(0)
            marks.append(sim.now)

        sched.spawn("t", body)
        sim.run()
        assert marks == [0]

    def test_sleep_blocks_without_cpu(self):
        sim, sched = make_sched()
        marks = []

        def body(_):
            yield Sleep(msec(10))
            marks.append(sim.now)

        thread = sched.spawn("t", body)
        sim.run()
        assert marks == [msec(10)]
        assert thread.total_cpu_time == 0

    def test_cpu_time_is_charged(self):
        sim, sched = make_sched()

        def body(_):
            yield Compute(msec(4))
            yield Sleep(msec(10))
            yield Compute(msec(1))

        thread = sched.spawn("t", body)
        sim.run()
        assert thread.total_cpu_time == msec(5)
        assert thread.done

    def test_thread_state_done_after_completion(self):
        sim, sched = make_sched()

        def body(_):
            yield Compute(1)

        thread = sched.spawn("t", body)
        sim.run()
        assert thread.state is ThreadState.DONE


class TestPriorities:
    def test_higher_priority_runs_first(self):
        sim, sched = make_sched()
        order = []

        def body(name):
            def gen(_):
                yield Compute(msec(1))
                order.append(name)
            return gen

        sched.spawn("low", body("low"), priority=1)
        sched.spawn("high", body("high"), priority=10)
        sim.run()
        assert order == ["high", "low"]

    def test_preemption_delays_lower_priority_compute(self):
        sim, sched = make_sched()
        marks = {}

        def low(_):
            yield Compute(msec(10))
            marks["low"] = sim.now

        def high(_):
            yield Sleep(msec(3))
            yield Compute(msec(4))
            marks["high"] = sim.now

        sched.spawn("low", low, priority=1)
        sched.spawn("high", high, priority=10)
        sim.run()
        # High sleeps 3ms, computes 4ms -> done at 7ms.
        # Low computes 3ms, is preempted for 4ms, finishes remaining 7ms
        # at 3 + 4 + 7 = 14ms.
        assert marks["high"] == msec(7)
        assert marks["low"] == msec(14)

    def test_preemption_count_recorded(self):
        sim, sched = make_sched()

        def low(_):
            yield Compute(msec(10))

        def high(_):
            yield Sleep(msec(3))
            yield Compute(msec(4))

        # Spawn high first so low is not already preempted at t=0.
        sched.spawn("high", high, priority=10)
        t_low = sched.spawn("low", low, priority=1)
        sim.run()
        assert t_low.preemptions == 1

    def test_equal_priority_fifo_order(self):
        sim, sched = make_sched()
        order = []

        def body(name):
            def gen(_):
                yield Compute(msec(1))
                order.append(name)
            return gen

        sched.spawn("a", body("a"), priority=5)
        sched.spawn("b", body("b"), priority=5)
        sim.run()
        assert order == ["a", "b"]


class TestMulticore:
    def test_two_threads_run_in_parallel_on_two_cores(self):
        sim, sched = make_sched(n_cores=2)
        marks = {}

        def body(name):
            def gen(_):
                yield Compute(msec(5))
                marks[name] = sim.now
            return gen

        sched.spawn("a", body("a"))
        sched.spawn("b", body("b"))
        sim.run()
        assert marks == {"a": msec(5), "b": msec(5)}

    def test_third_thread_waits_for_a_core(self):
        sim, sched = make_sched(n_cores=2)
        marks = {}

        def body(name, dur):
            def gen(_):
                yield Compute(dur)
                marks[name] = sim.now
            return gen

        sched.spawn("a", body("a", msec(5)), priority=2)
        sched.spawn("b", body("b", msec(3)), priority=2)
        sched.spawn("c", body("c", msec(2)), priority=1)
        sim.run()
        assert marks["b"] == msec(3)
        assert marks["a"] == msec(5)
        # c starts when b's core frees at 3ms.
        assert marks["c"] == msec(5)

    def test_global_policy_allows_migration(self):
        sim, sched = make_sched(n_cores=2)
        cores_seen = []

        def spinner(_):
            yield Compute(msec(10))

        def migrator(thread):
            yield Compute(msec(1))
            cores_seen.append(thread.core_index)
            yield Sleep(usec(10))
            yield Compute(msec(1))
            cores_seen.append(thread.core_index)

        # Fill core 0 with a long spinner first, then observe the migrator.
        sched.spawn("spin", spinner, priority=5)
        sched.spawn("mig", migrator, priority=4)
        sim.run()
        assert len(cores_seen) == 2


class TestYield:
    def test_yield_rotates_equal_priority_threads(self):
        sim, sched = make_sched()
        order = []

        def a_body(_):
            yield Compute(msec(1))
            yield Yield()
            order.append("a-resumed")
            yield Compute(msec(1))

        def b_body(_):
            order.append("b-start")
            yield Compute(msec(1))
            order.append("b-done")

        sched.spawn("a", a_body, priority=5)
        sched.spawn("b", b_body, priority=5)
        sim.run()
        # After a yields at 1ms, b (waiting since t=0) runs to completion
        # before a is given the core again.
        assert order == ["b-start", "b-done", "a-resumed"]


class TestSemaphoreIntegration:
    def test_wait_then_post(self):
        sim, sched = make_sched()
        sem = Semaphore(sim)
        results = []

        def waiter(_):
            got = yield WaitSem(sem)
            results.append((got, sim.now))

        def poster(_):
            yield Sleep(msec(5))
            sem.post()

        sched.spawn("w", waiter, priority=5)
        sched.spawn("p", poster, priority=1)
        sim.run()
        assert results == [(True, msec(5))]

    def test_timedwait_times_out(self):
        sim, sched = make_sched()
        sem = Semaphore(sim)
        results = []

        def waiter(_):
            got = yield WaitSem(sem, timeout=msec(3))
            results.append((got, sim.now))

        sched.spawn("w", waiter)
        sim.run()
        assert results == [(False, msec(3))]

    def test_post_preempts_lower_priority_poster(self):
        """A post by a low-priority thread immediately schedules the
        high-priority waiter -- the monitor-thread mechanism."""
        sim, sched = make_sched()
        sem = Semaphore(sim)
        order = []

        def monitor(_):
            got = yield WaitSem(sem)
            assert got
            order.append(("monitor", sim.now))
            yield Compute(usec(10))
            order.append(("monitor-done", sim.now))

        def worker(_):
            yield Compute(msec(1))
            sem.post()
            yield Compute(msec(1))
            order.append(("worker-done", sim.now))

        sched.spawn("mon", monitor, priority=99)
        sched.spawn("wrk", worker, priority=1)
        sim.run()
        assert order[0] == ("monitor", msec(1))
        assert order[1] == ("monitor-done", msec(1) + usec(10))
        # Worker's second compute was delayed by the monitor's execution.
        assert order[2] == ("worker-done", msec(2) + usec(10))


class TestSpeedScaling:
    def test_half_speed_doubles_wall_time(self):
        sim, sched = make_sched()
        sched.cores[0].set_speed(0.5)
        marks = []

        def body(_):
            yield Compute(msec(4))
            marks.append(sim.now)

        sched.spawn("t", body)
        sim.run()
        assert marks == [msec(8)]

    def test_speed_change_mid_compute_rescales_remaining_work(self):
        sim, sched = make_sched()
        marks = []

        def body(_):
            yield Compute(msec(10))
            marks.append(sim.now)

        sched.spawn("t", body)
        # After 5ms at speed 1.0 (5ms work done), drop to 0.5: the
        # remaining 5ms of work takes 10ms of wall time.
        sim.schedule_at(msec(5), lambda: sched.cores[0].set_speed(0.5))
        sim.run()
        assert marks == [msec(15)]

    def test_invalid_speed_rejected(self):
        sim, sched = make_sched()
        with pytest.raises(ValueError):
            sched.cores[0].set_speed(0)


class TestAccounting:
    def test_busy_time_half(self):
        sim, sched = make_sched()

        def body(_):
            yield Compute(msec(5))

        thread = sched.spawn("t", body)
        sim.run(until=msec(10))
        assert sched.cores[0].busy_time == thread.total_cpu_time == msec(5)
        assert sim.now == msec(10)

    def test_thread_cannot_join_two_schedulers(self):
        sim, sched = make_sched()
        sched2 = MulticoreScheduler(sim, n_cores=1, name="other")
        thread = SimThread("t", lambda _: iter([]))
        sched.add_thread(thread, start=False)
        with pytest.raises(ValueError):
            sched2.add_thread(thread)


class TestEcu:
    def test_ecu_spawn_prefixes_thread_name(self):
        sim = Simulator()
        ecu = Ecu(sim, "ecu1", n_cores=2)
        thread = ecu.spawn("svc", lambda _: iter([]))
        assert thread.name == "ecu1.svc"

    def test_ecu_clock_reads_sim_time(self):
        sim = Simulator()
        ecu = Ecu(sim, "ecu1")
        sim.schedule_at(msec(3), lambda: None)
        sim.run()
        assert ecu.now() == msec(3)
