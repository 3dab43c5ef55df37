"""``start_workers`` / ``stop_workers`` / ``serve_fleet``: one way to run
a fleet's engines on their sources and to stop them again."""

import asyncio

from repro.control import (
    ControlClient,
    FleetController,
    serve_fleet,
    start_workers,
    stop_workers,
)

from test_controller import make_packet, make_worker


async def paced(stop, fail_after=None):
    """Synthetic traffic until ``stop``; raises after ``fail_after`` items."""
    i = 0
    while not stop.is_set():
        if fail_after is not None and i == fail_after:
            raise RuntimeError("source broke")
        yield make_packet(ts=float(i)), None
        i += 1
        if i % 4 == 0:
            await asyncio.sleep(0.002)


class TestStartStop:
    def test_named_tasks_and_dead_workers_reported(self):
        async def scenario():
            stop = asyncio.Event()
            workers = [make_worker("w0"), make_worker("w1")]
            start_workers(workers, lambda worker: paced(
                stop, fail_after=5 if worker.name == "w1" else None))
            names = [worker.task.get_name() for worker in workers]
            await asyncio.sleep(0.2)
            dead = await stop_workers(workers, stop)
            return stop, workers, names, dead

        stop, workers, names, dead = asyncio.run(scenario())
        assert names == ["fleet-w0", "fleet-w1"]
        assert stop.is_set()
        assert all(worker.task.done() for worker in workers)
        assert [(worker.name, str(error)) for worker, error in dead] == [
            ("w1", "source broke")]
        assert workers[0].engine.stats.packets > 0

    def test_unstarted_workers_are_skipped(self):
        async def scenario():
            return await stop_workers([make_worker("w0")], asyncio.Event())

        assert asyncio.run(scenario()) == []


class TestServeFleet:
    def test_serves_until_done_then_stops_everything(self):
        async def scenario():
            workers = [make_worker("w0"), make_worker("w1")]
            controller = FleetController(workers)
            seen = {}

            async def until(port):
                await asyncio.sleep(0.2)
                seen["fleet"] = await ControlClient("127.0.0.1", port).fleet()
                seen["alive"] = [worker.alive() for worker in workers]

            dead = await serve_fleet(controller, paced, until)
            return workers, seen, dead

        workers, seen, dead = asyncio.run(scenario())
        assert dead == []
        assert seen["alive"] == [True, True]
        assert sorted(w["name"] for w in seen["fleet"]["workers"]) == ["w0", "w1"]
        assert not any(worker.alive() for worker in workers)
        assert all(worker.engine.stats.packets > 0 for worker in workers)

    def test_stops_the_fleet_when_until_raises(self):
        async def scenario():
            workers = [make_worker("w0")]

            async def until(port):
                await asyncio.sleep(0.05)
                raise KeyError("leg failed")

            try:
                await serve_fleet(FleetController(workers), paced, until)
            except KeyError:
                return workers
            raise AssertionError("serve_fleet swallowed the error")

        workers = asyncio.run(scenario())
        assert workers[0].task.done()
