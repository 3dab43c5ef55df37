"""Command-line compiler and server: ``python -m repro.cli``.

Compiles a built-in application, or a CSV train/test pair (the Figure-3
file format), for a chosen target and writes the deployment bundle::

    python -m repro.cli --app ad --target taurus --budget 20 --out build/
    python -m repro.cli --train my_train.csv --test my_test.csv --name myapp

The subcommands serve, control, adapt and inspect what the compiler
produces; the train-and-serve setup behind them is :mod:`repro.scenario`::

    python -m repro.cli serve --pipelines bd,ad --flows 300 \\
        --batch-size 256 --max-latency-us 2000 --queue-depth 1024 \\
        --drop-policy head-drop --priorities bd=4,ad=1 --swap-after 2000
    python -m repro.cli control serve --workers 2 --port 8300
    python -m repro.cli control deploy --port 8300 --version v1
    python -m repro.cli control split --port 8300 --weights w0=4,w1=1
    python -m repro.cli adapt --flows 60 --duration 90
    python -m repro.cli fabric plan --spec examples/fabric_pod.json \\
        --out build/plan.json --shards 4
    python -m repro.cli fabric deploy --plan build/plan.json --flows 60
    python -m repro.cli obs tail -n 20        # spans of a REPRO_OBS=1 run

``control`` also has ``fleet`` and ``rollback``, ``fabric`` has
``report``, and ``obs`` has ``summary`` and ``export``.  See
``docs/serving.md``, ``docs/control.md``, ``docs/adaptation.md``,
``docs/fabric.md`` and ``docs/observability.md`` for each knob.
"""

from __future__ import annotations

import argparse
import gc
import sys

import repro
from repro.backends.registry import available_backends, resolve_backend_name
from repro.core.export import export_report
from repro.distrib.launchers import LAUNCHERS
from repro.distrib.runspec import APP_SPECS
from repro.obs import flush_on_exit
# Kept importable under its old name: scripts arm the signal flush with it.
from repro.obs import install_obs_flush as _install_obs_flush  # noqa: F401
from repro.scenario import (
    TRACE_SEED_OFFSET,
    botnet_trace,
    serving_extractor,
    serving_pipeline,
)
from repro.serving import DROP_POLICIES


def _below_minimum(checks: list) -> bool:
    """Print ``error: FLAG must be >= MIN`` for the first failing
    ``(flag, value, minimum)`` check; True when one failed."""
    for flag, value, minimum in checks:
        if value < minimum:
            print(f"error: {flag} must be >= {minimum}", file=sys.stderr)
            return True
    return False


def _parse_weights(spec: str, names: "list | None" = None) -> dict:
    """``'a=4,b=1'`` -> ``{name: weight >= 1}``, names within ``names``
    when given; a bad pair raises :class:`ValueError` naming it."""
    weights = {}
    for part in filter(None, (part.strip() for part in spec.split(","))):
        name, _, value = part.partition("=")
        name = name.strip()
        try:
            weight = int(value)
        except ValueError:
            raise ValueError(part) from None
        if not name or weight < 1 or (names is not None and name not in names):
            raise ValueError(part)
        weights[name] = weight
    return weights


def _verb(group: str, actions: tuple, argv, build) -> tuple:
    """Split ``argv`` into one of ``actions`` and its args parsed by
    ``build(action)``; ``(None, None)`` after printing the error for an
    unknown verb."""
    argv = list(argv or [])
    if not argv or argv[0] not in actions:
        print(f"error: {group} wants one of {', '.join(actions)}",
              file=sys.stderr)
        return None, None
    return argv[0], build(argv[0]).parse_args(argv[1:])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Homunculus: compile a data-plane ML pipeline.",
        epilog="Subcommand: 'repro.cli serve ...' runs compiled pipelines "
               "over a replayed packet stream through the async serving "
               "runtime ('repro.cli serve --help' for its flags).",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--app", choices=sorted(APP_SPECS), help="built-in application")
    source.add_argument("--train", help="training CSV (with --test)")
    parser.add_argument("--test", help="test CSV (with --train)")
    parser.add_argument("--name", default="pipeline", help="model name for CSV input")
    parser.add_argument("--target", default="taurus",
                        help="backend target (one of: %s); resolved through the shared "
                             "backend registry" % ", ".join(available_backends()))
    parser.add_argument("--algorithm", action="append", default=None,
                        help="candidate algorithm (repeatable; default: let Homunculus choose)")
    parser.add_argument("--metric", default="f1",
                        choices=["f1", "accuracy", "v_measure"])
    parser.add_argument("--budget", type=int, default=20)
    parser.add_argument("--throughput", type=float, default=None,
                        help="minimum Gpkt/s")
    parser.add_argument("--latency", type=float, default=None, help="max ns")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="deployment bundle directory")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for persistent evaluation-cache JSON spills")
    parser.add_argument("--shards", type=int, default=1,
                        help="partition the search into this many shards "
                             "(results identical to --shards 1; see docs/distrib.md)")
    parser.add_argument("--launcher", default=None, choices=sorted(LAUNCHERS),
                        help="how shards execute: inprocess threads, one subprocess per "
                             "shard, or a work-queue directory N machines can drain "
                             "(default: inprocess)")
    parser.add_argument("--shard-dir", default=None,
                        help="scratch directory for shard task/result/spill files "
                             "(subprocess + workqueue launchers; default: a temp dir)")
    parser.add_argument("--starts", type=int, default=1,
                        help="multi-start search: independent BO trajectories per "
                             "algorithm family, best kept (sharded runs only)")
    parser.add_argument("--max-retries", type=int, default=0,
                        help="re-post a failed task this many times (attempt-suffixed "
                             "names) before aborting; surviving results are always kept")
    parser.add_argument("--stale-after", type=float, default=60.0,
                        help="workqueue launcher: requeue a claim once its worker "
                             "heartbeat lags this many seconds (0 disables the reaper)")
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli serve",
        description="Serve compiled pipelines over a replayed packet stream.",
    )
    parser.add_argument("--pipelines", default="bd",
                        help="comma-separated subset of {ad,tc,bd} sharing one ingest stream")
    parser.add_argument("--flows", type=int, default=200,
                        help="botnet/benign flows to replay")
    parser.add_argument("--batch-size", type=int, default=256,
                        help="inference micro-batch size")
    parser.add_argument("--max-latency-us", type=float, default=None,
                        help="micro-batch deadline: flush partial batches after this many "
                             "microseconds (default: batch by size only)")
    parser.add_argument("--queue-depth", type=int, default=1024,
                        help="bounded stage-queue depth (packets)")
    parser.add_argument("--drop-policy", default="block", choices=sorted(DROP_POLICIES),
                        help="ingress behaviour when the queue is full")
    parser.add_argument("--infer-workers", type=int, default=2,
                        help="inference batches in flight")
    parser.add_argument("--priorities", default=None,
                        help="per-route weights, e.g. 'bd=4,ad=1': weighted "
                             "deficit-round-robin split of extraction capacity "
                             "(default: every route weight 1)")
    parser.add_argument("--swap-after", type=int, default=None,
                        help="hitless-upgrade demo: after this many replayed packets, "
                             "retrain v2 pipelines and rolling-swap every route live")
    parser.add_argument("--speed", type=float, default=0.0,
                        help="replay pacing multiplier over capture time (0 = unpaced)")
    parser.add_argument("--device-us", type=float, default=0.0,
                        help="emulated per-batch device round trip in microseconds "
                             "(0 = functional simulation only)")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def serve_main(argv: "list | None" = None) -> int:
    args = build_serve_parser().parse_args(argv)
    names = [n.strip() for n in args.pipelines.split(",") if n.strip()]
    unknown = sorted(set(names) - set(APP_SPECS))
    if unknown or not names:
        print(f"error: --pipelines must name ad, tc and/or bd, got "
              f"{args.pipelines!r}", file=sys.stderr)
        return 2
    if len(names) != len(set(names)):
        print("error: duplicate pipeline names", file=sys.stderr)
        return 2
    if _below_minimum([
        ("--flows", args.flows, 2),
        ("--batch-size", args.batch_size, 1),
        ("--queue-depth", args.queue_depth, 1),
        ("--infer-workers", args.infer_workers, 1),
    ]):
        return 2
    if args.speed < 0 or args.device_us < 0:
        print("error: --speed and --device-us must be >= 0", file=sys.stderr)
        return 2
    if args.max_latency_us is not None and args.max_latency_us <= 0:
        print("error: --max-latency-us must be positive", file=sys.stderr)
        return 2
    try:
        weights = _parse_weights(args.priorities or "", names)
    except ValueError as exc:
        print(f"error: --priorities wants 'route=weight,...' over "
              f"{{{','.join(names)}}} with weights >= 1, got {exc}",
              file=sys.stderr)
        return 2
    if args.swap_after is not None and args.swap_after < 1:
        print("error: --swap-after must be >= 1", file=sys.stderr)
        return 2

    from repro.serving import AsyncStreamEngine, PipelineRouter, Route, TimedPipeline

    print(f"training baseline pipelines: {', '.join(names)} ...")
    routes = []
    for name in names:
        pipeline, _ = serving_pipeline(name, args.seed)
        if args.device_us > 0:
            pipeline = TimedPipeline(pipeline, per_batch_s=args.device_us * 1e-6)
        engine = AsyncStreamEngine(
            pipeline, serving_extractor(name), batch_size=args.batch_size,
            max_latency=(args.max_latency_us * 1e-6
                         if args.max_latency_us is not None else None),
            queue_depth=args.queue_depth, drop_policy=args.drop_policy,
            infer_workers=args.infer_workers,
        )
        routes.append(Route(name, engine, weight=weights.get(name, 1)))
    router = PipelineRouter(routes)
    if weights:
        print("route weights: " + ", ".join(
            f"{route.name}={route.weight}" for route in routes))

    # ad and bd are labeled by the stream; tc classifies device classes
    # this capture has no ground truth for.
    packets, labels = botnet_trace(args.flows, args.seed + TRACE_SEED_OFFSET)
    labels = [dict.fromkeys(("ad", "bd"), label) for label in labels]
    span = packets[-1].timestamp - packets[0].timestamp if len(packets) > 1 else 0.0
    if args.speed > 0:
        pacing = (f"{args.speed:g}x pacing, ~{span / args.speed:.0f} s "
                  f"of wall clock for {span:.0f} s of capture")
    else:
        pacing = "unpaced"
    print(f"replaying {len(packets)} packets across {args.flows} flows ({pacing})")

    with flush_on_exit():
        v2 = None
        if args.swap_after is not None:
            print(f"hitless upgrade armed: rolling swap after "
                  f"{args.swap_after} packets")
            v2 = {name: serving_pipeline(name, args.seed + 1)[0]
                  for name in names}
        # Set-up garbage (training, the trace) is collected now and the
        # survivors frozen, so no full collection pauses the replay and
        # lands its pause on every packet in flight.
        gc.collect()
        gc.freeze()
        try:
            if v2 is not None:
                _replay_with_swap(router, packets, labels, v2, args)
            else:
                router.process(packets, labels, speed=args.speed)
        finally:
            gc.unfreeze()
    for name in names:
        summary = router.stats[name].summary()
        accuracy = (f"{summary['accuracy']:.3f}"
                    if summary["accuracy"] is not None else "n/a")
        print(f"\n[{name}] {summary['packets']} packets, "
              f"{summary['throughput_pps']:.0f} pkt/s, accuracy {accuracy}")
        print(f"  batches: {summary['batches']} "
              f"(mean {summary['mean_batch']:.1f} rows, "
              f"{summary['deadline_flushes']} deadline flushes)")
        print(f"  latency us: p50 {summary['latency_p50_us']:.0f}  "
              f"p95 {summary['latency_p95_us']:.0f}  "
              f"p99 {summary['latency_p99_us']:.0f}")
        print(f"  queue depth max: {summary['queue_max_depth']}  "
              f"drops: {summary['drops'] or 0}")
        if summary["swaps"]:
            print(f"  pipeline swaps: {summary['swaps']} (hitless: "
                  f"{summary['dropped']} dropped)")
    return 0


def _replay_with_swap(router, packets, labels, v2: dict, args) -> None:
    """Replay through ``router``, rolling-swapping every route to ``v2``
    once ``--swap-after`` packets have gone in."""
    import asyncio

    from repro.serving import replay

    async def run() -> None:
        swaps = []

        async def source():
            count = 0
            async for item in replay(packets, labels, speed=args.speed):
                yield item
                count += 1
                if count == args.swap_after:
                    swaps.append(asyncio.create_task(router.rolling_swap(v2)))

        await router.run(source())
        if swaps:
            await swaps[0]
            print("rolling swap completed: "
                  + ", ".join(f"{n} -> v2" for n in sorted(v2)))
        else:
            print("stream ended before --swap-after packets; no swap")

    asyncio.run(run())


def build_control_parser(action: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"repro.cli control {action}",
        description="Fleet control plane (see docs/control.md).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8300)
    if action == "serve":
        parser.add_argument("--workers", type=int, default=2,
                            help="serving workers under the controller")
        parser.add_argument("--app", default="bd", choices=sorted(APP_SPECS),
                            help="application every worker serves")
        parser.add_argument("--flows", type=int, default=120,
                            help="flows in the looping replay trace")
        parser.add_argument("--rate", type=float, default=4000.0,
                            help="offered load per worker (packets/s)")
        parser.add_argument("--batch-size", type=int, default=64)
        parser.add_argument("--max-latency-us", type=float, default=5000.0,
                            help="micro-batch deadline in microseconds")
        parser.add_argument("--queue-depth", type=int, default=1024)
        parser.add_argument("--drop-policy", default="block",
                            choices=sorted(DROP_POLICIES))
        parser.add_argument("--duration", type=float, default=0.0,
                            help="stop after this many seconds (0 = until Ctrl-C)")
        parser.add_argument("--seed", type=int, default=0)
    elif action == "deploy":
        parser.add_argument("--version", required=True,
                            help="registered pipeline version to roll out")
        parser.add_argument("--latency-factor", type=float, default=None,
                            help="gate override: allowed p99 growth factor")
        parser.add_argument("--settle-s", type=float, default=None,
                            help="gate override: post-swap settle window")
    elif action == "split":
        parser.add_argument("--weights", required=True,
                            help="per-worker weights, e.g. 'w0=4,w1=1'")
    if action in ("deploy", "rollback"):
        parser.add_argument("--only", default=None,
                            help="comma-separated worker subset")
    return parser


def _fleet_workers(args, pipeline, app: str, capture: bool = False,
                   **engine_kwargs) -> list:
    """``--workers`` fleet workers, each an engine serving ``pipeline``
    (behind its own ``--capture`` ring when ``capture``)."""
    from repro.control import FleetWorker
    from repro.drift import TrafficCapture
    from repro.netsim.features import PACKET_FEATURE_NAMES
    from repro.serving import AsyncStreamEngine

    workers = []
    for index in range(args.workers):
        if capture:
            engine_kwargs["capture"] = TrafficCapture(
                capacity=args.capture, feature_names=PACKET_FEATURE_NAMES)
        workers.append(FleetWorker(f"w{index}", AsyncStreamEngine(
            pipeline, serving_extractor(app), batch_size=args.batch_size,
            queue_depth=args.queue_depth, **engine_kwargs), version="v0"))
    return workers


def _run_fleet(args, controller, source, until, adaptation=None) -> bool:
    """:func:`~repro.control.serve_fleet` on ``--host``/``--port`` with
    obs flushed on the way out; False when interrupted."""
    import asyncio

    from repro.control import serve_fleet

    async def run() -> None:
        for worker, error in await serve_fleet(
                controller, source, until, host=args.host, port=args.port,
                adaptation=adaptation):
            print(f"[{worker.name}] died: {error}", file=sys.stderr)

    with flush_on_exit():
        try:
            asyncio.run(run())
        except KeyboardInterrupt:
            return False
    return True


def _control_serve(args) -> int:
    """Stand up N workers + the HTTP controller; serve until stopped."""
    import asyncio

    from repro.control import FleetController
    from repro.serving import loop_replay

    print(f"training {args.app} pipelines (v0 + candidate v1) ...")
    v0, _ = serving_pipeline(args.app, args.seed)
    v1, _ = serving_pipeline(args.app, args.seed + 1)
    packets, labels = botnet_trace(args.flows, args.seed + TRACE_SEED_OFFSET,
                                   labeled=args.app in ("ad", "bd"))
    controller = FleetController(_fleet_workers(
        args, v0, args.app, max_latency=args.max_latency_us * 1e-6,
        drop_policy=args.drop_policy))
    controller.register_pipeline("v1", v1)

    async def until(port: int) -> None:
        print(f"fleet controller on http://{args.host}:{port} "
              f"({args.workers} x {args.app} workers, versions: v0 live, "
              f"v1 registered)")
        try:
            await asyncio.sleep(args.duration if args.duration > 0 else float("inf"))
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass

    if _run_fleet(args, controller,
                  lambda stop: loop_replay(packets, labels, args.rate, stop), until):
        for worker in controller.workers.values():
            summary = worker.engine.stats.summary()
            print(f"[{worker.name}] {summary['packets']} packets, "
                  f"{summary['swaps']} swaps, {summary['dropped']} dropped, "
                  f"p99 {summary['latency_p99_us']:.0f} us "
                  f"(version {worker.version})")
    return 0


def _control_client(action: str, args) -> int:
    """One client verb against a running controller; prints JSON."""
    import asyncio
    import json

    from repro.control import ControlClient
    from repro.errors import ControlError

    client = ControlClient(host=args.host, port=args.port)
    only = ([n.strip() for n in args.only.split(",") if n.strip()]
            if getattr(args, "only", None) else None)
    if action == "fleet":
        call = client.fleet()
    elif action == "deploy":
        gate = {key: value for key, value in (
            ("latency_factor", args.latency_factor), ("settle_s", args.settle_s))
            if value is not None}
        call = client.deploy(args.version, gate=gate or None, workers=only)
    elif action == "rollback":
        call = client.rollback(workers=only)
    else:
        try:
            weights = _parse_weights(args.weights)
            if not weights:
                raise ValueError(repr(args.weights))
        except ValueError as exc:
            print(f"error: --weights wants 'worker=weight,...' with weights "
                  f">= 1, got {exc}", file=sys.stderr)
            return 2
        call = client.traffic_split(weights)
    try:
        doc = asyncio.run(call)
    except ControlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: controller unreachable at "
              f"{args.host}:{args.port} ({exc})", file=sys.stderr)
        return 1
    print(json.dumps(doc, indent=2, default=str))
    return 0


def control_main(argv: "list | None" = None) -> int:
    action, args = _verb(
        "control", ("serve", "fleet", "deploy", "rollback", "split"), argv,
        build_control_parser)
    if action is None:
        return 2
    if not 0 <= args.port < 65536:
        print("error: --port must be 0..65535", file=sys.stderr)
        return 2
    if action != "serve":
        return _control_client(action, args)
    if _below_minimum([
        ("--workers", args.workers, 1),
        ("--flows", args.flows, 2),
        ("--batch-size", args.batch_size, 1),
        ("--queue-depth", args.queue_depth, 1),
    ]):
        return 2
    if args.rate <= 0 or args.duration < 0 or args.max_latency_us <= 0:
        print("error: --rate/--max-latency-us must be > 0 and "
              "--duration >= 0", file=sys.stderr)
        return 2
    return _control_serve(args)


def build_adapt_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli adapt",
        description="Drift-triggered retrain-and-redeploy demo "
                    "(see docs/adaptation.md).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="control-server port (0 = ephemeral)")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--flows", type=int, default=80,
                        help="flows per phase of the looping trace")
    parser.add_argument("--rate", type=float, default=3000.0,
                        help="offered load per worker (packets/s)")
    parser.add_argument("--shift-after-s", type=float, default=1.5,
                        help="when the traffic distribution shifts")
    parser.add_argument("--duration", type=float, default=120.0,
                        help="hard wall-clock cap on the run")
    parser.add_argument("--budget", type=int, default=2,
                        help="retrain search budget per algorithm family")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--max-retries", type=int, default=1)
    parser.add_argument("--train-epochs", type=int, default=8)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--queue-depth", type=int, default=512,
                        help="ingest queue bound; small keeps the capture ring fresh "
                             "(block mode throttles the source instead of dropping)")
    parser.add_argument("--capture", type=int, default=4096,
                        help="per-worker traffic-capture ring capacity")
    parser.add_argument("--window", type=int, default=256,
                        help="drift-detector window (rows)")
    parser.add_argument("--min-window", type=int, default=96)
    parser.add_argument("--check-interval-s", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=13)
    return parser


def _adapt_serve(args) -> int:
    """Run the closed loop end to end: serve pre-shift traffic with a v0
    pipeline, shift the distribution mid-run, and let the adaptation
    loop detect, retrain on captured traffic, and redeploy through the
    regression gate.  Exit 0 iff at least one retrain-and-swap completed
    and the packet path stayed lossless (``enqueued == packets + dropped``
    with zero drops in block mode) — the CI smoke contract."""
    import asyncio

    from repro.control import FleetController
    from repro.drift import AdaptationLoop, DriftMonitor
    from repro.drift.scenario import (
        PHASE_PRE,
        PHASE_SHIFTED,
        adaptation_spec_factory,
        phase_trace,
        shifting_traffic,
        train_initial_pipeline,
    )
    from repro.netsim.features import PACKET_FEATURE_NAMES

    print("training pre-shift v0 pipeline ...")
    v0, _ = train_initial_pipeline(seed=args.seed)
    pre = phase_trace(args.flows, PHASE_PRE, seed=args.seed + 101)
    post = phase_trace(args.flows, PHASE_SHIFTED, seed=args.seed + 202)
    workers = _fleet_workers(args, v0, "ad", capture=True, drop_policy="block")
    adaptation = AdaptationLoop(
        FleetController(workers),
        DriftMonitor(window=args.window, min_window=args.min_window,
                     feature_names=PACKET_FEATURE_NAMES),
        adaptation_spec_factory(budget=args.budget, seed=args.seed,
                                train_epochs=args.train_epochs),
        shards=args.shards, max_retries=args.max_retries,
        check_interval_s=args.check_interval_s,
    )

    def source(stop):
        return shifting_traffic(stop, pre, post, rate=args.rate,
                                shift_after_s=args.shift_after_s,
                                on_shift=lambda: print("-- traffic shifted --"))

    async def until(port: int) -> None:
        print(f"adaptation loop on http://{args.host}:{port} "
              f"({args.workers} worker(s), shift at "
              f"t+{args.shift_after_s:.1f}s)")
        clock = asyncio.get_running_loop()
        deadline = clock.time() + args.duration
        while clock.time() < deadline:
            if adaptation.deployed >= 1:
                # Let the retrained pipeline serve a beat before
                # tearing down, so the recovery shows in the rings.
                await asyncio.sleep(1.0)
                break
            await asyncio.sleep(0.2)

    if not _run_fleet(args, adaptation.controller, source, until, adaptation):
        return 130
    ok = adaptation.deployed >= 1
    for worker in workers:
        summary = worker.engine.stats.summary()
        conserved = summary["enqueued"] == summary["packets"] + summary["dropped"]
        ok = ok and conserved and summary["dropped"] == 0
        accuracy = worker.engine.capture.accuracy(last=args.window)
        print(f"[{worker.name}] {summary['packets']} packets, "
              f"{summary['dropped']} dropped, "
              f"{summary['swaps']} swaps, conservation "
              f"{'ok' if conserved else 'VIOLATED'}, "
              f"window accuracy "
              f"{accuracy if accuracy is None else round(accuracy, 3)} "
              f"(version {worker.version})")
    for event in adaptation.events:
        print(f"[adapt] {event['version']}: {event['outcome']} "
              f"({event.get('error') or event['trigger']})")
    print(f"adaptations: {adaptation.deployed} deployed, "
          f"{adaptation.rolled_back} rolled back, "
          f"{adaptation.failed} failed "
          f"-> {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def adapt_main(argv: "list | None" = None) -> int:
    args = build_adapt_parser().parse_args(list(argv or []))
    if not 0 <= args.port < 65536:
        print("error: --port must be 0..65535", file=sys.stderr)
        return 2
    if _below_minimum([
        ("--workers", args.workers, 1),
        ("--flows", args.flows, 2),
        ("--budget", args.budget, 1),
        ("--shards", args.shards, 1),
        ("--batch-size", args.batch_size, 1),
        ("--queue-depth", args.queue_depth, 1),
        ("--capture", args.capture, 2),
        ("--window", args.window, 2),
        ("--min-window", args.min_window, 2),
        ("--train-epochs", args.train_epochs, 1),
        ("--max-retries", args.max_retries, 0),
    ]):
        return 2
    if args.rate <= 0 or args.duration <= 0 or args.check_interval_s <= 0:
        print("error: --rate/--duration/--check-interval-s must be > 0",
              file=sys.stderr)
        return 2
    return _adapt_serve(args)


def build_obs_parser(action: str) -> argparse.ArgumentParser:
    from repro.obs import obs_dir

    parser = argparse.ArgumentParser(
        prog=f"repro.cli obs {action}",
        description="Inspect observability artifacts "
                    "(see docs/observability.md).",
    )
    parser.add_argument("--dir", default=obs_dir(),
                        help="observability directory (default: $REPRO_OBS_DIR or ./obs)")
    if action == "tail":
        parser.add_argument("-n", "--events", type=int, default=10,
                            help="how many of the most recent spans to show")
    elif action == "export":
        parser.add_argument("--input", action="append", default=None,
                            help="span JSONL file (repeatable; default: <dir>/trace.jsonl)")
        parser.add_argument("-o", "--out", default=None,
                            help="output path (default: <dir>/trace.json)")
    return parser


def obs_main(argv: "list | None" = None) -> int:
    """``obs {summary,tail,export}``: read back what a run recorded."""
    import os

    from repro.obs import export_trace, summarize_artifacts, tail_events

    action, args = _verb(
        "obs", ("summary", "tail", "export"), argv, build_obs_parser)
    if action is None or (
            action == "tail" and _below_minimum([("-n", args.events, 0)])):
        return 2
    try:
        if action == "summary":
            print(summarize_artifacts(args.dir))
        elif action == "tail":
            for line in tail_events(args.dir, args.events):
                print(line)
        else:
            # span JSONL -> Chrome trace_event JSON (chrome://tracing).
            out_path = args.out or os.path.join(args.dir, "trace.json")
            count = export_trace(
                args.input or [os.path.join(args.dir, "trace.jsonl")], out_path)
            print(f"{count} events -> {out_path}")
    except repro.HomunculusError as exc:
        for line in str(exc).splitlines():
            print(f"error: {line}", file=sys.stderr)
        return 1
    return 0


def build_fabric_parser(action: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"repro.cli fabric {action}",
        description="Topology-wide compilation: plan, report, deploy "
                    "(see docs/fabric.md).",
    )
    if action == "plan":
        parser.add_argument("--spec", required=True,
                            help="fabric spec (.json/.yaml): topology, "
                                 "apps, traffic")
        parser.add_argument("--out", default=None,
                            help="write the plan JSON here")
        parser.add_argument("--shards", type=int, default=1)
        parser.add_argument("--launcher", default=None,
                            choices=sorted(LAUNCHERS))
        parser.add_argument("--shard-dir", default=None)
        parser.add_argument("--max-retries", type=int, default=0)
    elif action == "report":
        parser.add_argument("--plan", required=True, help="plan JSON path")
        parser.add_argument("--json", action="store_true",
                            help="print the raw plan document instead of "
                                 "the summary")
    else:  # deploy
        parser.add_argument("--plan", required=True, help="plan JSON path")
        parser.add_argument("--flows", type=int, default=60,
                            help="botnet/benign flows in the replayed trace")
        parser.add_argument("--rate", type=float, default=4000.0,
                            help="replay rate, packets/s")
        parser.add_argument("--seed", type=int, default=0,
                            help="trace generation seed")
    return parser


def fabric_main(argv: "list | None" = None) -> int:
    """``fabric {plan,report,deploy}``: compile and roll out a topology.

    ``plan`` compiles every (device, app) placement of a fabric spec into
    a byte-deterministic plan JSON; ``report`` renders a saved plan's
    rollups; ``deploy`` rebuilds the plan's pipelines and rolls them onto
    a live fleet tier by tier through the regression gate, exiting 0 only
    on a fully-upgraded, zero-drop, row-conserving rollout.
    """
    action, args = _verb(
        "fabric", ("plan", "report", "deploy"), argv, build_fabric_parser)
    if action is None:
        return 2
    with flush_on_exit():
        return {"plan": _fabric_plan, "report": _fabric_report,
                "deploy": _fabric_deploy}[action](args)


def _fabric_plan(args) -> int:
    from repro.errors import PlacementError
    from repro.fabric import FabricReport, load_fabric_spec, plan_fabric

    if _below_minimum([("--shards", args.shards, 1),
                       ("--max-retries", args.max_retries, 0)]):
        return 2
    try:
        spec = load_fabric_spec(args.spec)
    except repro.HomunculusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        plan = plan_fabric(spec, shards=args.shards, launcher=args.launcher,
                           shard_dir=args.shard_dir, max_retries=args.max_retries)
    except PlacementError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    print(FabricReport.from_plan(plan).summary())
    if args.out:
        print(f"plan written to {plan.save(args.out)}")
    return 0


def _fabric_report(args) -> int:
    from repro.errors import FabricError
    from repro.fabric import FabricPlan, FabricReport

    try:
        plan = FabricPlan.load(args.plan)
        report = FabricReport.from_plan(plan)
    except (FabricError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(plan.to_json() if args.json else report.summary(),
          end="" if args.json else "\n")
    return 0


def _fabric_deploy(args) -> int:
    from repro.errors import FabricError
    from repro.fabric import FabricPlan, deploy_plan

    if args.flows < 2 or args.rate <= 0:
        print("error: --flows must be >= 2 and --rate > 0", file=sys.stderr)
        return 2
    try:
        plan = FabricPlan.load(args.plan)
    except (FabricError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    packets, _ = botnet_trace(args.flows, args.seed + TRACE_SEED_OFFSET,
                              labeled=False)
    print(f"deploying {len(plan.devices)} placement(s) over "
          f"{len(packets)} replayed packets ...")
    try:
        report = deploy_plan(plan, packets, rate=args.rate)
    except FabricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for tier, by_app in report["tiers"].items():
        for app, rollout in by_app.items():
            state = "ok" if rollout["ok"] else \
                f"aborted at {rollout['aborted_at']} ({rollout['reason']})"
            print(f"  {tier}:{app} -> {rollout['version']}: {state} "
                  f"(upgraded {len(rollout['upgraded'])})")
    for name, counters in sorted(report["workers"].items()):
        print(f"  [{name}] {counters['packets']} packets, "
              f"{counters['batch_rows']} rows, "
              f"{counters['dropped']} dropped, "
              f"{counters['swaps']} swap(s), "
              f"version {counters['version']}")
    ok = report["ok"] and report["dropped"] == 0 and report["conserved"]
    print(f"rollout {'ok' if ok else 'FAILED'}: "
          f"dropped={report['dropped']} conserved={report['conserved']}")
    return 0 if ok else 1


def _run_spec(args):
    """The compile request as a :class:`~repro.distrib.RunSpec`."""
    from repro.distrib import DatasetRef, ModelEntry, RunSpec

    if args.app:
        name = APP_SPECS[args.app].model
        dataset_ref = APP_SPECS[args.app].ref(args.seed)
    else:
        name = args.name
        dataset_ref = DatasetRef.for_csv(args.train, args.test, name=name)
    performance = {key: value for key, value in (
        ("throughput", args.throughput), ("latency", args.latency))
        if value is not None}
    return RunSpec(
        target=args.target,
        models=[ModelEntry(name=name, dataset=dataset_ref, metric=args.metric,
                           algorithms=tuple(args.algorithm or ()))],
        performance=performance, budget=args.budget, seed=args.seed,
        starts=args.starts, cache_dir=args.cache_dir,
    )


def main(argv: "list | None" = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    subcommands = {"serve": serve_main, "control": control_main,
                   "obs": obs_main, "adapt": adapt_main, "fabric": fabric_main}
    if argv and argv[0] in subcommands:
        return subcommands[argv[0]](argv[1:])
    args = build_parser().parse_args(argv)
    try:
        # One resolver for every entry point: compile, fabric, topology
        # specs — unknown names fail the same way everywhere.
        args.target = resolve_backend_name(args.target)
    except repro.BackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.train and not args.test:
        print("error: --train requires --test", file=sys.stderr)
        return 2
    if args.shards < 1 or args.starts < 1:
        print("error: --shards and --starts must be >= 1", file=sys.stderr)
        return 2
    if _below_minimum([("--max-retries", args.max_retries, 0)]):
        return 2
    spec = _run_spec(args)
    if (args.shards > 1 or args.starts > 1 or args.launcher or args.shard_dir
            or args.max_retries > 0):
        from repro.distrib import make_launcher, run_sharded
        from repro.obs import write_sharded_obs

        # The workqueue launcher derives a matching heartbeat, so any
        # positive stale window works without tuning two knobs.
        launcher = make_launcher(args.launcher or "inprocess", **(
            {"stale_after": args.stale_after if args.stale_after > 0 else None}
            if args.launcher == "workqueue" else {}))
        out = run_sharded(spec, shards=args.shards, launcher=launcher,
                          shard_dir=args.shard_dir, max_retries=args.max_retries)
        print(out.summary())
        obs_line = write_sharded_obs(getattr(out, "obs", None) or {})
        if obs_line:
            print(obs_line)
        report = out.report
    else:
        report = repro.generate(spec.build_platform(), budget=args.budget,
                                seed=args.seed, cache_dir=args.cache_dir)
        print(report.summary())
    best = report.best
    if best is not None:
        print(f"config: {best.best_config}")
    if args.out:
        print(f"deployment bundle written to {export_report(report, args.out)}")
    return 0 if report.feasible else 1


if __name__ == "__main__":
    sys.exit(main())
