"""Command-line compiler and server: ``python -m repro.cli``.

Compiles one of the built-in applications for a chosen target and writes
the deployment bundle::

    python -m repro.cli --app ad --target taurus --budget 20 --out build/
    python -m repro.cli --app tc --target tofino --algorithm decision_tree

Custom datasets come in as CSV pairs (the Figure-3 file format)::

    python -m repro.cli --train my_train.csv --test my_test.csv --name myapp

The ``serve`` subcommand runs compiled pipelines against a replayed
packet stream through the async serving runtime::

    python -m repro.cli serve --pipelines bd,ad --flows 300 \\
        --batch-size 256 --max-latency-us 2000 --queue-depth 1024 \\
        --drop-policy head-drop --priorities bd=4,ad=1 --swap-after 2000

The ``control`` subcommand runs the fleet control plane: ``control
serve`` stands up N serving workers plus the HTTP controller, and the
client verbs drive it::

    python -m repro.cli control serve --workers 2 --port 8300
    python -m repro.cli control fleet --port 8300
    python -m repro.cli control deploy --port 8300 --version v1
    python -m repro.cli control rollback --port 8300
    python -m repro.cli control split --port 8300 --weights w0=4,w1=1

The ``fabric`` subcommand compiles a whole topology instead of one
switch (see ``docs/fabric.md``)::

    python -m repro.cli fabric plan --spec examples/fabric_pod.json \\
        --out build/plan.json --shards 4
    python -m repro.cli fabric report --plan build/plan.json
    python -m repro.cli fabric deploy --plan build/plan.json --flows 60

The ``obs`` subcommand inspects the observability artifacts a
``REPRO_OBS=1`` run leaves behind (see ``docs/observability.md``)::

    python -m repro.cli obs summary            # metrics snapshot + span counts
    python -m repro.cli obs tail -n 20         # most recent span events
    python -m repro.cli obs export -o t.json   # Chrome trace_event export

See ``docs/serving.md`` and ``docs/control.md`` for what each knob does.
"""

from __future__ import annotations

import argparse
import sys

import repro
from repro.alchemy import DataLoader, Model
from repro.alchemy.platforms import PlatformSpec
from repro.backends.registry import available_backends, resolve_backend_name
from repro.core.export import export_report
from repro.datasets import load_botnet, load_csv_dataset, load_iot
from repro.distrib.launchers import LAUNCHERS
from repro.distrib.runspec import APP_LOADERS
from repro.serving import DROP_POLICIES

#: app key -> (model name, seed offset).  The offset keeps each app's
#: dataset stream independent of the others for a given --seed; both the
#: serial and sharded paths load through the single
#: repro.distrib.runspec.APP_LOADERS registry, so they can never
#: materialize different arrays.
_APPS = {
    "ad": ("anomaly_detection", 7),
    "tc": ("traffic_classification", 11),
    "bd": ("botnet_detection", 13),
}

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Homunculus: compile a data-plane ML pipeline.",
        epilog="Subcommand: 'repro.cli serve ...' runs compiled pipelines "
               "over a replayed packet stream through the async serving "
               "runtime ('repro.cli serve --help' for its flags).",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--app", choices=sorted(_APPS), help="built-in application")
    source.add_argument("--train", help="training CSV (with --test)")
    parser.add_argument("--test", help="test CSV (with --train)")
    parser.add_argument("--name", default="pipeline", help="model name for CSV input")
    parser.add_argument(
        "--target", default="taurus",
        help="backend target (one of: %s); resolved through the shared "
             "backend registry" % ", ".join(available_backends()),
    )
    parser.add_argument(
        "--algorithm", action="append", default=None,
        help="candidate algorithm (repeatable; default: let Homunculus choose)",
    )
    parser.add_argument("--metric", default="f1",
                        choices=["f1", "accuracy", "v_measure"])
    parser.add_argument("--budget", type=int, default=20)
    parser.add_argument("--throughput", type=float, default=None,
                        help="minimum Gpkt/s")
    parser.add_argument("--latency", type=float, default=None, help="max ns")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="deployment bundle directory")
    parser.add_argument(
        "--cache-dir", default=None,
        help="directory for persistent evaluation-cache JSON spills",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="partition the search into this many shards "
             "(results identical to --shards 1; see docs/distrib.md)",
    )
    parser.add_argument(
        "--launcher", default=None, choices=sorted(LAUNCHERS),
        help="how shards execute: inprocess threads, one subprocess per "
             "shard, or a work-queue directory N machines can drain "
             "(default: inprocess)",
    )
    parser.add_argument(
        "--shard-dir", default=None,
        help="scratch directory for shard task/result/spill files "
             "(subprocess + workqueue launchers; default: a temp dir)",
    )
    parser.add_argument(
        "--starts", type=int, default=1,
        help="multi-start search: independent BO trajectories per "
             "algorithm family, best kept (sharded runs only)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=0,
        help="re-post a failed task this many times (attempt-suffixed "
             "names) before aborting; surviving results are always kept",
    )
    parser.add_argument(
        "--stale-after", type=float, default=60.0,
        help="workqueue launcher: requeue a claim once its worker "
             "heartbeat lags this many seconds (0 disables the reaper)",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli serve",
        description="Serve compiled pipelines over a replayed packet stream.",
    )
    parser.add_argument(
        "--pipelines", default="bd",
        help="comma-separated subset of {ad,tc,bd} sharing one ingest stream",
    )
    parser.add_argument("--flows", type=int, default=200,
                        help="botnet/benign flows to replay")
    parser.add_argument("--batch-size", type=int, default=256,
                        help="inference micro-batch size")
    parser.add_argument(
        "--max-latency-us", type=float, default=None,
        help="micro-batch deadline: flush partial batches after this many "
             "microseconds (default: batch by size only)",
    )
    parser.add_argument("--queue-depth", type=int, default=1024,
                        help="bounded stage-queue depth (packets)")
    parser.add_argument(
        "--drop-policy", default="block", choices=sorted(DROP_POLICIES),
        help="ingress behaviour when the queue is full",
    )
    parser.add_argument("--infer-workers", type=int, default=2,
                        help="inference batches in flight")
    parser.add_argument(
        "--priorities", default=None,
        help="per-route weights, e.g. 'bd=4,ad=1': weighted "
             "deficit-round-robin split of extraction capacity "
             "(default: every route weight 1)",
    )
    parser.add_argument(
        "--swap-after", type=int, default=None,
        help="hitless-upgrade demo: after this many replayed packets, "
             "retrain v2 pipelines and rolling-swap every route live",
    )
    parser.add_argument(
        "--speed", type=float, default=0.0,
        help="replay pacing multiplier over capture time (0 = unpaced)",
    )
    parser.add_argument(
        "--device-us", type=float, default=0.0,
        help="emulated per-batch device round trip in microseconds "
             "(0 = functional simulation only)",
    )
    parser.add_argument("--seed", type=int, default=0)
    return parser


def _serve_extractor(name: str):
    """The packet-feature extractor a serve route of app ``name`` needs."""
    from repro.runtime import FlowmarkerTracker, PacketFeatureExtractor

    if name == "bd":
        return FlowmarkerTracker(max_conversations=4096)
    return PacketFeatureExtractor()


def _build_serve_routes(names: list, seed: int) -> list:
    """Train + compile one baseline pipeline per requested application."""
    import dataclasses

    from repro.backends.taurus import TaurusBackend
    from repro.drift.scenario import packet_dataset
    from repro.eval.baselines import train_baseline_dnn

    backend = TaurusBackend()
    specs = []
    for name in names:
        if name == "bd":
            dataset = load_botnet(
                n_train_flows=150, n_test_flows=2, seed=seed + 13,
                per_packet_test=False,
            )
        elif name == "tc":
            dataset = load_iot(seed=seed + 11)
        elif name == "ad":
            # Per-packet header features of the botnet stream the bd
            # route sees: the serve-mode AD task.
            dataset = dataclasses.replace(
                packet_dataset(150, 40, seed=seed + 7),
                name="ad-packet", metadata={})
        else:
            raise ValueError(name)
        net, scaler = train_baseline_dnn(name, dataset, seed=seed)
        pipeline = backend.compile_model(net, scaler=scaler, name=name)
        specs.append((name, pipeline, _serve_extractor(name)))
    return specs


def _parse_priorities(spec: "str | None", names: list) -> "dict | None":
    """Parse ``--priorities 'bd=4,ad=1'`` into a route-weight dict."""
    if spec is None:
        return None
    weights = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        if not value or name.strip() not in names:
            raise ValueError(part)
        weight = int(value)
        if weight < 1:
            raise ValueError(part)
        weights[name.strip()] = weight
    return weights or None


def serve_main(argv: "list | None" = None) -> int:
    args = build_serve_parser().parse_args(argv)
    names = [n.strip() for n in args.pipelines.split(",") if n.strip()]
    unknown = sorted(set(names) - {"ad", "tc", "bd"})
    if unknown or not names:
        print(f"error: --pipelines must name ad, tc and/or bd, got "
              f"{args.pipelines!r}", file=sys.stderr)
        return 2
    if len(names) != len(set(names)):
        print("error: duplicate pipeline names", file=sys.stderr)
        return 2
    for flag, value, minimum in [
        ("--flows", args.flows, 2),
        ("--batch-size", args.batch_size, 1),
        ("--queue-depth", args.queue_depth, 1),
        ("--infer-workers", args.infer_workers, 1),
    ]:
        if value < minimum:
            print(f"error: {flag} must be >= {minimum}", file=sys.stderr)
            return 2
    if args.speed < 0 or args.device_us < 0:
        print("error: --speed and --device-us must be >= 0", file=sys.stderr)
        return 2
    if args.max_latency_us is not None and args.max_latency_us <= 0:
        print("error: --max-latency-us must be positive", file=sys.stderr)
        return 2
    try:
        weights = _parse_priorities(args.priorities, names)
    except ValueError as exc:
        print(f"error: --priorities wants 'route=weight,...' over "
              f"{{{','.join(names)}}} with weights >= 1, got {exc}",
              file=sys.stderr)
        return 2
    if args.swap_after is not None and args.swap_after < 1:
        print("error: --swap-after must be >= 1", file=sys.stderr)
        return 2

    from repro.datasets.botnet import flow_label, generate_botnet_flows
    from repro.netsim import interleave_flows
    from repro.serving import AsyncStreamEngine, PipelineRouter, Route, TimedPipeline

    print(f"training baseline pipelines: {', '.join(names)} ...")
    routes = []
    for name, pipeline, extractor in _build_serve_routes(names, args.seed):
        if args.device_us > 0:
            pipeline = TimedPipeline(pipeline, per_batch_s=args.device_us * 1e-6)
        engine = AsyncStreamEngine(
            pipeline,
            extractor,
            batch_size=args.batch_size,
            max_latency=(
                args.max_latency_us * 1e-6
                if args.max_latency_us is not None else None
            ),
            queue_depth=args.queue_depth,
            drop_policy=args.drop_policy,
            infer_workers=args.infer_workers,
        )
        weight = weights.get(name, 1) if weights else 1
        routes.append(Route(name, engine, weight=weight))
    router = PipelineRouter(routes)
    if weights:
        print("route weights: " + ", ".join(
            f"{route.name}={route.weight}" for route in routes))

    flows = generate_botnet_flows(args.flows, seed=args.seed + 1234)
    # ad and bd are labeled by the stream; tc classifies device classes
    # this capture has no ground truth for.
    packets, labels = interleave_flows(
        flows, lambda flow: dict.fromkeys(("ad", "bd"), flow_label(flow)))
    span = packets[-1].timestamp - packets[0].timestamp if len(packets) > 1 else 0.0
    if args.speed > 0:
        pacing = (f"{args.speed:g}x pacing, ~{span / args.speed:.0f} s "
                  f"of wall clock for {span:.0f} s of capture")
    else:
        pacing = "unpaced"
    print(f"replaying {len(packets)} packets across {len(flows)} flows ({pacing})")

    from repro.obs import flush_obs

    restore_signals = _install_obs_flush()
    try:
        if args.swap_after is not None:
            import asyncio

            from repro.serving import replay

            print(f"hitless upgrade armed: rolling swap after "
                  f"{args.swap_after} packets")
            v2 = {
                name: pipeline
                for name, pipeline, _ in _build_serve_routes(
                    names, args.seed + 1)
            }

            async def run_with_swap() -> None:
                swap_task = None

                async def source():
                    nonlocal swap_task
                    count = 0
                    async for item in replay(packets, labels,
                                             speed=args.speed):
                        yield item
                        count += 1
                        if count == args.swap_after:
                            swap_task = asyncio.create_task(
                                router.rolling_swap(v2)
                            )

                await router.run(source())
                if swap_task is not None:
                    await swap_task
                    print("rolling swap completed: "
                          + ", ".join(f"{n} -> v2" for n in sorted(v2)))
                else:
                    print("stream ended before --swap-after packets; no swap")

            asyncio.run(run_with_swap())
        else:
            router.process(packets, labels, speed=args.speed)
    finally:
        flush_obs()
        restore_signals()
    for name in names:
        stats = router.stats[name]
        summary = stats.summary()
        accuracy = (
            f"{summary['accuracy']:.3f}" if summary["accuracy"] is not None
            else "n/a"
        )
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
        parser.add_argument(
            "--app", default="bd", choices=sorted(_APPS),
            help="application every worker serves",
        )
        parser.add_argument("--flows", type=int, default=120,
                            help="flows in the looping replay trace")
        parser.add_argument("--rate", type=float, default=4000.0,
                            help="offered load per worker (packets/s)")
        parser.add_argument("--batch-size", type=int, default=64)
        parser.add_argument(
            "--max-latency-us", type=float, default=5000.0,
            help="micro-batch deadline in microseconds",
        )
        parser.add_argument("--queue-depth", type=int, default=1024)
        parser.add_argument("--drop-policy", default="block",
                            choices=sorted(DROP_POLICIES))
        parser.add_argument(
            "--duration", type=float, default=0.0,
            help="stop after this many seconds (0 = until Ctrl-C)",
        )
        parser.add_argument("--seed", type=int, default=0)
    elif action == "deploy":
        parser.add_argument("--version", required=True,
                            help="registered pipeline version to roll out")
        parser.add_argument("--latency-factor", type=float, default=None,
                            help="gate override: allowed p99 growth factor")
        parser.add_argument("--settle-s", type=float, default=None,
                            help="gate override: post-swap settle window")
        parser.add_argument("--only", default=None,
                            help="comma-separated worker subset")
    elif action == "rollback":
        parser.add_argument("--only", default=None,
                            help="comma-separated worker subset")
    elif action == "split":
        parser.add_argument(
            "--weights", required=True,
            help="per-worker weights, e.g. 'w0=4,w1=1'",
        )
    return parser


def _control_serve(args) -> int:
    """Stand up N workers + the HTTP controller; serve until stopped."""
    import asyncio

    from repro.control import ControlServer, FleetController, FleetWorker
    from repro.datasets.botnet import flow_label, generate_botnet_flows
    from repro.netsim import interleave_flows
    from repro.serving import AsyncStreamEngine, loop_replay

    print(f"training {args.app} pipelines (v0 + candidate v1) ...")
    (_, v0, _), = _build_serve_routes([args.app], args.seed)
    (_, v1, _), = _build_serve_routes([args.app], args.seed + 1)

    flows = generate_botnet_flows(args.flows, seed=args.seed + 1234)
    packets, labels = interleave_flows(
        flows, flow_label if args.app in ("ad", "bd") else None)

    async def serve() -> None:
        stop = asyncio.Event()
        workers = []
        for index in range(args.workers):
            engine = AsyncStreamEngine(
                v0, _serve_extractor(args.app),
                batch_size=args.batch_size,
                max_latency=args.max_latency_us * 1e-6,
                queue_depth=args.queue_depth,
                drop_policy=args.drop_policy,
            )
            worker = FleetWorker(f"w{index}", engine, version="v0")
            workers.append(worker)
        controller = FleetController(workers)
        controller.register_pipeline("v1", v1)
        for worker in workers:
            worker.attach(asyncio.create_task(
                worker.engine.run(
                    loop_replay(packets, labels, args.rate, stop)),
                name=f"fleet-{worker.name}",
            ))
        server = ControlServer(controller, host=args.host, port=args.port)
        port = await server.start()
        print(f"fleet controller on http://{args.host}:{port} "
              f"({args.workers} x {args.app} workers, versions: v0 live, "
              f"v1 registered)")
        try:
            if args.duration > 0:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            stop.set()
            done = await asyncio.gather(
                *(worker.task for worker in workers if worker.task),
                return_exceptions=True,
            )
            for worker, result in zip(workers, done):
                if isinstance(result, Exception):
                    print(f"[{worker.name}] died: {result}", file=sys.stderr)
            await server.stop()
        for worker in workers:
            summary = worker.engine.stats.summary()
            print(f"[{worker.name}] {summary['packets']} packets, "
                  f"{summary['swaps']} swaps, {summary['dropped']} dropped, "
                  f"p99 {summary['latency_p99_us']:.0f} us "
                  f"(version {worker.version})")

    from repro.obs import flush_obs

    restore_signals = _install_obs_flush()
    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    finally:
        flush_obs()
        restore_signals()
    return 0


def _control_client(action: str, args) -> int:
    """One client verb against a running controller; prints JSON."""
    import asyncio
    import json

    from repro.control import ControlClient
    from repro.errors import ControlError

    client = ControlClient(host=args.host, port=args.port)

    async def call():
        if action == "fleet":
            return await client.fleet()
        if action == "deploy":
            gate = {}
            if args.latency_factor is not None:
                gate["latency_factor"] = args.latency_factor
            if args.settle_s is not None:
                gate["settle_s"] = args.settle_s
            only = ([n.strip() for n in args.only.split(",") if n.strip()]
                    if args.only else None)
            return await client.deploy(args.version, gate=gate or None,
                                       workers=only)
        if action == "rollback":
            only = ([n.strip() for n in args.only.split(",") if n.strip()]
                    if args.only else None)
            return await client.rollback(workers=only)
        weights = {}
        for part in args.weights.split(","):
            name, _, value = part.strip().partition("=")
            if not name or not value:
                raise ControlError(
                    f"--weights wants 'worker=weight,...', got {part!r}")
            weights[name] = int(value)
        return await client.traffic_split(weights)

    try:
        doc = asyncio.run(call())
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
    argv = list(argv or [])
    actions = ("serve", "fleet", "deploy", "rollback", "split")
    if not argv or argv[0] not in actions:
        print(f"error: control wants one of {', '.join(actions)}",
              file=sys.stderr)
        return 2
    action, rest = argv[0], argv[1:]
    args = build_control_parser(action).parse_args(rest)
    if not 0 <= args.port < 65536:
        print("error: --port must be 0..65535", file=sys.stderr)
        return 2
    if action == "serve":
        for flag, value, minimum in [
            ("--workers", args.workers, 1),
            ("--flows", args.flows, 2),
            ("--batch-size", args.batch_size, 1),
            ("--queue-depth", args.queue_depth, 1),
        ]:
            if value < minimum:
                print(f"error: {flag} must be >= {minimum}", file=sys.stderr)
                return 2
        if args.rate <= 0 or args.duration < 0 or args.max_latency_us <= 0:
            print("error: --rate/--max-latency-us must be > 0 and "
                  "--duration >= 0", file=sys.stderr)
            return 2
        return _control_serve(args)
    return _control_client(action, args)


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
    parser.add_argument(
        "--queue-depth", type=int, default=512,
        help="ingest queue bound; small keeps the capture ring fresh "
             "(block mode throttles the source instead of dropping)",
    )
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

    from repro.control import ControlServer, FleetController, FleetWorker
    from repro.drift import AdaptationLoop, DriftMonitor, TrafficCapture
    from repro.drift.scenario import (
        PHASE_PRE,
        PHASE_SHIFTED,
        adaptation_spec_factory,
        phase_trace,
        shifting_traffic,
        train_initial_pipeline,
    )
    from repro.netsim.features import PACKET_FEATURE_NAMES
    from repro.runtime import PacketFeatureExtractor
    from repro.serving import AsyncStreamEngine

    print("training pre-shift v0 pipeline ...")
    v0, _ = train_initial_pipeline(seed=args.seed)
    pre = phase_trace(args.flows, PHASE_PRE, seed=args.seed + 101)
    post = phase_trace(args.flows, PHASE_SHIFTED, seed=args.seed + 202)

    async def run() -> int:
        stop = asyncio.Event()
        workers = []
        for index in range(args.workers):
            capture = TrafficCapture(
                capacity=args.capture, feature_names=PACKET_FEATURE_NAMES,
            )
            engine = AsyncStreamEngine(
                v0, PacketFeatureExtractor(),
                batch_size=args.batch_size,
                queue_depth=args.queue_depth,
                drop_policy="block",
                capture=capture,
            )
            workers.append(FleetWorker(f"w{index}", engine, version="v0"))
        controller = FleetController(workers)
        monitor = DriftMonitor(
            window=args.window, min_window=args.min_window,
            feature_names=PACKET_FEATURE_NAMES,
        )
        adaptation = AdaptationLoop(
            controller, monitor,
            adaptation_spec_factory(budget=args.budget, seed=args.seed,
                                    train_epochs=args.train_epochs),
            shards=args.shards,
            max_retries=args.max_retries,
            check_interval_s=args.check_interval_s,
        )
        for worker in workers:
            worker.attach(asyncio.create_task(
                worker.engine.run(shifting_traffic(
                    stop, pre, post, rate=args.rate,
                    shift_after_s=args.shift_after_s,
                    on_shift=lambda: print("-- traffic shifted --"),
                )),
                name=f"adapt-{worker.name}",
            ))
        loop_task = asyncio.create_task(adaptation.run(stop))
        server = ControlServer(controller, host=args.host, port=args.port,
                               adaptation=adaptation)
        port = await server.start()
        print(f"adaptation loop on http://{args.host}:{port} "
              f"({args.workers} worker(s), shift at "
              f"t+{args.shift_after_s:.1f}s)")
        clock = asyncio.get_running_loop()
        deadline = clock.time() + args.duration
        try:
            while clock.time() < deadline:
                if adaptation.deployed >= 1:
                    # Let the retrained pipeline serve a beat before
                    # tearing down, so the recovery shows in the rings.
                    await asyncio.sleep(1.0)
                    break
                await asyncio.sleep(0.2)
        finally:
            stop.set()
            done = await asyncio.gather(
                *(worker.task for worker in workers if worker.task),
                return_exceptions=True,
            )
            for worker, result in zip(workers, done):
                if isinstance(result, Exception):
                    print(f"[{worker.name}] died: {result}", file=sys.stderr)
            await loop_task
            await server.stop()

        ok = adaptation.deployed >= 1
        for worker in workers:
            summary = worker.engine.stats.summary()
            conserved = (summary["enqueued"]
                         == summary["packets"] + summary["dropped"])
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

    from repro.obs import flush_obs

    restore_signals = _install_obs_flush()
    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 130
    finally:
        flush_obs()
        restore_signals()


def adapt_main(argv: "list | None" = None) -> int:
    args = build_adapt_parser().parse_args(list(argv or []))
    if not 0 <= args.port < 65536:
        print("error: --port must be 0..65535", file=sys.stderr)
        return 2
    for flag, value, minimum in [
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
    ]:
        if value < minimum:
            print(f"error: {flag} must be >= {minimum}", file=sys.stderr)
            return 2
    if args.rate <= 0 or args.duration <= 0 or args.check_interval_s <= 0:
        print("error: --rate/--duration/--check-interval-s must be > 0",
              file=sys.stderr)
        return 2
    return _adapt_serve(args)


def _install_obs_flush():
    """SIGINT/SIGTERM -> flush obs artifacts, then normal teardown.

    SIGINT becomes the usual :class:`KeyboardInterrupt` and SIGTERM a
    :class:`SystemExit`, so ``finally`` blocks (worker drain, server
    stop) still run — the handler only guarantees the metrics snapshot
    and trace sink hit disk first, even if teardown later dies.

    Returns a restore callable; no-op outside the main thread (signal
    handlers can only be installed there).
    """
    import signal

    from repro.obs import flush_obs

    def handler(signum, frame):
        flush_obs()
        if signum == getattr(signal, "SIGINT", None):
            raise KeyboardInterrupt
        raise SystemExit(128 + signum)

    previous = {}
    for name in ("SIGINT", "SIGTERM"):
        sig = getattr(signal, name, None)
        if sig is None:
            continue
        try:
            previous[sig] = signal.signal(sig, handler)
        except (ValueError, OSError):  # not the main thread
            pass

    def restore():
        for sig, old in previous.items():
            try:
                signal.signal(sig, old)
            except (ValueError, OSError):
                pass

    return restore


def build_obs_parser(action: str) -> argparse.ArgumentParser:
    from repro.obs import obs_dir

    parser = argparse.ArgumentParser(
        prog=f"repro.cli obs {action}",
        description="Inspect observability artifacts "
                    "(see docs/observability.md).",
    )
    parser.add_argument(
        "--dir", default=obs_dir(),
        help="observability directory (default: $REPRO_OBS_DIR or ./obs)",
    )
    if action == "tail":
        parser.add_argument("-n", "--events", type=int, default=10,
                            help="how many of the most recent spans to show")
    elif action == "export":
        parser.add_argument(
            "--input", action="append", default=None,
            help="span JSONL file (repeatable; default: <dir>/trace.jsonl)",
        )
        parser.add_argument("-o", "--out", default=None,
                            help="output path (default: <dir>/trace.json)")
    return parser


def obs_main(argv: "list | None" = None) -> int:
    """``obs {summary,tail,export}``: read back what a run recorded."""
    import json
    import os

    from repro.obs import load_events, to_chrome_trace, validate_chrome_trace

    argv = list(argv or [])
    actions = ("summary", "tail", "export")
    if not argv or argv[0] not in actions:
        print(f"error: obs wants one of {', '.join(actions)}",
              file=sys.stderr)
        return 2
    action, rest = argv[0], argv[1:]
    args = build_obs_parser(action).parse_args(rest)
    metrics_path = os.path.join(args.dir, "metrics.json")
    trace_path = os.path.join(args.dir, "trace.jsonl")

    if action == "summary":
        found = False
        if os.path.exists(metrics_path):
            found = True
            with open(metrics_path, encoding="utf-8") as handle:
                snapshot = json.load(handle)
            print(f"metrics ({metrics_path}):")
            for name in sorted(snapshot):
                family = snapshot[name]
                for label_key in sorted(family.get("samples", {})):
                    value = family["samples"][label_key]
                    if family.get("kind") == "histogram":
                        value = (f"count={value['count']} "
                                 f"sum={value['sum']:.6g}")
                    labels = ",".join(
                        f"{k}={v}" for k, v in json.loads(label_key))
                    suffix = f"{{{labels}}}" if labels else ""
                    print(f"  {name}{suffix} = {value}")
        if os.path.exists(trace_path):
            found = True
            counts: dict = {}
            total = 0.0
            for event in load_events(trace_path):
                counts[event["name"]] = counts.get(event["name"], 0) + 1
                total += event.get("dur", 0.0)
            print(f"spans ({trace_path}): {sum(counts.values())} events, "
                  f"{total:.3f} s total")
            for name in sorted(counts):
                print(f"  {name} x {counts[name]}")
        if not found:
            print(f"error: nothing recorded under {args.dir!r} "
                  f"(run with REPRO_OBS=1 first)", file=sys.stderr)
            return 1
        return 0

    if action == "tail":
        if not os.path.exists(trace_path):
            print(f"error: no trace at {trace_path!r}", file=sys.stderr)
            return 1
        events = load_events(trace_path)
        for event in events[-max(args.events, 0):]:
            args_doc = event.get("args") or {}
            detail = " ".join(f"{k}={v}" for k, v in sorted(args_doc.items()))
            print(f"{event['ts']:.6f} {event['name']} "
                  f"dur={event['dur'] * 1e3:.3f}ms"
                  + (f" {detail}" if detail else ""))
        return 0

    # export: span JSONL -> Chrome trace_event JSON (chrome://tracing).
    paths = args.input or [trace_path]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"error: no trace at {missing[0]!r}", file=sys.stderr)
        return 1
    events: list = []
    for path in paths:
        events.extend(load_events(path))
    doc = to_chrome_trace(events)
    problems = validate_chrome_trace(doc)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    out_path = args.out or os.path.join(args.dir, "trace.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
    print(f"{len(doc['traceEvents'])} events -> {out_path}")
    return 0


def _dump_sharded_obs(out, shard_dir: "str | None") -> None:
    """Write the merged cross-shard obs artifacts after a sharded run.

    Spans pooled from every shard land as a Chrome trace plus the merged
    metrics snapshot under the obs dir, so ``cli obs summary`` and
    ``chrome://tracing`` both work on a fleet run.
    """
    import json
    import os

    from repro.fsio import atomic_write_json
    from repro.obs import obs_dir, to_chrome_trace

    obs = getattr(out, "obs", None) or {}
    spans = obs.get("spans") or []
    if not spans:
        return
    directory = obs_dir()
    os.makedirs(directory, exist_ok=True)
    atomic_write_json(os.path.join(directory, "metrics.json"),
                      obs.get("metrics", {}))
    trace_path = os.path.join(directory, "trace.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(spans), handle, indent=1, sort_keys=True)
    timeline = obs.get("timeline", {})
    print(f"obs: {len(spans)} spans from {len(timeline.get('shards', []))} "
          f"shard(s) -> {directory} (critical path "
          f"{timeline.get('critical_path_s', 0.0):.3f} s)")


def _sharded_main(args) -> int:
    """The distributed generate path: RunSpec -> run_sharded -> report."""
    from repro.distrib import DatasetRef, ModelEntry, RunSpec, make_launcher, run_sharded

    if args.app:
        name, offset = _APPS[args.app]
        dataset_ref = DatasetRef.for_app(args.app, seed=args.seed + offset)
    else:
        name = args.name
        dataset_ref = DatasetRef.for_csv(args.train, args.test, name=name)
    performance = {}
    if args.throughput is not None:
        performance["throughput"] = args.throughput
    if args.latency is not None:
        performance["latency"] = args.latency
    spec = RunSpec(
        target=args.target,
        models=[
            ModelEntry(
                name=name,
                dataset=dataset_ref,
                metric=args.metric,
                algorithms=tuple(args.algorithm or ()),
            )
        ],
        performance=performance,
        budget=args.budget,
        seed=args.seed,
        starts=args.starts,
        cache_dir=args.cache_dir,
    )
    launcher_name = args.launcher or "inprocess"
    launcher_kwargs: dict = {}
    if launcher_name == "workqueue":
        # The launcher derives a matching heartbeat, so any positive
        # stale window works without tuning two knobs.
        launcher_kwargs["stale_after"] = (
            args.stale_after if args.stale_after > 0 else None
        )
    launcher = make_launcher(launcher_name, **launcher_kwargs)
    out = run_sharded(
        spec, shards=args.shards, launcher=launcher, shard_dir=args.shard_dir,
        max_retries=args.max_retries,
    )
    print(out.summary())
    _dump_sharded_obs(out, args.shard_dir)
    best = out.report.best
    if best is not None:
        print(f"config: {best.best_config}")
    if args.out:
        path = export_report(out.report, args.out)
        print(f"deployment bundle written to {path}")
    return 0 if out.report.feasible else 1


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
    argv = list(argv or [])
    actions = ("plan", "report", "deploy")
    if not argv or argv[0] not in actions:
        print(f"error: fabric wants one of {', '.join(actions)}",
              file=sys.stderr)
        return 2
    action, rest = argv[0], argv[1:]
    args = build_fabric_parser(action).parse_args(rest)

    from repro.errors import FabricError, PlacementError
    from repro.fabric import (
        FabricPlan,
        FabricReport,
        deploy_plan,
        load_fabric_spec,
        plan_fabric,
    )
    from repro.obs import flush_obs

    restore_signals = _install_obs_flush()
    try:
        if action == "plan":
            if args.shards < 1:
                print("error: --shards must be >= 1", file=sys.stderr)
                return 2
            if args.max_retries < 0:
                print("error: --max-retries must be >= 0", file=sys.stderr)
                return 2
            try:
                spec = load_fabric_spec(args.spec)
            except repro.HomunculusError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            try:
                plan = plan_fabric(
                    spec, shards=args.shards, launcher=args.launcher,
                    shard_dir=args.shard_dir, max_retries=args.max_retries,
                )
            except PlacementError as exc:
                print(f"infeasible: {exc}", file=sys.stderr)
                return 1
            print(FabricReport.from_plan(plan).summary())
            if args.out:
                print(f"plan written to {plan.save(args.out)}")
            return 0

        if action == "report":
            try:
                plan = FabricPlan.load(args.plan)
                report = FabricReport.from_plan(plan)
            except (FabricError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if args.json:
                print(plan.to_json(), end="")
            else:
                print(report.summary())
            return 0

        # deploy
        if args.flows < 2 or args.rate <= 0:
            print("error: --flows must be >= 2 and --rate > 0",
                  file=sys.stderr)
            return 2
        try:
            plan = FabricPlan.load(args.plan)
        except (FabricError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        from repro.datasets.botnet import generate_botnet_flows
        from repro.netsim import interleave_flows

        flows = generate_botnet_flows(args.flows, seed=args.seed + 1234)
        packets, _ = interleave_flows(flows)
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
    finally:
        flush_obs()
        restore_signals()


def main(argv: "list | None" = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "control":
        return control_main(argv[1:])
    if argv and argv[0] == "obs":
        return obs_main(argv[1:])
    if argv and argv[0] == "adapt":
        return adapt_main(argv[1:])
    if argv and argv[0] == "fabric":
        return fabric_main(argv[1:])
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
    if args.max_retries < 0:
        print("error: --max-retries must be >= 0", file=sys.stderr)
        return 2
    if (args.shards > 1 or args.starts > 1 or args.launcher or args.shard_dir
            or args.max_retries > 0):
        return _sharded_main(args)

    if args.app:
        name, offset = _APPS[args.app]
        dataset = APP_LOADERS[args.app](seed=args.seed + offset)
    else:
        name = args.name
        dataset = load_csv_dataset(args.train, args.test, name=name)

    @DataLoader
    def loader():
        return dataset

    spec = Model(
        {
            "optimization_metric": [args.metric],
            "algorithm": args.algorithm or [],
            "name": name,
            "data_loader": loader,
        }
    )
    platform = PlatformSpec(args.target)
    performance = {}
    if args.throughput is not None:
        performance["throughput"] = args.throughput
    if args.latency is not None:
        performance["latency"] = args.latency
    if performance:
        platform.constrain(performance=performance)
    platform.schedule(spec)

    report = repro.generate(
        platform,
        budget=args.budget,
        seed=args.seed,
        cache_dir=args.cache_dir,
    )
    print(report.summary())
    best = report.best
    if best is not None:
        print(f"config: {best.best_config}")
    if args.out:
        path = export_report(report, args.out)
        print(f"deployment bundle written to {path}")
    return 0 if report.feasible else 1


if __name__ == "__main__":
    sys.exit(main())
