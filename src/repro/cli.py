"""Command-line interface for the HEAD reproduction.

Subcommands cover the full experimental workflow::

    python -m repro.cli generate-data --steps 300 --out real.npz
    python -m repro.cli train --scale quick --out checkpoints/head
    python -m repro.cli evaluate --checkpoint checkpoints/head --episodes 20
    python -m repro.cli drive --checkpoint checkpoints/head --seed 7
    python -m repro.cli info

``drive`` replays one episode with an ASCII visualization of the
traffic around the autonomous vehicle.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import HEAD, HEADConfig, __version__
from .data import generate_real_dataset
from .decision import EpsilonSchedule, IDMLCPolicy
from .eval import evaluate_controller, render_metric_table
from .seeding import default_generator
from .sim.render import render_window

__all__ = ["main", "build_parser"]

SCALES = {
    "quick": lambda: HEADConfig().scaled(),
    "medium": lambda: HEADConfig().scaled(road_length=1000.0, density_per_km=140,
                                          training_episodes=400,
                                          max_episode_steps=300,
                                          attention_dim=64, lstm_dim=64,
                                          hidden_dim=64),
    "paper": HEADConfig.paper,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro",
                                     description="HEAD (ICDE 2023) reproduction")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate-data",
                                   help="synthesize the REAL trajectory substitute")
    generate.add_argument("--steps", type=int, default=300)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--density", type=float, default=170.0)
    generate.add_argument("--out", default="real.npz")

    train = commands.add_parser("train", help="train perception + decision")
    train.add_argument("--scale", choices=sorted(SCALES), default="quick")
    train.add_argument("--episodes", type=int, default=None,
                       help="override the decision-training episode count")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", default="checkpoints/head")
    train.add_argument("--checkpoint-every", type=int, default=0,
                       help="snapshot full training state every N episodes "
                            "(0 disables crash-safe checkpointing)")
    train.add_argument("--no-resume", action="store_true",
                       help="ignore an existing training checkpoint")
    train.add_argument("--skip-perception", action="store_true",
                       help="train the decision module only")
    train.add_argument("--max-steps", type=int, default=None,
                       help="cap each training episode at this many steps")
    train.add_argument("--workers", type=int, default=1,
                       help="actor processes for decision training; >=2 "
                            "uses the parallel actor-learner trainer "
                            "(worker-count invariant), 1 keeps the serial "
                            "loop (see docs/training.md)")
    train.add_argument("--sync-every", type=int, default=8,
                       help="episodes per policy broadcast in parallel "
                            "training (staleness bound; part of the "
                            "schedule identity)")
    train.add_argument("--learn-every", type=int, default=1,
                       help="environment steps between optimization steps")
    train.add_argument("--log-json", default=None,
                       help="write the per-episode training log to this file")

    evaluate = commands.add_parser("evaluate", help="paper metrics on test episodes")
    evaluate.add_argument("--checkpoint", default=None)
    evaluate.add_argument("--scale", choices=sorted(SCALES), default="quick")
    evaluate.add_argument("--episodes", type=int, default=10)
    evaluate.add_argument("--baseline", action="store_true",
                          help="also evaluate IDM-LC for comparison")

    degradation = commands.add_parser(
        "degradation", help="sweep fault intensity and report robustness")
    degradation.add_argument("--checkpoint", default=None)
    degradation.add_argument("--scale", choices=sorted(SCALES), default="quick")
    degradation.add_argument("--episodes", type=int, default=5)
    degradation.add_argument("--intensities", default="0,0.25,0.5,1.0",
                             help="comma-separated fault intensities")
    degradation.add_argument("--max-steps", type=int, default=None)
    degradation.add_argument("--fault-seed", type=int, default=0)
    degradation.add_argument("--no-fallback", action="store_true",
                             help="disable the TTC safety fallback policy")
    degradation.add_argument("--out", default=None,
                             help="write the sweep as JSON to this file")

    fleet = commands.add_parser(
        "fleet", help="evaluate M HEAD agents sharing one engine")
    fleet.add_argument("--checkpoint", default=None)
    fleet.add_argument("--scale", choices=sorted(SCALES), default="quick")
    fleet.add_argument("--avs", type=int, default=4,
                       help="fleet size M (autonomous vehicles per episode)")
    fleet.add_argument("--vehicles", type=int, default=None,
                       help="total vehicle target N (overrides the scale's "
                            "density: N / road-length)")
    fleet.add_argument("--episodes", type=int, default=3)
    fleet.add_argument("--steps", type=int, default=None,
                       help="cap each episode at this many steps")
    fleet.add_argument("--seed", type=int, default=500,
                       help="first episode seed (episodes use seed..seed+E-1)")
    fleet.add_argument("--out", default=None,
                       help="write the fleet report as JSON to this file")

    drive = commands.add_parser("drive", help="replay one episode as ASCII art")
    drive.add_argument("--checkpoint", default=None)
    drive.add_argument("--scale", choices=sorted(SCALES), default="quick")
    drive.add_argument("--seed", type=int, default=7)
    drive.add_argument("--steps", type=int, default=40)
    drive.add_argument("--every", type=int, default=5,
                       help="render every N-th step")

    serve = commands.add_parser(
        "serve", help="run the HEAD inference service on a TCP port")
    serve.add_argument("--checkpoint", default=None)
    serve.add_argument("--scale", choices=sorted(SCALES), default="quick")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8477)
    serve.add_argument("--max-batch", type=int, default=32)
    serve.add_argument("--batch-window-ms", type=float, default=5.0)
    serve.add_argument("--capacity", type=int, default=256,
                       help="admission queue bound (backpressure beyond it)")
    serve.add_argument("--handler-timeout", type=float, default=2.0)
    serve.add_argument("--default-deadline-ms", type=float, default=None,
                       help="implicit per-request deadline when the client "
                            "sends none")

    loadgen = commands.add_parser(
        "loadgen", help="seeded open-loop load against an in-process server")
    loadgen.add_argument("--checkpoint", default=None)
    loadgen.add_argument("--scale", choices=sorted(SCALES), default="quick")
    loadgen.add_argument("--duration", type=float, default=2.0)
    loadgen.add_argument("--rate", type=float, default=200.0,
                         help="mean Poisson arrivals per second")
    loadgen.add_argument("--burst-rate", type=float, default=0.0,
                         help="extra rate during periodic bursts")
    loadgen.add_argument("--deadline-ms", type=float, default=250.0)
    loadgen.add_argument("--poison-fraction", type=float, default=0.0,
                         help="fraction of requests with NaN-poisoned graphs")
    loadgen.add_argument("--stall-rate", type=float, default=0.0,
                         help="per-batch probability of an injected handler "
                              "stall (chaos)")
    loadgen.add_argument("--batch-window-ms", type=float, default=5.0)
    loadgen.add_argument("--max-batch", type=int, default=32)
    loadgen.add_argument("--capacity", type=int, default=256)
    loadgen.add_argument("--handler-timeout", type=float, default=0.5)
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--out", default=None,
                         help="write the load report as JSON to this file")

    lint = commands.add_parser(
        "lint", help="run the reprolint static analyzer (per-file and "
                     "whole-program rules); exits 1 on any finding")
    lint.add_argument("paths", nargs="*", default=None,
                      help="files or directories to lint (default: every "
                           "existing one of src tests examples scripts "
                           "benchmarks)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")

    commands.add_parser("info", help="print configuration summary")
    return parser


def _make_head(scale: str, seed: int, checkpoint: str | None) -> HEAD:
    head = HEAD(SCALES[scale](), rng=default_generator(seed))
    head.agent.epsilon = EpsilonSchedule(decay_steps=4000)
    if checkpoint:
        head.load(checkpoint)
    return head


def cmd_generate_data(args: argparse.Namespace) -> int:
    dataset = generate_real_dataset(seed=args.seed, steps=args.steps,
                                    density_per_km=args.density)
    path = dataset.save(args.out)
    print(f"wrote {len(dataset)} snapshots "
          f"({len(dataset.vehicle_ids())} vehicles) to {path}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    head = _make_head(args.scale, args.seed, checkpoint=None)
    if args.skip_perception:
        print("skipping LST-GAT training (--skip-perception)")
    else:
        print("training LST-GAT ...")
        trajectories = generate_real_dataset(seed=args.seed, steps=200)
        perception = head.train_perception(trajectories, max_egos=6)
        print(f"  final loss {perception.final_loss:.4f}")
    episodes = args.episodes or head.config.training_episodes
    mode = (f"{args.workers} actor workers" if args.workers >= 2
            else "serial loop")
    print(f"training BP-DQN for {episodes} episodes ({mode}) ...")
    checkpoint_dir = args.out if args.checkpoint_every > 0 else None
    decision = head.train_decision(episodes=episodes,
                                   checkpoint_dir=checkpoint_dir,
                                   checkpoint_every=args.checkpoint_every,
                                   resume=not args.no_resume,
                                   max_episode_steps=args.max_steps,
                                   workers=args.workers,
                                   sync_every=args.sync_every,
                                   learn_every=args.learn_every)
    if decision.resumed_episodes:
        print(f"  resumed from episode {decision.resumed_episodes}")
    print(f"  collisions {decision.collisions}/{decision.episodes}, "
          f"recent reward {decision.mean_recent_reward():.3f}")
    if args.log_json:
        import json
        from pathlib import Path
        log_path = Path(args.log_json)
        log_path.parent.mkdir(parents=True, exist_ok=True)
        log_path.write_text(json.dumps({
            "episode_rewards": decision.episode_rewards,
            "episode_steps": decision.episode_steps,
            "collisions": decision.collisions,
            "nan_rollbacks": decision.nan_rollbacks,
            "resumed_episodes": decision.resumed_episodes,
            "transition_digest": decision.transition_digest,
        }, indent=2) + "\n")
        print(f"  training log written to {log_path}")
    path = head.save(args.out)
    print(f"checkpoint saved to {path}")
    return 0


def cmd_degradation(args: argparse.Namespace) -> int:
    from .eval import degradation_sweep

    head = _make_head(args.scale, 0, args.checkpoint)
    intensities = [float(value) for value in args.intensities.split(",")]
    seeds = range(900, 900 + args.episodes)
    report = degradation_sweep(head, intensities, seeds,
                               max_steps=args.max_steps,
                               use_fallback=not args.no_fallback,
                               fault_seed=args.fault_seed)
    print(report.render())
    if args.out:
        path = report.save(args.out)
        print(f"sweep written to {path}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    head = _make_head(args.scale, 0, args.checkpoint)
    seeds = range(500, 500 + args.episodes)
    reports = {"HEAD": head.evaluate(seeds=seeds)}
    if args.baseline:
        reports["IDM-LC"] = evaluate_controller(IDMLCPolicy(), head.make_env(), seeds)
    print(render_metric_table("Evaluation", reports))
    print("collisions:", {name: report.collisions
                          for name, report in reports.items()})
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from .eval import evaluate_fleet

    head = _make_head(args.scale, 0, args.checkpoint)
    env = head.make_fleet_env(args.avs, max_steps=args.steps)
    if args.vehicles is not None:
        env.density_per_km = args.vehicles / (env.road.length / 1000.0)
    seeds = range(args.seed, args.seed + args.episodes)
    report = evaluate_fleet(head.fleet_controller(), env, seeds,
                            max_steps=args.steps)
    print(f"fleet of {report.num_avs} AVs, {args.episodes} episode(s), "
          f"~{env.density_per_km * env.road.length / 1000.0:.0f} vehicles")
    print(f"  avg speed {report.avg_v_fleet:.2f} m/s, "
          f"avg jerk {report.avg_j_fleet:.2f}, "
          f"min TTC {report.min_ttc_fleet:.2f} s")
    print(f"  impact on conventional: {report.avg_count_av_on_cv:.2f}/ep "
          f"(avg drop {report.avg_d_av_on_cv:.2f} m/s)")
    print(f"  impact on fleet:        {report.avg_count_av_on_av:.2f}/ep "
          f"(avg drop {report.avg_d_av_on_av:.2f} m/s)")
    print(f"  collision rate {report.collision_rate:.3f}, "
          f"AV-AV collisions {report.av_av_collision_rate:.2f}/ep, "
          f"finished {report.finished_rate:.0%}, "
          f"mean fleet reward {report.mean_reward:+.2f}")
    if args.out:
        from pathlib import Path
        Path(args.out).write_text(
            json.dumps(dataclasses.asdict(report), indent=2) + "\n")
        print(f"report written to {args.out}")
    return 0


def cmd_drive(args: argparse.Namespace) -> int:
    head = _make_head(args.scale, 0, args.checkpoint)
    env = head.make_env()
    state = env.reset(args.seed)
    for step in range(args.steps):
        action = head.agent.act(state, explore=False)
        state, breakdown, done, _ = env.step(action)
        if step % args.every == 0 and env.av is not None:
            print(render_window(env.engine, env.AV_ID))
            print(f"  action: {action.behavior.name} a={action.accel:+.2f}  "
                  f"reward {breakdown.total:+.3f}\n")
        if done or state is None:
            print(f"episode ended at step {step + 1}: "
                  f"finished={env.result.finished} collided={env.result.collided}")
            break
    return 0


def _make_engine(args: argparse.Namespace):
    from .serve import BatchInferenceEngine

    head = _make_head(args.scale, 0, args.checkpoint)
    return BatchInferenceEngine.from_head(head)


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import (BatcherConfig, InferenceServer, ServerConfig,
                        TcpTransport)

    engine = _make_engine(args)
    config = ServerConfig(
        batcher=BatcherConfig(max_batch=args.max_batch,
                              batch_window=args.batch_window_ms / 1e3,
                              capacity=args.capacity),
        handler_timeout=args.handler_timeout,
        default_deadline=(None if args.default_deadline_ms is None
                          else args.default_deadline_ms / 1e3))

    async def run() -> None:
        server = InferenceServer(engine, config)
        await server.start()
        transport = TcpTransport(server, host=args.host, port=args.port)
        await transport.start()
        print(f"serving HEAD on {args.host}:{transport.port} "
              f"(max_batch={args.max_batch}, "
              f"window={args.batch_window_ms:.1f}ms, "
              f"capacity={args.capacity})")
        try:
            await transport.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await transport.stop()
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nserver stopped")
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .faults.service import FaultyEngine, ServiceFaultSchedule
    from .serve import (BatcherConfig, ClientConfig, InferenceServer,
                        LoadProfile, ServeClient, ServerConfig,
                        make_graph_pool, run_load)

    engine = _make_engine(args)
    if args.stall_rate > 0.0:
        engine = FaultyEngine(engine, ServiceFaultSchedule(
            stall_rate=args.stall_rate,
            stall_seconds=2.0 * args.handler_timeout, seed=args.seed))
    config = ServerConfig(
        batcher=BatcherConfig(max_batch=args.max_batch,
                              batch_window=args.batch_window_ms / 1e3,
                              capacity=args.capacity),
        handler_timeout=args.handler_timeout)
    profile = LoadProfile(duration=args.duration, rate=args.rate,
                          burst_rate=args.burst_rate,
                          deadline_budget=args.deadline_ms / 1e3,
                          poison_fraction=args.poison_fraction,
                          seed=args.seed)
    pool = make_graph_pool(16, seed=args.seed + 1)

    async def run():
        server = InferenceServer(engine, config)
        await server.start()
        client = ServeClient(server, ClientConfig(), seed=args.seed + 2)
        report = await run_load(client, profile, pool)
        await server.stop()
        return report, server.health_report()

    report, health = asyncio.run(run())
    summary = {
        "offered": report.offered,
        "answered": report.answered,
        "shed": report.shed,
        "verdicts": report.verdict_counts(),
        "p50_latency_ms": report.latency_quantile(0.5) * 1e3,
        "p99_latency_ms": report.latency_quantile(0.99) * 1e3,
        "breaker_trips": health.breaker_trips,
        "breaker_recoveries": health.breaker_recoveries,
        "final_level": health.level.label,
        "handler_failures": health.handler_failures_total,
    }
    print(f"offered {summary['offered']}, answered {summary['answered']}, "
          f"shed {summary['shed']}")
    print(f"p50 {summary['p50_latency_ms']:.1f}ms, "
          f"p99 {summary['p99_latency_ms']:.1f}ms")
    print(f"breaker: {summary['breaker_trips']} trips, "
          f"{summary['breaker_recoveries']} recoveries, "
          f"final level {summary['final_level']}")
    print(f"verdicts: {summary['verdicts']}")
    if args.out:
        from pathlib import Path
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
        print(f"report written to {args.out}")
    return 0


DEFAULT_LINT_PATHS = ("src", "tests", "examples", "scripts", "benchmarks")


def cmd_lint(args: argparse.Namespace) -> int:
    import time
    from pathlib import Path

    from .analysis import RULES
    from .analysis.driver import lint_project
    from .analysis.program import PROGRAM_RULES

    if args.list_rules:
        for rule_id, lint_rule in RULES.items():
            print(f"{rule_id:>32}  {lint_rule.summary}")
        for rule_id, program_lint_rule in PROGRAM_RULES.items():
            print(f"{rule_id:>32}  [program] {program_lint_rule.summary}")
        return 0

    paths = args.paths
    if not paths:
        paths = [path for path in DEFAULT_LINT_PATHS if Path(path).is_dir()]
    started = time.perf_counter()
    report = lint_project(paths)
    for finding in report.findings:
        print(finding.render())
    noun = "finding" if len(report.findings) == 1 else "findings"
    print(f"reprolint: {len(report.findings)} {noun} in "
          f"{report.files_total} files in "
          f"{time.perf_counter() - started:.2f}s")
    return 1 if report.findings else 0


def cmd_info(args: argparse.Namespace) -> int:
    print(f"repro {__version__} -- HEAD (ICDE 2023) reproduction")
    for name, factory in SCALES.items():
        config = factory()
        print(f"  scale {name:>6}: road {config.road_length:.0f} m, "
              f"{config.density_per_km:.0f} veh/km, "
              f"{config.training_episodes} training episodes")
    return 0


COMMANDS = {
    "generate-data": cmd_generate_data,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "degradation": cmd_degradation,
    "fleet": cmd_fleet,
    "drive": cmd_drive,
    "serve": cmd_serve,
    "loadgen": cmd_loadgen,
    "lint": cmd_lint,
    "info": cmd_info,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
