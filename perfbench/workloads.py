"""The four benchmark workloads, driven through HEAD's public API.

Every workload follows the same shape:

* ``setup()`` builds the system from scratch and runs the workload's own
  warm-up, returning a :class:`State` whose ``warm_digest`` must repeat
  exactly across set-ups;
* ``run(state, seconds=..., blocks=...)`` executes units until the time
  is up (untraced run) or until as many stop-rule blocks as an earlier
  run completed (traced rerun), recording per-unit latency and a
  running digest;
* ``verify(state, phase)`` makes the checks that need the live system
  after the timed phase.

All inputs derive from the benchmark seed; the program only sees the
generated episode seeds, configs and request graphs.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro import HEAD, HEADConfig
from repro.decision.pamdp import (LaneBehavior, ParameterizedAction,
                                  augmented_state_from_graph)
from repro.decision.trainer import EpisodeRunner, LearningSink
from repro.perception import phantom
from repro.seeding import default_generator
from repro.serve import (BatchInferenceEngine, BatcherConfig, InferenceServer,
                         ServerConfig, Verdict, make_graph_pool)
from repro.sim import constants

from spans import Tracer

#: Units are timed on the process CPU clock.  The load is this one
#: CPU-bound process, so on a dedicated core CPU time equals wall time;
#: on a shared host wall time also counts the time other tenants hold
#: the core, which moved identical runs by a third.
cpu_clock = time.process_time

#: CPU seconds :func:`reference_kernel` takes on the reference core.
REFERENCE_KERNEL_S = 5.0e-3


def reference_kernel() -> float:
    """Fixed work that runs no program code: interpreter loops and small
    NumPy calls, the kinds of work the program's hot paths do."""
    total = 0.0
    table = {}
    for index in range(20_000):
        total += (index * 0.5) % 7.0
        table[index & 255] = total
    matrix = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
    for _ in range(300):
        matrix = np.tanh(matrix @ matrix + 0.1)
    return total + float(matrix.sum())


def calibrate(samples: list[float], repeats: int = 3) -> None:
    """Append the CPU time of ``repeats`` reference-kernel calls.

    Other tenants slow this host's core by up to 2x for minutes at a
    time, and CPU time slows with it.  The kernel slows alike, so a run
    samples it between slices and reports its times scaled to the
    reference core (``REFERENCE_KERNEL_S / median sample``).
    """
    for _ in range(repeats):
        began = cpu_clock()
        reference_kernel()
        samples.append(cpu_clock() - began)


@dataclass
class Phase:
    """What one timed phase of a workload produced."""

    units: int = 0                 # completed units
    attempted: int = 0
    failed: int = 0
    blocks: int = 0                # stop-rule steps (a traced rerun repeats these)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    #: Completed units per second of each consecutive slice of the run;
    #: their median is the reported throughput, so a burst of host noise
    #: moves one slice, not the figure.
    rates: list[float] = field(default_factory=list)
    #: CPU seconds of reference-kernel calls made between slices.
    kernel_s: list[float] = field(default_factory=list)
    #: Running digest after each unit; a traced rerun must reproduce it.
    digests: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


@dataclass
class State:
    """One built system, ready for a timed phase."""

    head: HEAD
    warm_digest: str
    env: object = None
    extra: dict = field(default_factory=dict)


class Chain:
    """Running SHA-256 over a unit stream; one hex digest per unit."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *parts) -> str:
        for part in parts:
            self._hash.update(part if isinstance(part, bytes)
                              else repr(part).encode())
        return self._hash.copy().hexdigest()


def action_bytes(action: ParameterizedAction) -> bytes:
    return (int(action.behavior).to_bytes(1, "little")
            + np.float64(action.accel).tobytes())


def safe_follow(env) -> ParameterizedAction:
    """Scripted lane-keeping car-follower executed in place of the policy.

    The same rule as the fleet benchmark's follower: an untrained greedy
    agent collides within a few dozen steps in most episodes, which
    would turn a decision-step benchmark into a reset benchmark.  The
    greedy action is still computed every step; only its execution is
    replaced.
    """
    av = env.av
    leader = env.engine.leader_of(av)
    if leader is not None and av.gap_to(leader) < 30.0:
        return ParameterizedAction(LaneBehavior.from_delta(0), -2.0)
    return ParameterizedAction(LaneBehavior.from_delta(0), 1.0)


def world_digest(engine) -> tuple[int, str]:
    """(vehicle count, SHA-256 of every vehicle's id and state)."""
    vehicles = sorted(engine.vehicles.values(), key=lambda v: v.vid)
    state = np.array([(v.lane, v.lon, v.v) for v in vehicles], dtype=np.float64)
    digest = hashlib.sha256(",".join(v.vid for v in vehicles).encode())
    digest.update(state.tobytes())
    return len(vehicles), digest.hexdigest()


def spawn_violations(engine) -> int:
    """Same-lane neighbours closer than ``VEHICLE_LENGTH + 1`` m."""
    by_lane: dict[int, list[float]] = {}
    for vehicle in engine.vehicles.values():
        by_lane.setdefault(vehicle.lane, []).append(vehicle.lon)
    min_space = constants.VEHICLE_LENGTH + 1.0
    return sum(int((np.diff(np.sort(lons)) < min_space).sum())
               for lons in by_lane.values())


def clear_process_caches() -> None:
    """Empty the program's process-wide caches before a set-up.

    The traced rerun replays the untraced run's episodes; without this a
    cache filled by the first pass would serve the second, and each
    set-up would start warmer than the one before.
    """
    cache = getattr(phantom, "PHANTOM_CACHE", None)
    if cache is not None:
        cache.clear()


#: Seed of every network initialization.  The system under test is one
#: fixed HEAD model; ``--seed`` varies only its inputs (traffic episodes,
#: request graphs), which keeps one seed's model from setting the cost
#: of a whole run.
MODEL_SEED = 0


def episode_seed(seed: int, index: int) -> int:
    """Episode ``index`` of the run seeded ``seed``; disjoint across seeds."""
    return 1_000_003 * (seed + 1) + index


def _stop(start: float, phase: Phase, seconds: float | None,
          blocks: int | None) -> bool:
    """Stop rule, checked between slices; also samples the host speed."""
    calibrate(phase.kernel_s)
    if blocks is not None:
        return phase.blocks >= blocks
    return time.perf_counter() - start >= seconds


class Workload:
    """One seeded workload; subclasses define set-up and the timed run."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def verify(self, state: State, phase: Phase) -> list[str]:
        """Checks that need the live system after the timed phase."""
        return []


class DriveWorkload(Workload):
    """Shared driving loop: greedy ``act`` timed, safe follower executed."""

    road_length = 0.0
    density_per_km = 0.0
    warmup_steps = 0

    def build(self) -> tuple[HEAD, object]:
        head = HEAD(HEADConfig().scaled(road_length=self.road_length,
                                        density_per_km=self.density_per_km),
                    rng=default_generator(MODEL_SEED))
        return head, head.make_env()

    def setup(self) -> State:
        head, env = self.build()
        # The warm-up episode seed lies below every timed episode seed.
        chain = Chain()
        observation = env.reset(episode_seed(self.seed, -1))
        chain.add(*world_digest(env.engine))
        digest = self.drive(env, head.agent, observation, self.warmup_steps,
                            chain)
        return State(head=head, env=env, warm_digest=digest)

    @staticmethod
    def drive(env, agent, observation, steps: int, chain: Chain) -> str:
        """Greedy-act-then-follow steps until ``steps`` or episode end."""
        digest = ""
        for _ in range(steps):
            greedy = agent.act(observation, explore=False)
            observation, _, done, _ = env.step(safe_follow(env))
            digest = chain.add(action_bytes(greedy))
            if done:
                break
        return digest


class EvalDrive(DriveWorkload):
    """Greedy HEAD evaluation, one AV in 1 km x 6 lanes at 200 veh/km."""

    name = "eval-drive"
    road_length = 1000.0
    density_per_km = 200.0
    warmup_steps = 20

    def run(self, state: State, seconds: float | None = None,
            blocks: int | None = None, tracer: Tracer | None = None) -> Phase:
        """Whole episodes; each is one throughput slice, reset included."""
        env, agent = state.env, state.head.agent
        phase = Phase()
        chain = Chain()
        start, cpu_start = time.perf_counter(), cpu_clock()
        while not _stop(start, phase, seconds, blocks):
            seed = episode_seed(self.seed, phase.blocks)
            episode_began = cpu_clock()
            observation = env.reset(seed)
            steps, done = 0, False
            while not done:
                if tracer is not None:
                    tracer.unit = phase.attempted
                began = cpu_clock()
                greedy = agent.act(observation, explore=False)
                observation, _, done, _ = env.step(safe_follow(env))
                phase.latencies_s.append(cpu_clock() - began)
                phase.attempted += 1
                steps += 1
                phase.digests.append(chain.add(action_bytes(greedy)))
            collided = int(env.result.collided)
            if collided:
                phase.failures.append(f"eval-drive: collision in episode "
                                      f"seed {seed}")
            phase.failed += collided
            phase.units += steps - collided
            phase.blocks += 1
            phase.rates.append((steps - collided)
                               / (cpu_clock() - episode_began))
        phase.wall_s = time.perf_counter() - start
        phase.cpu_s = cpu_clock() - cpu_start
        return phase


class ResetPaper(DriveWorkload):
    """Episode start on the paper's road: 3 km at 180 veh/km, cut at 5 steps."""

    name = "reset-paper"
    road_length = constants.ROAD_LENGTH
    density_per_km = constants.DENSITY_PER_KM
    warmup_steps = 5
    steps_per_episode = 5

    def run(self, state: State, seconds: float | None = None,
            blocks: int | None = None, tracer: Tracer | None = None) -> Phase:
        env = state.env
        phase = Phase()
        chain = Chain()
        worlds = state.extra.setdefault("worlds", {})
        start, cpu_start = time.perf_counter(), cpu_clock()
        while not _stop(start, phase, seconds, blocks):
            seed = episode_seed(self.seed, phase.blocks)
            if tracer is not None:
                tracer.unit = phase.attempted
            began = cpu_clock()
            observation = env.reset(seed)
            reset_done = cpu_clock()
            count, digest = world_digest(env.engine)
            worlds[seed] = (count, digest)
            crowded = spawn_violations(env.engine)
            resumed = cpu_clock()
            chain.add(count, digest)
            self.drive(env, state.head.agent, observation,
                       self.steps_per_episode, chain)
            ended = cpu_clock()
            phase.latencies_s.append(ended - resumed + reset_done - began)
            phase.attempted += 1
            phase.blocks += 1
            if crowded:
                phase.failures.append(f"reset-paper: seed {seed} spawned "
                                      f"{crowded} too-close pairs")
            if env.result.collided:
                phase.failed += 1
                phase.failures.append(f"reset-paper: collision in seed {seed}")
            else:
                phase.units += 1
                phase.rates.append(1.0 / (ended - began))
            phase.digests.append(chain.add())
        phase.wall_s = time.perf_counter() - start
        phase.cpu_s = cpu_clock() - cpu_start
        return phase

    def verify(self, state: State, phase: Phase) -> list[str]:
        """Resetting a seed again rebuilds exactly the same world."""
        worlds = state.extra.get("worlds", {})
        failures = []
        seeds = sorted(worlds)
        for seed in {seeds[0], seeds[-1]} if seeds else ():
            state.env.reset(seed)
            again = world_digest(state.env.engine)
            if again != worlds[seed]:
                failures.append(f"reset-paper: seed {seed} rebuilt "
                                f"{again[0]} vehicles / {again[1][:12]}, "
                                f"first {worlds[seed][0]} / "
                                f"{worlds[seed][1][:12]}")
        return failures


class _LearnRecorder:
    """Counts learner calls and updates and checks every loss is finite.

    Installed as an instance attribute of the benchmark's own agent; it
    calls the class's ``learn`` at call time, so a tracer patching the
    class still sees every call.
    """

    def __init__(self, agent) -> None:
        self.agent = agent
        self.calls = 0
        self.updates = 0
        self.nonfinite = 0
        agent.learn = self

    def __call__(self):
        losses = type(self.agent).learn(self.agent)
        self.calls += 1
        if losses is not None:
            self.updates += 1
            if not all(math.isfinite(value) for value in losses.values()):
                self.nonfinite += 1
        return losses


class _TimedSink:
    """Wraps the learning sink: per-transition digest and latency."""

    def __init__(self, inner, chain: Chain, phase: Phase | None,
                 tracer: Tracer | None = None) -> None:
        self.inner = inner
        self.chain = chain
        self.phase = phase
        self.tracer = tracer
        self.last = cpu_clock()
        self.digest = ""

    def __call__(self, transition) -> bool:
        diverged = self.inner(transition)
        state, following = transition.state, transition.next_state
        self.digest = self.chain.add(
            state.current.tobytes(), state.future.tobytes(),
            transition.behavior, np.float64(transition.accel).tobytes(),
            np.float64(transition.reward).tobytes(), transition.done,
            b"" if following is None else following.current.tobytes())
        now = cpu_clock()
        if self.phase is not None:
            phase = self.phase
            phase.latencies_s.append(now - self.last)
            phase.attempted += 1
            phase.units += 1
            phase.digests.append(self.digest)
            if self.tracer is not None:
                self.tracer.unit = phase.attempted
        self.last = now
        return diverged


class TrainOnline(Workload):
    """Serial online BP-DQN training, one learner update per env step."""

    name = "train-online"
    #: Consecutive env steps per throughput slice (episodes vary in length).
    slice_steps = 50
    #: Episode cap.  One run then spans many episodes, so the traffic of a
    #: few long ones does not set the cost of a whole run.
    episode_steps = 40

    def setup(self) -> State:
        head = HEAD(HEADConfig().scaled(), rng=default_generator(MODEL_SEED))
        env = head.make_env()
        recorder = _LearnRecorder(head.agent)
        runner = EpisodeRunner(env, max_episode_steps=self.episode_steps)
        sink = LearningSink(head.agent, learn_every=1)
        chain = Chain()
        timed = _TimedSink(sink, chain, None)
        # Pre-fill replay up to the warm-up, so every timed step updates;
        # the last episode is cut to make the pre-fill the same length on
        # every seed.
        needed = max(head.agent.warmup, head.agent.batch_size)
        episode = 0
        while len(head.agent.buffer) < needed:
            episode -= 1
            cap = min(self.episode_steps, needed - len(head.agent.buffer))
            EpisodeRunner(env, max_episode_steps=cap).run(
                head.agent, episode_seed(self.seed, episode), timed)
        return State(head=head, env=env, warm_digest=timed.digest,
                     extra={"recorder": recorder, "runner": runner,
                            "sink": sink})

    def run(self, state: State, seconds: float | None = None,
            blocks: int | None = None, tracer: Tracer | None = None) -> Phase:
        recorder = state.extra["recorder"]
        runner = state.extra["runner"]
        phase = Phase()
        timed = _TimedSink(state.extra["sink"], Chain(), phase, tracer)
        calls, updates = recorder.calls, recorder.updates
        start, cpu_start = time.perf_counter(), cpu_clock()
        while not _stop(start, phase, seconds, blocks):
            timed.last = cpu_clock()
            outcome = runner.run(state.head.agent,
                                 episode_seed(self.seed, phase.blocks), timed)
            phase.blocks += 1
            if outcome.diverged:
                phase.failures.append("train-online: training diverged")
        phase.wall_s = time.perf_counter() - start
        phase.cpu_s = cpu_clock() - cpu_start
        cycles = phase.latencies_s
        phase.rates = [self.slice_steps / sum(cycles[first:first + self.slice_steps])
                       for first in range(0, len(cycles) - self.slice_steps + 1,
                                          self.slice_steps)]
        if (recorder.calls - calls != phase.units
                or recorder.updates - updates != phase.units):
            phase.failures.append(
                f"train-online: {phase.units} steps ran "
                f"{recorder.calls - calls} learn calls and "
                f"{recorder.updates - updates} updates")
        if recorder.nonfinite:
            phase.failures.append(f"train-online: {recorder.nonfinite} "
                                  f"non-finite losses")
        return phase


class ServeFleet(Workload):
    """16 closed-loop clients against the micro-batching inference server."""

    name = "serve-fleet"
    clients = 16
    requests_per_client = 25       # one round: 16 x 25 requests
    pool_size = 256
    identity_samples = 3

    def setup(self) -> State:
        head = HEAD(HEADConfig().scaled(), rng=default_generator(MODEL_SEED))
        engine = BatchInferenceEngine.from_head(head)
        pool = make_graph_pool(self.pool_size, seed=self.seed,
                               history_steps=head.config.history_steps)
        state = State(head=head, warm_digest="",
                      extra={"engine": engine, "pool": pool})
        pool_digest = Chain()
        for graph in pool:
            pool_digest.add(graph.target_features.tobytes())
        warm = Phase()
        asyncio.run(self._serve(state, warm, rounds=1, seconds=None,
                                tracer=None))
        if warm.failures:
            raise RuntimeError(f"warm-up: {warm.failures[0]}")
        state.warm_digest = pool_digest.add(*warm.digests)
        return state

    def server(self, engine, max_batch: int) -> InferenceServer:
        return InferenceServer(engine, ServerConfig(
            batcher=BatcherConfig(max_batch=max_batch, capacity=4 * max_batch),
            handler_timeout=60.0))

    async def _serve(self, state: State, phase: Phase, rounds: int | None,
                     seconds: float | None, tracer: Tracer | None) -> None:
        pool = state.extra["pool"]
        server = self.server(state.extra["engine"], self.clients)
        chain = Chain()
        answered: list[tuple[int, int, str]] = []
        waits = state.extra.setdefault("waits_ms", [])
        infer_ns = (tracer.notes.setdefault("serve.infer_ns_by_graph", {})
                    if tracer is not None else None)

        async def client(index: int, first: int) -> None:
            # Client i cycles through its own slice of the pool, so one
            # graph object is never in flight twice at the same time.
            for request in range(first, first + self.requests_per_client):
                slot = (index + self.clients * request) % len(pool)
                graph = pool[slot]
                began, cpu_began = time.perf_counter(), cpu_clock()
                response = await server.submit(graph)
                phase.latencies_s.append(cpu_clock() - cpu_began)
                latency = time.perf_counter() - began
                phase.attempted += 1
                if response.verdict is Verdict.OK:
                    phase.units += 1
                else:
                    phase.failed += 1
                    phase.failures.append(
                        f"serve-fleet: request answered "
                        f"{response.verdict.value}: {response.detail}")
                if infer_ns is not None and id(graph) in infer_ns:
                    waits.append(latency * 1e3 - infer_ns.pop(id(graph)) / 1e6)
                answered.append((index, slot, response.verdict.value))

        await server.start()
        try:
            start, cpu_start = time.perf_counter(), cpu_clock()
            while not _stop(start, phase, seconds, rounds):
                first = phase.blocks * self.requests_per_client
                round_began, answered_before = cpu_clock(), phase.units
                await asyncio.gather(*(client(index, first)
                                       for index in range(self.clients)))
                phase.rates.append((phase.units - answered_before)
                                   / (cpu_clock() - round_began))
                phase.blocks += 1
                # Clients interleave by timing, so the round is hashed in
                # canonical order.
                phase.digests.append(chain.add(sorted(answered)))
                answered.clear()
            phase.wall_s = time.perf_counter() - start
            phase.cpu_s = cpu_clock() - cpu_start
        finally:
            await server.stop()

    def run(self, state: State, seconds: float | None = None,
            blocks: int | None = None, tracer: Tracer | None = None) -> Phase:
        phase = Phase()
        state.extra["waits_ms"] = []
        asyncio.run(self._serve(state, phase, rounds=blocks, seconds=seconds,
                                tracer=tracer))
        return phase

    def verify(self, state: State, phase: Phase) -> list[str]:
        """A request served alone equals a direct ``PDQNAgent.act`` bitwise."""
        head, pool = state.head, state.extra["pool"]
        rng = default_generator(self.seed)
        samples = rng.choice(len(pool), size=self.identity_samples,
                             replace=False)

        async def alone(graph):
            server = self.server(state.extra["engine"], 1)
            await server.start()
            try:
                return await server.submit(graph)
            finally:
                await server.stop()

        failures = []
        for slot in samples:
            graph = pool[int(slot)]
            prediction = (head.guard or head.predictor).predict(graph)
            expected = head.agent.act(augmented_state_from_graph(graph, prediction),
                                      explore=False)
            response = asyncio.run(alone(graph))
            if (response.verdict is not Verdict.OK
                    or action_bytes(response.action) != action_bytes(expected)):
                failures.append(f"serve-fleet: graph {int(slot)} served "
                                f"{response.verdict.value} {response.action}, "
                                f"direct act gives {expected}")
        return failures


WORKLOADS = {workload.name: workload
             for workload in (EvalDrive, ResetPaper, TrainOnline, ServeFleet)}
