"""The layers the traced run attributes time to.

Each layer lists the public functions timed as that layer.  The table
is the prediction written down before measuring: which end-to-end
metric, on which workload, a change to the layer should move, and where
the layer does little or no work, so that a change to it should move
nothing there.

====================  ==========================================  =====================
layer                 should move                                 little or no work in
====================  ==========================================  =====================
sim.reset             reset-paper throughput_per_s, latency p50   serve-fleet (none),
                                                                  eval-drive (~10%)
sim.lane_query        reset-paper latency_ms_p50                  eval-drive, serve-fleet
sim.step              eval-drive latency_ms_p50,                  reset-paper, serve-fleet
                      train-online throughput_per_s
perception.sensor     eval-drive latency_ms_p50                   reset-paper, serve-fleet
perception.phantom    eval-drive latency_ms_p50                   reset-paper, serve-fleet
perception.graph      eval-drive latency_ms_p50                   reset-paper, serve-fleet
perception.lstgat     eval-drive latency_ms_p50,                  reset-paper
                      serve-fleet throughput_per_s
decision.act          eval-drive latency_ms_p50,                  reset-paper
                      serve-fleet throughput_per_s
decision.reward       eval-drive throughput_per_s                 serve-fleet
decision.learn        train-online throughput_per_s               eval-drive, reset-paper,
                                                                  serve-fleet
serve.infer           serve-fleet throughput_per_s, latency p50   all others
====================  ==========================================  =====================
"""

from __future__ import annotations

from spans import Target


def _count_updates(tracer, args, result, elapsed_ns) -> None:
    tracer.count("decision.learn.attempts")
    if result is not None:
        tracer.count("decision.learn.updates")


def _record_batch(tracer, args, result, elapsed_ns) -> None:
    graphs = args[1]
    tracer.count("serve.batches")
    tracer.count("serve.requests", len(graphs))
    infer_ns = tracer.notes.setdefault("serve.infer_ns_by_graph", {})
    for graph in graphs:
        infer_ns[id(graph)] = elapsed_ns


LAYERS: dict[str, tuple[Target, ...]] = {
    "sim.reset": (
        Target("repro.decision.environment", "DrivingEnv.reset"),
        Target("repro.sim.spawn", "build_episode")),
    "sim.lane_query": (
        Target("repro.sim.engine", "SimulationEngine.leader_in_lane"),
        Target("repro.sim.engine", "SimulationEngine.follower_in_lane")),
    "sim.step": (
        Target("repro.sim.engine", "SimulationEngine.step"),),
    "perception.sensor": (
        Target("repro.perception.sensor", "Sensor.observe"),),
    "perception.phantom": (
        Target("repro.perception.phantom", "build_scene"),),
    "perception.graph": (
        Target("repro.perception.graph", "build_graph"),),
    "perception.lstgat": (
        Target("repro.perception.predictor", "StatePredictor.predict"),
        Target("repro.perception.predictor", "StatePredictor.predict_many"),
        Target("repro.faults.guard", "PerceptionGuard.predict"),
        Target("repro.faults.guard", "PerceptionGuard.predict_many")),
    "decision.act": (
        Target("repro.decision.agents", "PDQNAgent.act"),
        Target("repro.decision.agents", "PDQNAgent.act_batch")),
    "decision.reward": (
        Target("repro.decision.reward", "HybridReward.compute"),
        Target("repro.decision.environment", "build_step_record")),
    "decision.learn": (
        Target("repro.decision.agents", "PamdpAgent.learn", _count_updates),
        Target("repro.nn.tensor", "Tensor.backward"),
        Target("repro.nn.optim", "Adam.step"),
        Target("repro.decision.replay", "ReplayBuffer.push"),
        Target("repro.decision.replay", "ReplayBuffer.sample")),
    "serve.infer": (
        Target("repro.serve.engine", "BatchInferenceEngine.infer",
               _record_batch),),
}
