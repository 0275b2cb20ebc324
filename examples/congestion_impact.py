"""Impact on traffic: why impact-aware decisions matter (paper Sec. I).

The paper's motivation is the 'domino effect': one vehicle's hard brake
or forced lane change ripples backwards through dense traffic.  This
example puts controllers with *different degrees of impact awareness*
into the same congested episodes and measures what happens to the
vehicles behind them:

* an aggressive hand-crafted policy (tailgates, changes lanes greedily);
* the rule-based IDM-LC baseline;
* the prediction-and-search TP-BTS baseline;
* a briefly trained impact-aware HEAD agent.

Run:  python examples/congestion_impact.py
"""

import numpy as np

from repro import HEAD, HEADConfig
from repro.decision import (Controller, EpsilonSchedule, IDMLCPolicy,
                            LaneBehavior, ParameterizedAction, TPBTSPolicy)
from repro.eval import evaluate_controller, render_table
from repro.perception.phantom import TrackKind
from repro.seeding import default_generator
from repro.sim import constants


class AggressivePolicy(Controller):
    """Tailgate at full throttle; brake late; jump lanes for any gain."""

    name = "Aggressive"

    def select_action(self, env, state) -> ParameterizedAction:
        av = env.av
        scene = env.frame.scene
        front = scene.node(2)
        behavior = LaneBehavior.KEEP
        accel = constants.A_MAX
        if front.kind is not TrackKind.ZERO:
            gap = front.lon - constants.VEHICLE_LENGTH - av.lon
            if gap < 8.0:
                # Late hard brake, or barge into a neighbor lane.
                for candidate, area in ((LaneBehavior.LEFT, 1), (LaneBehavior.RIGHT, 3)):
                    lane = av.lane + candidate.lane_delta
                    side = scene.node(area)
                    side_gap = (abs(side.lon - av.lon)
                                if side.kind is not TrackKind.ZERO else 1e9)
                    if env.road.is_valid_lane(lane) and side_gap > 12.0:
                        behavior = candidate
                        break
                else:
                    accel = -constants.A_MAX
        return ParameterizedAction(behavior, accel)


def main() -> None:
    rng = default_generator(2)
    config = HEADConfig().scaled(road_length=600.0, density_per_km=130,
                                 training_episodes=120, max_episode_steps=150)
    head = HEAD(config, rng=rng)
    head.agent.epsilon = EpsilonSchedule(decay_steps=3000)
    print("training an impact-aware HEAD agent (a couple of minutes) ...")
    head.train_decision()

    controllers = {
        "Aggressive": AggressivePolicy(),
        "IDM-LC": IDMLCPolicy(),
        "TP-BTS": TPBTSPolicy(),
        "HEAD": head.controller(),
    }
    seeds = range(700, 710)
    rows = {}
    for name, controller in controllers.items():
        report = evaluate_controller(controller, head.make_env(), seeds)
        rows[name] = [report.avg_count_ca, report.avg_d_ca, report.avg_dt_c,
                      report.avg_v_a, float(report.collisions)]

    headers = ["Avg#-CA", "AvgD-CA(m/s)", "AvgDT-C(s)", "AvgV-A(m/s)", "collisions"]
    print()
    print(render_table("Impact of the AV's driving style on surrounding traffic",
                       headers, rows))
    print("\nAvg#-CA / AvgD-CA: how often / how hard the AV forces its rear")
    print("vehicle to brake; AvgDT-C: travel time of the traffic behind it.")
    print("Note: the HEAD agent here is deliberately trained only briefly to")
    print("keep the demo fast; the benchmark suite trains converged policies")
    print("(see benchmarks/_artifacts.py).")


if __name__ == "__main__":
    main()
