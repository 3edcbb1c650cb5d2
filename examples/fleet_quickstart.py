"""Serve one model from a supervised multi-replica fleet.

This picks up where ``examples/serve_quickstart.py`` stops.  An
:class:`InferenceServer` is the fleet with one replica and scales by
batching; more replicas scale by *replication*, and the fleet adds the
deployment-side machinery around them:

1. stand up a :class:`FleetServer` with two in-process replicas of one
   TT-SNN snapshot (serving its TT cores) and fire a concurrent burst into
   their shared bounded admission queue (priorities, per-request deadlines),
2. kill a replica mid-traffic and watch the fleet reroute and auto-restart,
3. roll out a "new version" as a **canary** (10% of traffic, auto-promote
   on the error-rate + p99 gate) and then validate another candidate in
   **shadow** mode (mirrored traffic, logits compared, never answering),
4. stream a continuous event sequence through a stateful session whose LIF
   membranes persist across chunks — the running logits match the one-shot
   fixed-``T`` forward exactly.

Run:  python examples/fleet_quickstart.py
Takes well under a minute on a laptop CPU.
"""

from __future__ import annotations

import time

import numpy as np

from repro.fleet import FleetServer, Overloaded
from repro.models.builder import convert_to_tt
from repro.models.vgg import spiking_vgg9
from repro.serve import InferenceEngine


def make_model(seed: int, timesteps: int = 4):
    model = spiking_vgg9(num_classes=8, in_channels=3, timesteps=timesteps,
                         width_scale=0.125, rng=np.random.default_rng(seed))
    convert_to_tt(model, variant="ptt", rank=4, timesteps=timesteps)
    return model


def submit_with_retry(fleet: FleetServer, name: str, sample, **kwargs):
    """The client half of the backpressure contract: on ``Overloaded``,
    back off for the server's ``retry_after_s`` hint and resubmit."""
    while True:
        try:
            return fleet.submit(name, sample, **kwargs)
        except Overloaded as error:
            time.sleep(error.retry_after_s)


def main() -> None:
    rng = np.random.default_rng(0)
    samples = rng.random((64, 3, 16, 16)).astype(np.float32)

    fleet = FleetServer(replicas=2, max_batch_size=8, max_wait_ms=2.0,
                        queue_capacity=32, restart_backoff_s=0.2)

    # 1. Two replicas of one TT-core snapshot pulling from one admission queue.
    fleet.register("vgg", make_model(0), warmup_sample=samples[0])
    futures = [submit_with_retry(fleet, "vgg", sample, priority=i % 2,
                                 deadline_s=30.0)
               for i, sample in enumerate(samples)]
    rows = np.stack([future.result(timeout=120) for future in futures])
    print(f"burst of {len(rows)} answered by "
          f"{[r['name'] for r in fleet.replica_status('vgg')]}")
    for row in fleet.replica_status("vgg"):
        print(f"  {row['name']}: alive={row['alive']} "
              f"utilization={row['utilization']:.2f}")

    # 2. Kill a replica mid-traffic: the batch it held is requeued for its
    #    sibling, the supervisor restarts the slot with capped backoff.
    fleet._entry("vgg").group.slots[0].replica.kill()
    more = [fleet.submit("vgg", sample) for sample in samples[:16]]
    answered = sum(1 for f in more if np.isfinite(f.result(timeout=120)).all())
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if all(r["alive"] for r in fleet.replica_status("vgg")):
            break
        time.sleep(0.05)
    print(f"after kill: {answered}/16 answered, replicas "
          f"{[(r['name'], r['alive']) for r in fleet.replica_status('vgg')]}")

    # 3a. Canary rollout: v2 takes 10% of traffic until the gate decides.
    rollout = fleet.deploy("vgg", make_model(0), version=2, mode="canary",
                           fraction=0.1, min_requests=4, max_p99_ratio=50.0)
    while rollout.decision is None:
        for sample in samples:
            submit_with_retry(fleet, "vgg", sample).result(timeout=120)
    print(f"canary v2: {rollout.decision} after "
          f"{rollout.report()['arms']['canary']['requests']} canary answers")

    # 3b. Shadow rollout: v3 sees mirrored traffic, never answers a client.
    shadow = fleet.deploy("vgg", make_model(0), version=3, mode="shadow")
    for sample in samples[:24]:
        fleet.submit("vgg", sample).result(timeout=120)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline and shadow.report()["compared"] < 24:
        time.sleep(0.05)
    report = fleet.shadow_report("vgg")
    print(f"shadow v3: compared {report['compared']}, "
          f"max |delta| {report['max_abs_diff']:.2e}, clean={shadow.clean}")
    fleet.promote_shadow("vgg")

    # 4. Streaming: LIF membranes persist across chunks inside a session.
    timesteps = 6
    fleet.register("stream", make_model(1, timesteps=timesteps))
    frames = rng.random((timesteps, 3, 16, 16)).astype(np.float32)
    one_shot = InferenceEngine(make_model(1, timesteps=timesteps)).infer(
        frames[:, None])[0]
    with fleet.open_session("stream") as session:
        for chunk in (frames[:2], frames[2:4], frames[4:]):
            running = session.send_chunk(chunk)
            print(f"  streamed {session.timesteps_seen}/{timesteps} frames, "
                  f"prediction so far: {int(np.argmax(running))}")
    print(f"streaming parity vs one-shot T={timesteps} forward: "
          f"max |delta| {np.max(np.abs(running - one_shot)):.2e}")

    fleet.close()
    print("fleet quickstart OK")


if __name__ == "__main__":
    main()
