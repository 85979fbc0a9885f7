#!/usr/bin/env python3
"""The deployable stack: a live cluster over UDP-style datagrams.

Everything in the other examples is simulated time.  This one runs the
*real* asyncio implementation: every node is an independent peer with
its own timers, both gossip layers (NEWSCAST below, bootstrap above)
multiplexed over one datagram endpoint with the binary wire codec --
the paper's "cheap UDP messages" made concrete.

The cluster runs on the in-process chaos fabric by default (with 20%
datagram loss, the paper's Figure 4 condition!); pass ``--udp`` to use
real sockets on 127.0.0.1.

Run:  python examples/asyncio_cluster.py [--udp] [size]
"""

from __future__ import annotations

import asyncio
import random
import sys
import time

from repro.net import ChaosHub, LinkFaults, LocalCluster


async def run_cluster(use_udp: bool, size: int) -> None:
    print(f"Creating {size} peers "
          f"({'real UDP sockets' if use_udp else 'loopback fabric, 20% loss'})"
          " ...")
    if use_udp:
        cluster = await LocalCluster.create_udp(size, seed=9)
    else:
        hub = ChaosHub(faults=LinkFaults(drop=0.2), rng=random.Random(9))
        cluster = await LocalCluster.create(size, seed=9, hub=hub)
    try:
        print("Phase 1: sampling layer (NEWSCAST) warms up from 3 "
              "seed contacts per node")
        cluster.start_sampling_layer()
        await cluster.warmup(0.6)
        print(f"  mean view size: {cluster.mean_view_size():.1f} / 30")

        print("Phase 2: administrator broadcasts the start signal")
        started = time.perf_counter()
        cluster.broadcast_start()

        print("Phase 3: bootstrap gossip runs on live timers ...")
        converged = await cluster.await_convergence(timeout=15.0)
        elapsed = time.perf_counter() - started
        sample = cluster.tracker.samples[-1]
        print(
            f"  converged={converged} in {elapsed:.2f}s wall time "
            f"(missing leaf {sample.leaf_fraction:.5f}, "
            f"prefix {sample.prefix_fraction:.5f})"
        )

        total_frames = sum(p.frames_in for p in cluster.peers.values())
        bad_frames = sum(p.frames_bad for p in cluster.peers.values())
        print(f"  datagrams delivered: {total_frames}, "
              f"undecodable: {bad_frames}")
        if not converged:
            raise SystemExit("cluster failed to converge -- see above")
        print("Done: perfect tables on a live, lossy datagram network.")
    finally:
        await cluster.shutdown()


def main() -> None:
    args = [a for a in sys.argv[1:]]
    use_udp = "--udp" in args
    sizes = [a for a in args if not a.startswith("--")]
    size = int(sizes[0]) if sizes else 32
    asyncio.run(run_cluster(use_udp, size))


if __name__ == "__main__":
    main()
