"""E-commerce merchant fraud detection (motivating application 2 of the paper).

Fake-transaction rings show up as short cycles in the transaction graph:
a seller routes money through intermediate accounts back to itself to fake
sales volume.  Following the paper (and [Qiu et al., VLDB'18]), every newly
arriving edge e(v, v') triggers the hop-constrained query q(v', v, k - 1) —
its results are exactly the cycles of length at most k that the new
transaction closes.

The script simulates a stream of transactions over a synthetic marketplace,
inserts them one by one into a live :class:`~repro.api.Database`
(:meth:`~repro.api.Database.insert_edges`), and reports every cycle ring it
finds in real time, together with per-update latencies.

Run with:

    python examples/fraud_cycle_detection.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import Database, Q
from repro.graph.generators import power_law_graph

#: Hop constraint on cycle length; the paper's application uses k = 6 because
#: longer cycles create too many false alarms.
CYCLE_HOP_LIMIT = 6

#: Number of streamed transactions to replay.
STREAM_LENGTH = 60


def simulate_marketplace(seed: int = 7):
    """A synthetic marketplace: users as vertices, past transactions as edges."""
    return power_law_graph(400, 4.0, exponent=2.1, seed=seed)


def build_transaction_stream(graph, *, seed: int = 11, length: int = STREAM_LENGTH):
    """New transactions to replay: a mix of random pairs and ring-closing edges."""
    rng = np.random.default_rng(seed)
    stream = []
    vertices = graph.num_vertices
    for _ in range(length):
        buyer = int(rng.integers(vertices))
        seller = int(rng.integers(vertices))
        if buyer != seller:
            stream.append((buyer, seller))
    # Inject a deliberate fake-sales ring so the example always finds one.
    ring = [3, 57, 121, 3]
    stream.extend((ring[i], ring[i + 1]) for i in range(len(ring) - 1))
    return stream


def main() -> None:
    base_graph = simulate_marketplace()
    stream = build_transaction_stream(base_graph)

    print(f"marketplace: {base_graph.num_vertices} users, {base_graph.num_edges} transactions")
    print(f"replaying {len(stream)} new transactions, cycle limit k={CYCLE_HOP_LIMIT}\n")

    alerts = 0
    latencies_ms = []
    with Database(base_graph) as db:
        for buyer, seller in stream:
            if db.insert_edges([(buyer, seller)], external=True)["added"] == 0:
                continue
            # Cycles through the new edge (buyer -> seller) are paths from the
            # seller back to the buyer with at most k - 1 hops.
            spec = Q(seller, buyer, CYCLE_HOP_LIMIT - 1).deadline(1.0)
            started = time.perf_counter()
            result = db.query(spec, external=True).result()
            latencies_ms.append(1e3 * (time.perf_counter() - started))
            if result.count:
                alerts += 1
                shortest = min(result.paths, key=len)
                cycle = (buyer, *(db.graph.to_external(v) for v in shortest))
                print(
                    f"ALERT transaction {buyer}->{seller}: closes {result.count} cycle(s); "
                    f"shortest ring: {' -> '.join(str(v) for v in cycle)}"
                )

    latencies = np.asarray(latencies_ms)
    print(f"\nprocessed {len(latencies)} updates, {alerts} raised an alert")
    print(f"per-update detection latency: mean {latencies.mean():.2f} ms, "
          f"p99 {np.percentile(latencies, 99):.2f} ms, max {latencies.max():.2f} ms")


if __name__ == "__main__":
    main()
