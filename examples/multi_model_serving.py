"""Multi-model serving with FnPacker (the Section VI-D scenario).

Five TVM-RSNET models share a cluster.  Two receive steady Poisson
traffic; an analyst occasionally tries all five on one sample.  The
example runs the same workload under the three deployment strategies and
prints latency and cold-start/cost comparisons -- the phenomenon behind
Tables III and IV.

Run with:  python examples/multi_model_serving.py
"""

from repro.experiments.table34 import MODEL_IDS, STRATEGIES, run_strategy


def main() -> None:
    print("workload: m0/m1 Poisson @ 2 rps for 8 min + 2 interactive")
    print("sessions (m0..m4 sequentially) at ~4 and ~6 minutes\n")

    results = {}
    for strategy in STRATEGIES:
        results[strategy] = run_strategy(strategy, duration_s=480.0)

    print("=== steady traffic to the popular models (Table III) ===")
    for strategy, data in results.items():
        stats = data["poisson"]
        print(
            f"  {strategy:11s} avg {stats['mean_s'] * 1000:8.1f} ms   "
            f"p95 {stats['p95_s'] * 1000:8.1f} ms   "
            f"cold starts {data['cold_starts']}"
        )

    print("\n=== interactive sessions (Table IV) ===")
    for session in (1, 2):
        print(f"  session {session}:")
        header = "    model  " + "  ".join(f"{s:>11s}" for s in STRATEGIES)
        print(header)
        for model in MODEL_IDS:
            cells = []
            for strategy in STRATEGIES:
                latency = results[strategy]["sessions"].get(f"{session}:{model}")
                cells.append(f"{latency * 1000:9.0f}ms" if latency else "      -  ")
            print(f"    {model:5s}  " + "  ".join(f"{c:>11s}" for c in cells))

    print(
        "\ntakeaway: FnPacker gives the popular models exclusive endpoints"
        "\n(no interference, unlike All-in-one) while packing the analyst's"
        "\ninfrequent models onto one shared warm endpoint (one cold start"
        "\ninstead of One-to-one's three)."
    )


if __name__ == "__main__":
    main()
