"""Figure 7: the main comparison on the 12 held-out test benchmarks.

Paper: RL reaches 2.67x over the baseline on average, only ~3% below brute
force; NNS (2.65x) and decision trees (2.47x) are close behind; random search
lands *below* the baseline; Polly improves on the baseline by ~17% but stays
well below RL.  Expected shape: brute force >= RL > Polly/baseline, RL captures
most of the brute-force headroom, random and Polly stay far below RL.
"""

from repro.evaluation import figure7_main_comparison


def test_fig7_main_comparison(benchmark, trained_agents):
    framework, supervised = trained_agents

    def run():
        return figure7_main_comparison(framework, supervised)

    figure = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print(figure.format_table().render())
    averages = {
        method: figure.average(method) for method in figure.comparison.methods
    }
    print("averages:", {k: round(v, 2) for k, v in averages.items()})

    assert averages["baseline"] == 1.0
    # Brute force is the oracle; RL captures most of its headroom.
    assert averages["brute_force"] >= averages["rl"]
    assert averages["brute_force"] > 1.5
    assert averages["rl"] > 1.3
    assert averages["rl"] >= 0.6 * averages["brute_force"]
    # RL beats the untrained comparators.
    assert averages["rl"] > averages["random"]
    assert averages["rl"] > averages["polly"]
    # The learned embedding also carries the supervised methods above the
    # worst-case, and the oracle dominates everything.
    for method in ("nns", "decision_tree", "random", "polly"):
        assert averages["brute_force"] >= averages[method]

    benchmark.extra_info["average_speedups"] = {
        method: round(value, 3) for method, value in averages.items()
    }
    benchmark.extra_info["rl_fraction_of_bruteforce"] = round(
        averages["rl"] / averages["brute_force"], 3
    )
