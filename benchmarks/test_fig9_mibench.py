"""Figure 9: transfer to MiBench-like embedded programs.

Paper: loops are a minor portion of MiBench and several programs cannot be
vectorized at all; deep RL still beats both Polly and the baseline on every
benchmark, with a modest 1.1x average improvement.  Expected shape: RL >=
baseline on average with a small margin (well below the Figure 7 gains), and
RL >= Polly.
"""

from repro.evaluation import figure9_mibench


def test_fig9_mibench_transfer(benchmark, trained_agents):
    framework, _supervised = trained_agents

    def run():
        return figure9_mibench(framework)

    figure = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print(figure.format_table().render())
    averages = {
        method: figure.average(method) for method in figure.comparison.methods
    }
    print("averages:", {k: round(v, 2) for k, v in averages.items()})

    # Modest average gain (the loops are a minor portion of these programs).
    assert averages["rl"] > 1.0
    # RL at least matches Polly here (Polly has little to tile).
    assert averages["rl"] >= averages["polly"] - 1e-9
    # The gains are much smaller than on the loop-dominated Figure 7 suite.
    assert averages["brute_force"] < 2.5

    benchmark.extra_info["average_speedups"] = {
        method: round(value, 3) for method, value in averages.items()
    }
