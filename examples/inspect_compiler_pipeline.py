"""Walk one kernel through every stage of the compiler substrate.

This example is about the *substrate* rather than the learning: it shows the
loop extractor, the structured IR, the dependence/reduction analyses, the
legality verdict, the baseline cost model's choice, the brute-force landscape
and the simulated cycle breakdown for one kernel — everything the RL agent's
reward is built from.

Run with:  python examples/inspect_compiler_pipeline.py
"""

from repro.agents.brute_force import BruteForceAgent
from repro.analysis.loopinfo import analyze_loop
from repro.core.loop_extractor import extract_loops
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.distributed import EvaluationService
from repro.ir.printer import print_function
from repro.machine.description import MachineDescription
from repro.vectorizer.legality import check_legality

SOURCE = """
short samples[8192];
int history[8192];

int smooth(int threshold) {
    int energy = 0;
    for (int i = 1; i < 8191; i++) {
        int centre = (int) samples[i];
        int blended = (centre + samples[i - 1] + samples[i + 1]) / 3;
        history[i] = (blended > threshold ? threshold : blended);
        energy += blended * blended;
    }
    return energy;
}
"""


def main() -> None:
    kernel = LoopKernel(name="smooth", source=SOURCE, function_name="smooth",
                        bindings={"threshold": 100})
    machine = MachineDescription()
    pipeline = CompileAndMeasure(machine=machine)

    print("=== 1. loop extraction ===")
    loops = extract_loops(kernel.source, function_name=kernel.function_name)
    for loop in loops:
        print(f"loop #{loop.loop_index} at line {loop.source_line}, "
              f"nest depth {loop.nest_depth}")

    print("\n=== 2. structured loop IR ===")
    ir_function = pipeline.lower_kernel(kernel)
    print(print_function(ir_function))

    print("\n=== 3. analysis ===")
    loop = ir_function.innermost_loops()[0]
    analysis = analyze_loop(ir_function, loop)
    print(f"trip count          : {analysis.trip_count}")
    print(f"operation mix       : {analysis.operation_mix.as_dict()}")
    print(f"access patterns     : "
          f"{[(p.access.array, p.kind, p.stride_elements) for p in analysis.access_patterns]}")
    print(f"reductions          : {[str(r) for r in analysis.reductions]}")
    print(f"predicated          : {analysis.has_predicates}")
    legality = check_legality(analysis, machine)
    print(f"legality            : {legality.describe()}")

    print("\n=== 4. baseline cost model ===")
    decision = pipeline.baseline_model.decide_loop(ir_function, loop)
    print(decision)
    print(f"cost-per-lane table : "
          f"{ {vf: round(c, 2) for vf, c in decision.cost_per_lane.items()} }")

    print("\n=== 5. brute-force landscape ===")
    service = EvaluationService(pipeline)
    oracle = BruteForceAgent(evaluation_service=service)
    baseline, _ = service.cache.measure_baseline(pipeline, kernel)
    grid = {
        factors: baseline.cycles / measurement.cycles
        for factors, measurement in oracle.grid(kernel).items()
    }
    vfs = sorted({vf for vf, _ in grid})
    ifs = sorted({interleave for _, interleave in grid})
    header = "VF\\IF " + " ".join(f"{interleave:>6}" for interleave in ifs)
    print(header)
    for vf in vfs:
        row = " ".join(f"{grid[(vf, interleave)]:6.2f}" for interleave in ifs)
        print(f"{vf:>5} {row}")
    best = oracle.select_factors(None, kernel).action
    print(f"best factors: VF={best[0]}, IF={best[1]} "
          f"({grid[best]:.2f}x over the baseline)")

    print("\n=== 6. simulated cycle breakdown for the best factors ===")
    result = pipeline.measure_with_factors(kernel, {0: best})
    loop_cost = list(result.cost.loop_costs.values())[0]
    iteration = loop_cost.vector_iteration
    print(f"cycles total        : {result.cycles:.0f}")
    print(f"vector iterations   : {loop_cost.vector_iterations} "
          f"(+{loop_cost.epilogue_iterations} scalar epilogue iterations)")
    print(f"bound by            : {iteration.bound_by}")
    print(f"per-iteration parts : "
          f"{ {name: round(value, 2) for name, value in iteration.components.items()} }")
    print(f"estimated compile time: {result.compile_seconds * 1000:.1f} ms")


if __name__ == "__main__":
    main()
