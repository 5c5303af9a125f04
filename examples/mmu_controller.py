"""The MMU controller case study (Table 2): reshuffling at scale.

A four-channel memory-management controller (request, lookup, translate,
read) whose 4-phase expansion has 264 states and heavy CSC trouble.
Reshuffling the reset phases brings the area below half of the original
without losing cycle time -- the paper's headline Table 2 result.

Run:  python examples/mmu_controller.py        (takes a couple of minutes)
"""

from repro import (FlowConfig, full_reduction, generate_sg,
                   reduce_concurrency, run_pipeline)
from repro.pipeline import table_row
from repro.specs.mmu import TABLE2_KEEP_CONC, keep_conc_for, mmu_expanded

#: Implement a state graph as given: the searches below use knobs
#: (``patience``) that FlowConfig does not carry, so they run first.
AS_IS = FlowConfig(strategy="none")


def show(result) -> None:
    name, area, csc, cycle, inputs = table_row(result)
    flag = "" if result.csc_resolved() else "  (estimate)"
    print(f"{name:18s} area={area:<6} #CSC={csc} cycle={cycle:<5} "
          f"inputs={inputs}{flag}")


def main() -> None:
    print("=== Table 2: MMU controller ===\n")
    sg = generate_sg(mmu_expanded())
    print(f"original (max concurrency): {len(sg)} states\n")

    show(run_pipeline(FlowConfig(strategy="none", max_csc_signals=3),
                      initial_sg=sg, name="original"))

    search = reduce_concurrency(sg, max_explored=400, patience=200)
    show(run_pipeline(AS_IS, initial_sg=search.best, name="original reduced"))

    csc_biased = reduce_concurrency(sg, weight=0.1, max_explored=400,
                                    patience=200)
    show(run_pipeline(AS_IS, initial_sg=csc_biased.best, name="csc reduced"))

    for name, channels in TABLE2_KEEP_CONC.items():
        reduced = full_reduction(sg, keep_conc=keep_conc_for(channels),
                                 size_frontier=3)
        show(run_pipeline(AS_IS, initial_sg=reduced, name=name))

    print("\nReduced implementations run at less than half of the original's"
          "\narea with comparable critical cycles, matching Table 2's shape.")


if __name__ == "__main__":
    main()
