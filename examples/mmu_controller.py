"""The MMU controller case study (Table 2): reshuffling at scale.

A four-channel memory-management controller (request, lookup, translate,
read) whose 4-phase expansion has 264 states and heavy CSC trouble.
Reshuffling the reset phases brings the area below half of the original
without losing much cycle time -- the shape of the paper's Table 2.  Each
row is one flow configuration from ``TABLE2_ROWS`` run on the generated
state graph, the same rows the ``table2_mmu`` benchmark reports.

Run:  python examples/mmu_controller.py        (a few seconds)
"""

from repro import generate_sg, run_pipeline
from repro.pipeline import table_row
from repro.specs.mmu import TABLE2_ROWS, mmu_expanded


def show(result) -> None:
    name, area, csc, cycle, inputs = table_row(result)
    flag = "" if result.csc_resolved() else "  (estimate)"
    print(f"{name:18s} area={area:<6} #CSC={csc} cycle={cycle:<5} "
          f"inputs={inputs}{flag}")


def main() -> None:
    print("=== Table 2: MMU controller ===\n")
    sg = generate_sg(mmu_expanded())
    print(f"original (max concurrency): {len(sg)} states\n")

    for name, config in TABLE2_ROWS.items():
        show(run_pipeline(config, initial_sg=sg, name=name))

    print("\nReduced implementations run at less than half of the original's"
          "\narea with comparable critical cycles, matching Table 2's shape.")


if __name__ == "__main__":
    main()
