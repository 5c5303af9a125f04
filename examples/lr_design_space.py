"""The LR-process design space: regenerate Table 1 interactively.

Seven implementations of the same four-event specification, from the
hand-designed Q-module to the fully reduced two-wire solution, differing
only in how the tool schedules the non-functional (reset) events.

Run:  python examples/lr_design_space.py
"""

from repro import FlowConfig, full_reduction, generate_sg, run_pipeline
from repro.pipeline import table_row
from repro.specs.lr import TABLE1_KEEP_CONC, lr_expanded, q_module_stg

#: Implement a state graph as given: no further reduction.
AS_IS = FlowConfig(strategy="none")


def show(result) -> None:
    name, area, csc, cycle, inputs = table_row(result)
    flag = "" if result.csc_resolved() else "  (CSC unresolved, area estimated)"
    print(f"{name:18s} area={area:<6} #CSC={csc} cycle={cycle:<5} "
          f"inputs={inputs}{flag}")


def main() -> None:
    print("=== Table 1: LR-process area/performance trade-off ===\n")

    # The hand design: right handshake nested inside the left one.
    show(run_pipeline(AS_IS, stg=q_module_stg(), name="Q-module (hand)"))

    sg = generate_sg(lr_expanded())

    # Everything sequential: collapses to two wires (lo = ri, ro = li).
    full = run_pipeline(AS_IS, initial_sg=full_reduction(sg),
                        name="Full reduction")
    show(full)
    for equation in full.circuit().equations.values():
        print(f"{'':18s}   {equation}")

    # No reduction at all: pay for the concurrency with 2 state signals.
    show(run_pipeline(AS_IS, initial_sg=sg, name="Max. concurrency"))

    # Keep exactly one pair of reset events concurrent.
    for name, keep in TABLE1_KEEP_CONC.items():
        reduced = full_reduction(sg, keep_conc=keep)
        show(run_pipeline(AS_IS, initial_sg=reduced, name=name))

    print("\nEvery row is a *valid reduction* of the same 16-state expansion;"
          "\nthe spread is the optimization space the paper's Fig. 9 explores.")


if __name__ == "__main__":
    main()
