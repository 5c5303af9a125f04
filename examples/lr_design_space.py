"""The LR-process design space: regenerate Table 1 interactively.

Seven implementations of the same four-event specification, from the
hand-designed Q-module to the fully reduced two-wire solution, differing
only in how the tool schedules the non-functional (reset) events.

Run:  python examples/lr_design_space.py
"""

from repro import FlowConfig, generate_sg, run_pipeline
from repro.pipeline import table_row
from repro.specs.lr import TABLE1_ROWS, lr_expanded, q_module_stg


def show(result) -> None:
    name, area, csc, cycle, inputs = table_row(result)
    flag = "" if result.csc_resolved() else "  (CSC unresolved, area estimated)"
    print(f"{name:18s} area={area:<6} #CSC={csc} cycle={cycle:<5} "
          f"inputs={inputs}{flag}")


def main() -> None:
    print("=== Table 1: LR-process area/performance trade-off ===\n")

    # The hand design: right handshake nested inside the left one.
    show(run_pipeline(FlowConfig(strategy="none"), stg=q_module_stg(),
                      name="Q-module (hand)"))

    # The other rows are flow configurations on one expansion: everything
    # sequential (two wires, lo = ri and ro = li), no reduction at all (2
    # state signals pay for the concurrency), and full reductions that
    # keep one pair of reset events concurrent.
    sg = generate_sg(lr_expanded())
    for name, config in TABLE1_ROWS.items():
        result = run_pipeline(config, initial_sg=sg, name=name)
        show(result)
        if name == "Full reduction":
            for equation in result.circuit().equations.values():
                print(f"{'':18s}   {equation}")

    print("\nEvery row is a *valid reduction* of the same 16-state expansion;"
          "\nthe spread is the optimization space the paper's Fig. 9 explores.")


if __name__ == "__main__":
    main()
