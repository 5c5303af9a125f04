"""The PAR component case study (Fig. 10): automatic vs manual design.

PAR launches two sub-processes in parallel and acknowledges when both are
done.  The constraint handed to the optimizer is minimal and semantic: keep
``b?`` and ``c?`` concurrent (the parallelism that defines the component).
Everything else -- all the 4-phase reset scheduling -- is left to the tool,
which finds an *asymmetric* circuit smaller than the Tangram compiler's
manual design, exactly as the paper reports.

Run:  python examples/par_component.py
"""

from repro import FlowConfig, generate_sg, run_pipeline
from repro.specs.par import FIG10_ROWS, par_expanded, par_manual_stg
from repro.timing.critical_cycle import critical_cycle
from repro.timing.delays import gate_level_delays


def gate_cycle(result) -> float:
    """Cycle time under the paper's gate-level model (comb=1, seq=1.5, in=3)."""
    sequential = {signal for signal, impl in result.circuit().signals.items()
                  if impl.netlist.sequential_gates()}
    model = gate_level_delays(result.resolved_sg(), sequential)
    return critical_cycle(result.resolved_sg(), model).cycle_time


def main() -> None:
    print("=== PAR component (Fig. 10) ===\n")

    manual = run_pipeline(FlowConfig(strategy="none"), stg=par_manual_stg(),
                          name="manual (Tangram)")
    print(f"manual design   : area={manual.circuit().area}, equations:")
    for equation in sorted(manual.circuit().equations.values()):
        print(f"    {equation}")

    sg = generate_sg(par_expanded())
    print(f"\nauto 4-phase expansion: {len(sg)} states, "
          f"maximally concurrent resets")

    auto = run_pipeline(FIG10_ROWS["automatic"], initial_sg=sg,
                        name="automatic")
    search = auto.exploration()
    print(f"exploration     : {search.explored_count} SGs seen, "
          f"best cost {search.best_cost:.1f}")
    print(f"automatic design: area={auto.circuit().area}, equations:")
    for equation in sorted(auto.circuit().equations.values()):
        print(f"    {equation}")

    ratio = auto.circuit().area / manual.circuit().area
    print(f"\narea ratio auto/manual = {ratio:.2f} "
          f"(paper: ~0.88, i.e. 12% smaller)")
    print(f"gate-level cycle: manual={gate_cycle(manual)}, "
          f"auto={gate_cycle(auto)} (the asymmetric circuit trades cycle "
          f"time for area, as in the paper)")


if __name__ == "__main__":
    main()
