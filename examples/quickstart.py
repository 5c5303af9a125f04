"""Quickstart: synthesize an asynchronous controller from a partial spec.

The LR-process of the paper's Section 3: a handshake component with a
passive port ``l`` and an active port ``r`` that forwards control from left
to right, specified with four abstract channel actions -- no signal-level
reset events anywhere.  The flow expands the handshakes (4-phase, maximally
concurrent resets), explores concurrency reductions, resolves state
encoding, and maps the result onto a 2-input gate library.

Run:  python examples/quickstart.py
"""

from repro import ChannelRole, FlowConfig, PartialSpec, run_pipeline
from repro.pipeline import table_row


def main() -> None:
    # *[ l? ; r! ; r? ; l! ] -- four events, that's the whole spec.
    spec = PartialSpec("lr")
    spec.declare_channel("l", ChannelRole.PASSIVE)
    spec.declare_channel("r", ChannelRole.ACTIVE)
    spec.cycle("l?", "r!", "r?", "l!")
    spec.mark("<l!,l?>")

    # The default config: 4-phase expansion, best-first reduction, CSC
    # resolution, mapping and timing.
    result = run_pipeline(FlowConfig(), spec=spec, name="lr-auto")
    row = table_row(result)
    circuit = result.circuit()

    print("=== LR-process, automatic synthesis ===")
    print(f"expanded STG : {result.expanded_stg()}")
    print(f"initial SG   : {len(result.initial_sg())} states "
          f"(maximal reset concurrency)")
    print(f"reduced SG   : {len(result.reduced_sg())} states after "
          "concurrency reduction")
    print(f"CSC signals  : {row.csc_signals} inserted")
    print(f"mapped area  : {row.area} units")
    print(f"crit. cycle  : {row.cycle_time} (inputs=2, outputs=1)")
    print(f"input events : {row.input_events} on the cycle")
    print()
    print("Equations:")
    for signal, equation in sorted(circuit.equations.items()):
        print(f"  {equation}")
    print()
    print("Netlist:")
    print(circuit.netlist.to_verilog_like())


if __name__ == "__main__":
    main()
