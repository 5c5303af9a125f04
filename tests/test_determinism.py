"""End-to-end determinism of the synthesis flow.

Two runs of the LR table-1 workload -- in fresh interpreters with different
``PYTHONHASHSEED`` values, the classic source of cross-run drift -- must
produce byte-identical synthesis outputs: chosen covers, inserted CSC
signals and mapped netlists.
"""

import subprocess
import sys

_SCRIPT = """\
from repro import FlowConfig, full_reduction, generate_sg, run_pipeline
from repro.specs.lr import TABLE1_KEEP_CONC, lr_expanded

as_is = FlowConfig(strategy="none")
sg = generate_sg(lr_expanded())
graphs = {"full": full_reduction(sg), "max": sg}
for name, keep in TABLE1_KEEP_CONC.items():
    graphs[name] = full_reduction(sg, keep_conc=keep)
for name, graph in graphs.items():
    result = run_pipeline(as_is, initial_sg=graph, name=name)
    insertions = result.insertions()
    print("design", name, result.csc_resolved(), len(insertions))
    for choice in insertions:
        print("insertion", choice.signal, choice.style, choice.rise_trigger,
              choice.fall_trigger, choice.initial_value)
    circuit = result.circuit()
    if circuit is not None:
        for signal, impl in circuit.signals.items():
            print("signal", signal, impl.style, impl.equation)
        print(circuit.netlist.to_verilog_like())
"""


def test_table1_byte_identical_across_hash_seeds():
    outputs = set()
    for seed in ("0", "31337"):
        result = subprocess.run(
            [sys.executable, "-c", _SCRIPT], capture_output=True, text=True,
            check=True, env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed})
        outputs.add(result.stdout)
    assert len(outputs) == 1
