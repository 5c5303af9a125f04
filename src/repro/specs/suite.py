"""A small suite of classic asynchronous-controller STGs.

Beyond the paper's own case studies, these standard benchmarks (written in
the ``.g`` format the tool reads) exercise the flow on shapes the DAC
community uses: a pipeline latch controller, a VME-bus-style read
controller, a simple FIFO cell and a two-stage micropipeline.  All are
choice-free, consistent and speed-independent by construction.
"""

from __future__ import annotations

from typing import Dict, List

from ..petri.parser import parse_stg
from ..petri.stg import STG

#: Half-handshake pipeline latch controller (the classic "half" benchmark
#: shape): input handshake (ri, ro) decoupled from output handshake (ai, ao).
HALF = """
.model half
.inputs ri ai
.outputs ro ao
.graph
ri+ ro+
ro+ ao+
ao+ ai+
ai+ ro-
ro- ri-
ri- ao-
ao- ai-
ai- ri+
.marking { <ai-,ri+> }
.initial_state !ri !ro !ai !ao
.end
"""

#: VME-bus-style read cycle: device select (dsr) triggers a bus transfer
#: (lds/ldtack) before the data acknowledge (d, dtack).
VME_READ = """
.model vme_read
.inputs dsr ldtack
.outputs lds d dtack
.graph
dsr+ lds+
lds+ ldtack+
ldtack+ d+
d+ dtack+
dtack+ dsr-
dsr- d-
d- dtack-
d- lds-
lds- ldtack-
ldtack- p0
dtack- p1
p0 dsr+
p1 dsr+
.marking { p0 p1 }
.initial_state !dsr !ldtack !lds !d !dtack
.end
"""

#: One-place FIFO cell: accept on the left, hand over to the right.
FIFO_CELL = """
.model fifo_cell
.inputs li ri
.outputs lo ro
.graph
li+ lo+
lo+ li-
li- lo-
lo- ro+
ro+ ri+
ri+ ro-
ro- ri-
ri- li+
.marking { <ri-,li+> }
.initial_state !li !lo !ri !ro
.end
"""

#: Two-stage micropipeline control: stage handshakes coupled through a
#: shared full/empty place.
MICROPIPELINE = """
.model micropipeline
.inputs rin aout
.outputs ain rout
.graph
rin+ ain+
ain+ rin-
rin- ain-
ain- rin+
ain+ full
full rout+
rout+ empty
empty ain+
rout+ aout+
aout+ rout-
rout- aout-
aout- rout+
.marking { <ain-,rin+> <aout-,rout+> empty }
.initial_state !rin !ain !rout !aout
.end
"""

_SOURCES: Dict[str, str] = {
    "half": HALF,
    "vme_read": VME_READ,
    "fifo_cell": FIFO_CELL,
    "micropipeline": MICROPIPELINE,
}


def suite_names() -> List[str]:
    """Names of all suite benchmarks."""
    return sorted(_SOURCES)


def source_text(name: str) -> str:
    """The raw ``.g`` source of one suite benchmark.

    The staged pipeline can be driven from ``.g`` text directly
    (``run_pipeline(config, stg_text=...)``), keying SG generation on the
    text digest without parsing first.
    """
    try:
        return _SOURCES[name]
    except KeyError:
        raise KeyError(f"unknown suite benchmark {name!r}; "
                       f"available: {suite_names()}") from None


def load(name: str) -> STG:
    """Parse one suite benchmark by name."""
    return parse_stg(source_text(name))
