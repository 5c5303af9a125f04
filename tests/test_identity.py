"""One design point, one identity on every surface.

Each paper row runs three ways against one artifact store: from the
generated graph (as the sweep and the bench run it), as a ``POST /synth``
body naming the registry spec (the service), and from the partial spec
(``repro synth``, perfbench).  All three must reach the same digest at
every stage, so a store warmed by one surface serves the others.
"""

import pytest

from repro.pipeline import run_pipeline
from repro.pipeline.store import ArtifactStore
from repro.serve.protocol import ProtocolError, parse_synth_request
from repro.serve.tasks import run_task
from repro.sg.generator import generate_sg
from repro.specs.lr import TABLE1_ROWS, lr_expanded, lr_spec
from repro.specs.mmu import TABLE2_ROWS, mmu_expanded, mmu_spec
from repro.specs.par import FIG10_ROWS, par_expanded, par_spec

#: spec name -> (partial spec, expanded spec, rows)
PAPER = {
    "lr": (lr_spec, lr_expanded, TABLE1_ROWS),
    "mmu": (mmu_spec, mmu_expanded, TABLE2_ROWS),
    "par": (par_spec, par_expanded, FIG10_ROWS),
}

ROWS = [(spec, row) for spec, (_, _, rows) in PAPER.items() for row in rows]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return ArtifactStore(tmp_path_factory.mktemp("identity"))


@pytest.fixture(scope="module")
def generated():
    return {spec: generate_sg(expanded())
            for spec, (_, expanded, _) in PAPER.items()}


def _digests(result):
    return {stage: stage_result.digest
            for stage, stage_result in result.results.items()
            if stage != "expand"}


@pytest.mark.parametrize("spec, row", ROWS,
                         ids=[f"{spec}/{row}" for spec, row in ROWS])
def test_every_surface_reaches_the_same_stage_digests(store, generated,
                                                      spec, row):
    partial, _, rows = PAPER[spec]
    config = rows[row]
    warm = run_pipeline(config, initial_sg=generated[spec], name=row,
                        store=store)
    expected = _digests(warm)

    task = parse_synth_request({"spec": spec, "config": config.to_payload(),
                                "name": row})
    payload, status = run_task(task, store)
    assert payload["artifacts"] == expected
    # Text entries key ``generate`` on the text digest; every later stage
    # is served from what the graph run stored.
    assert {stage for stage, state in status.items()
            if state != "cached"} <= {"generate"}

    direct = run_pipeline(config, spec=partial(), name=row, store=store)
    assert _digests(direct) == expected


@pytest.mark.parametrize("name", ["fifo_chain_2", "/etc/hostname"])
def test_service_refuses_names_outside_the_registry(name):
    with pytest.raises(ProtocolError) as err:
        parse_synth_request({"spec": name})
    assert err.value.status == 404
