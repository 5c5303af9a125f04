"""Unit tests for the parallel design-space sweep (repro.sweep)."""

import json

import pytest

from repro.sweep import (ArtifactStore, SweepGrid, keep_variants,
                         make_point, point_key, render, run_sweep,
                         spec_registry, tables_grid)
from repro.sweep.report import COLUMNS


@pytest.fixture(scope="module")
def small_grid():
    """Two specs, full strategy set: 20 cheap points."""
    return tables_grid(specs=["lr", "fifo_cell"])


@pytest.fixture(scope="module")
def serial_outcome(small_grid):
    return run_sweep(small_grid, jobs=1)


@pytest.fixture(scope="module")
def lr_sg():
    from repro.sg.generator import generate_sg
    from repro.specs.lr import lr_expanded
    return generate_sg(lr_expanded())


class TestGrid:
    def test_registry_covers_paper_and_suite(self):
        registry = spec_registry()
        for name in ("lr", "mmu", "par", "fig1",
                     "half", "fifo_cell", "vme_read", "micropipeline"):
            assert name in registry

    def test_tables_grid_rows(self, small_grid):
        # per spec: none + 3 beam + 3 best-first + full; lr adds 4 variants
        assert len(small_grid) == 2 * 8 + 4
        specs = {point.spec for point in small_grid}
        assert specs == {"lr", "fifo_cell"}

    def test_unknown_spec_rejected(self):
        with pytest.raises(KeyError):
            tables_grid(specs=["nosuch"])

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            make_point("lr", "dfs")

    def test_dedup_normalizes_irrelevant_axes(self):
        grid = SweepGrid([
            make_point("lr", "none", weight=0.0),
            make_point("lr", "none", weight=1.0),   # weight ignored
            make_point("lr", "best-first", weight=0.5, frontier=9),
            make_point("lr", "best-first", weight=0.5),  # frontier ignored
        ])
        assert len(grid) == 2

    def test_dedup_canonicalizes_keep_pairs(self):
        grid = SweepGrid([
            make_point("lr", "full", keep=[("li-", "ri-")]),
            make_point("lr", "full", keep=[("ri-", "li-")]),
        ])
        assert len(grid) == 1

    def test_overlapping_grids_share_points(self):
        first = tables_grid(specs=["lr"])
        both = tables_grid(specs=["lr", "fifo_cell"])
        keys = {point.key() for point in both}
        assert all(point.key() in keys for point in first)

    def test_keep_variants_named_rows(self):
        assert set(keep_variants("lr")) == {
            "li || ri", "li || ro", "lo || ri", "lo || ro"}
        assert keep_variants("fifo_cell") == {}


class TestRunner:
    def test_rows_in_grid_order_with_all_columns(self, small_grid,
                                                 serial_outcome):
        assert len(serial_outcome.rows) == len(small_grid)
        for point, row in zip(small_grid.points, serial_outcome.rows):
            assert row["spec"] == point.spec
            assert row["strategy"] == point.config.strategy
            assert set(COLUMNS) <= set(row)

    def test_parallel_byte_identical_to_serial(self, small_grid,
                                               serial_outcome):
        parallel = run_sweep(small_grid, jobs=2)
        for fmt in ("json", "csv", "md"):
            assert (render(serial_outcome.rows, fmt)
                    == render(parallel.rows, fmt))

    def test_explored_reported_for_every_search_strategy(self, serial_outcome):
        for row in serial_outcome.rows:
            if row["strategy"] == "none":
                assert row["explored"] is None
            else:
                assert row["explored"] >= 1
                assert row["expanded"] <= row["explored"]

    def test_bad_jobs_rejected(self, small_grid):
        with pytest.raises(ValueError):
            run_sweep(small_grid, jobs=0)


class TestStore:
    def test_warm_rerun_recomputes_nothing(self, small_grid, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        cold = run_sweep(small_grid, jobs=2, store=store)
        assert cold.computed == len(small_grid)
        assert cold.cached == 0
        warm = run_sweep(small_grid, jobs=2, store=store)
        assert warm.computed == 0
        assert warm.cached == len(small_grid)
        assert render(cold.rows, "json") == render(warm.rows, "json")

    def test_overlapping_grid_skips_completed_points(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = run_sweep(tables_grid(specs=["lr"]), store=store)
        both = run_sweep(tables_grid(specs=["lr", "fifo_cell"]), store=store)
        assert both.cached == len(first.points)
        assert both.computed == len(both.points) - len(first.points)

    def test_corrupt_entry_recomputed(self, small_grid, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        run_sweep(small_grid, store=store)
        # The store holds stage artifacts next to the rows; corrupt a row.
        victim = next(key for key in store.keys()
                      if store.get_entry(key, stage="sweep-point"))
        (store.root / f"{victim}.json").write_text("{not json")
        again = run_sweep(small_grid, store=store)
        assert again.computed == 1
        assert again.cached == len(small_grid) - 1

    def test_cache_hit_relabels_variant(self, tmp_path):
        # The display name is not part of the store key; a hit must carry
        # the *current* grid's variant, not the label of whoever computed it.
        pairs = [("li-", "ri-")]
        store = ArtifactStore(tmp_path / "store")
        named = SweepGrid([make_point("lr", "full", keep=pairs,
                                      variant="li || ri")])
        plain = SweepGrid([make_point("lr", "full", keep=pairs)])
        run_sweep(named, store=store)
        cold = run_sweep(plain)
        warm = run_sweep(plain, store=store)
        assert warm.cached == 1
        assert render(cold.rows, "json") == render(warm.rows, "json")

    def test_key_depends_on_graph_digest(self):
        point = make_point("lr", "full")
        assert point_key(point, "a" * 64) != point_key(point, "b" * 64)

    def test_key_formula_serves_existing_stores(self):
        # Row keys written by earlier revisions must keep hitting: the
        # digest of a fixed point on a fixed graph never moves.
        point = make_point("lr", "full")
        assert point_key(point, "a" * 64) == (
            "9a12e00af2b45efb15ff2f922bb3bced5a1021827eda4d07e37de84517e2195c")

    def test_graph_digest_stable_across_hash_seeds(self):
        import pathlib
        import subprocess
        import sys
        root = pathlib.Path(__file__).resolve().parents[1]
        program = (
            "from repro.sg.generator import generate_sg\n"
            "from repro.specs.lr import lr_expanded\n"
            "from repro.pipeline import graph_digest\n"
            "print(graph_digest(generate_sg(lr_expanded())))\n")
        digests = set()
        for seed in ("0", "1", "12345"):
            completed = subprocess.run(
                [sys.executable, "-c", program], cwd=root,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                     "PYTHONPATH": str(root / "src")},
                capture_output=True, text=True, check=True)
            digests.add(completed.stdout.strip())
        assert len(digests) == 1

    def test_graph_digest_is_the_payload_digest(self, lr_sg):
        from repro.pipeline import digest_payload, graph_digest
        from repro.pipeline.artifacts import sg_to_payload
        assert graph_digest(lr_sg) == digest_payload(sg_to_payload(lr_sg))

    def test_graph_digest_ignores_state_spelling(self, lr_sg):
        # Decoded graphs have integer states instead of markings.
        from repro.pipeline import graph_digest
        from repro.pipeline.artifacts import sg_from_payload, sg_to_payload
        decoded = sg_from_payload(sg_to_payload(lr_sg))
        assert graph_digest(decoded) == graph_digest(lr_sg)

    def test_graph_digest_names_the_generate_stage(self, lr_sg):
        from repro.pipeline import FlowConfig, graph_digest, run_pipeline
        result = run_pipeline(FlowConfig(strategy="none"), initial_sg=lr_sg)
        assert result.sg_digests["generate"] == graph_digest(lr_sg)

    def test_reports_deterministic(self, serial_outcome):
        text = render(serial_outcome.rows, "json")
        payload = json.loads(text)
        assert payload["columns"] == list(COLUMNS)
        assert render(serial_outcome.rows, "json") == text
        with pytest.raises(ValueError):
            render(serial_outcome.rows, "xml")
