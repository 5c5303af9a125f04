"""Verification throughput: product states per second, full-suite wall.

Runs the whole verification surface -- the STG suite plus the paper's LR
process, every reduction strategy under the atomic (complex-gate) model,
plus structural-model probes on two telling points -- and checks the
headline claims: every synthesized implementation conforms, the only
hole is the unreduced micropipeline, certificates are byte-deterministic
between passes, and the structural model both passes and refutes where
it should.
"""

from __future__ import annotations

import time

from ..registry import BenchCase, Check, Metric, register, require


def _spec_sources():
    from repro.specs import suite
    from repro.specs.lr import lr_expanded

    sources = {name: suite.load(name) for name in suite.suite_names()}
    sources["lr"] = lr_expanded()
    return sources


def _verify_everything(model="atomic"):
    """One full verification pass; returns (certificates, wall seconds)."""
    from repro.pipeline import STRATEGIES, FlowConfig, run_pipeline
    from repro.sg.generator import generate_sg
    from repro.verify import check_conformance, skipped_report

    certificates = {}
    started = time.perf_counter()
    for name, stg in sorted(_spec_sources().items()):
        initial_sg = generate_sg(stg)
        for strategy in STRATEGIES:
            label = f"{name}/{strategy}"
            result = run_pipeline(FlowConfig(strategy=strategy),
                                  initial_sg=initial_sg, name=label)
            circuit = result.circuit()
            if circuit is None:
                certificates[label] = skipped_report(
                    label, "no synthesized circuit", model=model)
                continue
            certificates[label] = check_conformance(
                circuit.netlist, result.resolved_sg(), model=model,
                name=label)
    return certificates, time.perf_counter() - started


def _structural_probes():
    """The structural model on two telling points.

    vme_read's gates are single-cube, so per-gate delays stay
    conforming; half's two-cube ``ao`` cover glitches under them -- the
    decomposition is not SI-preserving and the verifier proves it with a
    trace.
    """
    from repro.pipeline import FlowConfig, run_pipeline
    from repro.sg.generator import generate_sg
    from repro.specs import suite
    from repro.verify import check_conformance

    results = {}
    for name, expect_ok in (("vme_read", True), ("half", False)):
        initial_sg = generate_sg(suite.load(name))
        result = run_pipeline(FlowConfig(strategy="full"),
                              initial_sg=initial_sg, name=f"{name}/full")
        cert = check_conformance(result.circuit().netlist,
                                 result.resolved_sg(),
                                 model="structural", name=f"{name}/full")
        results[name] = {"verdict": cert.verdict,
                         "expected_ok": expect_ok,
                         "as_expected": cert.ok == expect_ok,
                         "trace_length": len(cert.trace)}
    return results


def _reduced_walk_probe():
    """The partial-order-pruned product walk vs the exhaustive one.

    Two legs pin the documented contract of ``reduced=True``
    (:func:`repro.explore.ample_internal_moves`).  On vme_read/full the
    structural netlist is single-cube -- no internal nets, no invisible
    moves -- so the pruning is a no-op and the reduced walk must agree
    with the exhaustive one state for state.  On half/full the two-cube
    ``ao`` decomposition races on internal nets; the exhaustive walk
    refutes it, and the pruned walk demonstrates exactly the documented
    optimism: it hides the racing interleaving, so its pass certifies
    nothing.  If either leg shifts, the pruning's semantics changed.
    """
    from repro.pipeline import FlowConfig, run_pipeline
    from repro.sg.generator import generate_sg
    from repro.specs import suite
    from repro.verify import check_conformance

    def pair(name):
        initial_sg = generate_sg(suite.load(name))
        result = run_pipeline(FlowConfig(strategy="full"),
                              initial_sg=initial_sg, name=f"{name}/full")
        netlist, resolved = result.circuit().netlist, result.resolved_sg()
        full = check_conformance(netlist, resolved, model="structural",
                                 name=f"{name}/full")
        reduced = check_conformance(netlist, resolved, model="structural",
                                    name=f"{name}/full", reduced=True)
        return full, reduced

    exact_full, exact_reduced = pair("vme_read")
    pruned_full, pruned_reduced = pair("half")
    return {
        "exact": {
            "point": "vme_read/full",
            "verdict_full": exact_full.verdict,
            "verdict_reduced": exact_reduced.verdict,
            "product_states_full": exact_full.product_states,
            "product_states_reduced": exact_reduced.product_states,
        },
        "pruned": {
            "point": "half/full",
            "verdict_full": pruned_full.verdict,
            "verdict_reduced": pruned_reduced.verdict,
            "product_states_full": pruned_full.product_states,
            "product_states_reduced": pruned_reduced.product_states,
        },
        "exact_without_internal_nets": (
            exact_full.verdict == exact_reduced.verdict == "conforming"
            and exact_full.product_states == exact_reduced.product_states
            > 0),
        "optimism_documented": (
            pruned_full.verdict == "non-conforming"
            and pruned_reduced.product_states > 0),
    }


def run_verify_throughput(context) -> dict:
    first, cold_seconds = _verify_everything()
    second, _ = _verify_everything()
    structural = _structural_probes()
    reduced_walk = _reduced_walk_probe()

    checked = {label: cert for label, cert in first.items()
               if not cert.skipped}
    skipped = sorted(label for label, cert in first.items()
                     if cert.skipped)
    product_states = sum(cert.product_states for cert in checked.values())
    product_arcs = sum(cert.product_arcs for cert in checked.values())
    verify_seconds = sum(cert.seconds for cert in checked.values())

    identical = all(first[label].to_dict() == second[label].to_dict()
                    for label in first)

    return {
        "checks_total": len(first),
        "verified": len(checked),
        "skipped": skipped,
        "all_conforming": all(cert.ok for cert in checked.values()),
        "product_states": product_states,
        "product_arcs": product_arcs,
        "verify_seconds": verify_seconds,
        "states_per_second": (product_states / verify_seconds
                              if verify_seconds > 0 else 0.0),
        "arcs_per_second": (product_arcs / verify_seconds
                            if verify_seconds > 0 else 0.0),
        "full_suite_wall_seconds": cold_seconds,
        "certificates_identical_between_passes": identical,
        "structural_probes": structural,
        "structural_as_expected": all(probe["as_expected"]
                                      for probe in structural.values()),
        "reduced_walk": reduced_walk,
        "reduced_product_states":
            reduced_walk["exact"]["product_states_reduced"],
        "full_product_states":
            reduced_walk["exact"]["product_states_full"],
        "reduced_walk_exact": reduced_walk["exact_without_internal_nets"],
        "reduced_walk_optimism": reduced_walk["optimism_documented"],
    }


register(BenchCase(
    name="verify_throughput",
    title="Verification throughput (suite + LR, all strategies)",
    tier="full",
    run=run_verify_throughput,
    metrics=(
        Metric("checks_total", "checks"),
        Metric("verified", "checks", direction="higher"),
        Metric("product_states", "states"),
        Metric("product_arcs", "arcs"),
        Metric("reduced_product_states", "states"),
        Metric("full_product_states", "states"),
        Metric("states_per_second", "states/s", direction="higher",
               measured=True),
        Metric("arcs_per_second", "arcs/s", direction="higher",
               measured=True),
        Metric("verify_seconds", "s", direction="lower", measured=True),
        Metric("full_suite_wall_seconds", "s", direction="lower",
               measured=True),
    ),
    checks=(
        Check("all_conforming", lambda r: require(
            r["all_conforming"],
            "every synthesized implementation must conform under the "
            "atomic model")),
        Check("only_micropipeline_skipped", lambda r: require(
            r["skipped"] == ["micropipeline/none"],
            f"the only hole must be micropipeline/none, got "
            f"{r['skipped']}")),
        Check("certificates_deterministic", lambda r: require(
            r["certificates_identical_between_passes"]
            and r["product_states"] > 0,
            "two passes must produce byte-identical certificates")),
        Check("structural_probes_as_expected", lambda r: require(
            r["structural_as_expected"],
            "the structural model must pass vme_read and refute half "
            "with a trace")),
        Check("reduced_walk_exact_without_internal_nets", lambda r: require(
            r["reduced_walk_exact"],
            "with no internal nets the pruned walk must agree with the "
            "exhaustive one state for state")),
        Check("reduced_walk_optimism_documented", lambda r: require(
            r["reduced_walk_optimism"],
            "the exhaustive walk must refute half/full while the pruned "
            "walk still explores -- the documented optimism of "
            "reduced=True")),
    ),
    info_keys=("skipped", "structural_probes", "reduced_walk"),
    table=lambda r: (
        ("metric", "value"),
        [("checks", r["checks_total"]),
         ("verified", r["verified"]),
         ("skipped", ", ".join(r["skipped"]) or "-"),
         ("product states", r["product_states"]),
         ("product arcs", r["product_arcs"]),
         ("states/s", f"{r['states_per_second']:.0f}"),
         ("full-suite wall", f"{r['full_suite_wall_seconds']:.2f}s")]),
))
