"""Command-line interface: a petrify-style front end to the flow.

Every command and flag is listed in ``docs/cli.md``, which
``python -m repro.cli --dump-docs`` renders from the live parsers (a test
keeps it in sync).  The flags that set :class:`FlowConfig` knobs are
declared once, in :data:`FLOW_FLAGS`, and read back by
:func:`flow_config`.

``sg``/``synth``/``sweep``/``verify``/``fuzz`` accept ``--trace PATH``
(``--trace-format json|chrome``) to record a span trace of the run --
pipeline stages, frontier levels -- without changing any output byte
(:mod:`repro.obs`); the global ``--log-level info`` (or ``REPRO_LOG``)
streams structured progress heartbeats to stderr.

``check``/``sg``/``synth``/``reduce``/``verify`` read astg-style ``.g``
files (see ``repro.petri.parser``), registry spec names (``repro verify
half vme_read``) and parametric family members
(``repro sg fifo_chain_8``), see :mod:`repro.specs.registry`; ``verify``
checks the synthesized circuit of every requested reduction strategy
against its specification; ``sg`` and ``synth`` take exploration-budget
knobs (``--max-states``/``--max-arcs``, ``--sg-max-states``/
``--sg-max-arcs``) that bound state-graph generation through one
:class:`repro.explore.ExplorationBudget`; ``check``/``sg`` take
``--engine`` to pick the exploration core -- including the symbolic
BDD engine (:mod:`repro.symbolic`), which computes reachable sets and
coding verdicts without enumerating states and is budgeted in allocated
BDD nodes (``--max-nodes``) -- and ``synth --engine symbolic`` runs that
engine's coding check before the explicit flow; ``sweep``
runs the built-in benchmark registry through the whole Tables 1-2
design-space grid in parallel; ``serve`` exposes the same flow as a
long-running HTTP service with request deduplication and micro-batching
(:mod:`repro.serve`).  ``synth``, ``verify``, ``sweep`` and ``serve`` all
share one ``--store`` directory (the content-addressed artifact store):
warm runs skip every pipeline stage whose inputs didn't change, and
``cache`` inspects, garbage-collects or clears that store.  ``bench``
runs the unified benchmark registry (:mod:`repro.bench`) into one
versioned ``BENCH_<rev>.json`` and can gate it against a committed
baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .encoding.csc import irresolvable_conflicts
from .petri.parser import read_stg, write_stg
from .pipeline.config import STRATEGIES, VERIFY_MODELS, FlowConfig
from .pipeline.jobs import table_row
from .pipeline.stages import run_pipeline, run_reduction
from .pipeline.store import ArtifactStore
from .reduction.explore import DEFAULT_PATIENCE, preserved_pairs
from .sg.generator import generate_sg
from .sg.properties import check_implementability
from .sg.resynthesis import ResynthesisError, resynthesise_stg
from .timing.delays import TABLE1_DELAYS, DelayModel


def _read_spec(spec: str):
    """An STG from a ``.g`` path, else :func:`repro.specs.registry.load_spec`."""
    from .specs.registry import load_spec

    if os.path.exists(spec):
        return read_stg(spec)
    try:
        return load_spec(spec)
    except KeyError as exc:
        raise SystemExit(f"{exc.args[0]}, and no .g file has that path")


def _parse_keep(text: str) -> List[tuple]:
    items = [item.strip() for item in text.split(",") if item.strip()]
    if len(items) % 2:
        raise SystemExit("--keep expects a comma list of event pairs, e.g. "
                         "'li-,ri-' or 'li-,ri-,lo-,ro-'")
    return [(items[i], items[i + 1]) for i in range(0, len(items), 2)]


#: The command-line spelling of every :class:`FlowConfig` knob: field (or
#: delay kind, which :func:`flow_config` assembles into ``delays``) ->
#: (flags, ``add_argument`` options).  Each command takes the subset it
#: declares with :func:`_add_flow_flags`.
FLOW_FLAGS = {
    "keep_conc": (("--keep",), dict(
        type=_parse_keep, metavar="EV1,EV2[,...]",
        help="event pairs whose concurrency to preserve; a pair may name "
             "labels, base events or signals, its label pairs that are not "
             "concurrent in the spec are dropped, and a pair with none "
             "concurrent is an error (exit 1)")),
    "weight": (("-W", "--weight"), dict(
        type=float, default=FlowConfig.weight,
        help="cost weight of the searched strategies: 0 biases CSC, 1 "
             "logic size")),
    "size_frontier": (("--frontier",), dict(
        type=int, help="beam width override (default: 4, full: 6)")),
    "max_explored": (("--max-explored",), dict(
        type=int, help="reduction-search exploration budget override "
                       "(default: 10000, full: 20000)")),
    "patience": (("--patience",), dict(
        type=int, help="best-first stops after this many consecutive "
                       "non-improving expansions (default: "
                       f"{DEFAULT_PATIENCE})")),
    "max_csc_signals": (("--max-csc",), dict(
        type=int, default=FlowConfig.max_csc_signals,
        help="state-signal insertion budget")),
    "input_delay": (("--input-delay",), dict(
        type=float, default=TABLE1_DELAYS.input_delay,
        help="input event delay")),
    "output_delay": (("--output-delay",), dict(
        type=float, default=TABLE1_DELAYS.output_delay,
        help="output event delay")),
    "internal_delay": (("--internal-delay",), dict(
        type=float, help="delay of inserted CSC signals (default: the "
                         "output delay, the Table 1 convention)")),
    "verify": (("--verify",), dict(
        action="store_true", help="gate-level verify every design point "
                                  "and add verdict columns to the report")),
    "verify_model": (("--model",), dict(
        choices=VERIFY_MODELS, default=FlowConfig.verify_model,
        help="delay model: atomic complex-gate cones (default) or every "
             "2-input gate separately")),
    "verify_max_states": (("--verify-max-states",), dict(
        type=int, help="product state-space cap per verification "
                       "(default: repro.verify.DEFAULT_MAX_STATES)")),
    "sg_max_states": (("--sg-max-states",), dict(
        type=int, help="state budget for SG generation (default: the "
                       "generator's 200000-state budget)")),
    "sg_max_arcs": (("--sg-max-arcs",), dict(
        type=int, help="arc budget for SG generation (default: unbounded)")),
}


def _add_flow_flags(command: argparse.ArgumentParser, *names: str,
                    **spellings: tuple) -> None:
    """Declare the :data:`FLOW_FLAGS` ``names`` on ``command``;
    ``spellings`` gives a flag another spelling in this command."""
    for name in names:
        flags, options = FLOW_FLAGS[name]
        flags = spellings.get(name, flags)
        if "type" in options:  # the flag's own name, not the field's
            options = {"metavar": _flag_name(flags[-1]), **options}
        command.add_argument(*flags, dest=name, **options)


def _flag_name(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_").upper()


def _flow_knobs(args: argparse.Namespace) -> dict:
    """The :class:`FlowConfig` keywords of the flow flags set in ``args``.

    The internal (CSC signal) delay follows the output delay unless
    ``--internal-delay`` is given, the Table 1 convention.
    """
    knobs = {name: value for name, value in vars(args).items()
             if (name in FLOW_FLAGS or name == "strategy")
             and value is not None}
    if "output_delay" in knobs:
        output = knobs.pop("output_delay")
        knobs["delays"] = DelayModel.by_kind(
            knobs.pop("input_delay"), output,
            knobs.pop("internal_delay", output))
    return knobs


def flow_config(args: argparse.Namespace, **fixed) -> FlowConfig:
    """The :class:`FlowConfig` of a command's flow flags, with ``fixed``
    knobs on top; a value ``FlowConfig`` refuses exits 1 with one line."""
    try:
        return FlowConfig(**{**_flow_knobs(args), **fixed})
    except ValueError as exc:
        raise SystemExit(str(exc))


def _print_coding(report) -> None:
    """Shared rendering of a cross-engine coding report."""
    print(f"coding report for {report.name} (engine: {report.engine}):")
    print(f"  states            : {report.states}")
    print(f"  consistent        : {report.consistent}")
    print(f"  USC / CSC         : {report.usc} / {report.csc}")
    print(f"  USC pairs         : {report.usc_pair_count}")
    print(f"  CSC conflicts     : {report.csc_conflict_count}")
    if report.truncated:
        print("  (witness lists above the limit were dropped)")


def cmd_check(args: argparse.Namespace) -> int:
    stg = _read_spec(args.spec)
    if args.engine == "symbolic":
        from .sg.properties import check_coding
        report = check_coding(stg, engine="symbolic")
        _print_coding(report)
        print("  note: commutativity/persistency/deadlock checks need the "
              "explicit engine")
        return 0 if report.consistent and report.csc else 1
    sg = generate_sg(stg, engine=args.engine)
    report = check_implementability(sg)
    print(f"model {stg.name}: {len(sg)} states, {sg.arc_count()} arcs")
    print(f"  consistent        : {report.consistent}")
    print(f"  commutative       : {report.commutative}")
    print(f"  output persistent : {report.output_persistent}")
    print(f"  USC / CSC         : {report.usc} / {report.csc}")
    print(f"  CSC conflicts     : {report.csc_conflict_count}")
    print(f"  deadlock free     : {report.deadlock_free}")
    hopeless = irresolvable_conflicts(sg)
    if hopeless:
        print(f"  note: {len(hopeless)} conflict(s) separated by input events "
              "only (unresolvable by state-signal insertion)")
    return 0 if report.implementable else 1


def _symbolic_sg(args: argparse.Namespace) -> int:
    """``repro sg --engine symbolic``: reach + coding, no enumeration."""
    from .explore import ExplorationBudget
    from .explore.budget import BudgetExceeded
    from .symbolic import encode_stg, symbolic_reach
    from .symbolic.csc import check_coding_symbolic

    stg = _read_spec(args.spec)
    budget = None
    if args.max_nodes is not None:
        budget = ExplorationBudget(max_nodes=args.max_nodes)
    try:
        encoding = encode_stg(stg)
        stage = "symbolic reachability"
        run = symbolic_reach(encoding, budget=budget)
        stage = "symbolic coding check"
        report = check_coding_symbolic(stg, run=run)
    except BudgetExceeded as exc:
        raise SystemExit(f"{exc.exceedance.diagnose(stage)} "
                         "(raise --max-nodes)")
    print(f"symbolic reachability of {stg.name}: {run.state_count} states "
          f"by saturation ({run.images} images, {run.closures} closures, "
          f"{run.rounds} rounds)")
    print(f"  BDD nodes         : {run.bdd.size(run.reached)} reached set, "
          f"{run.node_count} allocated")
    print(f"  variables         : {len(encoding.place_vars)} places + "
          f"{len(encoding.signal_vars)} signals (+ primed places)")
    _print_coding(report)
    return 0


def cmd_sg(args: argparse.Namespace) -> int:
    from .sg.generator import GenerationBudgetError, generation_budget

    # A flag the chosen engine would ignore is refused, never dropped.
    if args.engine == "symbolic":
        foreign = {"--dot": args.dot, "--stubborn": args.stubborn,
                   "--max-states": args.max_states is not None,
                   "--max-arcs": args.max_arcs is not None}
        reason = "computes the state set as a BDD (bounded by --max-nodes)"
    else:
        foreign = {"--max-nodes": args.max_nodes is not None}
        reason = "enumerates states (bounded by --max-states/--max-arcs)"
    for flag, given in foreign.items():
        if given:
            raise SystemExit(f"{flag} does not apply to --engine "
                             f"{args.engine}, which {reason}")
    if args.engine == "symbolic":
        return _symbolic_sg(args)
    try:
        sg = generate_sg(_read_spec(args.spec),
                         budget=generation_budget(args.max_states,
                                                  args.max_arcs),
                         stubborn=args.stubborn,
                         engine=args.engine)
    except GenerationBudgetError as exc:
        raise SystemExit(f"{exc.exceedance.diagnose('state graph')} "
                         "(raise --max-states/--max-arcs)")
    if args.stubborn:
        print(f"# stubborn-set reduction on: {len(sg)} states is a "
              "deadlock-preserving subset of the full state graph")
    if args.dot:
        print(sg.to_dot())
        return 0
    print(f"{len(sg)} states (initial marked with *):")
    for state in sg.states:
        marker = "*" if state == sg.initial else " "
        successors = ", ".join(f"{label}->{sg.code_string(target)}"
                               for label, target in sg.successors(state).items())
        print(f" {marker}{sg.code_string(state):12s} {successors}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from .sg.generator import GenerationBudgetError
    from .sg.properties import check_coding
    from .specs.registry import spec_names, spec_text

    config = flow_config(args)
    store = ArtifactStore(args.store) if args.store else None
    stg = _read_spec(args.spec)
    # A registry name runs on the registry's text, which the service keys
    # ``generate`` on too, so one store serves both.
    text = (write_stg(stg) if os.path.exists(args.spec)
            or args.spec not in spec_names() else spec_text(args.spec))
    # --engine symbolic = symbolic coding pre-flight, explicit synthesis
    # (the netlist needs the materialized state graph).
    coding = (check_coding(stg, engine="symbolic")
              if args.engine == "symbolic" else None)
    try:
        result = run_pipeline(config, stg_text=text, name=stg.name,
                              store=store)
    except GenerationBudgetError as exc:
        raise SystemExit(f"{exc.exceedance.diagnose('state graph')} "
                         "(raise --sg-max-states/--sg-max-arcs)")
    if coding is not None:
        _print_coding(coding)
    row = table_row(result)
    print(f"states: {len(result.initial_sg())} -> "
          f"{len(result.reduced_sg())} after reduction")
    print(f"CSC signals inserted: {row.csc_signals} "
          f"(resolved: {result.csc_resolved()})")
    circuit = result.circuit()
    if circuit is not None:
        print(f"area: {row.area}")
        for equation in sorted(circuit.equations.values()):
            print(f"  {equation}")
    else:
        print(f"area (lower-bound estimate, CSC unresolved): {row.area}")
    if row.cycle_time is not None:
        print(f"critical cycle: {row.cycle_time} "
              f"({row.input_events} input events)")
    return 0 if result.csc_resolved() else 1


def _parse_csv(text: Optional[str]) -> Optional[List[str]]:
    if not text:
        return None
    return [item.strip() for item in text.split(",") if item.strip()]


def cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import render, run_sweep, tables_grid

    if args.jobs < 1:
        raise SystemExit("--jobs must be at least 1")
    knobs = _flow_knobs(args)
    try:
        weights = _parse_csv(args.weights)
        grid = tables_grid(specs=_parse_csv(args.specs),
                           strategies=_parse_csv(args.strategies) or None,
                           weights=([float(w) for w in weights]
                                    if weights else None),
                           include_keep_variants=not args.no_keep_variants,
                           frontier=knobs.pop("size_frontier", None),
                           **knobs)
    except (KeyError, ValueError) as exc:
        raise SystemExit(str(exc))
    store = ArtifactStore(args.store) if args.store else None
    outcome = run_sweep(grid, jobs=args.jobs, store=store)
    text = render(outcome.rows, args.format)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text, end="")
    print(f"{len(outcome.points)} points: {outcome.computed} computed, "
          f"{outcome.cached} cached, {outcome.seconds:.2f}s "
          f"({outcome.points_per_second:.1f} points/s, jobs={outcome.jobs})",
          file=sys.stderr)
    if store is not None:
        print(outcome.stage_summary(), file=sys.stderr)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # Every strategy's config is built, so checked, before any report.
    configs = [flow_config(args, strategy=strategy, verify=True)
               for strategy in _parse_csv(args.strategies) or STRATEGIES]
    loaded = []
    for spec in args.specs:
        stg = _read_spec(spec)
        label = stg.name if os.path.exists(spec) else spec
        loaded.append((label, generate_sg(stg)))
    if any(config.keep_conc for config in configs):
        # Refused before any report: the `none` strategy ignores --keep.
        for _, initial_sg in loaded:
            preserved_pairs(initial_sg, args.keep_conc)
    store = ArtifactStore(args.store) if args.store else None
    reports = []
    verified = cached_count = failures = skips = 0
    for name, initial_sg in loaded:
        for config in configs:
            label = f"{name}/{config.strategy}"
            # The pipeline's verify stage, so --store reuses the reduction,
            # CSC and synthesis artifacts across runs, not just the final
            # certificate.
            result = run_pipeline(config, initial_sg=initial_sg, name=label,
                                  store=store)
            report = result.verification()
            cached = result.results["verify"].cached
            reports.append(report)
            if report.skipped:
                skips += 1
            elif cached:
                cached_count += 1
            else:
                verified += 1
            if not report.ok and not report.skipped:
                failures += 1
            print(f"{label}: {report.summary()}")
            for line in report.trace_lines():
                print(f"    {line}")
    if args.json:
        payload = {"reports": [report.to_dict() for report in reports]}
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}", file=sys.stderr)
    print(f"{len(reports)} checks: {verified} verified, {cached_count} "
          f"cached, {skips} skipped, {failures} failed", file=sys.stderr)
    if failures:
        return 1
    if args.strict and skips:
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.app import ServeApp
    from .serve.http import start_server

    if args.workers < 0:
        raise SystemExit("--workers must be >= 0 (0 = in-process)")

    app = ServeApp(store_root=args.store, workers=args.workers,
                   batch_size=args.batch_size,
                   default_timeout=args.timeout,
                   max_verify_states=args.max_verify_states)

    async def serve() -> None:
        await app.startup()
        server = await start_server(app, args.host, args.port)
        host, port = server.sockets[0].getsockname()[:2]
        print(f"serving on http://{host}:{port} "
              f"(workers={args.workers}, batch={args.batch_size}, "
              f"store={args.store or 'none'})", file=sys.stderr, flush=True)
        try:
            async with server:
                await server.serve_forever()
        finally:
            await app.shutdown()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from . import engine

    # Inspection/maintenance must not conjure stores out of typos
    # (ArtifactStore.__init__ creates its directory).
    if not os.path.isdir(args.store):
        raise SystemExit(f"no such store directory: {args.store}")
    store = ArtifactStore(args.store)
    if args.action == "stats":
        stats = store.stats()
        print(f"store {stats['root']}: {stats['entries']} entries, "
              f"{stats['bytes']} bytes")
        for stage, count in stats["stages"].items():
            print(f"  {stage:12s} {count}")
        memos = engine.cache_stats()
        print(f"engine memo tables (this process): {len(memos)}")
        for name, entries in sorted(memos.items()):
            print(f"  {name:24s} {entries} entries")
        return 0
    if args.action == "gc":
        if args.max_bytes is None:
            raise SystemExit("cache gc requires --max-bytes")
        result = store.gc(args.max_bytes)
        print(f"deleted {result['deleted']} entries "
              f"({result['freed_bytes']} bytes); "
              f"{result['remaining_bytes']} bytes remain")
        return 0
    if args.action == "clear":
        removed = store.clear()
        engine.clear_caches()
        print(f"deleted {removed} entries; engine memo tables cleared")
        return 0
    raise SystemExit(f"unknown cache action {args.action!r}")


def cmd_bench(args: argparse.Namespace) -> int:
    from . import bench

    if args.list:
        for case in bench.all_cases():
            print(f"{case.name:20s} {case.tier:5s} {case.title}")
        return 0
    if args.rounds < 1:
        raise SystemExit("--rounds must be at least 1")
    try:
        cases = bench.select_cases(names=_parse_csv(args.cases),
                                   tier=args.tier)
    except KeyError as exc:
        raise SystemExit(str(exc))

    report = bench.run_cases(cases, quick=args.quick, rounds=args.rounds)
    for skip in bench.skipped_checks(report):
        print(f"check skipped -- {skip}", file=sys.stderr)

    out = args.out or bench.default_bench_name(report["env"])
    with open(out, "wb") as handle:
        handle.write(bench.to_json_bytes(report))
    total = sum(entry["seconds"] for entry in report["cases"].values())
    print(f"wrote {out}: {len(report['cases'])} cases, {total:.1f}s "
          f"(rev {report['env']['git_rev']})", file=sys.stderr)

    failures = bench.failed_checks(report)
    for failure in failures:
        print(f"check FAILED -- {failure}", file=sys.stderr)

    status = 1 if failures else 0
    if args.against:
        with open(args.against, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        try:
            comparison = bench.compare(report, baseline,
                                       tolerance=args.tolerance)
        except ValueError as exc:
            raise SystemExit(str(exc))
        print(comparison.to_markdown(), end="")
        if args.verdict:
            with open(args.verdict, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(comparison.to_dict(), indent=2,
                                        sort_keys=True) + "\n")
            print(f"wrote {args.verdict}", file=sys.stderr)
        if not comparison.ok:
            status = 1
    return status


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs.trace import load_trace, render_summary

    if args.action != "summarize":
        raise SystemExit(f"unknown trace action {args.action!r}")
    try:
        payload = load_trace(args.file)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise SystemExit(str(exc))
    print(render_summary(payload), end="")
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    config = flow_config(args)
    initial = generate_sg(_read_spec(args.spec))
    reduced, _, _ = run_reduction(config, initial)
    print(f"states: {len(initial)} -> {len(reduced)}", file=sys.stderr)
    try:
        stg = resynthesise_stg(reduced)
    except ResynthesisError as exc:
        print(f"cannot re-derive an STG: {exc}", file=sys.stderr)
        return 1
    text = write_stg(stg)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .specs.generate import GenKnobs, run_fuzz

    knobs = GenKnobs(max_fragments=args.fragments,
                     max_mutations=args.mutations,
                     max_signals=args.max_signals)
    report = run_fuzz(seed=args.seed, count=args.count, knobs=knobs,
                      budget_states=args.budget,
                      jobs_identity_every=args.jobs_identity_every,
                      do_shrink=args.shrink,
                      repro_dir=args.repro_dir)
    # stdout is the deterministic record (byte-identical across runs and
    # PYTHONHASHSEEDs); wall-clock goes to stderr.
    print(f"corpus {report.corpus_digest}")
    print(f"specs {len(report.results)} seed {report.seed} "
          f"states {report.total_states} max {report.max_states}")
    for check, count in sorted(report.check_counts().items()):
        print(f"  {check:12s} {count}")
    print(f"divergences {len(report.divergences)}")
    for divergence, shrunk in zip(report.divergences, report.shrunk):
        print(f"  {divergence.oracle}: {divergence.spec.name} -> "
              f"{shrunk.spec.name} "
              f"({len(shrunk.spec.build().net.transitions)} transitions, "
              f"{shrunk.steps} shrink edits)")
    for divergence in report.divergences[len(report.shrunk):]:
        print(f"  {divergence.oracle}: {divergence.spec.name} (unshrunk)")
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(report.manifest(), indent=2,
                                    sort_keys=True) + "\n")
        print(f"wrote {args.manifest}", file=sys.stderr)
    for path in report.repro_paths:
        print(f"wrote {path}", file=sys.stderr)
    rate = len(report.results) / report.seconds if report.seconds else 0.0
    print(f"{report.seconds:.1f}s ({rate:.1f} specs/s)", file=sys.stderr)
    return 1 if report.divergences else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Synthesis of partially specified asynchronous systems "
                    "(DAC 1999 reproduction)")
    parser.add_argument("--log-level",
                        choices=("debug", "info", "warning", "error"),
                        default=None,
                        help="structured log level; at info the frontier "
                             "and stage progress heartbeats stream to "
                             "stderr (default: $REPRO_LOG or warning)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_options(command: argparse.ArgumentParser) -> None:
        command.add_argument("--trace", metavar="PATH",
                             help="record a span trace of this run (pipeline "
                                  "stages, frontier levels) to PATH; purely "
                                  "observational, results are byte-identical "
                                  "with or without it")
        command.add_argument("--trace-format", choices=("json", "chrome"),
                             default="json",
                             help="trace layout: nested JSON tree (for "
                                  "'repro trace summarize') or Chrome "
                                  "trace_event (chrome://tracing, Perfetto)")

    check = sub.add_parser(
        "check", help="implementability report: USC/CSC conflicts are "
                      "counted per code bucket, and only the pairs that "
                      "input events alone separate are listed")
    check.add_argument("spec", help=".g specification file")
    check.add_argument("--engine",
                       choices=("auto", "packed", "tuples", "symbolic"),
                       default="auto",
                       help="checking engine: explicit state-graph cores "
                            "(auto/packed/tuples) or the symbolic BDD path "
                            "(coding properties only, no enumeration)")
    check.set_defaults(func=cmd_check)

    sg = sub.add_parser("sg", help="print the state graph")
    sg.add_argument("spec", help=".g specification file")
    sg.add_argument("--dot", action="store_true", help="GraphViz output")
    sg.add_argument("--engine",
                    choices=("auto", "packed", "tuples", "symbolic"),
                    default="auto",
                    help="exploration engine: auto tries the packed core "
                         "and falls back to tuples; symbolic computes the "
                         "reachable set as a BDD and prints a summary plus "
                         "coding verdicts instead of the state listing")
    sg.add_argument("--max-states", type=int, default=None,
                    help="cap on admitted states (explicit engines only; "
                    "default: the generator's 200000-state budget); "
                    "exceeding it is a structured error, never a "
                    "truncated graph")
    sg.add_argument("--max-arcs", type=int, default=None,
                    help="cap on traversed arcs (explicit engines only; "
                    "default: unbounded)")
    sg.add_argument("--max-nodes", type=int, default=None,
                    help="cap on allocated BDD nodes (--engine symbolic "
                    "only; exceeding it is the same structured budget "
                    "error)")
    sg.add_argument("--stubborn", action="store_true",
                    help="explore with the deadlock-preserving stubborn-set "
                    "reduction (a subset of the full state graph); packed "
                    "engine only, refused for --engine tuples, 2-phase "
                    "specs and nets outside the 1-safe regime")
    add_trace_options(sg)
    sg.set_defaults(func=cmd_sg)

    def add_reduction_options(command: argparse.ArgumentParser) -> None:
        command.add_argument("spec", help=".g specification file")
        strategy = command.add_mutually_exclusive_group()
        strategy.add_argument("--full", action="store_const", const="full",
                              dest="strategy",
                              help="reduce until no valid reduction remains")
        strategy.add_argument("--no-reduce", action="store_const",
                              const="none", dest="strategy",
                              help="keep maximal concurrency")
        _add_flow_flags(command, "keep_conc", "weight", "size_frontier",
                        "max_explored", "patience")

    synth = sub.add_parser("synth", help="synthesize a circuit")
    add_reduction_options(synth)
    _add_flow_flags(synth, "max_csc_signals", "input_delay", "output_delay",
                    "internal_delay", "sg_max_states", "sg_max_arcs")
    synth.add_argument("--engine", choices=("auto", "symbolic"),
                       default="auto",
                       help="symbolic runs a BDD coding pre-flight (prints "
                            "the verdicts) before the explicit flow")
    synth.add_argument("--store", metavar="DIR",
                       help="artifact store; warm runs reuse every pipeline "
                            "stage whose inputs didn't change")
    add_trace_options(synth)
    synth.set_defaults(func=cmd_synth)

    reduce_cmd = sub.add_parser("reduce",
                                help="reduce concurrency, emit a new .g STG")
    add_reduction_options(reduce_cmd)
    reduce_cmd.add_argument("-o", "--output", help="output .g path")
    reduce_cmd.set_defaults(func=cmd_reduce)

    verify = sub.add_parser(
        "verify",
        help="synthesize and verify circuits against their specifications")
    verify.add_argument("specs", nargs="+",
                        help=".g files or registry spec names")
    verify.add_argument("--strategies", metavar="S[,S...]",
                        help="subset of none,beam,best-first,full "
                             "(default: all)")
    _add_flow_flags(verify, "keep_conc", "weight", "max_csc_signals",
                    "verify_model", "verify_max_states",
                    verify_max_states=("--max-states",))
    verify.add_argument("--store", metavar="DIR",
                        help="certificate store; warm runs skip verified "
                             "(netlist, spec) pairs")
    verify.add_argument("--strict", action="store_true",
                        help="treat skipped points (no circuit) as failures")
    verify.add_argument("--json", metavar="PATH",
                        help="write all certificates to a JSON file")
    add_trace_options(verify)
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep",
                           help="parallel design-space sweep over the "
                                "built-in benchmark grid (Tables 1-2)")
    sweep.add_argument("--specs", metavar="NAME[,NAME...]",
                       help="benchmark subset (default: every registered "
                            "spec; see repro.specs.registry)")
    sweep.add_argument("--strategies", metavar="S[,S...]",
                       help="subset of none,beam,best-first,full "
                            "(default: all)")
    sweep.add_argument("--weights", metavar="W[,W...]",
                       help="cost weights for the searched strategies "
                            "(default: 0.0,0.5,1.0)")
    sweep.add_argument("--no-keep-variants", action="store_true",
                       help="skip the named Keep_Conc rows (li || ri, ...)")
    _add_flow_flags(sweep, "size_frontier", "max_explored", "verify",
                    "verify_max_states", "input_delay", "output_delay",
                    "internal_delay")
    sweep.add_argument("-j", "--jobs", type=int, default=1,
                       help="worker processes (default: 1, serial)")
    sweep.add_argument("--store", metavar="DIR",
                       help="on-disk result store; completed points are "
                            "reused across runs and overlapping grids")
    sweep.add_argument("--format", choices=("md", "csv", "json"),
                       default="md", help="report format (default: md)")
    sweep.add_argument("-o", "--output", help="write the report to a file")
    add_trace_options(sweep)
    sweep.set_defaults(func=cmd_sweep)

    serve = sub.add_parser(
        "serve",
        help="run the synthesis service: an async HTTP front end with "
             "request deduplication and micro-batching")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port; 0 picks an ephemeral port "
                            "(default: 8080)")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes for the heavy stages; "
                            "0 runs in-process (default: 1)")
    serve.add_argument("--batch-size", type=int, default=8,
                       help="max queued same-spec jobs grouped into one "
                            "worker chunk (default: 8)")
    serve.add_argument("--store", metavar="DIR",
                       help="shared artifact store; without it nothing is "
                            "cached across requests or restarts")
    serve.add_argument("--timeout", type=float, default=None,
                       help="default per-job wall-clock budget in seconds "
                            "(requests may set a smaller one)")
    serve.add_argument("--max-verify-states", type=int, default=None,
                       help="server-wide cap on per-request verification "
                            "state budgets")
    serve.set_defaults(func=cmd_serve)

    cache = sub.add_parser(
        "cache",
        help="inspect or maintain an artifact store (and engine memos)")
    cache.add_argument("action", choices=("stats", "gc", "clear"),
                       help="stats: entries/bytes per stage; gc: delete "
                            "oldest entries over the byte budget; clear: "
                            "delete everything")
    cache.add_argument("store", metavar="DIR", help="store directory")
    cache.add_argument("--max-bytes", type=int, default=None,
                       help="byte budget for gc")
    cache.set_defaults(func=cmd_cache)

    bench = sub.add_parser(
        "bench",
        help="run the unified benchmark registry into a versioned BENCH "
             "file, optionally gated against a baseline")
    bench.add_argument("--cases", metavar="NAME[,NAME...]",
                       help="explicit case subset (overrides --tier; see "
                            "--list)")
    bench.add_argument("--tier", choices=("quick", "full", "all"),
                       default="all",
                       help="run one tier: quick (sub-second, the CI gate) "
                            "or full (multi-second throughput); default: all")
    bench.add_argument("--quick", action="store_true",
                       help="single timing round, no warmup (smoke mode; "
                            "measured metrics are noisy)")
    bench.add_argument("--rounds", type=int, default=3,
                       help="timing rounds per measurement (min-of-N)")
    bench.add_argument("--out", metavar="PATH",
                       help="BENCH report path (default: BENCH_<rev>.json)")
    bench.add_argument("--against", metavar="BASELINE",
                       help="compare against a baseline BENCH file; exits "
                            "non-zero on regressions or missing metrics")
    bench.add_argument("--tolerance", type=float, default=None,
                       help="relative tolerance for gated measured metrics "
                            "(default: 0.5; exact metrics always gate at 0)")
    bench.add_argument("--verdict", metavar="PATH",
                       help="write the machine-readable comparison verdict "
                            "to a JSON file")
    bench.add_argument("--list", action="store_true",
                       help="list registered cases (name, tier, title) and "
                            "exit")
    bench.set_defaults(func=cmd_bench)

    trace = sub.add_parser(
        "trace",
        help="inspect recorded trace files (the --trace output)")
    trace.add_argument("action", choices=("summarize",),
                       help="summarize: aggregate count and wall/self/CPU "
                            "seconds per span name")
    trace.add_argument("file", help="trace file (JSON tree or Chrome "
                                    "trace_event format)")
    trace.set_defaults(func=cmd_trace)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential cross-engine fuzzing over random live-safe "
             "specs, with automatic shrinking of divergences")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="corpus seed; the run is byte-deterministic in "
                           "(seed, count, knobs)")
    fuzz.add_argument("--count", type=int, default=100,
                      help="number of generated specs to check")
    fuzz.add_argument("--fragments", type=int, default=3,
                      help="max handshake fragments composed per spec")
    fuzz.add_argument("--mutations", type=int, default=4,
                      help="max correctness-preserving mutations per spec")
    fuzz.add_argument("--max-signals", type=int, default=12,
                      help="signal budget per generated spec")
    fuzz.add_argument("--budget", type=int, default=50_000,
                      help="per-spec exploration budget (states); "
                           "exceedances must agree across engines")
    fuzz.add_argument("--shrink", action=argparse.BooleanOptionalAction,
                      default=True,
                      help="reduce each divergence to a minimal repro "
                           "spec before reporting")
    fuzz.add_argument("--jobs-identity-every", type=int, default=0,
                      metavar="N",
                      help="byte-compare a spawned-process synth job "
                           "against the in-process one on every N-th "
                           "spec (0: off)")
    fuzz.add_argument("--manifest", metavar="PATH",
                      help="write the JSON corpus manifest (digests plus "
                           "one replayable genspec line per spec)")
    fuzz.add_argument("--repro-dir", metavar="DIR",
                      help="write shrunk divergence repro files here "
                           "(default: none)")
    add_trace_options(fuzz)
    fuzz.set_defaults(func=cmd_fuzz)
    return parser


def _action_rows(parser: argparse.ArgumentParser) -> List[tuple]:
    """(spelling, default, help) rows for every argument of one parser."""
    rows = []
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction,
                               argparse._SubParsersAction)):
            continue
        if action.option_strings:
            spelling = ", ".join(action.option_strings)
            if action.metavar:
                spelling += f" {action.metavar}"
            elif action.nargs is None and not isinstance(
                    action, (argparse._StoreTrueAction,
                             argparse._StoreFalseAction,
                             argparse._StoreConstAction)):
                spelling += f" {_flag_name(action.option_strings[-1])}"
        else:
            spelling = action.metavar or action.dest
        # Identity checks: `0 in (None, False, ...)` would be True and
        # hide real zero defaults from the committed reference.
        if (action.default is None or action.default is False
                or action.default is argparse.SUPPRESS):
            default = ""
        else:
            default = f"{action.default}"
        rows.append((spelling, default, action.help or ""))
    return rows


def dump_docs() -> str:
    """Render the whole CLI tree as markdown (the source of docs/cli.md).

    Generated from the live argparse parsers, so the committed file can
    never drift from the code: ``tests/test_docs.py`` re-generates it and
    compares bytes.  Regenerate with::

        PYTHONPATH=src python -m repro.cli --dump-docs > docs/cli.md
    """
    parser = build_parser()
    lines = [
        "# `repro` command-line reference",
        "",
        "<!-- Generated by `python -m repro.cli --dump-docs`; do not edit "
        "by hand. -->",
        "",
        parser.description or "",
        "",
        "Run any command via the installed `repro` script or "
        "`PYTHONPATH=src python -m repro`.",
        "",
    ]
    subactions = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    helps = {choice.dest: choice.help
             for choice in subactions._choices_actions}
    for name, sub in subactions.choices.items():
        lines.append(f"## `repro {name}`")
        lines.append("")
        if helps.get(name):
            help_text = helps[name]
            # Not str.capitalize(): that would lowercase acronyms (HTTP,
            # CSC, ...) in the committed, byte-compared reference.
            lines.append(f"{help_text[:1].upper()}{help_text[1:]}.")
            lines.append("")
        usage = " ".join(sub.format_usage().split())
        lines.append(f"    {usage.replace('usage: ', '')}")
        lines.append("")
        rows = _action_rows(sub)
        if rows:
            lines.append("| argument | default | description |")
            lines.append("| --- | --- | --- |")
            for spelling, default, help_text in rows:
                lines.append(f"| `{spelling}` | {default} | {help_text} |")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _setup_observability(args: argparse.Namespace) -> None:
    """One logging setup + the heartbeat hook, for every subcommand."""
    import logging

    from .obs import progress
    from .obs.logs import logger, setup_logging, structured

    try:
        setup_logging(getattr(args, "log_level", None))
    except ValueError as exc:  # a bad $REPRO_LOG value
        raise SystemExit(str(exc))
    log = logger("repro.progress")
    if log.isEnabledFor(logging.INFO):
        progress.set_heartbeat(
            lambda kind, fields: log.info(structured(kind, fields)))
    else:
        # Embedders (and earlier main() calls in one test process) may
        # have left a hook installed; quiet levels must stay quiet.
        progress.clear_heartbeat()


def _run(args: argparse.Namespace) -> int:
    """Run the chosen command; a spec the flow cannot handle exits 1.

    An inconsistent spec prints its witness; any other state-graph or
    symbolic-encoding refusal (a dummy transition, a multi-token place)
    and a ``--keep`` pair the spec cannot honour print their message.
    """
    from .hse.constraints import KeepConcError
    from .sg.generator import ConsistencyError
    from .sg.graph import StateGraphError

    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"inconsistent specification: {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(f"witness: {' '.join(exc.witness)}", file=sys.stderr)
        return 1
    except Exception as exc:
        # Imported on the error path only, so commands that never build a
        # BDD (``serve`` among them) do not pay for loading the engine.
        from .symbolic import SymbolicEncodingError
        if not isinstance(exc, (KeepConcError, StateGraphError,
                                SymbolicEncodingError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "--dump-docs":
        print(dump_docs(), end="")
        return 0
    args = build_parser().parse_args(argv)
    _setup_observability(args)
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return _run(args)
    from .obs.trace import TraceRecorder, recording, write_trace

    recorder = TraceRecorder(meta={"command": args.command,
                                   "argv": list(argv)})
    try:
        with recording(recorder):
            return _run(args)
    finally:
        # Written even when the command exits early (budget exceedance,
        # SystemExit): a partial trace is exactly what you want then.
        write_trace(recorder, trace_path, args.trace_format)
        print(f"wrote trace to {trace_path} ({args.trace_format})",
              file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
