"""Differential fuzzing: generator + oracle throughput.

The fuzz harness is only useful if it is cheap enough to run constantly,
so this case tracks specs/second through the full engines-only oracle
(packed vs tuples state graphs, explicit vs symbolic coding) over a
small seeded corpus.  The checks pin what the throughput must never
cost: zero divergences between the engines, and byte-determinism -- the
same seed must reproduce the same corpus digest within the run.
"""

from __future__ import annotations

from ..registry import BenchCase, Check, Metric, register, require

#: The corpus: small knobs keep the quick tier sub-3-seconds per pass.
SEED = 0
COUNT = 20
KNOBS = {"max_fragments": 2, "max_mutations": 3, "max_signals": 8}


def run_fuzz_throughput(context) -> dict:
    from repro.specs.generate import GenKnobs, run_fuzz

    knobs = GenKnobs(**KNOBS)
    seconds, report = context.best_of(
        lambda: run_fuzz(seed=SEED, count=COUNT, knobs=knobs,
                         pipeline_limit=0),
        rounds=1)
    again = run_fuzz(seed=SEED, count=COUNT, knobs=knobs, pipeline_limit=0)

    return {
        "seed": SEED,
        "count": COUNT,
        "knobs": KNOBS,
        "corpus_digest": report.corpus_digest,
        "repeat_digest": again.corpus_digest,
        "corpus_states": report.total_states,
        "max_states": report.max_states,
        "divergences": len(report.divergences),
        "checks_run": sum(report.check_counts().values()),
        "fuzz_seconds": seconds,
        "specs_per_sec": COUNT / seconds if seconds else 0.0,
    }


register(BenchCase(
    name="fuzz_throughput",
    title="Differential fuzzing (generator + cross-engine oracle)",
    tier="quick",
    run=run_fuzz_throughput,
    metrics=(
        Metric("corpus_states", "states"),
        Metric("max_states", "states"),
        Metric("divergences", "divergences"),
        Metric("checks_run", "checks"),
        Metric("fuzz_seconds", "s", direction="lower", measured=True),
        Metric("specs_per_sec", "specs/s", direction="higher",
               measured=True),
    ),
    checks=(
        Check("no_divergences", lambda r: require(
            r["divergences"] == 0,
            f"the engines disagreed on {r['divergences']} generated "
            f"spec(s) of seed {r['seed']}")),
        Check("deterministic", lambda r: require(
            r["corpus_digest"] == r["repeat_digest"],
            f"two identical fuzz runs produced different corpus "
            f"digests: {r['corpus_digest']} vs {r['repeat_digest']}")),
    ),
    info_keys=("seed", "count", "knobs", "corpus_digest"),
))
