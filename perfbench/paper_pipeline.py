"""Workload ``paper-pipeline``: the paper's harness, closed, in one process.

From the model list to the Fig. 2a/2b/2c tables: best generation per
model (Fig. 2a), correction of the top three (Fig. 2b), the iterative
repair experiment over every model and prompting scheme, certification of
the corrected top three, and Fig. 2c — single-window batch recognition of
the gold description and of each corrected top-three description on the
scale-0.1 dataset, scored per activity against the gold detections.

Each step is one call into a public entry point of the program. The
process is pinned to one CPU, every step's time is scaled to the reference
speed by the reference loop timed around it (``common.Reference``), and
the harness runs ``PASSES`` times over the same inputs; each step is
reported as its median over the passes. ``wall_s`` is the sum of the
steps, the latency samples are the four single-window ``recognise`` calls
of Fig. 2c, and ``throughput_eps`` is the events those calls recognised
per second.

Checks, made outside the timed region: the top three are {o1, llama-3,
gpt-4o}; Gemma-2 under chain-of-thought prompting (Gemma-2△) has trawling
similarity exactly 0; the gold detections scored against themselves give
F1 = 1.0 for every activity; every corrected top-three description is
certified; and the repair loop ends at or above the single-shot baseline
for every model and scheme.
"""

from __future__ import annotations

import time
from typing import Dict, List

import common

SCALE = 0.1
SETUPS = 5
#: Passes of the harness; each step is reported as its median over them.
PASSES = 3
#: The smallest scale at which every activity is detected (the F1 check).
SMOKE_SCALE = 0.05
EXPECTED_TOP3 = {"o1", "llama-3", "gpt-4o"}


def _setup(seed: int):
    from repro.maritime import build_dataset
    from repro.maritime.gold import gold_event_description
    from repro.rtec.engine import RTECEngine

    started = time.perf_counter()
    dataset = build_dataset(seed=seed, scale=SCALE)
    built = time.perf_counter()
    RTECEngine(gold_event_description(), dataset.kb, dataset.vocabulary, strict=True)
    done = time.perf_counter()
    return dataset, built - started, done - started


def _pass(dataset, seed: int, reference: common.Reference, smoke: bool) -> Dict[str, object]:
    """One pass of the harness; records each step's seconds in
    ``reference``. The smoke mode repairs one model's descriptions instead
    of all."""
    from repro.analysis.certify import certify_description
    from repro.experiments import fig2a, fig2b, fig2c
    from repro.experiments.repair import run_repair_experiment
    from repro.generation.evaluation import run_recognition, score_activities
    from repro.generation.generator import correct_outcome, generate_best
    from repro.llm.profiles import MODEL_NAMES
    from repro.maritime.gold import MARITIME_VOCABULARY, gold_event_description

    def step(call, *args, **kwargs):
        started = time.perf_counter()
        value = call(*args, **kwargs)
        reference.scale(time.perf_counter() - started)
        return value

    outcomes = {model: step(generate_best, model, seed=seed) for model in MODEL_NAMES}
    result_2a = fig2a.Fig2aResult(outcomes)
    corrected, reports = {}, {}
    for model in result_2a.top_models(3):
        corrected[model], reports[model] = step(
            correct_outcome, outcomes[model], MARITIME_VOCABULARY, dataset.kb)
    result_2b = fig2b.Fig2bResult(fig2a=result_2a, corrected=corrected, reports=reports)
    repairs = [
        step(run_repair_experiment, dataset.kb, models=[model], seed=seed)
        for model in (MODEL_NAMES[:1] if smoke else MODEL_NAMES)
    ]
    certificates = {
        model: step(certify_description, outcome.generated.to_event_description(),
                    MARITIME_VOCABULARY, kb=dataset.kb)
        for model, outcome in corrected.items()
    }
    gold = step(run_recognition, gold_event_description(), dataset, strict=True)
    recognise_at = [len(reference.raw) - 1]
    scores = {}
    for model, outcome in corrected.items():
        candidate = step(run_recognition, outcome.generated.to_event_description(), dataset)
        recognise_at.append(len(reference.raw) - 1)
        scores[model] = step(score_activities, gold, candidate)
    result_2c = fig2c.Fig2cResult(fig2b=result_2b, dataset=dataset, gold_result=gold,
                                  scores=scores)
    tables = [fig2a.format_table(result_2a), fig2b.format_table(result_2b),
              fig2c.format_table(result_2c)]
    return {"fig2a": result_2a, "fig2b": result_2b, "fig2c": result_2c, "repairs": repairs,
            "certificates": certificates, "tables": tables, "recognise_at": recognise_at}


def _check(outcome: common.Outcome, result: Dict[str, object], smoke: bool) -> None:
    from repro.generation.evaluation import score_activities
    from repro.llm.prompts import CHAIN_OF_THOUGHT
    from repro.maritime.gold import COMPOSITE_ACTIVITIES
    from repro.rtec.result import RecognitionResult

    top3 = set(result["fig2a"].top_models(3))  # type: ignore[union-attr]
    if top3 != EXPECTED_TOP3:
        outcome.mismatches.append("top-3 is %s, expected %s" % (sorted(top3), sorted(EXPECTED_TOP3)))
    gemma = result["fig2a"].outcomes["gemma-2"]  # type: ignore[union-attr]
    if gemma.scheme != CHAIN_OF_THOUGHT or gemma.activity_similarities["trawling"] != 0.0:
        outcome.mismatches.append(
            "Gemma-2 best is %s with trawling similarity %r, expected chain-of-thought and 0"
            % (gemma.scheme, gemma.activity_similarities["trawling"]))
    gold = result["fig2c"].gold_result  # type: ignore[union-attr]

    def gold_f1_failures(candidate) -> List[str]:
        scores = score_activities(gold, candidate)
        return [name for name in COMPOSITE_ACTIVITIES if scores[name].f1 != 1.0]

    wrong = gold_f1_failures(gold)
    if wrong:
        outcome.mismatches.append("gold-vs-gold F1 below 1.0 for %s" % ", ".join(wrong))
    if smoke:
        # A gold result with one activity interval shifted must fail the check.
        data = gold.to_dict()
        for key in sorted(data):
            if data[key] and key.split("(")[0] in COMPOSITE_ACTIVITIES:
                data[key] = [[data[key][0][0], data[key][0][1] + 1]] + data[key][1:]
                break
        outcome.notes["perturbation_detected"] = bool(
            gold_f1_failures(RecognitionResult.from_dict(data)))
    for model, certificate in result["certificates"].items():  # type: ignore[union-attr]
        if not certificate.certified:
            outcome.mismatches.append("corrected %s is not certified" % model)
    for experiment in result["repairs"]:  # type: ignore[union-attr]
        for entry in experiment.entries:
            if entry.result.final_similarity < entry.baseline:
                outcome.mismatches.append("repair of %s/%s ended below its baseline"
                                          % (entry.model, entry.scheme))


def run(root: str, seed: int, seconds: float, trace: bool, smoke: bool) -> common.Outcome:
    from repro import telemetry

    outcome = common.Outcome()
    common.pin_to_one_cpu()
    setup_times = common.Reference()
    setups = []
    for _ in range(1 if smoke else SETUPS):
        setups.append(_setup(seed))
        setup_times.scale(setups[-1][2])
    dataset = setups[-1][0]
    if smoke:
        # The harness at a tiny dataset: the checks hold at any scale.
        from repro.maritime import build_dataset

        dataset = build_dataset(seed=seed, scale=SMOKE_SCALE)
    passes = []  # (step times, result)
    for _ in range(1 if smoke or trace else PASSES):
        times = common.Reference()
        passes.append((times, _pass(dataset, seed, times, smoke)))
    rss = common.peak_rss_mb_self()
    result = passes[0][1]
    tables = result["tables"]
    for _times, other in passes:
        _check(outcome, other, smoke)
        if other["tables"] != tables:
            outcome.mismatches.append("passes printed different tables")
    steps = common.per_unit_median([times.scaled for times, _result in passes])
    wall_s = sum(steps)
    measured_s = common.median([sum(times.raw) for times, _result in passes])
    if trace:
        import layers

        timers = layers.CallTimers()
        timers.patch_kernels()
        timers.patch("certify", "repro.analysis.certify", "certify_description")
        timers.patch("analyse", "repro.analysis.analyzer", "analyse")
        traced_times = common.Reference()
        with telemetry.enabled() as tracer:
            traced = _pass(dataset, seed, traced_times, smoke)
        timers.restore()
        _check(outcome, traced, smoke)
        if traced["tables"] != tables:
            outcome.mismatches.append("traced pass printed different tables")
        outcome.notes["trace"] = layers.collect(
            tracer, timers,
            **{"maritime.build_s": common.median([item[1] for item in setups]),
               "telemetry.overhead_share": sum(traced_times.scaled) / wall_s - 1.0})
    recognitions = [steps[index] for index in result["recognise_at"]]  # type: ignore[union-attr]
    events = len(dataset.stream) * len(recognitions)  # type: ignore[arg-type]
    outcome.attempted = len(steps) * len(passes)
    outcome.failed = 0
    outcome.sizes.update({
        "scale": SCALE if not smoke else SMOKE_SCALE, "events": len(dataset.stream),
        "recognitions": len(recognitions), "steps": len(steps), "passes": len(passes),
    })
    outcome.notes["tables"] = tables
    outcome.notes["measured"] = {
        "wall_s": measured_s,
        "setup_s": common.median(setup_times.raw),
        "reference_loop_s": common.median(
            [value for times, _result in passes for value in times.loop_s]),
    }
    if trace:
        return outcome
    throughput = events / sum(recognitions)  # type: ignore[arg-type]
    recognise_ms = [value * 1e3 for value in recognitions]  # type: ignore[union-attr]
    outcome.put("setup_s", common.median(setup_times.scaled), "s", samples=len(setups))
    outcome.put("wall_s", wall_s, "s", samples=len(passes))
    outcome.put("throughput_eps", throughput, "ev/s", samples=events)
    outcome.put("latency_p50_ms", common.percentile(recognise_ms, 50), "ms",
                samples=len(recognise_ms))
    outcome.put("latency_p99_ms", common.percentile(recognise_ms, 99), "ms",
                samples=len(recognise_ms))
    outcome.put("sustainable_eps", common.highest_rung(lambda rate: rate <= throughput,
                                                       1000.0, 4), "ev/s")
    outcome.put("ok_share", 1.0 - outcome.failed / float(outcome.attempted), "share",
                samples=outcome.attempted)
    outcome.put("peak_rss_mb", rss, "MiB")
    return outcome
