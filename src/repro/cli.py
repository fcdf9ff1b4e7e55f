"""Command-line interface for the fault-tolerance analysis platform.

The paper's platform is driven by command-line tools running on the board's
ARM cores; this module is the emulator-side equivalent so that campaigns can
be scripted without writing Python:

.. code-block:: bash

    python -m repro describe
    python -m repro campaign --strategy random --values 0 1 -1 --trials 2 --images 64
    python -m repro campaign --workers 4 --checkpoint fig2.jsonl   # parallel
    python -m repro campaign --workers 4 --checkpoint fig2.jsonl --resume
    python -m repro heatmap  --value 0 --images 64 --output fig3.json
    python -m repro sweep    --spec sweep.toml --workers 4 --sweep-dir out
    python -m repro report   --input out/sweep.json --html report.html --qc
    python -m repro observe  ingest --store observe/store.jsonl out/sweep.json
    python -m repro observe  trends --store observe/store.jsonl --html trends.html
    python -m repro observe  qc --report report.json --source out/sweep.json
    python -m repro serve    --port 8035 --artifacts-dir fleet-out
    python -m repro worker   --coordinator http://127.0.0.1:8035 --name node-a
    python -m repro submit   --coordinator http://127.0.0.1:8035 --spec sweep.toml --wait
    python -m repro table1

All subcommands use the cached case-study model (training it on first use);
``--width`` and ``--epochs`` select a different model variant.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path

from repro.core.analysis import accuracy_drop_boxplots, heatmap_matrix, most_sensitive_site
from repro.core.campaign import CampaignConfig, FaultInjectionCampaign
from repro.core.chaos import ChaosEvent, NetworkEvent, load_plan
from repro.core.parallel import ParallelCampaignRunner, merge_runtime_stats
from repro.core.registry import MODELS, STRATEGIES, axis_provenance, registry_digest, registry_schema
from repro.core.stats import AdaptiveCampaignPlan
from repro.core.sweep import ExperimentSpec, SweepRunner, load_spec_data, validate_spec_data
from repro.runtime.perf_model import table1_performance_rows
from repro.utils.durable import durable_write_text
from repro.utils.jsonsafe import dump_json_safe
from repro.utils.logging import set_verbosity
from repro.utils.tabulate import format_heatmap, format_table
from repro.utils.telemetry import TELEMETRY
from repro.zoo import CaseStudySpec, build_case_study_platform, case_study_platform_spec


#: Defaults of the campaign flags that only parameterise an adaptive plan
#: (single source of truth for build_parser and the orphaned-flag guard).
_ADAPTIVE_FLAG_DEFAULTS = {
    "adaptive_round": 16,
    "adaptive_confidence": 0.95,
    "adaptive_metric": "mean-drop",
    "chance_accuracy": None,
}


def _add_log_level_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--log-level", choices=("debug", "info", "warning", "error"),
                        default=None,
                        help="verbosity of the repro.* loggers (e.g. 'info' surfaces "
                             "scheduler recovery logs; default: warning, or the "
                             "REPRO_LOG_LEVEL environment variable)")


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", type=str, default="",
                        help="write telemetry spans/counters (campaign + scenario "
                             "spans, lease lifecycle, tape hit counters) as JSONL "
                             "to this path; purely observational — records are "
                             "byte-identical with tracing on or off")


def _add_fault_tolerance_arguments(parser: argparse.ArgumentParser) -> None:
    """Supervisor knobs shared by the campaign and sweep subcommands."""
    parser.add_argument("--max-shard-retries", type=int, default=2,
                        help="re-lease attempts after a shard's worker dies or "
                             "hangs before the shard is declared poison "
                             "(0 restores fail-fast behaviour; recovery never "
                             "changes records)")
    parser.add_argument("--shard-timeout", type=float, default=None,
                        help="seconds a worker may go without reporting progress "
                             "before it is declared hung and its shard re-leased "
                             "(default: hang detection disabled; size it well "
                             "above platform build + the slowest trial group)")
    parser.add_argument("--poison-policy", choices=("raise", "quarantine"), default="raise",
                        help="what to do with a shard that exhausts its retries: "
                             "abort the run (raise) or record it in the result's "
                             "recovery provenance and keep going (quarantine)")
    parser.add_argument("--chaos-plan", type=str, default="",
                        help="inject harness faults into workers for testing "
                             "recovery: a JSON plan file or an inline "
                             "'seed=3,workers=2,kills=1,hangs=1' spec")


def _recovery_note(result) -> str | None:
    """One line summarising what the scheduler had to heal, if anything."""
    recovery = result.recovery or {}
    healed = (
        recovery.get("reclaimed", 0)
        or recovery.get("dead_workers", 0)
        or recovery.get("hung_workers", 0)
        or recovery.get("poison_shards")
        or any((recovery.get("checkpoint") or {}).values())
    )
    if not healed:
        return None
    checkpoint = recovery.get("checkpoint") or {}
    parts = [
        f"{recovery.get('reclaimed', 0)} lease(s) reclaimed",
        f"{recovery.get('dead_workers', 0)} dead / {recovery.get('hung_workers', 0)} "
        f"hung worker(s)",
    ]
    if recovery.get("poison_shards"):
        parts.append(f"{len(recovery['poison_shards'])} poison shard(s)")
    if any(checkpoint.values()):
        parts.append(
            f"checkpoint healed ({checkpoint.get('corrupt_lines', 0)} corrupt, "
            f"{checkpoint.get('duplicate_records', 0)} duplicate line(s))"
        )
    return "recovery: " + ", ".join(parts) + "; records are unaffected"


def _runtime_note(stats: dict | None) -> str | None:
    """One line of execution counters (tape hit rates at a glance)."""
    if not stats:
        return None
    parts = []
    gemm = stats.get("gemm") or {}
    calls = sum(v for k, v in gemm.items() if k.endswith("_calls"))
    if calls:
        parts.append(f"{calls} GEMM call(s)")
    tape = stats.get("tape")
    if tape:
        parts.append(
            f"tape layer hit rate {tape.get('layer_hit_rate', 0.0):.1%} "
            f"({tape.get('layer_hits', 0)}/"
            f"{tape.get('layer_hits', 0) + tape.get('layer_misses', 0)})"
        )
        if tape.get("segments_dropped"):
            parts.append(f"{tape['segments_dropped']} tape segment(s) dropped over budget")
    if not parts:
        return None
    processes = stats.get("processes")
    if processes:
        parts.append(f"{processes} process(es)")
    return "runtime: " + ", ".join(parts)


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=("resnet18", "mobilenet"), default="resnet18",
                        help="architecture family of the case-study model "
                             "(mobilenet = depthwise-separable variant)")
    parser.add_argument("--width", type=float, default=0.25,
                        help="width multiplier of the case-study model")
    parser.add_argument("--epochs", type=int, default=6, help="training epochs")
    parser.add_argument("--train-images", type=int, default=1500)
    parser.add_argument("--test-images", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7, help="model/dataset seed")


def _case_spec(args: argparse.Namespace) -> CaseStudySpec:
    return CaseStudySpec(
        width_multiplier=args.width,
        num_train=args.train_images,
        num_test=args.test_images,
        epochs=args.epochs,
        seed=args.seed,
        family=getattr(args, "family", "resnet18"),
    )


def _build_platform(args: argparse.Namespace):
    return build_case_study_platform(_case_spec(args))


def _cmd_describe(args: argparse.Namespace) -> int:
    platform, case = _build_platform(args)
    print(platform.describe())
    print(f"float accuracy: {case.float_accuracy:.3f}")
    baseline = platform.baseline_accuracy(case.dataset.test_images, case.dataset.test_labels)
    print(f"int8 accuracy (emulator): {baseline:.3f}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    platform, _ = _build_platform(args)
    rows = []
    for est in table1_performance_rows(platform.loadable):
        rows.append([
            est.device,
            est.threads if est.threads is not None else "-",
            est.inference_ms,
            est.luts if est.luts is not None else None,
            est.ffs if est.ffs is not None else None,
        ])
    print(format_table(["Device", "Threads", "Inference (ms)", "#LUT", "#FF"], rows,
                       title="Table I equivalent"))
    return 0


def _write_profile(
    path: Path, stats: dict | None, wall_seconds: float, num_trials: int, **extra
) -> None:
    """Persist runtime stats (per-stage wall time, GEMM and tape counters) as JSON.

    ``repro campaign --profile`` and ``repro sweep --profile`` write the
    same top-level keys (a sweep adds its per-scenario ``scenarios`` map),
    which ``repro observe ingest`` files as kind ``profile``.
    """
    stats = stats or {}
    payload = {key: stats.get(key) for key in ("profile", "gemm", "tape", "processes", "workers")}
    payload.update(wall_seconds=wall_seconds, num_trials=num_trials, **extra)
    durable_write_text(path, dump_json_safe(payload, indent=2, sort_keys=True) + "\n")
    print(f"stage profile written to {path}")


def _campaign_strategy_params(args: argparse.Namespace) -> dict:
    """The subset of strategy flags the chosen kind's schema accepts.

    The campaign parser exposes ``--counts``/``--trials`` for every
    strategy; kinds that take no such parameters (e.g. ``per-mac``) would
    otherwise be handed unknown params built from the flags' defaults.
    """
    entry = STRATEGIES.get(args.strategy, context="campaign")
    known = {p.name for p in entry.params}
    flags = {"counts": tuple(args.counts), "trials": args.trials}
    return {key: value for key, value in flags.items() if key in known}


def _cmd_campaign(args: argparse.Namespace) -> int:
    # Parse the chaos plan before the (expensive) platform build so a bad
    # --chaos-plan fails in milliseconds, not after model training.
    chaos = load_plan(args.chaos_plan, ChaosEvent) if args.chaos_plan else None
    platform_spec, case = case_study_platform_spec(_case_spec(args))
    params = _campaign_strategy_params(args)
    strategy = STRATEGIES.build(
        args.strategy, params, context="campaign strategy", values=tuple(args.values)
    )

    plan = None
    if args.adaptive_target is not None:
        from repro.core.stats import OutcomeThresholds

        plan = AdaptiveCampaignPlan(
            target_half_width=args.adaptive_target,
            round_size=args.adaptive_round,
            confidence=args.adaptive_confidence,
            metric=args.adaptive_metric.replace("-", "_"),
            thresholds=OutcomeThresholds(chance_accuracy=args.chance_accuracy),
        )
    else:
        # The other adaptive knobs only parameterise the stopping plan; a
        # fixed-budget campaign would silently ignore them, which reads as
        # "my flags worked" when none of them did.
        tuned = [
            "--" + dest.replace("_", "-")
            for dest, default in _ADAPTIVE_FLAG_DEFAULTS.items()
            if getattr(args, dest) != default
        ]
        if tuned:
            raise ValueError(
                f"{', '.join(tuned)} only take effect with --adaptive-target; "
                "set a CI half-width target to run a confidence-bounded campaign"
            )

    images = case.dataset.test_images[: args.images]
    labels = case.dataset.test_labels[: args.images]
    runner = ParallelCampaignRunner(
        platform_spec,
        strategy,
        CampaignConfig(
            seed=args.campaign_seed,
            fused_trials=args.fused_trials,
            max_shard_retries=args.max_shard_retries,
            shard_timeout=args.shard_timeout,
            poison_policy=args.poison_policy,
            chaos=chaos,
        ),
        workers=args.workers,
        checkpoint=args.checkpoint or None,
        resume=args.resume,
        plan=plan,
    )
    result = runner.run(images, labels)
    result.provenance = {
        "registry_digest": registry_digest(),
        "strategy": {
            **axis_provenance(STRATEGIES, args.strategy, params),
            "values": [int(v) for v in args.values],
        },
        "model": axis_provenance(
            MODELS,
            "case-study",
            {
                "width_multiplier": args.width,
                "num_train": args.train_images,
                "num_test": args.test_images,
                "epochs": args.epochs,
                "seed": args.seed,
            },
        ),
    }

    print(f"baseline accuracy: {result.baseline_accuracy:.3f}; "
          f"{len(result)} injections in {result.wall_seconds:.1f}s "
          f"({args.workers} worker{'s' if args.workers != 1 else ''})")
    note = _recovery_note(result)
    if note:
        print(note)
    runtime = _runtime_note(result.runtime_stats)
    if runtime:
        print(runtime)
    if args.profile:
        # Next to the checkpoint when one is in use, else in the working directory.
        path = Path(args.checkpoint + ".profile.json" if args.checkpoint
                    else "campaign.profile.json")
        _write_profile(path, result.runtime_stats, result.wall_seconds, len(result))
    if result.adaptive is not None:
        info = result.adaptive
        half_width = info["final_half_width"]
        print(f"adaptive stopping: {info['trials_evaluated']}/{info['budget']} trials "
              f"over {info['rounds_completed']} round(s), "
              f"{'stopped early' if info['stopped_early'] else 'ran to budget'}; "
              f"final CI half-width "
              f"{'n/a' if half_width is None else format(half_width, '.4f')} "
              f"(target {plan.target_half_width:g})")
    series = accuracy_drop_boxplots(result)
    for value, s in sorted(series.items(), key=lambda kv: str(kv[0])):
        rows = [[count, s.boxes[count].mean, s.boxes[count].maximum] for count in s.positions()]
        print(format_table(["#faults", "mean drop", "max drop"], rows, floatfmt=".3f",
                           title=f"injected value {value}"))
    if args.output:
        durable_write_text(Path(args.output), result.to_json())
        print(f"records written to {args.output}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    data = load_spec_data(args.spec)
    problems = validate_spec_data(data)
    if problems:
        raise ValueError(
            f"spec {args.spec} is invalid ({len(problems)} problem(s)):\n"
            + "\n".join(f"  - {problem}" for problem in problems)
        )
    spec = ExperimentSpec.from_dict(data)
    if args.images is not None:
        spec.images = args.images
    if args.sweep_seed is not None:
        spec.seed = args.sweep_seed
    grid = spec.grid()
    if args.list:
        for scenario in grid:
            print(scenario.scenario_id)
        print(f"{len(grid)} scenario(s)")
        return 0

    runner = SweepRunner(
        grid,
        workers=args.workers,
        sweep_dir=args.sweep_dir,
        resume=args.resume,
        fused_trials=args.fused_trials,
        max_shard_retries=args.max_shard_retries,
        shard_timeout=args.shard_timeout,
        poison_policy=args.poison_policy,
        chaos=load_plan(args.chaos_plan, ChaosEvent) if args.chaos_plan else None,
    )
    sweep = runner.run()

    items = sweep.summary()["scenarios"]
    rows = []
    for item in items:
        rows.append([
            item["scenario"],
            item["num_trials"],
            item["baseline_accuracy"],
            item["mean_accuracy_drop"],
            item["max_accuracy_drop"],
        ])
    print(format_table(
        ["scenario", "trials", "baseline", "mean drop", "max drop"],
        rows,
        floatfmt=".3f",
        title=f"{len(grid)} scenarios x {spec.images} images "
              f"({args.workers} worker{'s' if args.workers != 1 else ''}, "
              f"{sweep.wall_seconds:.1f}s)",
    ))
    with_trials = [item for item in items if item["num_trials"]]
    if with_trials:
        worst = max(with_trials, key=lambda item: item["max_accuracy_drop"])
        print(f"worst accuracy drop: {worst['max_accuracy_drop']:.3f} "
              f"in scenario {worst['scenario']}")
    print(f"structure digest: {sweep.structure_digest()}")
    merged = merge_runtime_stats(
        [sr.result.runtime_stats for sr in sweep.scenario_results], args.workers
    )
    runtime = _runtime_note(merged)
    if runtime:
        print(f"sweep {runtime}")
    for sr in sweep.scenario_results:
        note = _recovery_note(sr.result)
        if note:
            print(f"{sr.scenario.scenario_id}: {note}")
    if args.sweep_dir:
        print(f"artifacts written to {args.sweep_dir}/sweep.jsonl and sweep.json")
        if args.profile:
            _write_profile(
                Path(args.sweep_dir) / "profile.json",
                merged,
                sweep.wall_seconds,
                sum(len(sr.result) for sr in sweep.scenario_results),
                scenarios={
                    sr.scenario.scenario_id: sr.result.runtime_stats
                    for sr in sweep.scenario_results
                },
            )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if not args.spec and not args.kinds:
        raise ValueError("validate needs --spec <file> and/or --kinds")
    if args.kinds:
        schema = registry_schema()
        for category in sorted(schema):
            kinds = schema[category]
            print(f"{category} kinds:")
            for kind in sorted(kinds):
                description = kinds[kind].get("description", "")
                print(f"  {kind}" + (f" - {description}" if description else ""))
        print(f"registry digest: {registry_digest()}")
        if not args.spec:
            return 0
    data = load_spec_data(args.spec)
    problems = validate_spec_data(data)
    if problems:
        print(
            f"spec {args.spec} is invalid ({len(problems)} problem(s)):",
            file=sys.stderr,
        )
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    grid = ExperimentSpec.from_dict(data).grid()
    print(f"spec {args.spec} is valid: {len(grid)} scenario(s)")
    print(f"registry digest: {registry_digest()}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.stats import OutcomeThresholds
    from repro.report import build_report, load_results, render_html

    kind, results = load_results(args.input)
    # The CLI does not expose masked_epsilon; clamp it under the user's
    # tolerable threshold so e.g. --tolerable-drop 0 ("every measurable
    # degradation is SDC") is accepted rather than rejected over a knob
    # the user cannot see.
    default_epsilon = OutcomeThresholds().masked_epsilon
    thresholds = OutcomeThresholds(
        masked_epsilon=min(default_epsilon, args.tolerable_drop),
        tolerable_drop=args.tolerable_drop,
        critical_drop=args.critical_drop,
        chance_accuracy=args.chance_accuracy,
    )
    report = build_report(
        results,
        kind=kind,
        source=args.input,
        confidence=args.confidence,
        thresholds=thresholds,
    )

    reliability = report["reliability"]
    rows = []
    for entry in report["scenarios"]:
        summary = entry["summary"]
        ci = summary["mean_drop_ci"]
        rows.append([
            entry["scenario"],
            summary["num_trials"],
            summary["mean_accuracy_drop"],
            "-" if ci is None else f"[{ci['low']:.3f}, {ci['high']:.3f}]",
            summary["sdc_rate"],
            summary["outcomes"]["critical"],
        ])
    print(format_table(
        ["scenario", "trials", "mean drop", f"{args.confidence:.0%} CI", "SDC rate", "crit"],
        rows,
        floatfmt=".3f",
        title=f"{kind} report: {reliability['total_trials']} trials, "
              f"SDC rate {reliability['sdc_rate']:.3f}",
    ))

    html_text = render_html(report, title=f"repro {kind} reliability report")
    html_path = Path(args.html)
    durable_write_text(html_path, html_text)
    print(f"HTML report written to {html_path}")
    if args.json_out:
        json_path = Path(args.json_out)
        durable_write_text(json_path, dump_json_safe(report, indent=2, sort_keys=True) + "\n")
        print(f"JSON report written to {json_path}")
    if args.qc:
        import json as json_module

        from repro.observe import qc_report
        from repro.observe.qc import format_findings

        # Round-trip the report through JSON so QC checks the claims as
        # they would be read back from disk, not live Python objects.
        claimed = json_module.loads(dump_json_safe(report))
        findings = qc_report(claimed, results, html_text=html_text)
        if findings:
            print(format_findings(findings), file=sys.stderr)
            print(f"report QC: {len(findings)} finding(s)", file=sys.stderr)
            return 1
        print("report QC: every claim recomputed from source records, no findings")
    return 0


def _cmd_observe_ingest(args: argparse.Namespace) -> int:
    from repro.observe import LongitudinalStore

    store = LongitudinalStore(args.store)
    outcome = store.ingest(args.artifacts, version=args.version or None)
    print(
        f"ingested {len(args.artifacts)} artifact(s) into {args.store}: "
        f"{outcome['added']} new entr{'y' if outcome['added'] == 1 else 'ies'}, "
        f"{outcome['duplicates']} duplicate(s), {outcome['total']} total"
    )
    return 0


def _cmd_observe_trends(args: argparse.Namespace) -> int:
    from repro.observe import LongitudinalStore, build_trends
    from repro.report import render_trends_html

    store = LongitudinalStore(args.store)
    entries = store.entries()
    if not entries:
        raise ValueError(
            f"store {args.store} is empty; run 'repro observe ingest' first"
        )
    trends = build_trends(entries, confidence=args.confidence)
    print(
        f"{trends['num_scenarios']} scenario series across "
        f"{len(trends['versions'])} version(s); "
        f"{trends['num_regressions']} regression(s) flagged "
        f"at {trends['confidence']:.0%} confidence"
    )
    for series in trends["scenarios"]:
        for flag in series["regressions"]:
            print(
                f"REGRESSION {flag['scenario']} {flag['metric']}: "
                f"{flag['from_version']} [{flag['from_interval']['low']:.4f}, "
                f"{flag['from_interval']['high']:.4f}] -> "
                f"{flag['to_version']} [{flag['to_interval']['low']:.4f}, "
                f"{flag['to_interval']['high']:.4f}]"
            )
    if args.json_out:
        durable_write_text(Path(args.json_out), dump_json_safe(trends, indent=2, sort_keys=True) + "\n")
        print(f"trend JSON written to {args.json_out}")
    if args.html:
        durable_write_text(Path(args.html), render_trends_html(trends))
        print(f"trend dashboard written to {args.html}")
    if args.gate and trends["num_regressions"]:
        print(f"trend gate: {trends['num_regressions']} regression(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_observe_qc(args: argparse.Namespace) -> int:
    from repro.observe import qc_files
    from repro.observe.qc import format_findings

    findings = qc_files(args.report, args.source, args.html or None)
    if findings:
        print(format_findings(findings), file=sys.stderr)
        print(f"report QC: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(
        f"report QC: every claim in {args.report} recomputed from "
        f"{args.source}, no findings"
    )
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    platform, case = _build_platform(args)
    images = case.dataset.test_images[: args.images]
    labels = case.dataset.test_labels[: args.images]
    strategy = STRATEGIES.build(
        "exhaustive", {}, context="heatmap strategy", values=(args.value,)
    )
    campaign = FaultInjectionCampaign(platform, strategy, CampaignConfig(seed=args.campaign_seed))
    result = campaign.run(images, labels)

    matrix = heatmap_matrix(result, injected_value=args.value)
    print(format_heatmap(matrix * 100.0, "MAC unit", "multiplier", cellfmt="+6.1f"))
    worst = most_sensitive_site(result, injected_value=args.value)
    print(f"most sensitive site: MAC {worst.mac_unit + 1} / MUL {worst.multiplier + 1} "
          f"({worst.accuracy_drop * 100:.1f}% drop)")
    if args.output:
        durable_write_text(Path(args.output), dump_json_safe(
            {"baseline_accuracy": result.baseline_accuracy,
             "injected_value": args.value,
             "heatmap": matrix.tolist()}, indent=2))
        print(f"heat map written to {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.coordinator import CampaignCoordinator

    net_chaos = load_plan(args.net_chaos, NetworkEvent) if args.net_chaos else None
    coordinator = CampaignCoordinator(
        host=args.host,
        port=args.port,
        artifacts_dir=args.artifacts_dir,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout,
        shard_size=args.shard_size,
        max_shard_retries=args.max_shard_retries,
        retry_backoff=args.retry_backoff,
        poison_policy=args.poison_policy,
        fused_trials=args.fused_trials,
        net_chaos=net_chaos,
    )
    # Flushed before serving so scripts that bind port 0 can read the
    # actual port from the first line of output.
    print(f"coordinator listening on {coordinator.url}", flush=True)
    print(f"artifacts under {coordinator.artifacts_dir}", flush=True)
    try:
        coordinator.serve_forever()
    finally:
        coordinator.shutdown()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.service.worker import WorkerAgent

    # Parse the chaos plan up front, same rationale as repro campaign.
    chaos = load_plan(args.chaos_plan, ChaosEvent) if args.chaos_plan else None
    agent = WorkerAgent(
        args.coordinator,
        name=args.name,
        cache_dir=args.cache_dir or None,
        poll_interval=args.poll_interval,
        max_idle=args.max_idle,
        batch_records=args.batch_records,
        chaos=chaos,
        hard_kill=True,  # a chaos kill in process mode is a real os._exit
        timeout=args.timeout,
        retries=args.retries,
        backoff=args.retry_backoff,
        jitter_seed=args.jitter_seed,
    )
    code = agent.run()
    print(f"worker {args.name}: served {agent.leases_served} lease(s)")
    return code


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import CoordinatorClient

    data = load_spec_data(args.spec)
    problems = validate_spec_data(data)
    if problems:
        raise ValueError(
            f"spec {args.spec} is invalid ({len(problems)} problem(s)):\n"
            + "\n".join(f"  - {problem}" for problem in problems)
        )
    client = CoordinatorClient(args.coordinator)
    accepted = client.submit_job(data)
    print(f"job {accepted.job_id} submitted to {client.http.base_url}", flush=True)
    if not args.wait:
        print(f"poll with: repro submit --coordinator {args.coordinator} "
              f"--spec {args.spec} --wait  (or GET /jobs/{accepted.job_id})")
        return 0
    deadline = time.monotonic() + args.timeout if args.timeout else None
    while True:
        status = client.job_status(accepted.job_id)
        if status.state in ("done", "failed"):
            break
        if deadline is not None and time.monotonic() > deadline:
            print(
                f"job {accepted.job_id} still {status.state} after "
                f"{args.timeout:.0f}s ({status.trials_done}/{status.trials_total} "
                f"trial(s)); giving up the wait (the job keeps running)",
                file=sys.stderr,
            )
            return 1
        time.sleep(args.poll)
    print(
        f"job {accepted.job_id} {status.state}: "
        f"{status.scenarios_done}/{status.scenarios_total} scenario(s), "
        f"{status.trials_done}/{status.trials_total} trial(s), "
        f"{status.leases} lease(s) ({status.reclaimed} reclaimed)"
    )
    if status.state == "failed":
        print(f"error: {status.error}", file=sys.stderr)
        return 1
    print(f"artifacts written to {status.artifacts_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)

    describe = subparsers.add_parser("describe", help="summarise the compiled platform")
    _add_model_arguments(describe)
    describe.set_defaults(func=_cmd_describe)

    table1 = subparsers.add_parser("table1", help="print the Table I equivalent")
    _add_model_arguments(table1)
    table1.set_defaults(func=_cmd_table1)

    campaign = subparsers.add_parser("campaign", help="run a fault-injection campaign (Fig. 2 style)")
    _add_model_arguments(campaign)
    campaign.add_argument("--strategy", choices=tuple(STRATEGIES.kinds()), default="random")
    campaign.add_argument("--values", type=int, nargs="+", default=[0, 1, -1])
    campaign.add_argument("--counts", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6, 7])
    campaign.add_argument("--trials", type=int, default=2)
    campaign.add_argument("--images", type=int, default=64)
    campaign.add_argument("--campaign-seed", type=int, default=0)
    campaign.add_argument("--output", type=str, default="")
    campaign.add_argument("--workers", type=int, default=1,
                          help="worker processes; trials are sharded deterministically, "
                               "records are identical for any worker count")
    campaign.add_argument("--checkpoint", type=str, default="",
                          help="JSONL file streaming one record per finished trial")
    campaign.add_argument("--resume", action="store_true",
                          help="skip trials already present in --checkpoint")
    campaign.add_argument("--fused-trials", type=int, default=8,
                          help="trials evaluated per fused engine pass (1 disables "
                               "fusion; records are bit-identical for any value)")
    campaign.add_argument("--profile", action="store_true",
                          help="write a per-stage wall-time breakdown (tape build, "
                               "correction, suffix forward, requant) as JSON next "
                               "to the checkpoint")
    campaign.add_argument("--adaptive-target", type=float, default=None,
                          help="adaptive stopping: stop once the CI half-width of the "
                               "tracked metric is at or below this target")
    campaign.add_argument("--adaptive-round", type=int,
                          default=_ADAPTIVE_FLAG_DEFAULTS["adaptive_round"],
                          help="trials per adaptive round (stopping is re-evaluated "
                               "only at round boundaries, keeping records "
                               "bit-identical for any worker count)")
    campaign.add_argument("--adaptive-confidence", type=float,
                          default=_ADAPTIVE_FLAG_DEFAULTS["adaptive_confidence"],
                          help="confidence level of the stopping interval")
    campaign.add_argument("--adaptive-metric", choices=("mean-drop", "sdc-rate"),
                          default=_ADAPTIVE_FLAG_DEFAULTS["adaptive_metric"],
                          help="metric the stopping interval tracks")
    campaign.add_argument("--chance-accuracy", type=float,
                          default=_ADAPTIVE_FLAG_DEFAULTS["chance_accuracy"],
                          help="for the sdc-rate metric: count any trial whose "
                               "accuracy falls to this chance level as critical")
    _add_fault_tolerance_arguments(campaign)
    _add_log_level_argument(campaign)
    _add_trace_argument(campaign)
    campaign.set_defaults(func=_cmd_campaign)

    sweep = subparsers.add_parser(
        "sweep",
        help="run a declarative scenario grid (models x faults x strategies x platforms)",
    )
    sweep.add_argument("--spec", type=str, required=True,
                       help="JSON or TOML experiment spec file (see repro.core.sweep)")
    sweep.add_argument("--sweep-dir", type=str, default="sweep-out",
                       help="directory for per-scenario checkpoints and merged artifacts")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes per scenario; merged artifacts are "
                            "bit-identical for any worker count")
    sweep.add_argument("--resume", action="store_true",
                       help="complete the missing trials of an interrupted sweep")
    sweep.add_argument("--images", type=int, default=None,
                       help="override the spec's evaluation-image count")
    sweep.add_argument("--sweep-seed", type=int, default=None,
                       help="override the spec's campaign seed")
    sweep.add_argument("--list", action="store_true",
                       help="print the scenario ids of the grid and exit")
    sweep.add_argument("--fused-trials", type=int, default=8,
                       help="trials evaluated per fused engine pass inside each "
                            "scenario (1 disables fusion)")
    sweep.add_argument("--profile", action="store_true",
                       help="write the sweep-wide and per-scenario runtime stats "
                            "(stage wall times, GEMM and tape counters) to "
                            "<sweep-dir>/profile.json")
    _add_fault_tolerance_arguments(sweep)
    _add_log_level_argument(sweep)
    _add_trace_argument(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    validate = subparsers.add_parser(
        "validate",
        help="check a sweep spec against the registered kinds without running anything",
    )
    validate.add_argument("--spec", type=str, default="",
                          help="JSON or TOML experiment spec file to validate")
    validate.add_argument("--kinds", action="store_true",
                          help="list the registered kinds of every axis registry")
    validate.set_defaults(func=_cmd_validate)

    report = subparsers.add_parser(
        "report",
        help="render a sweep.json / campaign JSON into an HTML + JSON reliability report",
    )
    report.add_argument("--input", type=str, required=True,
                        help="sweep.json (repro sweep) or campaign JSON (repro campaign --output)")
    report.add_argument("--html", type=str, default="report.html",
                        help="output path of the self-contained HTML dashboard")
    report.add_argument("--json", dest="json_out", type=str, default="",
                        help="optional output path of the machine-readable JSON report")
    report.add_argument("--confidence", type=float, default=0.95,
                        help="confidence level of all reported intervals")
    report.add_argument("--tolerable-drop", type=float, default=0.01,
                        help="accuracy-drop threshold separating tolerable from SDC")
    report.add_argument("--critical-drop", type=float, default=0.25,
                        help="accuracy-drop threshold separating SDC from critical")
    report.add_argument("--chance-accuracy", type=float, default=None,
                        help="mark any trial whose absolute accuracy falls to this "
                             "chance level (e.g. 0.1 for 10 classes) as critical, "
                             "regardless of its drop")
    report.add_argument("--qc", action="store_true",
                        help="after rendering, recompute every claim of the report "
                             "(counts, CIs, outcome tallies, rankings) from the "
                             "source records and fail on any mismatch")
    _add_log_level_argument(report)
    report.set_defaults(func=_cmd_report)

    observe = subparsers.add_parser(
        "observe",
        help="longitudinal observability: trend store, regression flags, report QC",
    )
    observe_sub = observe.add_subparsers(dest="observe_command", required=True)

    ingest = observe_sub.add_parser(
        "ingest",
        help="ingest sweep/campaign/profile/benchmark JSONs into the trend store",
    )
    ingest.add_argument("artifacts", nargs="+",
                        help="artifact files: sweep.json, campaign --output JSON, "
                             "profile.json, benchmarks/out/*.json, BENCH_<label>.json")
    ingest.add_argument("--store", type=str, default="observe/store.jsonl",
                        help="path of the longitudinal JSONL store (created on "
                             "first ingest; rewritten deterministically)")
    ingest.add_argument("--version", type=str, default="",
                        help="version label of these artifacts (default: the "
                             "artifact's registry digest prefix)")
    _add_log_level_argument(ingest)
    ingest.set_defaults(func=_cmd_observe_ingest)

    trends = observe_sub.add_parser(
        "trends",
        help="build per-scenario trend series + interval-gated regression flags",
    )
    trends.add_argument("--store", type=str, default="observe/store.jsonl")
    trends.add_argument("--confidence", type=float, default=0.95,
                        help="confidence level of the interval-overlap regression test")
    trends.add_argument("--json", dest="json_out", type=str, default="",
                        help="optional output path of the machine-readable trends JSON")
    trends.add_argument("--html", type=str, default="",
                        help="optional output path of the trend dashboard HTML")
    trends.add_argument("--gate", action="store_true",
                        help="exit non-zero when any regression is flagged")
    _add_log_level_argument(trends)
    trends.set_defaults(func=_cmd_observe_trends)

    qc = observe_sub.add_parser(
        "qc",
        help="recompute every claim of a rendered report from its source artifact",
    )
    qc.add_argument("--report", type=str, required=True,
                    help="report JSON written by 'repro report --json'")
    qc.add_argument("--source", type=str, required=True,
                    help="the sweep.json / campaign JSON the report was built from")
    qc.add_argument("--html", type=str, default="",
                    help="optionally also verify the rendered HTML byte-for-byte")
    _add_log_level_argument(qc)
    qc.set_defaults(func=_cmd_observe_qc)

    serve = subparsers.add_parser(
        "serve",
        help="run the campaign coordinator: queue sweep jobs, lease shard "
             "ranges to worker nodes, merge their records",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1",
                       help="interface to bind (default: localhost only)")
    serve.add_argument("--port", type=int, default=8035,
                       help="TCP port (0 = pick a free port; it is printed on startup)")
    serve.add_argument("--artifacts-dir", type=str, default="fleet-artifacts",
                       help="directory for per-job merged artifacts "
                            "(<dir>/<job-id>/sweep.jsonl etc.)")
    serve.add_argument("--heartbeat-interval", type=float, default=1.0,
                       help="seconds between worker heartbeats (announced to "
                            "workers at registration)")
    serve.add_argument("--heartbeat-timeout", type=float, default=10.0,
                       help="seconds of silence before a node's lease is "
                            "reclaimed and re-run elsewhere")
    serve.add_argument("--shard-size", type=int, default=8,
                       help="trials per network lease (scheduling granularity "
                            "only; merged records are identical for any value)")
    serve.add_argument("--max-shard-retries", type=int, default=2,
                       help="re-lease attempts after a node dies or goes silent "
                            "before the lease is declared poison")
    serve.add_argument("--retry-backoff", type=float, default=0.25,
                       help="base of the capped exponential backoff between "
                            "re-lease attempts")
    serve.add_argument("--poison-policy", choices=("raise", "quarantine"), default="raise",
                       help="fail the job (raise) or record the poison lease "
                            "and keep going (quarantine)")
    serve.add_argument("--fused-trials", type=int, default=8,
                       help="trials per fused engine pass on the workers")
    serve.add_argument("--net-chaos", type=str, default="",
                       help="inject network faults for testing recovery: a JSON "
                            "plan file (the --chaos-plan format) or an inline "
                            "'seed=3,nodes=2,drops=1,partitions=1' spec")
    _add_log_level_argument(serve)
    _add_trace_argument(serve)
    serve.set_defaults(func=_cmd_serve)

    worker = subparsers.add_parser(
        "worker",
        help="run a worker node: register with a coordinator, lease shard "
             "ranges, stream records, heartbeat",
    )
    worker.add_argument("--coordinator", type=str, required=True,
                        help="coordinator base URL, e.g. http://127.0.0.1:8035")
    worker.add_argument("--name", type=str, default="node",
                        help="node name reported at registration (for logs)")
    worker.add_argument("--cache-dir", type=str, default="",
                        help="model-zoo cache directory (share it between "
                             "co-located workers to train each model once)")
    worker.add_argument("--poll-interval", type=float, default=0.25,
                        help="seconds between lease polls when the queue is empty")
    worker.add_argument("--max-idle", type=float, default=None,
                        help="exit 0 after this many consecutive idle seconds "
                             "(default: poll forever)")
    worker.add_argument("--batch-records", type=int, default=16,
                        help="records per upload batch (merge is index-keyed; "
                             "batching cannot affect records)")
    worker.add_argument("--timeout", type=float, default=10.0,
                        help="HTTP timeout per request")
    worker.add_argument("--retries", type=int, default=5,
                        help="HTTP retries per request (capped exponential "
                             "backoff + seeded jitter between attempts)")
    worker.add_argument("--retry-backoff", type=float, default=0.2,
                        help="base of the HTTP retry backoff")
    worker.add_argument("--jitter-seed", type=int, default=0,
                        help="seed of the retry-jitter stream (give each node "
                             "its own to decorrelate reconnect storms)")
    worker.add_argument("--chaos-plan", type=str, default="",
                        help="inject harness faults into this node for testing "
                             "recovery (kill = hard os._exit mid-lease): a JSON "
                             "plan file or inline 'seed=3,workers=2,kills=1'")
    _add_log_level_argument(worker)
    worker.set_defaults(func=_cmd_worker)

    submit = subparsers.add_parser(
        "submit",
        help="validate a sweep spec and queue it on a coordinator",
    )
    submit.add_argument("--coordinator", type=str, required=True,
                        help="coordinator base URL, e.g. http://127.0.0.1:8035")
    submit.add_argument("--spec", type=str, required=True,
                        help="JSON or TOML experiment spec file (same format as "
                             "repro sweep --spec)")
    submit.add_argument("--wait", action="store_true",
                        help="poll the job until it finishes and exit non-zero "
                             "if it failed")
    submit.add_argument("--poll", type=float, default=0.5,
                        help="seconds between --wait status polls")
    submit.add_argument("--timeout", type=float, default=None,
                        help="give up the --wait after this many seconds "
                             "(the job itself keeps running)")
    _add_log_level_argument(submit)
    submit.set_defaults(func=_cmd_submit)

    heatmap = subparsers.add_parser("heatmap", help="run the single-site sweep (Fig. 3 style)")
    _add_model_arguments(heatmap)
    heatmap.add_argument("--value", type=int, default=0)
    heatmap.add_argument("--images", type=int, default=64)
    heatmap.add_argument("--campaign-seed", type=int, default=0)
    heatmap.add_argument("--output", type=str, default="")
    heatmap.set_defaults(func=_cmd_heatmap)

    return parser


def _resume_hint(args: argparse.Namespace) -> str | None:
    """How to pick up an interrupted campaign/sweep where it left off."""
    command = getattr(args, "command", None)
    if command == "campaign":
        if getattr(args, "checkpoint", ""):
            return (f"resume with: repro campaign --checkpoint {args.checkpoint} "
                    "--resume (plus your original flags)")
        return "tip: pass --checkpoint <file> to make campaigns resumable"
    if command == "sweep":
        return (f"resume with: repro sweep --spec {args.spec} --sweep-dir "
                f"{args.sweep_dir} --resume (plus your original flags)")
    return None


class _Terminated(BaseException):
    """Raised by the SIGTERM handler; a BaseException so it cannot be
    swallowed by ``except Exception`` blocks between the signal and main()."""


def _raise_terminated(signum, frame):  # pragma: no cover - exercised via signal
    raise _Terminated()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "log_level", None):
        set_verbosity(args.log_level)
    trace = getattr(args, "trace", "")
    if trace:
        TELEMETRY.configure(trace)
    # SIGTERM parity with Ctrl-C: a supervisor's polite kill (systemd stop,
    # docker stop, CI cancellation, kill <pid>) flushes the same state and
    # prints the same resume hint as SIGINT, then exits with 128+15.
    # Forked pool workers reset SIGTERM to SIG_DFL in _worker_setup, so the
    # pool's terminate_process() keeps its kill semantics.
    previous_sigterm = None
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _raise_terminated)
    except ValueError:  # pragma: no cover - main() called off the main thread
        pass
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # Spec/configuration mistakes are user errors: report them as one
        # clean message on stderr instead of a traceback mid-campaign.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Workers ignore SIGINT and the runner's finally blocks have already
        # terminated them and flushed every completed trial to the
        # checkpoint; all that is left is to say how to continue.
        print("\ninterrupted: workers stopped, completed trials are in the checkpoint",
              file=sys.stderr)
        hint = _resume_hint(args)
        if hint:
            print(hint, file=sys.stderr)
        return 130
    except _Terminated:
        # Same unwinding as KeyboardInterrupt: the raising handler ran inside
        # the campaign loop, so every finally block (pool teardown, checkpoint
        # fsync) has already executed by the time we get here.
        print("\nterminated: workers stopped, completed trials are in the checkpoint",
              file=sys.stderr)
        hint = _resume_hint(args)
        if hint:
            print(hint, file=sys.stderr)
        return 143
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
        if trace:
            TELEMETRY.close()


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
