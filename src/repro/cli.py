"""Command-line interface.

Exposes the reproduction from the shell::

    python -m repro list                      # available experiments
    python -m repro run T2                    # render one table/figure
    python -m repro run HX1 --scale 0.5
    python -m repro campaign device --scale 0.1
    python -m repro campaign web
    python -m repro probe ESP                 # per-country eSIM diagnostic
    python -m repro market --country ESP --gb 3
    python -m repro chaos --attach-reject 0.1 # campaign under injected faults
    python -m repro run-all --jobs 4          # every artefact, sharded
    python -m repro run-all --trace traces/   # ... with a JSONL trace file
    python -m repro run-all --history runs/   # ... appending to the run history
    python -m repro trace summary traces/run_all-seed2024-scale0.15-jobs4.jsonl
    python -m repro trace metrics traces/*.jsonl
    python -m repro history list --history runs/
    python -m repro regress --history runs/ --fail-on-regression
    python -m repro report --html report.html --history runs/
    python -m repro cache info                # the persistent artifact store
    python -m repro serve --port 8321         # always-on measurement service
    python -m repro loadgen --duration 30 --fail-on-slo
    python -m repro loadgen --trace traces/   # client+server spans, one tree
    python -m repro profile -- run T2         # profile any subcommand
    python -m repro profile --out prof/run_all.collapsed -- run-all
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import logging
import math
import os
import random
import statistics
import sys
from typing import Iterator, List, Optional

from repro.experiments import common, registry


@contextlib.contextmanager
def _configure_logging(verbose: bool) -> Iterator[None]:
    """Route ``repro.*`` log records explicitly while a command runs.

    Campaign weather (retries, quarantines, endpoints going dark) is
    logged at INFO by ``repro.measure``; without ``--verbose`` it stays
    out of the CLI's output instead of leaking through the root
    logger's last-resort handler. On exit the ``repro`` logger gets
    back its handlers, level and propagation, so a caller of
    :func:`main` (a test, ``repro profile``) keeps its own logging.
    """
    logger = logging.getLogger("repro")
    saved = (list(logger.handlers), logger.level, logger.propagate)
    for handler in saved[0]:
        if getattr(handler, "_repro_cli", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    handler._repro_cli = True  # type: ignore[attr-defined]
    logger.addHandler(handler)
    logger.setLevel(logging.INFO if verbose else logging.WARNING)
    logger.propagate = False
    try:
        yield
    finally:
        logger.handlers[:] = saved[0]
        logger.setLevel(saved[1])
        logger.propagate = saved[2]


def _cmd_list(args: argparse.Namespace) -> int:
    specs = registry.all_specs()
    print(f"{'id':5} {'kind':10} {'scale':5} {'inputs':28} title")
    for artefact in sorted(specs):
        spec = specs[artefact]
        scale = "yes" if spec.supports_scale else "-"
        print(f"{artefact:5} {spec.kind:10} {scale:5} "
              f"{spec.describe_inputs():28} {spec.title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.study import ThickMnaStudy
    from repro.measure.amigo import ConfigurationError

    study = ThickMnaStudy(seed=args.seed)
    try:
        result = study.run(args.artefact, scale=args.scale)
        print(study.format_result(args.artefact, result))
    except (KeyError, ConfigurationError) as error:
        print(error.args[0], file=sys.stderr)
        return 2
    if args.json:
        from repro.experiments.export import save_result

        save_result(result, args.json)
        print(f"(raw series written to {args.json})")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.core.study import ThickMnaStudy

    study = ThickMnaStudy(seed=args.seed)
    if args.kind == "device":
        dataset = study.device_dataset(scale=args.scale)
    else:
        dataset = study.web_dataset()
    print(f"{args.kind} campaign: {dataset.total_records()} records "
          f"across {len(dataset.countries())} countries")
    print(f"  traceroutes : {len(dataset.traceroutes)}")
    print(f"  speedtests  : {len(dataset.speedtests)}")
    print(f"  CDN fetches : {len(dataset.cdn_fetches)}")
    print(f"  DNS probes  : {len(dataset.dns_probes)}")
    print(f"  video probes: {len(dataset.video_probes)}")
    print(f"  web records : {len(dataset.web_measurements)}")
    if args.save:
        from repro.measure.io import save_dataset

        count = save_dataset(dataset, args.save)
        print(f"saved {count} records to {args.save}")
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    from repro.cellular import UserEquipment
    from repro.core.study import ThickMnaStudy
    from repro.measure import probe_dns, run_speedtest
    from repro.measure.voip import probe_voip

    study = ThickMnaStudy(seed=args.seed)
    world = study.world
    country = args.country.upper()
    try:
        spec = world.offering(country)
    except KeyError:
        print(f"Airalo does not serve {country} in the measured set; "
              f"try one of {', '.join(world.airalo.served_countries())}",
              file=sys.stderr)
        return 2

    rng = random.Random(f"{args.seed}:cli-probe:{country}")
    resources = world.resources
    city = world.cities.get(spec.user_city, country)
    device = UserEquipment.provision("cli probe", city, rng)
    device.install_sim(world.sell_esim(country, rng))
    session = device.switch_to(0, spec.v_mno, world.factory, rng)
    conditions = resources.fabric.radio.sample_conditions(
        device.preferred_rat(rng), rng
    )

    print(f"Airalo eSIM for {country} ({city.name}):")
    print(f"  issuer (b-MNO)  : {spec.b_mno}")
    print(f"  visited network : {session.v_mno_name}")
    print(f"  architecture    : {session.architecture.label}")
    print(f"  breakout        : {session.pgw_site.city.name}, "
          f"{session.breakout_country} "
          f"(AS{session.pgw_site.provider_asn} {session.pgw_site.provider_org})")
    print(f"  tunnel distance : {session.tunnel.distance_km:.0f} km")

    speed = run_speedtest(session, device.active_sim, resources.ookla,
                          resources.fabric, resources.policy_for(session),
                          conditions, rng)
    print(f"  speedtest       : {speed.download_mbps:.1f}/"
          f"{speed.upload_mbps:.1f} Mbps @ {speed.latency_ms:.0f} ms")
    dns = probe_dns(session, device.active_sim, resources.dns_for(session),
                    resources.fabric, conditions, rng)
    print(f"  DNS             : {dns.resolver_service} ({dns.resolver_country}), "
          f"{dns.lookup_ms:.0f} ms" + (", DoH" if dns.used_doh else ""))
    voip = probe_voip(session, device.active_sim, resources.sp_targets["Google"],
                      resources.fabric, conditions, rng)
    print(f"  VoIP (E-model)  : MOS {voip.mos:.2f}, jitter {voip.jitter_ms:.1f} ms, "
          f"loss {voip.loss_rate:.1%}")
    return 0


def _cmd_trip(args: argparse.Namespace) -> int:
    from repro.market import ItineraryPlanner, TripLeg, render_recommendation

    legs = []
    for spec in args.legs:
        try:
            country, _, gb = spec.partition(":")
            legs.append(TripLeg(country.upper(), float(gb or 1.0)))
        except ValueError:
            print(f"bad leg {spec!r}; use ISO3[:GB], e.g. ESP:2", file=sys.stderr)
            return 2
    try:
        planner = ItineraryPlanner(common.get_listing(args.day), common.get_countries())
        plans = planner.recommend(legs, day=args.day)
    except (KeyError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    print(render_recommendation(plans))
    return 0


def _cmd_tools(args: argparse.Namespace) -> int:
    from repro.measure import TOOL_CATALOGUE

    print(f"{'Tool':11} {'Visibility':38} implementation")
    for name, _description, visibility, implementation in TOOL_CATALOGUE:
        print(f"{name:11} {visibility:38} {implementation}")
    print()
    for name, description, _v, _i in TOOL_CATALOGUE:
        print(f"{name}: {description}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.experiments import rx1

    try:
        chaos = dataclasses.replace(
            rx1.default_chaos(
                args.chaos_seed if args.chaos_seed is not None else args.seed
            ),
            attach_reject_rate=args.attach_reject,
            sim_flip_failure_rate=args.sim_flip,
            service_outage_rate=args.outage,
            probe_timeout_rate=args.timeout,
            churn_rate_per_day=args.churn,
            max_makeup_days=args.makeup_days,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(rx1.format_result(rx1.run(scale=args.scale, seed=args.seed, chaos=chaos)))
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    import pathlib

    from repro.core import cache as cache_mod
    from repro.core.runner import StudyRunner
    from repro.core.study import ThickMnaStudy
    from repro.faults import ExecChaos

    if args.cache_dir or args.no_cache:
        cache_mod.configure(root=args.cache_dir, enabled=not args.no_cache)
    # ``!= 0``, not ``> 0``: a negative or NaN rate must reach ExecChaos's
    # own range check instead of silently turning chaos off.
    wants_chaos = (
        args.exec_crash_rate != 0 or args.exec_hang or args.exec_corrupt_cache != 0
    )
    try:
        exec_chaos = ExecChaos(
            seed=args.exec_chaos_seed,
            worker_crash_rate=args.exec_crash_rate,
            hang_artefacts=tuple(a.upper() for a in args.exec_hang),
            hang_s=args.exec_hang_s,
            cache_corrupt_rate=args.exec_corrupt_cache,
        ) if wants_chaos else None
        runner = StudyRunner(
            seed=args.seed, jobs=args.jobs, trace_dir=args.trace,
            history_dir=args.history, artefact_timeout_s=args.artefact_timeout,
            exec_chaos=exec_chaos,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    try:
        report = runner.run_all(
            scale=args.scale, artefacts=args.artefacts, resume=args.resume,
        )
    except (KeyError, ValueError) as error:
        # An unknown or repeated id.
        print(error.args[0], file=sys.stderr)
        return 2
    print(report.summary_table())
    if report.trace_path:
        print(f"(trace written to {report.trace_path})")
    if report.history_run_id:
        print(f"(history run {report.history_run_id} appended to {args.history})")
    if args.render_dir:
        study = ThickMnaStudy(seed=args.seed)
        render_dir = pathlib.Path(args.render_dir)
        render_dir.mkdir(parents=True, exist_ok=True)
        for artefact_id, result in report.results.items():
            (render_dir / f"{artefact_id}.txt").write_text(
                study.format_result(artefact_id, result) + "\n"
            )
        print(f"(rendered artefacts written to {render_dir})")
    if args.json:
        report.save(args.json)
        print(f"(run report written to {args.json})")
    if report.interrupted:
        return 130  # the shell convention for SIGINT-terminated work
    return 0 if not report.failed() else 1


def _expand_trace_files(patterns: List[str]) -> List[str]:
    """Resolve trace-file arguments, expanding any unshelled globs."""
    import glob as glob_mod

    files: List[str] = []
    for pattern in patterns:
        if any(char in pattern for char in "*?["):
            matches = sorted(glob_mod.glob(pattern))
            if not matches:
                raise FileNotFoundError(f"no trace files match {pattern!r}")
            files.extend(matches)
        else:
            files.append(pattern)
    return files


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs

    try:
        files = _expand_trace_files(args.files)
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 2
    status = 0
    for index, file in enumerate(files):
        try:
            trace = obs.load_trace(file)
        except OSError as error:
            print(f"cannot read trace: {error}", file=sys.stderr)
            status = 2
            continue
        except ValueError as error:
            print(str(error), file=sys.stderr)
            status = 2
            continue
        if len(files) > 1:
            if index:
                print()
            print(f"== {file} ==")
        if args.view == "summary":
            print(obs.summary(trace))
        elif args.view == "tree":
            print(obs.tree(trace, max_depth=args.depth))
        elif args.view == "metrics":
            print(obs.metrics_view(trace))
        elif args.view == "critical":
            print(obs.render_critical(trace))
        else:
            print(obs.slowest(trace, top=args.top))
    return status


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.core import cache as cache_mod

    if args.cache_dir:
        cache_mod.configure(root=args.cache_dir)
    store = cache_mod.get_default_cache()
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} "
              f"from {store.root}")
        return 0
    if args.action == "verify":
        result = store.verify(prune=args.prune)
        print(f"cache root : {store.root}")
        print(f"ok         : {len(result.ok)}")
        print(f"corrupt    : {len(result.corrupt)}")
        print(f"stray tmp  : {len(result.stray)}")
        for key in result.corrupt:
            print(f"  corrupt {key}")
        for name in result.stray:
            print(f"  stray   {name}")
        if args.prune:
            print(f"pruned     : {len(result.pruned)}")
        # Non-zero when problems remain on disk, so scripts can gate on it.
        return 0 if result.clean or args.prune else 1
    info = store.info()
    print(f"cache root : {info['root']}")
    print(f"enabled    : {info['enabled']}")
    print(f"entries    : {info['entry_count']}")
    print(f"total size : {info['total_bytes'] / 1e6:.1f} MB")
    for entry in info["entries"]:
        print(f"  {entry['key']:50} {entry['size_bytes'] / 1e6:8.2f} MB")
    return 0


def _history_store(args: argparse.Namespace):
    from repro.obs.history import HistoryStore

    return HistoryStore(args.history)


def _fmt_run_wall(seconds: float) -> str:
    return f"{seconds:.2f}s" if seconds >= 1.0 else f"{seconds * 1000:.0f}ms"


def _cmd_history(args: argparse.Namespace) -> int:
    import time as time_mod

    from repro.obs.history import find_run

    store = _history_store(args)
    records = store.load()
    if not records:
        print(f"no runs recorded under {store.root}", file=sys.stderr)
        return 2

    if args.action == "list":
        print(f"{'run id':24} {'recorded (UTC)':19} {'key':26} "
              f"{'ok':>5} {'wall':>8}")
        for record in records:
            stamp = time_mod.strftime(
                "%Y-%m-%d %H:%M:%S", time_mod.gmtime(record.created_unix)
            )
            ok = sum(
                1 for stats in record.artefacts.values() if stats.status == "ok"
            )
            print(f"{record.run_id:24} {stamp:19} {record.group_key():26} "
                  f"{ok:2d}/{len(record.artefacts):2d} "
                  f"{_fmt_run_wall(record.total_wall_s):>8}")
        return 0

    if args.action == "show":
        record = find_run(records, args.run_id) if args.run_id else records[-1]
        if record is None:
            print(f"unknown run id {args.run_id!r} in {store.root}",
                  file=sys.stderr)
            return 2
        print(f"run {record.run_id} ({record.group_key()}) on {record.host}")
        print(f"  recorded : {time_mod.strftime('%Y-%m-%d %H:%M:%S UTC', time_mod.gmtime(record.created_unix))}")
        print(f"  status   : {'ok' if record.ok else 'FAILED'}, "
              f"total {_fmt_run_wall(record.total_wall_s)} "
              f"(warm-up {_fmt_run_wall(record.warm_wall_s)})")
        if record.trace_path:
            print(f"  trace    : {record.trace_path}")
        print(f"  {'artefact':9} {'status':7} {'wall':>8} {'hit':>4} "
              f"{'miss':>4} {'fingerprint':20}")
        for artefact_id in sorted(record.artefacts):
            stats = record.artefacts[artefact_id]
            print(f"  {artefact_id:9} {stats.status:7} "
                  f"{_fmt_run_wall(stats.wall_s):>8} {stats.cache_hits:4d} "
                  f"{stats.cache_misses:4d} {stats.fingerprint[-20:]:20}")
        return 0

    # compare
    first = find_run(records, args.run_id)
    second = find_run(records, args.other_run_id)
    for run_id, record in ((args.run_id, first), (args.other_run_id, second)):
        if record is None:
            print(f"unknown run id {run_id!r} in {store.root}", file=sys.stderr)
            return 2
    print(f"comparing {first.run_id} ({first.group_key()}) -> "
          f"{second.run_id} ({second.group_key()})")
    artefact_ids = sorted(set(first.artefacts) | set(second.artefacts))
    print(f"  {'artefact':9} {'wall A':>8} {'wall B':>8} {'delta':>8} result")
    for artefact_id in artefact_ids:
        a = first.artefacts.get(artefact_id)
        b = second.artefacts.get(artefact_id)
        if a is None or b is None:
            print(f"  {artefact_id:9} {'-':>8} {'-':>8} {'-':>8} "
                  f"only in run {'B' if a is None else 'A'}")
            continue
        delta = b.wall_s - a.wall_s
        if a.status != "ok" or b.status != "ok":
            result = f"status {a.status} -> {b.status}"
        elif a.fingerprint and b.fingerprint:
            result = (
                "identical" if a.fingerprint == b.fingerprint else "DIFFERENT"
            )
        else:
            result = "-"
        print(f"  {artefact_id:9} {_fmt_run_wall(a.wall_s):>8} "
              f"{_fmt_run_wall(b.wall_s):>8} {delta * 1000:+7.0f}ms {result}")
    return 0


def _cmd_regress(args: argparse.Namespace) -> int:
    from repro.obs.regress import detect

    try:
        report = detect(_history_store(args), run_id=args.run, against=args.against)
    except (KeyError, ValueError) as error:
        print(error.args[0] if error.args else str(error), file=sys.stderr)
        return 2
    print(report.render())
    if not report.ok() and args.fail_on_regression:
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import write_html

    store = _history_store(args)
    records = store.load()
    target = write_html(store, args.html, limit=args.limit, records=records)
    print(f"wrote {target} ({len(records)} recorded run(s))")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import create_server

    try:
        server = create_server(
            seed=args.seed,
            scale=args.scale,
            history_dir=args.history,
            host=args.host,
            port=args.port,
            quiet=not args.verbose,
            sample_interval_s=args.sample_interval,
        )
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    print(f"repro-serve listening on {server.url} "
          f"(seed {args.seed}, scale {args.scale:g})")
    print("warming datasets and indexes; GET /healthz reports progress")
    print(f"live telemetry: {server.url}/dashboard (sampler "
          f"{args.sample_interval:g}s x {server.sampler.capacity} samples)")
    return server.run_foreground()


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.obs.regress import judge
    from repro.server.loadgen import run_loadgen
    from repro.server.slo import record_from_loadgen

    try:
        report = run_loadgen(
            args.host, args.port,
            duration_s=args.duration,
            seed=args.seed,
            chaos_latency_s=args.chaos_latency,
            wait_ready_s=args.wait_ready,
            trace=bool(args.trace),
        )
    except (RuntimeError, ValueError) as error:
        print(error.args[0], file=sys.stderr)
        return 2
    print(report.render())
    if args.trace and report.trace_recorder is not None:
        import pathlib

        from repro import obs

        trace_path = obs.write_trace(
            report.trace_recorder,
            pathlib.Path(args.trace) / f"loadgen-seed{args.seed}-d{args.duration:g}.jsonl",
        )
        print(f"(client+server trace written to {trace_path})")
    # Judged with no baseline, the record can draw only the SLO verdicts
    # `repro regress` would give it.
    record = record_from_loadgen(report)
    judged = judge([], record)
    violations = judged.verdicts if judged is not None else []
    for verdict in violations:
        print(f"SLO VIOLATION {verdict.artefact_id}: p99 {verdict.observed} "
              f"> SLO {verdict.baseline}")
    if args.json:
        import json as json_mod

        from repro.core.cache import atomic_write

        text = json_mod.dumps(report.to_jsonable(), indent=2, sort_keys=True) + "\n"
        atomic_write(args.json, lambda handle: handle.write(text), mode="w")
        print(f"(json report written to {args.json})")
    if args.history:
        from repro.obs.history import HistoryStore

        HistoryStore(args.history).append(record)
        print(f"(recorded as {record.run_id} [{record.group_key()}] "
              f"in {args.history})")
    if violations and args.fail_on_slo:
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """``repro profile -- <subcommand ...>``: profile any CLI invocation.

    Runs the wrapped subcommand through :func:`main` recursively under
    a sampling profiler, prints the hottest-stacks digest, and writes
    the collapsed-stack flamegraph input when ``--out`` is given. The
    wrapped command's exit code is preserved.
    """
    from repro.obs.profile import SamplingProfiler

    command = list(args.wrapped)
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        print("profile requires a subcommand, e.g. "
              "repro profile -- run T2", file=sys.stderr)
        return 2
    if command[0] == "profile":
        print("profile cannot wrap itself", file=sys.stderr)
        return 2
    try:
        profiler = SamplingProfiler(interval_s=args.interval_ms / 1000.0)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    with profiler:
        status = main(command)
    print(file=sys.stderr)
    print(profiler.summary(top=args.top), file=sys.stderr)
    if args.out:
        target = profiler.write(args.out)
        print(f"(collapsed stacks written to {target})", file=sys.stderr)
    return status


def _cmd_market(args: argparse.Namespace) -> int:
    try:
        listing = common.get_listing(args.day)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.country:
        country = args.country.upper()
        offers = [
            o for o in listing.offers_on(args.day, country) if o.data_gb >= args.gb
        ]
        offers.sort(key=lambda o: o.price_usd)
        if not offers:
            print(f"no offers with >= {args.gb:g} GB for {country}", file=sys.stderr)
            return 2
        print(f"cheapest plans with >= {args.gb:g} GB for {country} (day {args.day}):")
        for offer in offers[: args.top]:
            print(f"  {offer.provider:14} {offer.data_gb:5.1f} GB  "
                  f"${offer.price_usd:7.2f}  (${offer.usd_per_gb:.2f}/GB)")
        return 0
    medians = listing.provider_country_medians(args.day)
    print(f"provider medians on day {args.day} "
          f"({sum(listing.offer_counts(args.day).values())} listed offers):")
    for provider in sorted(medians, key=lambda p: statistics.median(medians[p])):
        print(f"  {provider:14} ${statistics.median(medians[provider]):6.2f}/GB "
              f"({len(medians[provider])} countries)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Roam Without a Home' (IMC 2025)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "subcommand groups and where they are documented:\n"
            "  experiments   list, run, campaign, probe, tools, trip, chaos,\n"
            "                market -> docs/ARCHITECTURE.md, docs/CALIBRATION.md\n"
            "  execution     run-all, cache -> docs/PERFORMANCE.md, docs/FULL_RUN.md\n"
            "  observability trace, history, regress, report\n"
            "                              -> docs/OBSERVABILITY.md\n"
            "  service       serve, loadgen -> docs/SERVICE.md\n"
            "\n"
            "exit codes: 0 success, 1 gated failure (run-all artefact error,\n"
            "regress --fail-on-regression, loadgen --fail-on-slo), 2 usage or\n"
            "data error, 130 interrupted (SIGINT). docs/FULL_RUN.md has the\n"
            "full table; the API reference is docs/API.md."
        ),
    )
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="show campaign-weather logs (retries, quarantines)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="render one table/figure")
    run_parser.add_argument("artefact", help="artefact id, e.g. T2 or F11")
    run_parser.add_argument("--scale", type=float, default=None,
                            help="campaign scale (default 0.15)")
    run_parser.add_argument("--json", default=None, metavar="FILE",
                            help="also dump the raw result series as JSON")

    campaign_parser = sub.add_parser("campaign", help="run a measurement campaign")
    campaign_parser.add_argument("kind", choices=("device", "web"))
    campaign_parser.add_argument("--scale", type=float, default=common.DEFAULT_SCALE)
    campaign_parser.add_argument("--save", default=None, metavar="FILE",
                                 help="persist the dataset as JSON-lines")

    probe_parser = sub.add_parser("probe", help="diagnose one country's eSIM")
    probe_parser.add_argument("country", help="ISO3 code, e.g. ESP")

    sub.add_parser("tools", help="describe the measurement instruments (paper Table 1)")

    trip_parser = sub.add_parser("trip", help="plan eSIM purchases for an itinerary")
    trip_parser.add_argument("legs", nargs="+", metavar="ISO3[:GB]",
                             help="trip legs, e.g. ESP:2 FRA:1.5 THA:3")
    trip_parser.add_argument("--day", type=int, default=90)

    chaos_parser = sub.add_parser(
        "chaos", help="replay the device campaign under injected faults (RX1)"
    )
    chaos_parser.add_argument("--scale", type=float, default=common.DEFAULT_SCALE,
                              help="campaign scale (default 0.15)")
    chaos_parser.add_argument("--chaos-seed", type=int, default=None,
                              help="fault-stream seed (default: --seed)")
    chaos_parser.add_argument("--attach-reject", type=float, default=0.05,
                              help="attach-reject probability per attempt")
    chaos_parser.add_argument("--sim-flip", type=float, default=0.02,
                              help="SIM-flip wedge probability per attach")
    chaos_parser.add_argument("--outage", type=float, default=0.02,
                              help="transient service-outage rate per test run")
    chaos_parser.add_argument("--timeout", type=float, default=0.03,
                              help="DNS/speedtest probe-timeout rate per run")
    chaos_parser.add_argument("--churn", type=float, default=0.02,
                              help="endpoint churn probability per day")
    chaos_parser.add_argument("--makeup-days", type=int, default=7,
                              help="extra days to roll missed runs onto")

    run_all_parser = sub.add_parser(
        "run-all", help="run every artefact, optionally sharded over processes"
    )
    run_all_parser.add_argument("--jobs", type=int, default=1,
                                help="worker processes (default 1 = in-process)")
    run_all_parser.add_argument("--scale", type=float, default=None,
                                help="campaign scale (default 0.15)")
    run_all_parser.add_argument("--artefacts", nargs="+", metavar="ID",
                                help="subset of artefact ids (default: all)")
    run_all_parser.add_argument("--json", default=None, metavar="FILE",
                                help="export the run report (ledger + results)")
    run_all_parser.add_argument("--render-dir", default=None, metavar="DIR",
                                help="also write each artefact's rendered text")
    run_all_parser.add_argument("--cache-dir", default=None, metavar="DIR",
                                help="persistent cache root (default "
                                     "~/.cache/repro-airalo or $REPRO_CACHE_DIR)")
    run_all_parser.add_argument("--no-cache", action="store_true",
                                help="disable the persistent artifact cache")
    run_all_parser.add_argument("--trace", default=None, metavar="DIR",
                                help="record telemetry and write a JSONL trace "
                                     "file into DIR (see 'repro trace')")
    run_all_parser.add_argument("--resume", action="store_true",
                                help="serve each result already in the cache "
                                     "and store each one computed, so a rerun "
                                     "skips completed work (byte-identical "
                                     "results)")
    run_all_parser.add_argument("--artefact-timeout", type=float, default=None,
                                metavar="S",
                                help="watchdog deadline per artefact attempt; "
                                     "overdue workers are killed and retried "
                                     "(needs --jobs 2 or more)")
    run_all_parser.add_argument("--exec-crash-rate", type=float, default=0.0,
                                metavar="P",
                                help="chaos: probability a worker dies "
                                     "mid-artefact (test/CI harness)")
    run_all_parser.add_argument("--exec-hang", action="append", default=[],
                                metavar="ID",
                                help="chaos: artefact id that hangs on its "
                                     "first attempt (repeatable)")
    run_all_parser.add_argument("--exec-hang-s", type=float, default=3600.0,
                                metavar="S",
                                help="chaos: how long an injected hang sleeps")
    run_all_parser.add_argument("--exec-corrupt-cache", type=float, default=0.0,
                                metavar="P",
                                help="chaos: probability one cache entry is "
                                     "corrupted before an artefact runs")
    run_all_parser.add_argument("--exec-chaos-seed", type=int, default=0,
                                help="seed for the exec-chaos decision streams")
    run_all_parser.add_argument("--history", default=None, metavar="DIR",
                                help="append one RunRecord to the cross-run "
                                     "history store in DIR (see 'repro "
                                     "history' and 'repro regress')")

    trace_parser = sub.add_parser(
        "trace", help="inspect JSONL traces written by run-all --trace"
    )
    trace_parser.add_argument(
        "view", choices=("summary", "tree", "slowest", "metrics", "critical")
    )
    trace_parser.add_argument("files", nargs="+", metavar="FILE",
                              help="one or more .jsonl trace files (globs ok)")
    trace_parser.add_argument("--top", type=int, default=15,
                              help="spans to list (slowest view)")
    trace_parser.add_argument("--depth", type=int, default=None,
                              help="maximum depth (tree view)")

    history_parser = sub.add_parser(
        "history", help="inspect the cross-run history store"
    )
    history_sub = history_parser.add_subparsers(dest="action", required=True)
    list_parser = history_sub.add_parser("list", help="one line per recorded run")
    show_parser = history_sub.add_parser(
        "show", help="one run's per-artefact record"
    )
    compare_parser = history_sub.add_parser(
        "compare", help="two runs side by side"
    )
    for action_parser in (list_parser, show_parser, compare_parser):
        action_parser.add_argument(
            "--history", default=None, metavar="DIR",
            help="history store root (default ~/.cache/repro-airalo/history "
                 "or $REPRO_HISTORY_DIR)",
        )
    show_parser.add_argument("run_id", nargs="?", default=None,
                             help="run id or unique prefix (default: latest)")
    compare_parser.add_argument("run_id", help="baseline run id")
    compare_parser.add_argument("other_run_id", help="candidate run id")

    regress_parser = sub.add_parser(
        "regress",
        help="judge a recorded run against its rolling baseline",
    )
    regress_parser.add_argument("--history", default=None, metavar="DIR",
                                help="history store root")
    regress_parser.add_argument("--run", default=None, metavar="RUN_ID",
                                help="candidate run (default: latest)")
    regress_parser.add_argument("--against", default=None, metavar="RUN_ID",
                                help="pin the baseline to one specific run")
    regress_parser.add_argument("--fail-on-regression", action="store_true",
                                help="exit non-zero when any verdict fires "
                                     "(the CI gate)")

    report_parser = sub.add_parser(
        "report", help="render the static HTML history dashboard"
    )
    report_parser.add_argument("--html", required=True, metavar="OUT",
                               help="output HTML file")
    report_parser.add_argument("--history", default=None, metavar="DIR",
                               help="history store root")
    report_parser.add_argument("--limit", type=int, default=12,
                               help="runs per trend table (default 12)")

    cache_parser = sub.add_parser("cache", help="inspect the persistent artifact cache")
    cache_parser.add_argument("action", choices=("info", "clear", "verify"))
    cache_parser.add_argument("--cache-dir", default=None, metavar="DIR",
                              help="cache root to operate on")
    cache_parser.add_argument("--prune", action="store_true",
                              help="with verify: delete corrupt entries and "
                                   "stray temp files instead of just "
                                   "reporting them")

    serve_parser = sub.add_parser(
        "serve",
        help="run the always-on measurement service (see docs/SERVICE.md)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8321,
                              help="bind port (default 8321; 0 = ephemeral)")
    serve_parser.add_argument("--scale", type=float, default=common.DEFAULT_SCALE,
                              help="campaign scale to warm and serve "
                                   "(default 0.15)")
    serve_parser.add_argument("--history", default=None, metavar="DIR",
                              help="history store root served by /history "
                                   "and /regress")
    serve_parser.add_argument("--sample-interval", type=float, default=1.0,
                              metavar="S",
                              help="live-sampler tick cadence (default 1s; "
                                   "also the /events delta cadence)")

    loadgen_parser = sub.add_parser(
        "loadgen",
        help="send a seeded open-loop request schedule to a running server",
    )
    loadgen_parser.add_argument("--host", default="127.0.0.1")
    loadgen_parser.add_argument("--port", type=int, default=8321)
    loadgen_parser.add_argument("--duration", type=float, default=10.0,
                                metavar="S", help="load duration in seconds")
    loadgen_parser.add_argument("--wait-ready", type=float, default=120.0,
                                metavar="S",
                                help="max seconds to wait for /healthz=200 "
                                     "before starting (0 = don't wait)")
    loadgen_parser.add_argument("--chaos-latency", type=float, default=0.0,
                                metavar="S",
                                help="inject S seconds into every recorded "
                                     "latency (tests the SLO gate)")
    loadgen_parser.add_argument("--json", default=None, metavar="FILE",
                                help="write the full report as JSON")
    loadgen_parser.add_argument("--history", default=None, metavar="DIR",
                                help="append the run to the history store "
                                     "so 'repro regress' gates it")
    loadgen_parser.add_argument("--fail-on-slo", action="store_true",
                                help="exit non-zero when any route's p99 "
                                     "exceeds its declared SLO")
    loadgen_parser.add_argument("--trace", default=None, metavar="DIR",
                                help="record a client-side trace, adopt the "
                                     "server's X-Repro-Span exports into it "
                                     "and write one JSONL trace into DIR")

    profile_parser = sub.add_parser(
        "profile",
        help="run any subcommand under the sampling wall-clock profiler",
    )
    profile_parser.add_argument("--out", default=None, metavar="FILE",
                                help="write collapsed-stack flamegraph "
                                     "input (one 'frames count' line per "
                                     "distinct stack)")
    profile_parser.add_argument("--interval-ms", type=float, default=10.0,
                                metavar="MS",
                                help="sampling cadence (default 10ms)")
    profile_parser.add_argument("--top", type=int, default=10,
                                help="hottest stacks to print (default 10)")
    profile_parser.add_argument("wrapped", nargs=argparse.REMAINDER,
                                metavar="-- SUBCOMMAND",
                                help="the repro invocation to profile, "
                                     "after a literal --")

    market_parser = sub.add_parser("market", help="query the eSIM marketplace")
    market_parser.add_argument("--day", type=int, default=90,
                               help="crawl day (0 = 2024-02-01)")
    market_parser.add_argument("--country", default=None)
    market_parser.add_argument("--gb", type=float, default=1.0)
    market_parser.add_argument("--top", type=int, default=5)
    return parser


_HANDLERS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "campaign": _cmd_campaign,
    "probe": _cmd_probe,
    "tools": _cmd_tools,
    "trip": _cmd_trip,
    "chaos": _cmd_chaos,
    "market": _cmd_market,
    "run-all": _cmd_run_all,
    "trace": _cmd_trace,
    "history": _cmd_history,
    "regress": _cmd_regress,
    "report": _cmd_report,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "profile": _cmd_profile,
}


#: Integer flags and the least value each accepts, wherever they appear.
_INT_FLAG_MINIMA = {"jobs": 1, "top": 1, "depth": 0, "limit": 1}

#: Flags that name a file the command writes, wherever they appear.
_OUTPUT_FLAGS = ("json", "save", "html", "out")

#: Flags that name a directory the command reads or writes, wherever
#: they appear.
_DIRECTORY_FLAGS = ("render_dir", "trace", "history", "cache_dir")


def _flag_error(args: argparse.Namespace) -> Optional[str]:
    """What is wrong with ``--scale``, ``--gb``, ``--jobs``, ``--top``,
    ``--depth``, ``--limit``, an output file flag or a directory flag,
    if anything.

    argparse checks only that they parse. A scale above 1 grows the
    campaign (see ``scaled_count``), so only non-positive and non-finite
    values are refused. ``market --gb 0`` asks for every plan. An output
    file that is an existing directory, a directory flag naming an
    existing file, and either kind of path under an existing file are
    refused before any work.
    """
    scale = getattr(args, "scale", None)
    if scale is not None and not (math.isfinite(scale) and scale > 0):
        return f"--scale must be a positive finite number, got {scale:g}"
    gb = getattr(args, "gb", None)
    if gb is not None and not (math.isfinite(gb) and gb >= 0):
        return f"--gb must be a non-negative finite number, got {gb:g}"
    for name, least in _INT_FLAG_MINIMA.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            return f"--{name} must be at least {least}, got {value}"
    for name in _OUTPUT_FLAGS + _DIRECTORY_FLAGS:
        path = getattr(args, name, None)
        if path is None:
            continue
        flag = f"--{name.replace('_', '-')}"
        is_dir = os.path.isdir(path)
        if name in _OUTPUT_FLAGS and is_dir:
            return f"{flag} {path} is a directory"
        if name in _DIRECTORY_FLAGS and not is_dir and os.path.exists(path):
            return f"{flag} {path} is not a directory"
        # The nearest existing ancestor must be a directory to create in.
        parent = os.path.dirname(path)
        while parent and not os.path.exists(parent):
            parent = os.path.dirname(parent)
        if parent and not os.path.isdir(parent):
            return f"{flag} {path}: {parent} is not a directory"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    error = _flag_error(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    with _configure_logging(args.verbose):
        return _HANDLERS[args.command](args)


def console_main() -> int:
    """The process entry point: ``python -m repro`` and the ``repro``
    console script.

    Runs :func:`main`, then freezes the cyclic collector: everything
    the command built dies with the process, so interpreter shutdown
    need not traverse it in one last collection. Shutdown still runs
    atexit handlers, flushes and closes files, and frees by reference
    count. ``main()`` itself never freezes, since tests call it in
    process.

    A stdout whose reader is gone (``repro list | head -1``) ends the
    command with status 1 and no traceback: stdout is pointed at
    ``/dev/null``, so shutdown's own flush stays quiet too, as the
    "Note on SIGPIPE" in Python's ``signal`` docs recommends.
    """
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    gc.freeze()
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(console_main())
