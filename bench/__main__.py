"""``python -m bench run|trace|compare|reference`` (see ``bench/README.md``).

``run`` measures workloads untraced and ``trace`` (``run --trace 1``)
takes the per-layer breakdown. Each workload's last output line is one
JSON object: ``correct``, ``attempted``, ``failed`` and its metrics
with units. The exit code is 0 only when every output was correct and
no operation failed; 2 when the program could not be run at all.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import sys
from typing import List, Optional

from bench.compare import compare
from bench.contract import Result, declared, load_spec
from bench.harness import (
    SCALE, HarnessError, Workspace, compile_sources, repro_argv, require_program, run_timed,
)
from bench.layers import probe
from bench.oracle import REFERENCE, Oracle, digests, list_ids
from bench.spans import Recorder
from bench.workloads import WORKLOADS, Context

REFERENCE_SEED = 2024


def _summary(workload: str, seed: int, traced: bool, result: Result, spec: dict) -> List[str]:
    units = declared(spec, traced)
    lines = [
        f"== {workload} seed={seed} {'traced' if traced else 'untraced'}: correct={result.correct} "
        f"attempted={result.attempted} failed={result.failed}"
    ]
    lines += [f"  {name:34} {result.metrics[name]:.6g} {units[name]['unit']}" for name in units]
    if result.detail:
        lines.append("  detail: " + json.dumps(result.detail, sort_keys=True))
    lines += [f"  ERROR {error}" for error in result.errors]
    return lines


def run(args: argparse.Namespace, traced: bool) -> int:
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        require_program()
        compile_sources()
    except HarnessError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    status = 0
    for workload in args.workload or list(WORKLOADS):
        ws = Workspace(f"{workload}-trace" if traced else workload)
        recorder = Recorder(f"bench-{workload}-seed{args.seed}")
        try:
            ctx = Context(ws, args.seed, seconds, Oracle(args.seed, SCALE))
            result = probe(ctx, recorder) if traced else WORKLOADS[workload](ctx)
        except HarnessError as error:
            print(f"bench: {workload}: {error}", file=sys.stderr)
            return 2
        finally:
            ws.close()
        line = result.line(spec, traced)
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            record = {"workload": workload, "seed": args.seed, "seconds": seconds, "traced": traced,
                      **json.loads(line), "detail": result.detail}
            with open(args.out / "results.jsonl", "a") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            if traced:
                recorder.write(args.out / f"spans-{workload}-seed{args.seed}.jsonl",
                               {"workload": workload, "seed": args.seed, "scale": SCALE})
        print("\n".join(_summary(workload, args.seed, traced, result, spec)))
        print(line, flush=True)
        if not result.correct or result.failed:
            status = 1
    return status


def reference(args: argparse.Namespace) -> int:
    """Rewrite the committed reference from a fresh ``run-all`` at seed 2024."""
    require_program()
    ws = Workspace("reference")
    try:
        env = ws.env(ws.path("cache"))
        listed = run_timed(repro_argv(REFERENCE_SEED, "list"), env, ws)
        report_path = ws.path("report.json")
        ran = run_timed(repro_argv(REFERENCE_SEED, "run-all", "--scale", f"{SCALE:g}", "--json",
                                   str(report_path)), env, ws)
        if listed.code or ran.code:
            print(f"bench: repro failed:\n{listed.tail()}\n{ran.tail()}", file=sys.stderr)
            return 1
        results = json.loads(report_path.read_text())["results"]
    finally:
        ws.close()
    data = {"seed": REFERENCE_SEED, "scale": SCALE, "ids": list_ids(listed.stdout), "artefacts": digests(results)}
    REFERENCE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE} ({len(results)} artefacts)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in (("run", "measure workloads untraced (or traced with --trace 1)"),
                          ("trace", "the per-layer breakdown: run --trace 1")):
        p = sub.add_parser(command, help=text)
        p.add_argument("--workload", action="append", choices=list(WORKLOADS),
                       help="workload to run (repeatable; default: all four in order)")
        p.add_argument("--seed", type=int, default=REFERENCE_SEED,
                       help="program seed and load-schedule seed (default 2024)")
        p.add_argument("--seconds", type=float, default=None,
                       help="measuring time per workload (default: run_seconds in BENCHMARK.json)")
        if command == "run":
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.add_argument("--out", type=pathlib.Path, default=None,
                       help="append results to DIR/results.jsonl (traced: spans to DIR/spans-*.jsonl)")
    p = sub.add_parser("compare", help="verdicts for a change against its parent")
    p.add_argument("parent", type=pathlib.Path, help="results file or directory of the parent commit")
    p.add_argument("change", type=pathlib.Path, help="results file or directory of the change")
    sub.add_parser("reference", help="regenerate bench/reference/ from a fresh run-all at seed 2024")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so servers are stopped and work directories removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.command == "compare":
        text, any_worse = compare(args.parent, args.change, load_spec())
        print(text)
        return 1 if any_worse else 0
    if args.command == "reference":
        return reference(args)
    return run(args, traced=args.command == "trace" or args.trace == 1)


if __name__ == "__main__":
    sys.exit(main())
