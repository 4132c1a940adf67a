"""Command-line front end: gen, linegraph and verify subcommands.

Exit codes follow one contract everywhere: 0 all checks pass, 1 a
counterexample was found (for the tightness checks that is the expected
outcome, since they construct one), 2 usage, input or budget errors.
Every optional flag is parsed as None when absent, and FLAG_RULES states
when a request reads each one: a request that gives a flag it would not
read exits 2, naming the flag, before any network is generated or any
file is opened. The three subcommands share the network flags: --in or
--family with --n, and --seed, which --family random requires everywhere
(gen refuses --in). Only verify's sampler defaults --seed to 0. Every
output goes to the file its flag names, and --out defaults to stdout:
linegraph always writes its line graph there, and --bcdc only adds the
original graph at --out-original. Reports are JSON and are
byte-identical across runs with the same inputs and seeds, except for
the timing field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Optional

from . import edgelist
from .graph import BudgetExceeded
from .linegraph import bcdc, line_graph, line_graph_of_hl
from .menger import BOUNDS, FaultCampaign, check_component_lemma, \
    check_tightness, require_dimension, run_campaign
from .topologies import NAMED_FAMILIES, construction_record, generate, \
    hl_from_graph

CHECKS = ("smec", *BOUNDS)
TIGHTNESS_CHECKS = ("tight-uncond", "tight-cond")

# defaults of the verify flags that FLAG_RULES governs and that are not
# read as None, filled in once the rules pass
FLAG_DEFAULTS = {"samples": 10000, "adversarial": False,
                 "budget": 10_000_000, "all_witnesses": False}
_FOR_CHECK = "does not apply to --check {check}"


def _campaign(a: dict) -> bool:
    """True for the five checks that sweep fault sets."""
    return a.get("check") in BOUNDS and a.get("check") not in TIGHTNESS_CHECKS


def _sampled(a: dict) -> bool:
    return a.get("mode") == "sample"


# (dests, reads, message): a request, its parsed flags as a dict, reads the
# flags with these space-separated dests only when reads(request) holds.
# The rows are tried in order, and the first flag given (not None) to a
# request that does not read it is refused with "<flag> <message>".
FLAG_RULES = (
    ("infile", lambda a: a["command"] != "gen", "does not apply to gen"),
    ("family infile seed", lambda a: not a.get("bcdc"),
     "does not apply to --bcdc"),
    ("n", lambda a: a.get("infile") is None, "does not apply to --in"),
    ("out_original", lambda a: a.get("bcdc"), "applies only with --bcdc"),
    ("m mode samples adversarial budget", _campaign, _FOR_CHECK),
    ("all_witnesses", lambda a: a.get("check") in TIGHTNESS_CHECKS,
     _FOR_CHECK),
    ("progress", _campaign, _FOR_CHECK),
    ("samples", _sampled, "applies only with --mode sample"),
    ("budget", lambda a: not _sampled(a), "does not apply to --mode sample"),
    ("seed", lambda a: a.get("family") == "random" or _campaign(a),
     "applies only with --family random"),
    ("seed", lambda a: a.get("family") == "random" or _sampled(a),
     "applies only with --family random or --mode sample"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlmenger",
        description="Generate hypercube-like networks and verify "
                    "Menger-type edge connectivity of their line graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a network as an edge list")
    _add_network_args(gen)
    gen.add_argument("--out", help="output path (default stdout)")
    gen.add_argument("--construction",
                     help="write the per-level bijection record as JSON")

    lg = sub.add_parser("linegraph", help="emit the line graph of a network")
    _add_network_args(lg)
    lg.add_argument("--bcdc", action="store_true",
                    help="use the data-center pair: the line graph of the "
                         "subdivided crossed cube of dimension --n")
    lg.add_argument("--out", help="line-graph output path (default stdout)")
    lg.add_argument("--out-original", dest="out_original",
                    help="with --bcdc: also write the original graph here")
    lg.add_argument("--provenance",
                    help="write line-vertex -> base-edge map as JSON")

    ver = sub.add_parser("verify", help="run a verification check")
    ver.add_argument("--check", required=True, choices=CHECKS)
    _add_network_args(ver)
    ver.add_argument("--m", type=int, help="maximum fault-set size")
    ver.add_argument("--mode", choices=("exhaustive", "sample"),
                     help="fault-set sweep (default exhaustive)")
    ver.add_argument("--samples", type=int,
                     help="sample count in sample mode (default 10000)")
    ver.add_argument("--adversarial", action="store_true", default=None,
                     help="prepend the deterministic adversarial suite")
    ver.add_argument("--all-witnesses", dest="all_witnesses",
                     action="store_true", default=None,
                     help="tightness checks: test every admissible far "
                          "vertex, not only the lowest")
    ver.add_argument("--budget", type=int,
                     help="campaign checks: max fault sets an exhaustive "
                          "sweep may visit (default 10000000)")
    ver.add_argument("--progress", action="store_true", default=None,
                     help="campaign checks: after each chunk of fault sets, "
                          "write visited/total, rate, ETA and failures to "
                          "stderr")
    ver.add_argument("--jobs", type=int, default=1,
                     help="worker processes for campaign evaluation")
    ver.add_argument("--out", help="write the JSON report here instead of stdout")
    return parser


def _add_network_args(cmd: argparse.ArgumentParser) -> None:
    src = cmd.add_mutually_exclusive_group()
    src.add_argument("--in", dest="infile", help="input edge-list file")
    src.add_argument("--family", choices=NAMED_FAMILIES + ("random",))
    cmd.add_argument("--n", type=int, help="dimension >= 1 (with --family)")
    cmd.add_argument("--seed", type=int,
                     help="seed for --family random, and for verify's "
                          "sampler (default 0)")


def _emit(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def _load_network(args, hl: bool = True):
    """(network, target): the --in graph, with the SHA-256 of the bytes it
    was parsed from and its size as target, or the HL network of --family,
    --n and --seed, with those flags as target. With `hl` an --in graph
    must pass hl_from_graph and comes back as a network."""
    if args.infile:
        with open(args.infile, "rb") as fh:
            data = fh.read()
        base = edgelist.loads(data.decode("utf-8"))
        target = {"input_digest": hashlib.sha256(data).hexdigest(),
                  "n_vertices": base.n_vertices, "n_edges": len(base.edges)}
        return (hl_from_graph(base) if hl else base), target
    if not args.family or args.n is None:
        raise ValueError("need --in or --family plus --n")
    target = {"family": args.family, "n": args.n}
    if args.family == "random":
        target["seed"] = args.seed
    return generate(args.family, args.n, args.seed), target


def cmd_gen(args) -> int:
    network, _ = _load_network(args)
    _emit(edgelist.dumps(network.graph), args.out)
    if args.construction:
        _emit(_json(construction_record(network)), args.construction)
    return 0


def cmd_linegraph(args) -> int:
    if args.bcdc:
        if args.n is None:
            raise ValueError("--bcdc requires --n")
        pair = bcdc(args.n)
        lg = pair.logical
        if args.out_original:
            _emit(edgelist.dumps(pair.original), args.out_original)
    else:
        network, _ = _load_network(args, hl=False)
        lg = line_graph(network) if args.infile else line_graph_of_hl(network)
    _emit(edgelist.dumps(lg.graph), args.out)
    if args.provenance:
        record = {
            "line_vertex_to_base_edge": [list(e) for e in lg.edge_of_vertex],
        }
        if lg.f_vertices is not None:
            record["f_vertices"] = sorted(lg.f_vertices)
        _emit(_json(record), args.provenance)
    return 0


def _refuse_unread(args) -> None:
    """Raise ValueError naming the first flag, in FLAG_RULES order, that
    the request gives but would not read. Dest infile is the flag --in."""
    a = vars(args)
    for dests, reads, message in FLAG_RULES:
        for dest in dests.split():
            if a.get(dest) is not None and not reads(a):
                flag = "--" + dest.replace("infile", "in").replace("_", "-")
                raise ValueError(f"{flag} {message.format(**a)}")


def _write_progress(visited: int, total: int, failures: int,
                    elapsed: float) -> None:
    rate = visited / elapsed if elapsed > 0 else 0.0
    eta = f"{(total - visited) / rate:.1f}s" if rate else "?"
    print(f"progress: {visited}/{total} sets, {rate:.0f} sets/s, "
          f"eta {eta}, {failures} failures", file=sys.stderr, flush=True)


def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    for name, default in FLAG_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    network, target = _load_network(args)
    L = line_graph_of_hl(network)
    n = network.dimension

    check = args.check
    if check == "smec":
        report = run_campaign(
            L, FaultCampaign(mode="exhaustive", m=0), jobs=args.jobs,
            target=target)
    elif check in TIGHTNESS_CHECKS:
        report = check_tightness(L, conditional=(check == "tight-cond"),
                                 all_witnesses=args.all_witnesses,
                                 target=target)
    else:
        bound = require_dimension(check, n)
        m = args.m if args.m is not None else bound.faults(n)
        mode = "sampled" if args.mode == "sample" else "exhaustive"
        c = FaultCampaign(
            mode=mode, m=m, conditional=(check == "cond-ft-smec"),
            samples=args.samples if mode == "sampled" else 0,
            seed=args.seed or 0, adversarial=args.adversarial,
            budget=args.budget)
        progress = _write_progress if args.progress else None
        if bound.floor is None:
            report = run_campaign(L, c, jobs=args.jobs, target=target,
                                  progress=progress)
        else:
            report = check_component_lemma(
                L, m, bound.floor(n), c, jobs=args.jobs, target=target,
                progress=progress)
    report.check_name = check
    _emit(report.to_json() + "\n", args.out)
    return 1 if report.counts.get("failures", 0) else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    run = {"gen": cmd_gen, "linegraph": cmd_linegraph, "verify": cmd_verify}
    try:
        _refuse_unread(args)
        return run[args.command](args)
    except (ValueError, BudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
