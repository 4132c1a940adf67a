"""Command-line front end: gen, linegraph and verify subcommands.

Exit codes follow one contract everywhere: 0 all checks pass, 1 a
counterexample was found (for the tightness checks that is the expected
outcome, since they construct one), 2 usage, input or budget errors.
Reports are JSON on stdout (or --out) and are byte-identical across runs
with the same inputs and seeds, except for the timing field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Optional

from . import edgelist
from .graph import BudgetExceeded, Graph
from .linegraph import bcdc, line_graph, line_graph_of_hl
from .menger import BOUNDS, FaultCampaign, check_component_lemma, \
    check_tightness, require_dimension, run_campaign
from .topologies import NAMED_FAMILIES, construction_record, generate, \
    hl_from_graph

CHECKS = ("smec", *BOUNDS)
TIGHTNESS_CHECKS = ("tight-uncond", "tight-cond")

# verify flags that only some checks read, with their defaults; each is
# parsed as None when absent, so a check can reject one it would ignore
FLAG_DEFAULTS = {"m": None, "mode": "exhaustive", "samples": 10000,
                 "adversarial": False, "budget": 10_000_000,
                 "all_witnesses": False, "progress": False}
CAMPAIGN_FLAGS = ("m", "mode", "samples", "adversarial", "budget",
                  "progress")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlmenger",
        description="Generate hypercube-like networks and verify "
                    "Menger-type edge connectivity of their line graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a network as an edge list")
    _add_family_args(gen)
    gen.add_argument("--out", help="output path (default stdout)")
    gen.add_argument("--construction",
                     help="write the per-level bijection record as JSON")

    lg = sub.add_parser("linegraph", help="emit the line graph of a network")
    src = lg.add_mutually_exclusive_group()
    src.add_argument("--in", dest="infile", help="input edge-list file")
    src.add_argument("--family", choices=NAMED_FAMILIES + ("random",))
    lg.add_argument("--n", type=int, help="dimension (with --family/--bcdc)")
    lg.add_argument("--seed", type=int, help="seed for --family random")
    lg.add_argument("--bcdc", action="store_true",
                    help="emit the data-center pair: subdivided crossed cube "
                         "and its line graph")
    lg.add_argument("--out", help="line-graph output path (default stdout)")
    lg.add_argument("--out-original", dest="out_original",
                    help="with --bcdc: output path for the original graph")
    lg.add_argument("--provenance",
                    help="write line-vertex -> base-edge map as JSON")

    ver = sub.add_parser("verify", help="run a verification check")
    ver.add_argument("--check", required=True, choices=CHECKS)
    vsrc = ver.add_mutually_exclusive_group()
    vsrc.add_argument("--in", dest="infile",
                      help="edge-list of the base network to verify")
    vsrc.add_argument("--family", choices=NAMED_FAMILIES + ("random",))
    ver.add_argument("--n", type=int, help="dimension (with --family)")
    ver.add_argument("--seed", type=int, default=0,
                     help="seed for random family and sampling (default 0)")
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


def _add_family_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--family", required=True,
                     choices=NAMED_FAMILIES + ("random",))
    cmd.add_argument("--n", type=int, required=True, help="dimension >= 1")
    cmd.add_argument("--seed", type=int, help="seed for --family random")


def _emit(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    network = generate(args.family, args.n, args.seed)
    _emit(edgelist.dumps(network.graph), args.out)
    if args.construction:
        with open(args.construction, "w", encoding="utf-8") as fh:
            json.dump(construction_record(network), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
    return 0


def _load_network(args, hl: bool):
    """(network, digest): the --in graph and the SHA-256 of the bytes it
    was parsed from, or the HL network of --family and --n and None. With
    `hl` an --in graph must pass hl_from_graph and comes back as a
    network."""
    if args.infile:
        with open(args.infile, "rb") as fh:
            data = fh.read()
        base = edgelist.loads(data.decode("utf-8"))
        digest = hashlib.sha256(data).hexdigest()
        return (hl_from_graph(base) if hl else base), digest
    if not args.family or args.n is None:
        raise ValueError("need --in or --family plus --n")
    return generate(args.family, args.n, args.seed), None


def cmd_linegraph(args) -> int:
    if args.bcdc:
        for flag, value in (("--family", args.family), ("--in", args.infile),
                            ("--seed", args.seed)):
            if value is not None:
                raise ValueError(f"{flag} does not apply to --bcdc")
        if args.n is None:
            raise ValueError("--bcdc requires --n")
        pair = bcdc(args.n)
        if args.out_original or args.out:
            if args.out_original:
                _emit(edgelist.dumps(pair.original), args.out_original)
            if args.out:
                _emit(edgelist.dumps(pair.logical.graph), args.out)
        else:
            sys.stdout.write("# original graph\n")
            sys.stdout.write(edgelist.dumps(pair.original))
            sys.stdout.write("# logical graph\n")
            sys.stdout.write(edgelist.dumps(pair.logical.graph))
        lg = pair.logical
    else:
        if args.out_original is not None:
            raise ValueError("--out-original applies only with --bcdc")
        network, _ = _load_network(args, hl=False)
        lg = line_graph(network) if args.infile else line_graph_of_hl(network)
        _emit(edgelist.dumps(lg.graph), args.out)
    if args.provenance:
        record = {
            "line_vertex_to_base_edge": [list(e) for e in lg.edge_of_vertex],
        }
        if lg.f_vertices is not None:
            record["f_vertices"] = sorted(lg.f_vertices)
        with open(args.provenance, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _verify_target(args, base: Graph, digest: Optional[str]) -> dict:
    if args.infile:
        return {"input_digest": digest, "n_vertices": base.n_vertices,
                "n_edges": len(base.edges)}
    target = {"family": args.family, "n": args.n}
    if args.family == "random":
        target["seed"] = args.seed
    return target


def _resolve_flags(args) -> None:
    """Reject --jobs < 1 and any flag the check or the sweep mode ignores,
    then fill in the defaults of the check-specific flags."""
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if args.check == "smec":
        used = ()
    elif args.check in TIGHTNESS_CHECKS:
        used = ("all_witnesses",)
    else:
        used = CAMPAIGN_FLAGS
    given = [name for name in FLAG_DEFAULTS if getattr(args, name) is not None]
    for name in given:
        if name not in used:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} does not apply to --check {args.check}")
    if "samples" in given and args.mode != "sample":
        raise ValueError("--samples applies only with --mode sample")
    if "budget" in given and args.mode == "sample":
        raise ValueError("--budget does not apply to --mode sample")
    for name, default in FLAG_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)


def _write_progress(visited: int, total: int, failures: int,
                    elapsed: float) -> None:
    rate = visited / elapsed if elapsed > 0 else 0.0
    eta = f"{(total - visited) / rate:.1f}s" if rate else "?"
    print(f"progress: {visited}/{total} sets, {rate:.0f} sets/s, "
          f"eta {eta}, {failures} failures", file=sys.stderr, flush=True)


def cmd_verify(args) -> int:
    _resolve_flags(args)
    network, digest = _load_network(args, hl=True)
    L = line_graph_of_hl(network)
    n = network.dimension
    target = _verify_target(args, network.graph, digest)

    check = args.check
    if check == "smec":
        report = run_campaign(
            L, FaultCampaign(mode="exhaustive", m=0), jobs=args.jobs,
            target=target)
        report.check_name = "smec"
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
            seed=args.seed, adversarial=args.adversarial,
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
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "linegraph":
            return cmd_linegraph(args)
        if args.command == "verify":
            return cmd_verify(args)
        raise ValueError(f"unknown command {args.command}")
    except (ValueError, BudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
