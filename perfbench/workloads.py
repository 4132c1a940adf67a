"""The benchmark's four workloads, each built from the workload seed.

A workload is a plan: the base network, the hlmenger CLI invocations that
make up one request, the verdict each must reach, and the zero-fault-set
campaign that measures set-up. The program only ever sees the generated
arguments; the seed picks the sampling stream (or, for the violating
workload, the random network itself). `smoke` shrinks every workload to a
tiny size that runs through the same code and checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from hlmenger import FaultCampaign, check_component_lemma, linegraph, \
    run_campaign, topologies

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Check:
    """One `hlmenger verify` invocation, without its --jobs flag."""

    argv: tuple[str, ...]
    # "pass": exit 0, no failures; "majority-fail": exit 1 with more than
    # half the visited sets violating; "all-fail": exit 1, failures == visited
    expect: str

    @property
    def expect_exit(self) -> int:
        return 0 if self.expect == "pass" else 1


@dataclass(frozen=True)
class Plan:
    name: str
    family: str
    n: int
    network_seed: Optional[int]
    checks: tuple[Check, ...]
    jobs: int
    # expected lambda == kappa of the line graph, checked by direct calls
    connectivity: Optional[int] = None
    # (kind, campaign, floor) of the zero-fault-set campaign run in set-up
    zero: Optional[tuple[str, FaultCampaign, int]] = None
    # reports do not depend on the seed, so their digests are always checked
    seed_independent: bool = False


def _verify(check: str, family: str, n: int, *extra: str) -> tuple[str, ...]:
    return ("verify", "--check", check, "--family", family, "--n", str(n),
            *extra)


def smec_cond_cq5(seed: int, smoke: bool) -> Plan:
    # conditional SMEC at the paper's budget 4n-10; max-flow dominates
    n = 4 if smoke else 5
    m = 4 * n - 10
    samples = 10 if smoke else 100
    argv = _verify("cond-ft-smec", "crossed", n, "--m", str(m),
                   "--mode", "sample", "--samples", str(samples),
                   "--seed", str(seed), "--adversarial")
    zero = FaultCampaign(mode="sampled", m=m, conditional=True, seed=seed)
    return Plan("smec-cond-cq5", "crossed", n, None, (Check(argv, "pass"),),
                jobs=1, zero=("smec", zero, 0))


def smec_violating_hl5(seed: int, smoke: bool) -> Plan:
    # one fault past the unconditional budget (2n-3) on a seeded random HL
    # network: most adversarial sets violate and need a witness cut
    n = 4 if smoke else 5
    m = 2 * n - 3
    argv = _verify("ft-smec", "random", n, "--seed", str(seed), "--m", str(m),
                   "--mode", "sample", "--samples", "0", "--adversarial")
    zero = FaultCampaign(mode="sampled", m=m, seed=seed)
    return Plan("smec-violating-hl5", "random", n, seed,
                (Check(argv, "majority-fail"),), jobs=1,
                zero=("smec", zero, 0))


def floor_cq6_jobs2(seed: int, smoke: bool) -> Plan:
    # Lemma 4.1 component floor under 6n-13 faults: union-find, no max-flow
    n = 4 if smoke else 6
    budget, floor = 6 * n - 13, n * (1 << (n - 1)) - 2
    samples = 50 if smoke else 2000
    argv = _verify("lemma41", "crossed", n, "--mode", "sample",
                   "--samples", str(samples), "--seed", str(seed),
                   "--adversarial")
    zero = FaultCampaign(mode="sampled", m=budget, seed=seed)
    return Plan("floor-cq6-jobs2", "crossed", n, None, (Check(argv, "pass"),),
                jobs=2, zero=("component", zero, floor))


def direct_mq7(seed: int, smoke: bool) -> Plan:
    # single-pair flows, DirectedFlow and both tightness constructions; the
    # inputs are fixed by the paper, so the seed does not change them
    n = 4 if smoke else 7
    checks = tuple(
        Check(_verify(name, "mobius1", n, "--all-witnesses"), "all-fail")
        for name in ("tight-uncond", "tight-cond"))
    return Plan("direct-mq7", "mobius1", n, None, checks, jobs=1,
                connectivity=2 * n - 2, seed_independent=True)


WORKLOADS = {
    "smec-cond-cq5": smec_cond_cq5,
    "smec-violating-hl5": smec_violating_hl5,
    "floor-cq6-jobs2": floor_cq6_jobs2,
    "direct-mq7": direct_mq7,
}


def build_line_graph(plan: Plan):
    # looked up through the modules, so a traced run sees these calls
    network = topologies.generate(plan.family, plan.n, plan.network_seed)
    return linegraph.line_graph_of_hl(network)


def setup_once(plan: Plan, jobs: int) -> None:
    """Everything a request does before its first fault set is evaluated."""
    L = build_line_graph(plan)
    if plan.zero is None:
        return
    kind, campaign, floor = plan.zero
    if kind == "smec":
        run_campaign(L, campaign, jobs=jobs)
    else:
        check_component_lemma(L, campaign.m, floor, campaign, jobs=jobs)
