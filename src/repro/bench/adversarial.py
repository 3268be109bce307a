"""Adversarial perf profiles: attack degradation and defense recovery.

For every attack in :mod:`repro.ycsb.adversarial` this bench runs three
deterministic experiments on identically-built eLSM-P2 stores:

* **honest** — the honest Zipfian client alone (workload A), the
  baseline goodput;
* **undefended** — the same honest stream interleaved with the attack
  (``ATTACK_RATIO`` attacker ops per honest op) on a store with
  defenses off: unkeyed Bloom filters, no admission control;
* **defended** — the same mixed stream with the defense stack armed:
  salted filters plus per-client token-bucket admission with
  proof-work surcharges.

The headline numbers are the honest client's *goodput* (completed,
non-shed honest ops per simulated second) in each experiment, the
undefended degradation, and how much of the lost goodput the defenses
recover.  Everything runs on the simulated clock, so the profiles in
``BENCH_perf.json`` are exactly reproducible and CI can regress against
them (the ``adversarial-smoke`` job).

Shed clients back off: a shed operation charges a small rejection cost
and the client waits out (a bounded slice of) ``retry_after_us`` before
its next attempt, which is what lets an ``overloaded`` store refill its
budget and recover to ``ok`` mid-run.
"""

from __future__ import annotations

from repro.core.admission import AdmissionShedError
from repro.ycsb.adversarial import (
    ATTACK_FILTER_SATURATION,
    ATTACK_HOT_KEY_FLOOD,
    ATTACKS,
    make_adversary,
)
from repro.ycsb.runner import issue, load_phase
from repro.ycsb.workload import WORKLOAD_A, CoreWorkload

#: Attacker operations issued per honest operation in the mixed runs.
ATTACK_RATIO = 4
#: The attack must cost the honest client at least this much goodput
#: with defenses off — otherwise it is not much of an attack.
MIN_DEGRADATION_PCT = 15.0
#: The defense stack must win back at least this share of the goodput
#: the undefended attack destroyed.
MIN_RECOVERY_PCT = 50.0
#: Defended filter-saturation FP rate may exceed the honest run's FP
#: rate by at most this factor (with a small absolute floor for
#: honest runs that saw no false positive at all).
MAX_FP_BLOWUP = 2.0
FP_RATE_FLOOR = 0.01
#: Simulated time a *polite* shed client waits before retrying, at most.
MAX_BACKOFF_US = 500.0
#: Simulated cost of producing a rejection at the ECall boundary — a
#: budget check and an error return, far below any admitted operation.
SHED_COST_US = 0.2

PROFILES = {
    "default": {"records": 2000, "honest_ops": 600},
    "quick": {"records": 800, "honest_ops": 200},
}

#: Admission knobs for the defended runs.  The per-client rate sits
#: above the honest client's natural token demand (~1.5 tokens/op:
#: one per request plus proof-work surcharges), so the honest stream
#: passes untouched, while the attacker's flood — amplified by
#: negative-lookup and proof-work surcharges — exhausts its bucket.
#: The global budget is below the two clients' combined ceiling, so a
#: sustained flood drives the store into ``overloaded``.
ADMISSION = {
    "rate_per_s": 80_000.0,
    "burst": 48.0,
    "global_rate_per_s": 150_000.0,
    "global_burst": 96.0,
    "proof_bytes_per_token": 512,
    #: Small hysteresis so an overload window clears after one short
    #: polite backoff rather than stalling honest clients for long.
    "recover_tokens": 16.0,
    #: Structural (tombstone) budget: deletes are nearly free to issue
    #: but pure compaction debt downstream, so per-client they also pay
    #: from this much slower bucket.  Honest mixes delete rarely; a
    #: sweep is rate-limited regardless of how cheap each delete looks.
    "structural_rate_per_s": 500.0,
    "structural_burst": 4.0,
}


def _build_store(records: int, defended: bool):
    from repro.core.store_p2 import ELSMP2Store

    store = ELSMP2Store(salted_bloom=defended)
    return store


class _Client:
    """One request stream with shed accounting.

    A *polite* client (the honest one) honours a bounded slice of the
    advertised ``retry_after_us`` when shed — simulated idle time in
    which buckets refill, which is what lets an ``overloaded`` store
    recover mid-run.  The attacker is impolite: it eats the rejection
    cost and keeps hammering.
    """

    def __init__(self, name: str, store, workload, polite: bool = True) -> None:
        self.name = name
        self.store = store
        self.workload = workload
        self.polite = polite
        self.done = 0
        self.shed = 0
        self._version = 1
        #: Distributed attacks rotate through sybil identities, so each
        #: request looks like a different (per-bucket) client and only
        #: the global budget sees the flood's aggregate.
        self._sybils = getattr(workload, "sybils", 1)
        self._steps = 0

    def step(self) -> None:
        if self._sybils > 1:
            self.store.set_client(f"{self.name}-{self._steps % self._sybils}")
        else:
            self.store.set_client(self.name)
        self._steps += 1
        op = self.workload.next_op()
        try:
            self._version = issue(self.store, self.workload, op, self._version)
            self.done += 1
        except AdmissionShedError as exc:
            self.shed += 1
            self.store.clock.charge("admission.shed", SHED_COST_US)
            if self.polite:
                self.store.clock.charge(
                    "admission.backoff",
                    min(exc.retry_after_us, MAX_BACKOFF_US),
                )


def _mixed_run(store, honest, attacker, honest_ops: int) -> dict:
    """Interleave the two streams; measure the honest client's goodput.

    ``attacker`` may be None (the honest baseline).  The attacker gets
    ``ATTACK_RATIO`` operations per honest operation; its workload's
    ``burst_size`` shapes how that quota arrives — a steady drip, or
    concentrated volleys that slam the admission queue all at once.
    """
    clock = store.clock
    start = clock.now_us
    burst_size = getattr(getattr(attacker, "workload", None), "burst_size", 1)
    quota = 0
    for _ in range(honest_ops):
        if attacker is not None:
            quota += ATTACK_RATIO
            if quota >= burst_size:
                for _ in range(quota):
                    attacker.step()
                quota = 0
        honest.step()
    duration_us = clock.now_us - start
    goodput = honest.done / (duration_us / 1e6) / 1e3 if duration_us else 0.0
    return {
        "duration_us": round(duration_us, 1),
        "honest_done": honest.done,
        "honest_shed": honest.shed,
        "attacker_done": attacker.done if attacker else 0,
        "attacker_shed": attacker.shed if attacker else 0,
        "honest_goodput_kops": round(goodput, 3),
    }


def _fp_rate(store, before: dict) -> float:
    """Bloom false-positive rate over the window since ``before``."""
    snap = store.telemetry.metrics.snapshot()

    def _value(name: str) -> float:
        series = snap.get(name, {}).get("series", [])
        now = sum(s.get("value", 0.0) for s in series)
        series = before.get(name, {}).get("series", [])
        return now - sum(s.get("value", 0.0) for s in series)

    checks = _value("lsm.bloom.checks")
    if checks <= 0:
        return 0.0
    return _value("lsm.bloom.false_positives") / checks


def _overload_counts(store) -> dict[str, float]:
    snap = store.telemetry.metrics.snapshot()
    series = snap.get("lsm.overload.transitions", {}).get("series", [])
    return {
        entry["labels"].get("state", "?"): entry.get("value", 0.0)
        for entry in series
    }


def _experiment(
    attack: str, records: int, honest_ops: int, mode: str
) -> dict:
    """One (attack, mode) run; mode is honest / undefended / defended."""
    defended = mode == "defended"
    store = _build_store(records, defended)
    load_phase(store, CoreWorkload(WORKLOAD_A, records, seed=1))

    attacker = None
    mining: dict = {}
    if mode != "honest":
        adversary = make_adversary(attack, records, seed=13)
        mining = adversary.prepare(store)
        attacker = _Client("attacker", store, adversary, polite=False)
    if defended:
        # Armed only after the bulk load: admission guards foreign
        # clients at the ECall boundary, not the operator's own load.
        store.enable_admission(
            ADMISSION["rate_per_s"],
            burst=ADMISSION["burst"],
            global_rate_per_s=ADMISSION["global_rate_per_s"],
            global_burst=ADMISSION["global_burst"],
            proof_bytes_per_token=ADMISSION["proof_bytes_per_token"],
            recover_tokens=ADMISSION["recover_tokens"],
            structural_rate_per_s=ADMISSION["structural_rate_per_s"],
            structural_burst=ADMISSION["structural_burst"],
        )

    before = store.telemetry.metrics.snapshot()
    honest = _Client("honest", store, CoreWorkload(WORKLOAD_A, records, seed=7))
    run = _mixed_run(store, honest, attacker, honest_ops)
    run["fp_rate"] = round(_fp_rate(store, before), 4)
    run["mode"] = mode
    if mining:
        run["mining"] = mining

    if defended:
        # The flood stops; a short honest-only tail must bring an
        # overloaded store back to ok (recoverable, unlike degraded).
        tail = _Client("honest", store, CoreWorkload(WORKLOAD_A, records, seed=9))
        _mixed_run(store, tail, None, max(20, honest_ops // 10))
        transitions = _overload_counts(store)
        run["overload_entered"] = int(transitions.get("entered", 0))
        run["overload_recovered"] = int(transitions.get("recovered", 0))
        run["final_health"] = store.health()["status"]
    return run


def run_attack_profile(
    attack: str, quick: bool = False, profile_params: dict | None = None
) -> dict:
    """The three experiments for one attack, as one baseline profile row."""
    if attack not in ATTACKS:
        raise ValueError(f"unknown attack {attack!r}")
    params = profile_params or PROFILES["quick" if quick else "default"]
    records, honest_ops = params["records"], params["honest_ops"]

    honest = _experiment(attack, records, honest_ops, "honest")
    undefended = _experiment(attack, records, honest_ops, "undefended")
    defended = _experiment(attack, records, honest_ops, "defended")

    honest_kops = honest["honest_goodput_kops"]
    undefended_kops = undefended["honest_goodput_kops"]
    defended_kops = defended["honest_goodput_kops"]
    lost = honest_kops - undefended_kops
    degradation_pct = 100.0 * lost / honest_kops if honest_kops else 0.0
    recovery_pct = (
        100.0 * (defended_kops - undefended_kops) / lost if lost > 0 else 0.0
    )
    return {
        "profile": f"adv-{attack}",
        "attack": attack,
        "quick": quick,
        "records": records,
        "honest_ops": honest_ops,
        "attack_ratio": ATTACK_RATIO,
        "honest_kops": honest_kops,
        "undefended_kops": undefended_kops,
        "defended_kops": defended_kops,
        "degradation_pct": round(degradation_pct, 1),
        "recovery_pct": round(recovery_pct, 1),
        "honest_fp_rate": honest["fp_rate"],
        "undefended_fp_rate": undefended["fp_rate"],
        "defended_fp_rate": defended["fp_rate"],
        "defended_us": defended["duration_us"],
        "runs": {
            "honest": honest,
            "undefended": undefended,
            "defended": defended,
        },
    }


def run_adversarial_suite(
    quick: bool = False, attacks: tuple[str, ...] = ATTACKS
) -> list[dict]:
    """One profile row per attack."""
    return [run_attack_profile(attack, quick=quick) for attack in attacks]


def acceptance_problems(result: dict) -> list[str]:
    """Violations of one attack profile's standing acceptance bars."""
    attack = result["attack"]
    problems = []
    if result["degradation_pct"] < MIN_DEGRADATION_PCT:
        problems.append(
            f"{attack}: undefended degradation {result['degradation_pct']}% "
            f"is below the {MIN_DEGRADATION_PCT}% bar — the attack does "
            f"not bite"
        )
    if result["recovery_pct"] < MIN_RECOVERY_PCT:
        problems.append(
            f"{attack}: defenses recover only {result['recovery_pct']}% of "
            f"lost goodput (bar: {MIN_RECOVERY_PCT}%)"
        )
    if attack == ATTACK_FILTER_SATURATION:
        allowed = max(MAX_FP_BLOWUP * result["honest_fp_rate"], FP_RATE_FLOOR)
        if result["defended_fp_rate"] > allowed:
            problems.append(
                f"{attack}: defended FP rate {result['defended_fp_rate']} "
                f"exceeds {allowed:.4f} ({MAX_FP_BLOWUP}x honest)"
            )
    if attack == ATTACK_HOT_KEY_FLOOD:
        defended = result["runs"]["defended"]
        if not defended.get("overload_entered"):
            problems.append(
                f"{attack}: the flood never pushed the store into "
                f"overloaded"
            )
        if defended.get("final_health") != "ok":
            problems.append(
                f"{attack}: store did not recover to ok after the flood "
                f"(final health {defended.get('final_health')!r})"
            )
    return problems


def format_result(result: dict) -> str:
    """Human-readable summary of one attack profile."""
    lines = [
        f"attack {result['attack']}: {result['records']} records, "
        f"{result['honest_ops']} honest ops, "
        f"{result['attack_ratio']}x flood",
        f"  honest goodput:     {result['honest_kops']:>8.3f} kops  "
        f"(fp rate {result['honest_fp_rate']:.4f})",
        f"  undefended:         {result['undefended_kops']:>8.3f} kops  "
        f"(fp rate {result['undefended_fp_rate']:.4f}, "
        f"-{result['degradation_pct']}%)",
        f"  defended:           {result['defended_kops']:>8.3f} kops  "
        f"(fp rate {result['defended_fp_rate']:.4f}, "
        f"recovered {result['recovery_pct']}%)",
    ]
    defended = result["runs"]["defended"]
    if "overload_entered" in defended:
        lines.append(
            f"  overload: entered {defended['overload_entered']}x, "
            f"recovered {defended['overload_recovered']}x, "
            f"final health {defended['final_health']}"
        )
    shed = defended.get("attacker_shed", 0)
    total = shed + defended.get("attacker_done", 0)
    if total:
        lines.append(
            f"  attacker ops shed: {shed}/{total} "
            f"({100.0 * shed / total:.1f}%)"
        )
    return "\n".join(lines)
