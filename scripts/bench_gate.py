#!/usr/bin/env python3
"""Regression gate over BENCH_fork.json.

Compares a freshly generated BENCH_fork.json against the committed one and
fails (exit 1) if a metric present in *both* files regressed beyond its
allowed fraction, or if the fresh file breaks a cross-metric invariant.

What is gated is declared once, in two tables below:

* ``FAMILIES`` maps each row family to the fields that key a row, the
  bigger-is-worse metrics gated on it, and their unit. Every ``fork_*``
  family is *simulated*: deterministic and machine-independent (same seed
  => bit-identical numbers on any host), so the strict threshold (default
  +15%) applies and any drift is a real cost-model or walk-code change.
  Scale fields (``children``, ``requests``) are part of the key, so a
  reduced-N smoke run is never compared against the committed full-scale
  rows. A simulated baseline of 0 that becomes non-zero is a regression:
  a phase that charged nothing must not start charging unnoticed.
* The ``results`` entry holds host wall-clock best-of-samples. These
  depend on the machine that produced them; the committed baseline and a
  CI runner are different hardware, and even same-host runs swing by
  double-digit percentages. The host threshold (default +200%) is a
  catastrophic-regression backstop only, e.g. an accidental
  O(n) -> O(n^2), not micro-drift.
* ``RATIOS`` lists the cross-metric invariants, checked inside the fresh
  file alone: within each group of rows, numerator / denominator must
  stay within the limit.

Metrics present in only one file (added or retired benches) are reported
but never fail the gate.

Usage:
    bench_gate.py COMMITTED_JSON FRESH_JSON [--max-regress 0.15]
                  [--max-regress-host 2.0]
"""

import argparse
import json
import sys

# family -> (key fields, gated metrics, unit). ``results`` is the host entry.
FAMILIES = {
    "fork_scaling": (("heap", "mode"), ("sim_fork_ns",), "ns"),
    "fork_phases": (("mode", "phase"), ("sim_total_ns",), "ns"),
    "fork_admission": (("policy",), ("sim_fork_ns",), "ns"),
    "fork_storm": (("mode", "children"), ("sim_p99_ns", "sim_ns_per_fork"), "ns"),
    "fork_pressure": (
        ("occupancy", "daemon", "children"),
        ("sim_p50_ns", "sim_p99_ns"),
        "ns",
    ),
    "fork_pipeline": (("heap", "mode"), ("sim_commit_ns", "sim_copy_done_ns"), "ns"),
    "fork_snapshot_train": (
        ("system", "scope", "walk", "snapshot"),
        ("sim_fork_ns", "sim_copy_done_ns"),
        "ns",
    ),
    "fork_zygote": (("variant",), ("frames_fleet",), "frames"),
    "fork_ring": (("mode", "setup"), ("sim_fork_ns",), "ns"),
    "fork_ring_service": (("mode", "requests"), ("sim_final_ns",), "ns"),
    "results": (("name",), ("best_ns",), "ns"),
}
HOST = "results"

# (family, what, group fields, numerator (match, metric), denominator
# (match, metric), limit, strict, row filter). A group is skipped when it
# lacks a denominator; a non-strict ratio also skips a denominator <= 0.
RATIOS = [
    # The pipelined fork commits within 1.5x the CoPA fork on every heap.
    ("fork_pipeline", "pipelined commit vs CoPA", ("heap",),
     ({"mode": "pipelined"}, "sim_commit_ns"), ({"mode": "copa"}, "sim_commit_ns"),
     1.5, False, lambda r: True),
    # The pipelined storm's fork p99 strictly beats the widest parallel walk.
    ("fork_storm", "full_pipelined p99 vs full_par8", ("children",),
     ({"mode": "full_pipelined"}, "sim_p99_ns"), ({"mode": "full_par8"}, "sim_p99_ns"),
     1.0, True, lambda r: True),
    # Every steady-state DirtySince fork finishes its copy within 0.25x the
    # Everything-scope fork at 5% writes, serial and pipelined (the multi-AS
    # baseline, walk "-", has no dirty scope).
    ("fork_snapshot_train", "dirty copy-done vs everything", ("walk", "snapshot"),
     ({"scope": "dirty"}, "sim_copy_done_ns"),
     ({"scope": "everything"}, "sim_copy_done_ns"),
     0.25, False, lambda r: r["walk"] != "-" and r["snapshot"] >= 2),
    # With cross-child dedup or dirty tracking, the warm zygote fleet holds
    # within 1.2x a single child's resident frames.
    ("fork_zygote", "fleet frames vs one child", ("variant",),
     ({}, "frames_fleet"), ({}, "frames_one_child"),
     1.2, False, lambda r: r["variant"].startswith(("dedup/", "dirty/"))),
    # With the reclaim daemon on, the churning storm's fork p99 across the
    # high watermark stays within 1.25x the low-occupancy p99 at that scale.
    ("fork_pressure", "high-watermark p99 vs low", ("children",),
     ({"occupancy": "high", "daemon": True}, "sim_p99_ns"),
     ({"occupancy": "low", "daemon": True}, "sim_p99_ns"),
     1.25, False, lambda r: True),
    # A fork carrying live sealed ring endpoints stays within 1.2x the
    # pipe-only fork in every mode.
    ("fork_ring", "ring fork vs pipe-only", ("mode",),
     ({"setup": "rings"}, "sim_fork_ns"), ({"setup": "pipes"}, "sim_fork_ns"),
     1.2, False, lambda r: True),
]


def text(v):
    return str(v).lower() if isinstance(v, bool) else str(v)


def metrics(doc, family):
    keys, gated, _ = FAMILIES[family]
    return {
        tuple(text(r[k]) for k in keys) + (m,): float(r[m])
        for r in doc.get(family, [])
        for m in gated
    }


def compare(family, old, new, limit):
    """Returns the failure strings for one family."""
    unit = FAMILIES[family][2]
    failures = []
    for key in sorted(old.keys() | new.keys()):
        label = f"{family} {'/'.join(key)}"
        if key not in old or key not in new:
            tag, side = ("new", new) if key in new else ("gone", old)
            print(f"  [{tag}] {label}: {side[key]:.0f} {unit} (one side only)")
            continue
        before, after = old[key], new[key]
        if before > 0:
            ratio = after / before
        else:
            ratio = float("inf") if after > 0 else 1.0
        regressed = ratio > 1.0 + limit
        change = f"{before:.0f} -> {after:.0f} {unit} ({(ratio - 1.0) * 100:+.1f}%)"
        print(f"  [{'REGRESSED' if regressed else 'ok':>4}] {label}: {change}")
        if regressed:
            failures.append(f"{label}: {change}, limit +{limit * 100:.0f}%")
    return failures


def check_ratio(doc, family, what, group, num, den, limit, strict, where):
    """Returns the failure strings for one cross-metric invariant."""
    rows = [r for r in doc.get(family, []) if where(r)]

    def side(match, metric):
        return {
            tuple(text(r[g]) for g in group): float(r[metric])
            for r in rows
            if all(r[k] == v for k, v in match.items())
        }

    dens = side(*den)
    failures = []
    for g, n in sorted(side(*num).items()):
        d = dens.get(g)
        if d is None or (d <= 0 and not strict):
            continue
        ok = n < d if strict else n / d <= limit
        rel = f"{n / d:.3f}x" if d > 0 else "inf"
        bound = "must be < 1x" if strict else f"limit {limit}x"
        line = f"cross {family} {'/'.join(g)}: {what} {n:.0f} / {d:.0f} = {rel} ({bound})"
        print(f"  [{'ok' if ok else 'FAIL':>4}] {line}")
        if not ok:
            failures.append(line)
    return failures


def gate(old_doc, new_doc, max_regress, max_regress_host):
    """Returns every failure string of the fresh file against the baseline."""
    failures = []
    for family in FAMILIES:
        limit = max_regress_host if family == HOST else max_regress
        failures += compare(family, metrics(old_doc, family), metrics(new_doc, family), limit)
    for ratio in RATIOS:
        failures += check_ratio(new_doc, *ratio)
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("committed", help="baseline BENCH_fork.json (from the repo)")
    ap.add_argument("fresh", help="freshly generated BENCH_fork.json")
    ap.add_argument(
        "--max-regress",
        type=float,
        default=0.15,
        help="max fractional regression for deterministic simulated metrics "
        "(default 0.15 = +15%%)",
    )
    ap.add_argument(
        "--max-regress-host",
        type=float,
        default=2.0,
        help="max fractional regression for host wall-clock metrics "
        "(default 2.0 = +200%%; backstop against catastrophic blowups, "
        "host numbers are not comparable across machines at fine grain)",
    )
    args = ap.parse_args()

    with open(args.committed) as f_old, open(args.fresh) as f_new:
        old_doc, new_doc = json.load(f_old), json.load(f_new)
    failures = gate(old_doc, new_doc, args.max_regress, args.max_regress_host)
    if failures:
        print(f"\n{len(failures)} metric(s) regressed beyond the gate:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nbench gate: no shared metric regressed beyond its threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
