#!/usr/bin/env bash
# Tier-1 verification, offline-safe: build, tests, formatting, lints.
# No network access is required (the workspace has zero external
# dependencies); CARGO_NET_OFFLINE makes any accidental regression to
# a registry dependency fail fast instead of hanging.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo build --release
cargo test -q
cargo fmt --all -- --check
cargo clippy --all-targets -- -D warnings

# Audit-enabled pass: every engine in the runtime test surface runs
# with the invariant auditor checkpointing (conservation, ledger,
# rollback, delivery, liveness) — the suites must stay green with the
# checks on.
RASC_AUDIT=1 cargo test -q -p rasc-core -p workload

# Event-queue equivalence: the slab-backed heap must match a linear-scan
# reference queue step by step (pops in exact (time, seq) order, cancel
# verdicts including stale handles whose slot was reused, peeks, and all
# five counters) across seeded randomized schedules, and the ABA and
# cancel/reschedule-storm cases must drain to zero. Part of the
# workspace suite, but named here so a queue change can never slip past
# verification.
cargo test -q -p desim --test queue_equivalence --test cancel_liveness

# Warm-basis repair equivalence: randomized arc-deletion / capacity-cut /
# cost-bump / node-removal events repaired on the retained simplex basis
# must match a cold network-simplex solve bit-for-bit in value and cost,
# and present a dual-feasible certificate. Named for the same reason as
# the queue suite: a simplex or repair-ladder change must never slip
# past verification.
cargo test -q -p mincostflow --test basis_equivalence

# Incremental repair equivalence: repaired flows must match a cold
# re-solve of the damaged network in cost after random deletions, rate
# bumps, rate drops and mixed sequences, and a shortfall must coincide
# with the cold solve being infeasible. The same file holds the
# retained-copy check: the composer keeps only `clone_arcs()` +
# `clone_for_repair()` of each solved substream, and repairing such a
# slim copy through rounds of deletions must report the same outcome
# (tier included) and leave the same flows and network state as
# repairing a full clone, on the Dial and network-simplex solvers.
# Named so a change to what a retained solve keeps can never slip past
# verification.
cargo test -q -p mincostflow --test repair_equivalence

# Thousand-node admission equivalences: (a) the capacity-bucket index
# must enumerate exactly the linear reference's candidate sets across
# topology families, mutation histories, and mid-transaction rollback
# points; (b) batch admission must be digest-equal between one worker
# and many, including under injected host-capacity conflicts, and
# replay losers must leave the ledger bit-equal to base + admitted
# reservations with the capacity index coherent. Named so an index or
# reconcile change can never slip past verification.
cargo test -q -p rasc-core --test view_index_equivalence --test batch_determinism

# Overlay membership equivalence: build, join, remove, owner_of and the
# replica-group walk touch only the state a membership change can
# affect; the suite keeps the quadratic from-scratch construction as a
# test-only oracle and asserts every routing-table slot and both
# leaf-set sides equal after each of hundreds of seeded operations,
# under a tie-heavy asymmetric proximity metric. The oracle evaluates
# proximity on every offer, so it also guards build's per-node
# proximity row (filled for the node being built, read at the
# candidate). Named so a change to offer order, the proximity row, slot
# eviction or a ring walk can never slip past verification.
cargo test -q -p overlay --test membership_equivalence

# Monitor window equivalence: the throughput meter, which keeps one
# entry per distinct instant and sums same-instant records into it,
# must read the same rate and lifetime total as a naive sum over every
# record in the half-open window, at reads interleaved between records,
# over seeded schedules where most records share an instant and some
# carry zero bits; it must hold exactly one entry per such instant. The
# outcome window, rate estimator and Welford accumulator are checked
# against recounts in the same file. Named so a change to coalescing or
# eviction can never slip past verification.
cargo test -q -p monitor --test randomized_windows

# CPU admission: with cpu_cores set, composition must respect the CPU
# dimension (reject, split, release on teardown), and the CPU meter the
# engine builds only in that case must still hold admission after a
# CPU-heavy app departs until its 4 s window drains. Named so gating or
# removing the CPU meter can never slip past verification.
cargo test -q -p rasc-core --test cpu_constraint

# Microbenchmark smoke run: small fixed-seed iterations; exercises the
# compose/solver hot paths, the data plane, and the batch-admission
# pipeline (including the steady-state allocation asserts) without
# touching the committed BENCH_compose.json. The smoke numbers are then
# diffed against the committed ones, direction keyed off each line's
# unit token: a ns/op hot-path benchmark (compose*/solver*/adapt*, and
# the overlay/ membership operations) more than 2x slower, a units/s
# dataplane/* or admission/* rate at less than
# half the committed throughput (for admission/apps_per_sec entries that
# inverted direction is the ISSUE's >2x tripwire), or an x-unit
# adapt/basis_* speedup ratio at less than half the committed one
# (ratios are bigger-is-better, so the comparison is inverted like
# units/s), prints a WARNING — quick-mode runs are noisy and machines
# differ, so this is a tripwire for accidental regressions, not a gate.
# Two further WARNINGs keep the exact-count rows honest: a
# dataplane/units_per_sec, events_per_unit or meter_entries row, an
# admission/allocs_per_submit or adapt/retained_bytes_per_app row, or
# an overlay/proximity_evals row, with no committed counterpart (a
# renamed row would otherwise go unchecked), and an events/unit,
# meter-entry, allocs-per-submit, retained-bytes or proximity-eval
# count that differs from the committed one at all (those counts are
# exact, so any change is a change in event structure, in the
# monitoring state, in what a serial submit allocates, in what a
# retained solve keeps, or in how often overlay construction calls the
# proximity metric).
#
# Parallel-scaling entries are excluded on serial machines: a committed
# entry annotated "ap1" was itself measured on a 1-core box (pool
# overhead, not scaling), and when the *current* box has one CPU, every
# pooled/parallel entry measures overhead too — comparing either against
# a multicore reference would warn about the hardware, not the code.
# Entries now carry an explicit per-measurement "threads" field (the
# effective desim::pool worker count), so the skip derives from the
# JSON itself; the name regex stays as a fallback for older committed
# files without the field.
BENCH_OUT=$(mktemp)
cargo run --release -q --bin repro -- bench --quick | tee "$BENCH_OUT"
CORES=$(nproc 2>/dev/null || echo 1)
if [ -f BENCH_compose.json ]; then
  awk -v cores="$CORES" '
    FNR == NR {
      if ($0 ~ /"name"/) {
        split($0, q, "\"")          # q[4] = name, q[8] = unit
        v = $0
        sub(/.*"value": /, "", v)
        sub(/,.*/, "", v)
        base[q[4]] = v + 0
        unit[q[4]] = q[8]
        if ($0 ~ /"note": "ap1"/) ap1[q[4]] = 1
        if ($0 ~ /"threads": /) {
          t = $0
          sub(/.*"threads": /, "", t)
          sub(/[,}].*/, "", t)
          thr[q[4]] = t + 0
        }
      }
      next
    }
    function scaling_skip(name) {
      # Skip parallel-scaling comparisons when either side of the diff
      # ran on a 1-core box. The committed "threads" field is the
      # authoritative signal; the name regex is the legacy fallback.
      if (ap1[name]) return 1
      if (cores + 0 <= 1 && thr[name] + 0 > 1) return 1
      if (cores + 0 <= 1 && name ~ /(pooled|parallel)/) return 1
      return 0
    }
    $3 == "ns/op" && $1 ~ /^(compose|solver|adapt|overlay\/)/ && !scaling_skip($1) {
      if (unit[$1] == "ns/op" && base[$1] > 0 && $2 > 2 * base[$1])
        printf "verify: WARNING %s regressed %.1fx vs committed (%.0f -> %.0f ns/op)\n", \
            $1, $2 / base[$1], base[$1], $2
    }
    $3 == "units/s" && $1 ~ /^(dataplane|admission)\// && !scaling_skip($1) {
      if (unit[$1] == "units/s" && base[$1] > 0 && $2 < base[$1] / 2)
        printf "verify: WARNING %s slowed to %.2fx of committed (%.0f -> %.0f units/s)\n", \
            $1, $2 / base[$1], base[$1], $2
    }
    ($1 ~ /^dataplane\/(units_per_sec|events_per_unit|meter_entries)\// ||
     $1 ~ /^(admission\/allocs_per_submit|adapt\/retained_bytes_per_app|overlay\/proximity_evals)\//) && !($1 in base) {
      printf "verify: WARNING %s has no committed row to compare with\n", $1
    }
    ($3 == "events/unit" || $3 == "entries" || $3 == "allocs" || $3 == "bytes" || $3 == "evals") && ($1 in base) && $2 + 0 != base[$1] {
      printf "verify: WARNING %s moved from committed %.2f to %.2f (an exact count)\n", \
          $1, base[$1], $2
    }
    # (admission/select_sublinearity is deliberately not diffed: a
    # ratio of two 3-sample quick-mode timings is too noisy to compare
    # against the committed full-run value without false positives.)
    $3 == "x" && $1 ~ /^adapt\/basis_/ && !scaling_skip($1) {
      if (unit[$1] == "x" && base[$1] > 0 && $2 < base[$1] / 2)
        printf "verify: WARNING %s speedup fell to %.2fx of committed (%.1fx -> %.1fx)\n", \
            $1, $2 / base[$1], base[$1], $2
    }
  ' BENCH_compose.json "$BENCH_OUT"
fi
rm -f "$BENCH_OUT"

# Audited fault-injection soak: 120 seeded runs across fault profiles,
# composers, and transfer batch sizes (per-unit and batch-8); exits
# non-zero on any invariant violation or a serial-vs-parallel digest
# mismatch. RASC_AUDIT=1 is redundant belt-and-braces (the soak forces
# auditing on) but keeps the env-driven default covered too. Takes well
# under 30 s.
RASC_AUDIT=1 cargo run --release -q --bin repro -- chaos --quick

echo "verify: all checks passed"
