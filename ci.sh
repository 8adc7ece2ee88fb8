#!/usr/bin/env bash
# Tier-1 gate: everything must be formatted, build cleanly, every test
# must pass, clippy must be silent under -D warnings, and the run must
# leave every tracked file as committed. Run before every merge.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo build --workspace --examples (examples must compile)"
cargo build --workspace --examples

echo "==> mcheck: the smoke gate (every mutant caught, real protocols clean, fixed seeds) and the crate's unit suites (release)"
# All of the crate, not only the `mutants` gate: the scenarios' own
# suites (real protocols over random walks, with and without the
# repair race) run nowhere else.
cargo test --release -q -p mayflower-mcheck

# Opt-in long fuzz: MCHECK_BUDGET=5000 [MCHECK_SEED=7] ./ci.sh explores
# that many random-walk schedules of every scenario on top of the gate.
if [[ -n "${MCHECK_BUDGET:-}" ]]; then
  echo "==> mcheck long fuzz (budget ${MCHECK_BUDGET}, seed ${MCHECK_SEED:-1})"
  for sc in ns data data-strong data-repair freeze shard; do
    cargo run --release -q -p mayflower-mcheck --bin mcheck -- \
      --scenario "$sc" --strategy random-walk \
      --seed "${MCHECK_SEED:-1}" --budget "${MCHECK_BUDGET}"
  done
fi

echo "==> recovery chaos experiment (release)"
cargo test --release -q -p mayflower-sim --test recovery_chaos

echo "==> erasure-coding tier: codec + checksum-kernel proptests, replication-vs-EC experiment (release)"
cargo test --release -q -p mayflower-ec
# The CRC kernel against its bitwise oracle as it is built for
# production, not only with debug assertions.
cargo test --release -q -p mayflower-kvstore crc
cargo test --release -q -p mayflower-sim --test erasure_tier

echo "==> sharded metadata plane: ring proptests, shard-map decode sweep, conformance walk of routers over 1 and 4 shards against the plain nameserver, scaling experiment (release)"
# The conformance walk replays one script, refusals included, against
# every metadata plane and compares verdict by verdict: it is what
# holds a cross-shard rename to one nameserver's order of checks.
cargo test --release -q -p mayflower-shard
cargo test --release -q -p mayflower-sim --test metadata_scaling

echo "==> data-plane pipeline: stress tests, replica-table recovery equivalence, single-threaded fs suite, pool and client tests pinned to one CPU (release)"
# The fs suite runs multi-threaded under the workspace `cargo test -q`
# above; rerunning it pinned to one test thread shakes out any hidden
# reliance on test-level parallelism masking worker-pool races.
cargo test --release -q -p mayflower-fs --test datapath_stress
# The dataserver's load rule (size derived from the chunk files) and its
# publish-after-write ordering as they are built for production: the
# arithmetic must hold without debug assertions.
cargo test --release -q -p mayflower-fs --test replica_table
RUST_TEST_THREADS=1 cargo test --release -q -p mayflower-fs
# The benchmark confines itself to one CPU, and that is where a fan-out's
# caller, itself one of the pool's workers, runs most jobs before its
# helpers are scheduled. The pool serves reads only (split pieces and
# coded fragments); an append relays serially on the caller's thread. Run
# the pool's unit tests, the stress tests and the client's append tests
# (the relay's prefix walk through crashes, a failed relay that must not
# skip later replicas, an append that must spawn nothing) pinned the
# same way.
if ! command -v taskset >/dev/null 2>&1; then
  echo "ci.sh: taskset (util-linux) is missing; the data-plane stage pins the pool tests to one CPU with it" >&2
  exit 1
fi
taskset -c 0 cargo test --release -q -p mayflower-fs --test datapath_stress
taskset -c 0 cargo test --release -q -p mayflower-fs --lib datapath
taskset -c 0 cargo test --release -q -p mayflower-fs --lib client::

echo "==> vendored serde and serde_json: their own suites, the JSON parser against its per-character oracle"
# vendor/ is outside the workspace, so no stage above reaches these.
# The string-decode sweep runs in a debug build, where an overflow in
# escape arithmetic panics instead of wrapping. Each crate builds under
# target/ from its committed path-only Cargo.lock (`--locked`), so the
# stage writes no file the last one would see.
for crate in serde serde_json; do
  cargo test -q --offline --locked --manifest-path "vendor/$crate/Cargo.toml" --target-dir target/vendor
done

echo "==> rpc envelope + framing: decoder bounds, reply-id check, poisoned connections (release)"
# The id check and the envelope decoder's bounds arithmetic must hold
# without debug assertions: a release build is what serves real peers.
cargo test --release -q -p mayflower-rpc

echo "==> causal tracing: telemetry suite + trace determinism/well-formedness + mayfs trace (release)"
cargo test --release -q -p mayflower-telemetry
cargo test --release -q --test trace_determinism
# The built CLI on an init'd cluster: a traced read prints its critical
# path down to the chunk read; a failed one prints its capture, the
# failed root marked, and exits non-zero.
cargo test --release -q --test mayfs_trace

echo "==> simulated fabric: driver, engine and experiment unit suites, engine chaos, figures CLI, net and simnet vs their oracles (release)"
# No flow, cookie or Flowserver model entry outlives a run (fault-free or
# through the abort path), the consistency and write-placement runs poll
# for real, each timeline arm equals a bare FluidNet drain, a mistyped
# `figures` invocation is a usage error the next stage can trust, and the
# fabric's counted work on the seed-311 1024-host replay (refreshes,
# flows re-solved, links indexed and sorted, rounds, links scanned) is
# exactly what `fabric_work.rs` pins.
cargo test --release -q -p mayflower-sim --lib --test engine_chaos --test figures_cli --test fabric_work
# simnet's own suite (the root `cargo test -q` covers the root package
# only): rates — over shortest paths and over arbitrary link sequences
# with repeats, which the solver's member lists must index as given —
# and FluidNet state walks equal the full-rescan oracle to the bit in
# the build that is measured, and add_flow's "advance_to() first" guard
# holds without debug assertions.
cargo test --release -q -p mayflower-simnet
# net's own suite: `shortest_paths` and `distance` equal the full-fabric
# BFS kept as `topology::oracle`, the search stops at the destination's
# level, and the waterfill kernels equal their quadratic oracle.
cargo test --release -q -p mayflower-net

echo "==> member suites no stage above runs: selection vs its oracles, the stats poll, sdn, baselines, workload, simcore, recovery, kvstore, and the empty consensus crate (release)"
# The root `cargo test -q` covers the root package only. After touching
# selection or the stats poll, the flowserver suite is the first thing
# to run: its differential walk holds every `select_*` entry point,
# split and coded reads included, to the naive loops and the
# tentative-admission oracle — selections, estimates and model state to
# the bit — and after every event holds the link index to a rescan of
# the flows; its poll tests (`server.rs`) hold `poll_stats` to the
# counter-differencing rules and, over a seeded walk on a three-tier
# tree and a fat-tree, to reporting each tracked flow exactly once.
cargo test --release -q -p mayflower-flowserver
cargo test --release -q -p mayflower-sdn
cargo test --release -q -p mayflower-baselines
cargo test --release -q -p mayflower-workload
cargo test --release -q -p mayflower-simcore
# Empty (its Paxos code is deleted); named so the member check below
# passes until the crate goes with the benchmark lock refresh.
cargo test --release -q -p mayflower-consensus
cargo test --release -q -p mayflower-recovery
# All of kvstore, not only the CRC kernel named above.
cargo test --release -q -p mayflower-kvstore
# A workspace member whose suite no stage names runs nowhere.
for manifest in crates/*/Cargo.toml; do
  member=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)
  if ! grep -Eq "^[^#]*cargo test .*-p $member( |\$)" ci.sh; then
    echo "ci.sh: no cargo test line names $member" >&2
    exit 1
  fi
done

echo "==> figures: every regenerated figure matches results/ (release; wall-clock column masked)"
# The simulator, the Figure 8 prototype and the recovery experiment are
# deterministic, so a change that is meant to keep behaviour must
# reproduce results/ byte for byte. The one wall-clock reading — the
# scalability experiment's per-job decision time — is masked on both
# sides. After an intended change of behaviour, regenerate with
#   figures --fig all --json results/ > results/full_run.txt
figs=$(mktemp -d)
trap 'rm -rf "$figs"' EXIT
mkdir "$figs/got" "$figs/want"
cp results/* "$figs/want/"
cargo run --release -q -p mayflower-sim --bin figures -- --fig all --json "$figs/got" \
  > "$figs/got/full_run.txt" 2>/dev/null
sed -i -E -e '/"mean_decision_us":/d' -e '/μs\/job \(wall\)/,/^$/ s/ +[^ ]+$//' \
  "$figs"/{got,want}/scale.json "$figs"/{got,want}/full_run.txt
diff -r "$figs/want" "$figs/got"

echo "==> one fabric loop: only sim::driver builds a FluidNet or keys a map by FlowId; no private fair-share model"
# Non-test code only (loc.sh's cut at the first test module): tests may
# build a bare FluidNet as an oracle. A hit means an experiment has gone
# back to driving the network beside the Flowserver on its own.
if ./loc.sh --lines crates/sim/src | grep -v '^crates/sim/src/driver\.rs:' |
  grep -E 'FluidNet::new|HashMap<FlowId'; then
  echo "crates/sim: drive the fabric through sim::driver::Driver" >&2
  exit 1
fi
if grep -rn --include='*.rs' fair_bandwidths crates src tests examples benchmark/src; then
  echo "flow rates come from simnet or net::fairshare, nothing else" >&2
  exit 1
fi

echo "==> one data plane: only fs's DataPlane maps hosts to dataservers; no fs metrics parameter is optional"
# Non-test code only (loc.sh's cut), captured first so a failing or
# silent loc.sh fails here. Every client and the cluster reach a
# dataserver through datapath::DataPlane::get and share its metrics; a
# second map, or a metrics handle a caller may leave out, is the copy
# the plane replaced.
fs_lines=$(./loc.sh --lines crates/fs/src)
if [[ -z "$fs_lines" ]]; then
  echo "loc.sh --lines printed no fs code to check" >&2
  exit 1
fi
if grep -v '^crates/fs/src/datapath\.rs:' <<<"$fs_lines" | grep -F 'BTreeMap<HostId, Arc<Dataserver>>'; then
  echo "crates/fs: reach dataservers through datapath::DataPlane" >&2
  exit 1
fi
if grep -E 'Option<&[[:alnum:]_:]*(EcMetrics|DatapathMetrics)>' <<<"$fs_lines"; then
  echo "crates/fs: take the DataPlane's metrics, not an Option of them" >&2
  exit 1
fi

echo "==> one replica read, one fragment gather: outside fs's data plane only mcheck's oracle reads a replica's bytes; fs reads fragments once in the gather and once in the fast plan"
# Over the non-test lines of every crate and of src/ (loc.sh's cut),
# captured first so a failing or silent loc.sh fails here. Inside fs a
# replica's bytes are read through DataPlane::read_piece_into, which
# owns the failover order, and every other crate reads through
# fs::Client; another loop over read_local, read_local_into or
# read_local_onto (the appending read the data plane calls) would carry
# its own. The one exception is mcheck's data oracle: its one read_local
# line is the ground truth, the primary's final content. A sealed
# chunk's fragments are read by the one gather the degraded read and
# the rebuild share (read_fragment) and by the fast plan's per-fragment
# fetch (read_fragment_into), exactly once each. Every hit is printed
# before the stage fails.
all_lines=$(./loc.sh --lines crates/*/src src)
if [[ -z "$all_lines" ]]; then
  echo "loc.sh --lines printed no code to check" >&2
  exit 1
fi
failed=0
replica_reads=$(grep -Ev '^crates/fs/src/(datapath|dataserver)\.rs:' <<<"$all_lines" |
  grep -E '\bread_local(_into|_onto)?\(' || true)
if [[ $(grep -c . <<<"$replica_reads") -gt 1 ]] ||
  grep -v '^crates/mcheck/src/scenario/data\.rs:' <<<"$replica_reads" | grep -q .; then
  echo "$replica_reads"
  echo "read a replica's bytes through fs::Client (DataPlane::read_piece_into inside fs); mcheck keeps one read_local, the data oracle's ground truth" >&2
  failed=1
fi
for call in read_fragment read_fragment_into; do
  fragment_reads=$(grep -v '^crates/fs/src/dataserver\.rs:' <<<"$fs_lines" | grep -E "\\b$call\\(" || true)
  if [[ $(grep -c . <<<"$fragment_reads") -ne 1 ]]; then
    echo "$fragment_reads"
    echo "crates/fs: exactly one $call( outside dataserver.rs (read_fragment in coding.rs's gather, read_fragment_into in the fast plan's ShardFetch::run)" >&2
    failed=1
  fi
done
if ((failed)); then
  exit 1
fi

echo "==> every pub fn has a reader: its name occurs on some line besides its definition"
# Non-test definitions only (loc.sh's cut); any other line under the
# trees a caller can live in counts, tests and doc links included. A
# hit is a public function nothing names: delete it. The match is by
# name, not by type: a `new` or `attach_trace` that nothing calls passes
# as long as another type's function of that name is called, so a green
# stage does not mean every constructor has a caller.
defs=$(./loc.sh --lines crates/*/src src |
  sed -nE 's/^([^:]+:[0-9]+):[[:space:]]*pub ((const|unsafe|async) )*fn ([A-Za-z_][A-Za-z0-9_]*).*/\1 \4/p')
dead=$(grep -rnowF --include='*.rs' -f <(cut -d' ' -f2 <<<"$defs" | sort -u) \
    crates src tests examples benchmark/src |
  awk 'NR == FNR { at[NR] = $1; nm[NR] = $2; n = NR; next }
       {
         i = index($0, ":"); j = index(substr($0, i + 1), ":")
         pos = substr($0, 1, i + j - 1); w = substr($0, i + j + 1)
         if (!((w, pos) in seen)) { seen[w, pos] = 1; lines[w]++; last[w] = pos }
       }
       END {
         for (k = 1; k <= n; k++)
           if (lines[nm[k]] == 0 || (lines[nm[k]] == 1 && last[nm[k]] == at[k])) print at[k] " " nm[k]
       }' <(printf '%s\n' "$defs") -)
if [[ -n "$dead" ]]; then
  echo "$dead" >&2
  echo "pub fn named nowhere but its definition: delete it" >&2
  exit 1
fi

echo "==> every registered series has a reader in another file"
# Literal names in non-test `.counter(`, `.counter_with(`, `.gauge(` and
# `.histogram(` calls (loc.sh's cut; rustdoc lines are examples, not
# registrations). Scoped names carry prefixes, so a fixed-string
# substring counts, but only in a file other than the registering one:
# a same-named struct field or an in-module test is not a reader. A hit
# is a series nothing reads: delete it with its field and update sites.
regs=$(./loc.sh --lines crates/*/src src |
  awk '{
         i = index($0, ":"); j = index(substr($0, i + 1), ":")
         at = substr($0, 1, i + j - 1); rest = substr($0, i + j + 1)
         if (rest ~ /^[[:space:]]*\/\/[\/!]/) next
         while (match(rest, /\.(counter|counter_with|gauge|histogram)\("[A-Za-z0-9_:]+"/)) {
           name = substr(rest, RSTART, RLENGTH); sub(/^[^"]*"/, "", name); sub(/"$/, "", name)
           print at " " name
           rest = substr(rest, RSTART + RLENGTH)
         }
       }')
unread=""
while read -r at name; do
  files=$(grep -rlF --include='*.rs' -- "$name" crates src tests examples benchmark/src)
  if [[ -z "$(grep -vxF -- "${at%%:*}" <<<"$files" || true)" ]]; then
    unread+="$at $name"$'\n'
  fi
done <<<"$regs"
if [[ -n "$unread" ]]; then
  printf '%s' "$unread" >&2
  echo "series named in no file but its registering one: delete it" >&2
  exit 1
fi

echo "==> panic ratchet turns one way: the crates at zero keep denying"
# A crate with no non-test unwrap/expect/panic! denies them outside
# tests; dropping that line would let new ones in unseen.
for c in flowserver fs kvstore rpc sdn shard simnet; do
  if ! grep -Eq '^[[:space:]]*deny\(clippy::unwrap_used, clippy::expect_used, clippy::panic\)' \
      "crates/$c/src/lib.rs"; then
    echo "crates/$c/src/lib.rs: lost its deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)" >&2
    exit 1
  fi
done

echo "==> settings ratchet: at most 58 pub fields across the *Config/*Options structs"
# Every pub field of a non-test `pub struct *Config` or `*Options`
# (loc.sh's cut) is a setting someone can set. A setting that every
# caller leaves at one value is a constant; the cap only falls.
settings=$(./loc.sh --lines crates src |
  awk '{
         i = index($0, ":"); j = index(substr($0, i + 1), ":")
         file = substr($0, 1, i - 1); rest = substr($0, i + j + 1)
         if (rest ~ /^[[:space:]]*pub struct [A-Za-z0-9_]*(Config|Options)[[:space:]<{]/ && rest ~ /\{[[:space:]]*$/) {
           name = rest; sub(/^[[:space:]]*pub struct /, "", name); sub(/[^A-Za-z0-9_].*$/, "", name)
           inside = 1; n[file " " name] = 0; next
         }
         if (inside && rest ~ /^[[:space:]]*\}/) { inside = 0; next }
         if (inside && rest ~ /^[[:space:]]*pub [a-z_][a-z0-9_]*[[:space:]]*:/) { n[file " " name]++; total++ }
       }
       END {
         for (k in n) printf "%4d  %s\n", n[k], k | "sort -k2"
         close("sort -k2")
         printf "%4d  total\n", total
       }')
echo "$settings"
fields=$(tail -n 1 <<<"$settings" | awk '{ print $1 }')
if ((fields == 0)); then
  echo "loc.sh --lines printed no settings to count" >&2
  exit 1
fi
if ((fields > 58)); then
  echo "$fields pub fields in *Config/*Options structs; at most 58" >&2
  exit 1
fi

echo "==> a traced step is written once: trace::in_span, not a hand-rolled enter/mark-failed"
# `trace::in_span` enters the span, hands it to the step and marks it
# failed on `Err`. Outside crates/telemetry nothing marks a span failed
# by hand, and the filesystem, shard and recovery crates never enter
# one by hand (sim::timeline's manual-clock roots time a step that
# returns a time, not a `Result`, and keep `enter`).
if grep -rn --include='*.rs' 'mark_error(' crates src tests examples benchmark/src |
  grep -v '^crates/telemetry/'; then
  echo "mark a span failed through trace::in_span" >&2
  exit 1
fi
if grep -rnE --include='*.rs' 'ActiveSpan::enter|\.enter\(\)' \
    crates/fs/src crates/shard/src crates/recovery/src; then
  echo "enter a span through trace::in_span" >&2
  exit 1
fi

echo "==> unsafe stays in the two SIMD kernels, and every unsafe block says why it holds"
# Non-test code only (loc.sh's cut): the GF(2^8) and CRC-32 kernels
# call runtime-detected intrinsics and are the only code that needs
# `unsafe`. In those two files every `unsafe {` block, tests included,
# sits right under the `// SAFETY:` comment that justifies it.
kernels=(crates/ec/src/gf.rs crates/kvstore/src/crc.rs)
# Over the listing the "one replica read" stage captured and checked
# for emptiness, so a failing or silent loc.sh has already failed there.
if grep -vE '^crates/(ec/src/gf|kvstore/src/crc)\.rs:' <<<"$all_lines" | grep -w unsafe; then
  echo "unsafe code outside ${kernels[*]}" >&2
  exit 1
fi
unexplained=$(awk 'FNR == 1 { prev = "" }
                   /unsafe \{/ && prev !~ /^[[:space:]]*\/\/ SAFETY:/ { print FILENAME ":" FNR ":" $0 }
                   { prev = $0 }' "${kernels[@]}")
if [[ -n "$unexplained" ]]; then
  echo "$unexplained" >&2
  echo "an unsafe block needs a // SAFETY: comment on the line above it" >&2
  exit 1
fi

echo "==> benchmark/ package: builds against the current API, own tests pass (read-only use)"
# benchmark/ is a standalone workspace the root build never compiles;
# without this gate a renamed API it pins stays green until the
# pipeline runs it.
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> no gate rewrote a tracked file"
# Run on a committed tree: any tracked file that differs from HEAD by
# now was written by a stage above (a bench that saves its numbers, a
# build that refreshes a lock file) and fails the gate.
# Two commands, not one `&&` list: `set -e` ignores a failure anywhere
# in such a list but its last command, so `git diff` could not fail it.
git diff --exit-code
test -z "$(git status --porcelain --untracked-files=no)"

echo "==> ci.sh: all green ($(./loc.sh | tail -n 1 | xargs))"
