#!/usr/bin/env sh
# Local CI: formatting, lints, and the tier-1 verification gate.
# Runs fully offline against the vendored/zero-dependency workspace.
#
#   ./ci.sh           full gate (all stages below)
#   ./ci.sh --quick   same, but slow sweeps run strided / trimmed
#   ./ci.sh --help    list the stages
set -eu

cd "$(dirname "$0")"

usage() {
    cat <<'EOF'
usage: ./ci.sh [--quick]

Stages, in order:
  ignore-gate   tier-1 suites must contain no #[ignore]d tests
  unsafe-gate   every crate root (perfbench's included) carries
                #![forbid(unsafe_code)] and no .rs file contains an
                unsafe block
  shape-gate    statement shape is decided in sqlengine::plan only: the
                re-derivations the plan replaced (rid_join_connected,
                is_rid_column, is_aggregate_select, …) and the mirror
                analyzer that walked the AST beside it (ExprCtx, AggMode,
                canon, check_plain, build_scopes, lift) must not reappear
                under crates/*/src; and one byte layer
                (sqlengine::storage): outside #[cfg(test)] modules,
                from_le_bytes appears only in storage/codec.rs (the one
                place a header or an integer is parsed) and fs::rename( /
                .sync_all() only under storage/ (the one log-file handle
                and the one atomic replace); and one row store: outside
                #[cfg(test)], table.rs holds no Vec<Row> and
                expr/batch.rs no per-cell `fn gather`; and one hash
                table (sqlengine::keytable): outside #[cfg(test)] no
                file under crates/sqlengine/src names a HashMap<Row or
                a HashMap<Vec<Value>, and the slot-probing loop (the
                first slot read off the hash's top bits by
                `len().trailing_zeros()`, the next by `(slot + 1) &
                mask`; once `fn slots_from`) is written in keytable.rs
                and nowhere else; and one accumulator layout
                (exec/aggregate.rs: one accumulator column per
                aggregate): outside #[cfg(test)] no file under
                crates/sqlengine/src defines `fn update_rows`, and
                exec/aggregate.rs names no `States(` (MIN/MAX are a
                typed column of best values); and one aggregate state
                (the accumulator columns; the row-at-a-time reference
                is tests/agg_model.rs's): outside #[cfg(test)] no file
                under crates/*/src names AggState; and one group-table
                form (a partial aggregate is the group table's columns
                in memory and in transit, and a decoded one is built
                cell by cell into them): outside #[cfg(test)] no file
                under crates/*/src defines `fn into_rows` /
                `fn absorb_rows` / `fn key_columns`, and
                exec/aggregate.rs no `fn take(` / `fn put(`; and one
                executor (UPDATE and DELETE run on the SELECT
                pipeline): outside
                #[cfg(test)] no file under crates/sqlengine/src defines
                `fn update_where` / `fn delete_where` or names
                eval_predicate or MAX_UPDATE_FROM_ROWS, and none but
                expr/mod.rs calls the reference `.eval(`
                (plancheck/card.rs's symbolic one aside); and one session (every model
                is a sqlem::Generator that EmSession runs): outside
                #[cfg(test)] EmSession is the only `pub struct …Session`
                under crates/sqlem/src, and no `Strategy::X =>` arm
                there outside generator/ and config.rs (a strategy's
                layout and closed form are its generator's); and one
                parallelism mechanism (the shard coordinator, the AMP
                analogue): outside #[cfg(test)] nothing under
                crates/sqlengine/src calls thread::scope or
                thread::spawn, and nothing under crates/*/src names
                PARALLEL_THRESHOLD, `fn set_workers`, a `workers:`
                field, a "--workers" flag or a \workers shell command;
                and one pow call: outside #[cfg(test)] no file under
                crates/sqlengine/src but expr/mod.rs calls .powf(, and
                no .rs file under crates/, tests/ or examples/ writes a
                powf of a literal 2 (an optimised build folds it into
                x * x); and one fan-out mechanism (the coordinator's
                long-lived shard workers): outside #[cfg(test)] nothing
                under crates/sqlwire/src calls thread::scope, and one
                call in cluster.rs starts a thread; and no polling
                server: outside #[cfg(test)] server.rs calls no
                thread::sleep; and one checkpoint
                table: outside #[cfg(test)] naming.rs names one ckpt
                table and checkpoint.rs renders no INSERT INTO; and
                no aggregate that merges in shard order and no file
                checkpoint: outside #[cfg(test)] nothing under
                crates/*/src names var_pop, stddev_pop, AGG_VAR or
                AggState::Var, defines fn to_text / fn from_text, or
                reads a "--checkpoint" / "--resume" flag; and one
                memory model (the runtime governor, sqlengine::resource):
                outside #[cfg(test)] nothing under crates/*/src names
                a static footprint (fn footprint(, select_footprint,
                build_footprint, peak_footprint, OverBudget) or the
                switches expected_n, auto_fallback, cleanup_on_error;
                and one schema mirror (the coordinator plans and
                prepares against a SymbolicCatalog): outside
                #[cfg(test)] cluster.rs calls no Database::new( and
                defines no fn refresh_partition_map; and one fault
                grammar (FaultRule's FromStr): no file under
                crates/cli/src or crates/*/src/bin defines
                fn parse_fault_rule; and a prepared statement is
                planned once (the registry keeps its plan): outside
                #[cfg(test)] sqlengine's engine.rs names no
                Arc<Statement> and defines no fn execute_prepared, and
                exec/select.rs has no agg.clone() (a sink borrows the
                plan's aggregation); and one statement path (ad hoc,
                prepared, partial and EXPLAIN ANALYZE statements run
                through Database::run on the plan their analysis made,
                a prepared one's at prepare; WAL replay plans and runs
                directly): outside #[cfg(test)] nothing under
                crates/*/src defines enum Kept, fn execute_statement( /
                fn execute_statement_metered, fn run_statement or
                fn metered_statement, and sqlengine's engine.rs and
                sqlwire's cluster.rs each call parse_one( exactly once
                (the re-plan of a plan that no longer holds);
                prints the crates/*/src line
                total and the non-test total (each file up to its first
                #[cfg(test)]) so a PR's line delta is a CI output
  fmt           cargo fmt --all -- --check
  clippy        cargo clippy --workspace --all-targets -D warnings
  doc           cargo doc --workspace --no-deps, rustdoc warnings are
                errors
  build         cargo build --release
  conformance   cost-model conformance + golden-SQL snapshots + differential,
                then examples/bit_dump: every result bit of a short run of
                each strategy must be the same embedded and through a
                2-shard coordinator
  plancheck     static analyzer gate: the symbolic per-iteration scan
                derivation must equal engine ExecMetrics exactly on the
                cost-model grid for all three strategies, the fused
                hybrid, K-means and per-cluster covariances, and every
                negative-corpus script must be rejected with a typed,
                positioned diagnostic
  tier-1        the main test suites, incl. the seeded statement-shape
                parity of tests/plan_parity.rs, embedded vs coordinator,
                the golden format digests of tests/formats.rs, the
                seeded byte-layer properties of tests/format_props.rs
                and the table-against-its-model sequences of
                tests/table_model.rs, tests/keytable_model.rs and
                tests/agg_model.rs, the partial + merge + finalize
                equality of tests/partial_agg.rs, sqlem's seeded
                generator and run properties over every model, and
                sqlengine's seeded properties (reference queries,
                parallel = serial, parse inverts render)
                (--quick skips the retail e2e suite and runs one
                520-case parity seed of the four); then, in a release
                build, tests/batch_eval.rs (`**` is powf's bits, which
                an optimiser may fold, and `x ** 2`'s proven squares
                hold against this libm's pow)
  chaos         deterministic fault-plan sweep over every statement index
                (--quick: SQLEM_CHAOS_STRIDE=7 samples every 7th index)
  crash         crash-recovery sweep: kill a child process at every WAL
                crash point in an EM iteration, reopen, require
                bit-identical recovery (--quick: strided like chaos)
  server        client/server e2e over real processes: a remote
                sqlem-cli run must match the in-process run byte for
                byte, and kill -9ing a --durable sqlem-server
                mid-iteration must leave the client able to resume
                from its checkpoint to the uninterrupted result
                (--quick: smaller dataset / iteration budget)
  chaos-net     exactly-once wire protocol: the in-process byte-level
                cut sweep (tests/chaos_net.rs, exhaustive over every
                frame index), then a chaos-proxy process between real
                sqlem-cli / sqlem-server processes severing the TCP
                stream at swept frame positions in both directions —
                every interrupted run must match the clean run byte
                for byte (--quick: strided sweep, fewer cut positions)
  overload      resource-governor load test: a query swarm plus an EM
                client against an in-process server with an admission
                cap and memory budgets; emits BENCH_overload.json
                (throughput, p50/p99, shed count, peak memory) and
                fails if shedding never happened or was not absorbed
                (--quick: shorter window, smaller swarm). The fresh
                numbers are then gated against the checked-in
                bench/BASELINE_overload.json: a throughput drop or a
                p99 rise beyond SQLEM_BENCH_TOLERANCE (default 0.50,
                i.e. 50%) fails the stage. First run (no baseline) or
                SQLEM_BENCH_SKIP_GATE=1 records the baseline instead;
                SQLEM_BENCH_ACCEPT=1 re-records it after a deliberate
                perf change.
  cluster       sharded scale-out (docs/CLUSTER.md): the same study
                hash-partitioned across two real sqlem-server shard
                processes via sqlem-cli --shards must be byte-identical
                to the in-process run, then the cluster bench sweeps
                shard counts 1/2/4 over the retail workload and emits
                BENCH_cluster.json (per-shard-count E/M-step
                wall-clock), failing on any model drift
                (--quick: smaller dataset, shorter sweep, and the
                checked-in BENCH_cluster.json is left as it is)
  workspace     cargo test --workspace
  perfbench     the repo benchmark (BENCHMARK.json) is a package outside
                the workspace: its unit tests and the smoke test that
                holds the binary's output to BENCHMARK.json, then one
                --quick run of the benchmark binary, so an API change
                in the crates it measures cannot break it unseen
EOF
    exit 0
}

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        --help|-h) usage ;;
        *) echo "unknown argument: $arg (try ./ci.sh --help)" >&2; exit 2 ;;
    esac
done

echo "== ignore-gate: tier-1 suites contain no ignored tests"
# The tier-1 gate is only meaningful if nothing inside it is quietly
# switched off: an `#[ignore]` in tests/ would pass CI while asserting
# nothing. Slow tests belong behind --quick, not behind #[ignore].
if grep -rn '#\[ignore' tests/; then
    echo "ERROR: #[ignore]d test(s) found in the tier-1 suites above" >&2
    exit 1
fi

echo "== unsafe-gate: forbid(unsafe_code) in every crate root, no unsafe blocks"
# The whole workspace is safe Rust; keep it that way mechanically. Every
# crate root (lib.rs, main.rs, bin/*.rs) must carry the forbid attribute
# so the compiler enforces it, and a grep backstop catches any unsafe
# token that might sneak into a non-root module before compilation.
for root in src/lib.rs crates/*/src/lib.rs crates/*/src/main.rs \
    crates/*/src/bin/*.rs perfbench/src/lib.rs perfbench/src/bin/*.rs; do
    [ -f "$root" ] || continue
    if ! grep -q '#!\[forbid(unsafe_code)\]' "$root"; then
        echo "ERROR: $root lacks #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done
if grep -rn --include='*.rs' 'unsafe ' src crates tests perfbench/src \
    | grep -v 'forbid(unsafe_code)'; then
    echo "ERROR: unsafe block(s) found above" >&2
    exit 1
fi

echo "== shape-gate: one analysis of statement shape (sqlengine::plan)"
if grep -rnE 'rid_join_connected|is_rid_column|is_aggregate_select|insert_preserves_partition|partitioned_from|substitute_aliases|fn item_count|fn conjuncts' \
    crates/*/src; then
    echo "ERROR: a second analysis of statement shape is back (above);" \
         "read the plan (crates/sqlengine/src/plan.rs) instead" >&2
    exit 1
fi
if grep -rnE 'ExprCtx|AggMode|fn canon|fn check_plain|fn build_scopes|fn lift\b' crates/*/src; then
    echo "ERROR: a second front end is back (above): names resolve, aggregates" \
         "are placed and arities are checked by sqlengine::plan, and types are" \
         "read off its compiled expressions (crates/sqlengine/src/expr/ty.rs)" >&2
    exit 1
fi
# One byte layer: every record header and little-endian integer is parsed
# in storage/codec.rs, every durable file is written under storage/
# (logfile.rs: the append-only handle and the atomic replace). Product
# code only — each file up to its first #[cfg(test)], as the line count
# below — so a unit test may still build a frame by hand.
# nontest PATTERN [find predicates choosing among crates/*/src/**.rs]
nontest() {
    pat="$1"; shift
    find crates/*/src -name '*.rs' "$@" -exec \
        awk 'FNR==1{t=0} /#\[cfg\(test\)\]/{t=1} !t && $0 ~ pat {print FILENAME":"FNR": "$0}' pat="$pat" {} +
}
if nontest 'from_le_bytes' ! -path 'crates/sqlengine/src/storage/codec.rs' | grep .; then
    echo "ERROR: bytes are parsed by hand above; read them through" \
         "sqlengine::storage::codec (Reader, record_header)" >&2
    exit 1
fi
if nontest 'fs::rename\(|\.sync_all\(\)' ! -path 'crates/sqlengine/src/storage/*' | grep .; then
    echo "ERROR: a durable file is written by hand above; use" \
         "sqlengine::storage::logfile (LogFile, atomic_replace)" >&2
    exit 1
fi
# One row store: a table is typed columns under a positions-only key
# index (crates/sqlengine/src/table.rs), and a batch is a slice or a take
# of them — no boxed rows, no map keyed by a copy of the key, no
# per-cell gather.
if { nontest 'Vec<Row>' -path 'crates/sqlengine/src/table.rs'
     nontest 'fn gather' -path 'crates/sqlengine/src/expr/batch.rs'; } | grep .; then
    echo "ERROR: row storage is back (above); a table stores expr::Column" \
         "vectors and hands out slices of them" >&2
    exit 1
fi
# One hash table: a table's key index, the GROUP BY table and a join's
# build side are crates/sqlengine/src/keytable.rs — u32 slots over keys
# held as typed columns. No map keyed by a boxed copy of the key, and no
# second probe loop.
if nontest 'HashMap<Row|HashMap<Vec<Value' -path 'crates/sqlengine/src/*' | grep .; then
    echo "ERROR: a map keyed by boxed rows is back (above); key a" \
         "sqlengine::keytable::KeyTable by the key columns instead" >&2
    exit 1
fi
probe_loops=$(nontest 'fn slots_from|\(slot \+ 1\) & mask|len\(\)\.trailing_zeros\(\)' \
    -path 'crates/sqlengine/src/*' \
    | cut -d: -f1 | sort -u)
if [ "$probe_loops" != crates/sqlengine/src/keytable.rs ]; then
    echo "ERROR: the open-addressing probe loop is defined in: $probe_loops;" \
         "crates/sqlengine/src/keytable.rs is to be the only place" >&2
    exit 1
fi
# One accumulator layout: the group table holds one accumulator column
# per planned aggregate (crates/sqlengine/src/exec/aggregate.rs), updated
# a batch at a time — no vector of states per group, no per-run dispatch
# on a state's kind. MIN and MAX too: a typed column of best values, not
# a column of value-by-value states.
if { nontest 'fn update_rows' -path 'crates/sqlengine/src/*'
     nontest 'States\(' -path 'crates/sqlengine/src/exec/aggregate.rs'; } | grep .; then
    echo "ERROR: per-group accumulator vectors are back (above); a group is" \
         "a row of exec::aggregate's accumulator columns" >&2
    exit 1
fi
# One aggregate state: a group's accumulator is a row of the group
# table's columns, in memory, in a merge and off the wire (the decoder
# appends each cell into its column through PartialBuilder). The
# row-at-a-time AggState is tests/agg_model.rs's reference, not product
# code.
if nontest 'AggState' | grep .; then
    echo "ERROR: a second aggregate state is back (above); accumulate into" \
         "exec::aggregate's accumulator columns (a partial: PartialBuilder)" >&2
    exit 1
fi
# One group-table form: a partial aggregate crosses partitions, shards
# and the wire as the group table's columns (PartialAggResult holds
# them) — no table of (key row, states) pairs, and no gathering of the
# columns into states or scattering of states back into them.
if { nontest 'fn into_rows|fn absorb_rows|fn key_columns'
     nontest 'fn take\(|fn put\(' -path 'crates/sqlengine/src/exec/aggregate.rs'; } | grep .; then
    echo "ERROR: the row-of-states form of the group table is back (above);" \
         "merge and ship exec::aggregate's columns as they are" >&2
    exit 1
fi
# One executor: UPDATE and DELETE run on the SELECT pipeline
# (crates/sqlengine/src/exec/select.rs) and VALUES on a one-row batch — no
# row-at-a-time table mutation, no whole-row predicate, no materialized
# FROM cross product. The scalar CExpr::eval is the reference
# tests/batch_eval.rs checks eval_batch against, called nowhere else
# (plancheck/card.rs's eval is the symbolic polynomial's).
if { nontest 'fn update_where|fn delete_where|eval_predicate|MAX_UPDATE_FROM_ROWS' \
         -path 'crates/sqlengine/src/*'
     nontest '\.eval\(' -path 'crates/sqlengine/src/*' \
         ! -path 'crates/sqlengine/src/expr/mod.rs' ! -path 'crates/sqlengine/src/plancheck/card.rs'; } | grep .; then
    echo "ERROR: a second, row-at-a-time executor is back (above); run DML" \
         "through exec::select's pipeline and evaluate with eval_batch" >&2
    exit 1
fi
# One session: the paper's strategies, K-means and per-cluster
# covariances are sqlem::Generators run by one EmSession loop — no second
# session type — and a strategy's point layouts and closed-form scan
# counts are facts of its generator, not a `match` elsewhere.
sessions=$(nontest 'pub struct [A-Za-z0-9_]*Session([^A-Za-z0-9_]|$)' -path 'crates/sqlem/src/*' \
    | sed 's/.*pub struct \([A-Za-z0-9_]*Session\).*/\1/' | sort -u | tr '\n' ' ')
if [ "$sessions" != "EmSession " ]; then
    echo "ERROR: session types under crates/sqlem/src: $sessions— a model is" \
         "a sqlem::Generator that EmSession runs" >&2
    exit 1
fi
if nontest '(^|[^A-Za-z0-9_])Strategy::[A-Za-z]+.*=>' -path 'crates/sqlem/src/*' \
    ! -path 'crates/sqlem/src/generator/*' ! -path 'crates/sqlem/src/config.rs' | grep .; then
    echo "ERROR: a strategy's layout or closed form is decided outside its" \
         "generator (above); ask the sqlem::Generator instead" >&2
    exit 1
fi
# One parallelism mechanism: a statement runs on one thread inside the
# engine; more than one core is the shard coordinator's (sqlwire's
# Coordinator over embedded Databases or sqlem-servers, the paper's AMPs)
# — no partition workers beside it, and no option choosing them.
if { nontest 'thread::(scope|spawn)' -path 'crates/sqlengine/src/*'
     nontest 'PARALLEL_THRESHOLD|fn set_workers|^[[:space:]]*(pub[[:space:]]+)?workers:|"--workers"|\\\\workers'; } | grep .; then
    echo "ERROR: a second parallelism mechanism is back (above); run a" \
         "statement on more than one core through sqlwire::Coordinator" >&2
    exit 1
fi
# One call of libm's pow: `**` and power() return f64::powf's bits, and
# expr/mod.rs's `powf` is where the engine calls it (the batch kernel
# skips the call only where it proves the answer). A literal exponent 2
# is folded into a multiply by an optimised build, in tests too: pass it
# as data (std::hint::black_box(2.0)). Comment lines are not code.
if { nontest '\.powf\(' -path 'crates/sqlengine/src/*' ! -path 'crates/sqlengine/src/expr/mod.rs'
     grep -rnE --include='*.rs' 'powf\(([^,()]*, *)?2(\.0*)?(_?f64)? *\)' crates tests examples; } \
    | grep -vE '^[^:]+:[0-9]+: *//' | grep .; then
    echo "ERROR: a second pow call or a literal exponent 2 (above); call" \
         "expr::powf, and hand an exponent of 2 over as data" >&2
    exit 1
fi
# One fan-out mechanism: a coordinator's shards 1.. live on worker
# threads started with it (crates/sqlwire/src/cluster.rs, Worker::spawn)
# and shard 0 on the caller's — no scoped threads per statement, and one
# call in cluster.rs that starts a thread (`sed 1d` lets that one pass).
if { nontest 'thread::scope' -path 'crates/sqlwire/src/*'
     nontest 'thread::spawn|\.spawn\(' -path 'crates/sqlwire/src/cluster.rs' | sed 1d; } | grep .; then
    echo "ERROR: a second fan-out mechanism is back (above); send jobs to" \
         "the coordinator's shard workers instead" >&2
    exit 1
fi
# No polling server: its accept blocks (ServerHandle::shutdown dials the
# listener to wake it) and its drain waits on the condition variable the
# last session signals, so no loop in server.rs sleeps.
if nontest 'thread::sleep' -path 'crates/sqlwire/src/server.rs' | grep .; then
    echo "ERROR: crates/sqlwire/src/server.rs sleeps (above); block in accept" \
         "and wait on the drain's condition variable instead" >&2
    exit 1
fi
# One checkpoint table, written by one bulk insert (crates/sqlem/src/
# checkpoint.rs): naming.rs names one ckpt table, and checkpoint.rs
# renders no INSERT text — generations are rows of that table, so no
# write can leave a model half-replaced.
ckpt_names=$(nontest '"ckpt' -path 'crates/sqlem/src/naming.rs' | wc -l)
if [ "$ckpt_names" != 1 ] || nontest 'INSERT INTO' -path 'crates/sqlem/src/checkpoint.rs' | grep .; then
    echo "ERROR: naming.rs names $ckpt_names checkpoint tables, or checkpoint.rs" \
         "writes INSERT … VALUES (above); a checkpoint is one generation of" \
         "rows in Names::ckpt, written by one bulk insert" >&2
    exit 1
fi
# The aggregates are SUM, COUNT, AVG, MIN and MAX, each merging exactly
# in any shard order, and a checkpoint lives in the database only: the
# moment aggregates (VARIANCE / STDDEV, merged in shard order) and the
# text checkpoint file (sqlem-cli --checkpoint / --resume) stay gone.
if nontest 'var_pop|stddev_pop|AGG_VAR|AggState::Var|fn to_text|fn from_text|"--checkpoint"|"--resume"' | grep .; then
    echo "ERROR: a moment aggregate or a file checkpoint is back (above); the" \
         "aggregates merge in any order, and --data-dir or a server keeps the" \
         "checkpoint" >&2
    exit 1
fi
# One memory model: the runtime governor (sqlengine::resource) alone
# judges a budget — no static footprint beside it in plancheck or the
# preflight — and the fallback and error-path cleanup are not switches.
if nontest 'fn footprint\(|select_footprint|build_footprint|peak_footprint|OverBudget|expected_n|auto_fallback|cleanup_on_error' | grep .; then
    echo "ERROR: a second memory model or a removed switch is back (above); a" \
         "budget is judged at run time (ResourceExhausted), the preflight falls" \
         "back and a failed run drops its tables unconditionally" >&2
    exit 1
fi
# One schema mirror: the shard coordinator plans every statement and
# checks every prepared script against a SymbolicCatalog adopted from
# shard 0 (crates/sqlwire/src/cluster.rs) — no rowless Database beside
# the shards re-running their DDL, and no partition map beside the
# schemas (a table is partitioned iff it has a rid column).
if nontest 'Database::new\(|fn refresh_partition_map' -path 'crates/sqlwire/src/cluster.rs' | grep .; then
    echo "ERROR: a second schema mirror is back in the coordinator (above);" \
         "plan against its SymbolicCatalog and read rid off the schema" >&2
    exit 1
fi
# One fault grammar: --inject-fault SPEC is FaultRule's FromStr
# (crates/sqlengine/src/fault.rs), which every binary parses through.
if grep -rn 'fn parse_fault_rule' crates/cli/src crates/*/src/bin; then
    echo "ERROR: a second --inject-fault grammar is back (above); parse a" \
         "sqlengine::FaultRule with str::parse" >&2
    exit 1
fi
# A prepared statement is planned once: Database's registry keeps its
# text and, after its first run, its plan in place of the AST — no shared
# AST planned on every run beside it — and a run borrows the kept plan
# (the aggregate sinks take &AggPlan) instead of cloning it.
if { nontest 'Arc<Statement>|fn execute_prepared' -path 'crates/sqlengine/src/engine.rs'
     nontest 'agg\.clone\(\)' -path 'crates/sqlengine/src/exec/select.rs'; } | grep .; then
    echo "ERROR: a prepared statement is planned again on every run, or its" \
         "plan is copied (above); run the plan the registry keeps, by reference" >&2
    exit 1
fi
# One statement path: every statement the engine runs — ad hoc,
# prepared, partial, EXPLAIN ANALYZE — is made ready from its analysis
# (a prepared one when it is prepared) and run by Database::run; no AST
# interpreter beside the plan, and no first-run parse of a prepared
# statement's text in the engine or the coordinator.
if nontest 'enum Kept|fn execute_statement_metered|fn execute_statement\(|fn run_statement|fn metered_statement' | grep .; then
    echo "ERROR: a second way into execution is back (above); make the" \
         "statement ready from its analysis and run it with Database::run" >&2
    exit 1
fi
for f in crates/sqlengine/src/engine.rs crates/sqlwire/src/cluster.rs; do
    n=$(nontest 'parse_one\(' -path "$f" | wc -l)
    if [ "$n" -ne 1 ]; then
        nontest 'parse_one\(' -path "$f"
        echo "ERROR: $f parses statement text $n time(s); a prepared statement" \
             "is planned at prepare and parsed again only where its plan no" \
             "longer holds" >&2
        exit 1
    fi
done
echo "   crates/*/src: $(find crates/*/src -name '*.rs' -exec cat {} + | wc -l) lines," \
     "$(find crates/*/src -name '*.rs' -exec awk 'FNR==1{t=0} /#\[cfg\(test\)\]/{t=1} !t' {} + | wc -l)" \
     "outside #[cfg(test)]"

echo "== fmt: cargo fmt --check"
cargo fmt --all -- --check

echo "== clippy: workspace, warnings are errors"
cargo clippy --workspace --all-targets -- -D warnings

echo "== doc: rustdoc, warnings are errors"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== build: tier-1 release build (all crates, incl. server/cli binaries)"
cargo build --release --workspace

echo "== conformance: cost-model + golden-SQL snapshots"
cargo test -q --test cost_model --test snapshots --test differential
cargo run -q --release --example bit_dump > /dev/null
# The E step's distance statement streams its GROUP BY: load_points
# writes Y in rid order, so YD keeps one open group instead of an n·k
# table of exact sums. A silent fall-back to the hash sink fails here.
if ! cargo run -q --release --example explain_plans |
    awk '/^-- E: Mahalanobis distances/ { yd = 1; next } /^-- / { yd = 0 }
         yd && /sink: stream aggregate/ { ok = 1 } END { exit !ok }'; then
    echo "ERROR: the plan of \"E: Mahalanobis distances\" (examples/explain_plans)" \
         "does not read 'sink: stream aggregate'" >&2
    exit 1
fi

echo "== plancheck: static == dynamic scan counts + negative corpus"
cargo test -q --test plancheck

if [ "$QUICK" = 1 ]; then
    echo "== tier-1: tests (--quick: skipping the retail end-to-end suite)"
    cargo test -q --test baselines --test end_to_end --test extensions \
        --test formats --test format_props --test table_model \
        --test keytable_model --test agg_model --test partial_agg
    cargo test -q -p sqlem --test generator_properties --test robustness_props
    cargo test -q -p sqlengine --test properties --test parser_roundtrip
    cargo test -q --test plan_parity seed_1
else
    echo "== tier-1: tests"
    cargo test -q
fi
# An optimised build may fold what a debug build calls (a constant
# `powf(2.0)` becomes a multiply), so the `**` oracle is held in a
# release build too; its pow_is_powf_bit_for_bit_on_every_path is what
# fails on a libm whose pow breaks the proof behind x ** 2's squares.
cargo test -q --release --test batch_eval

# Deterministic fault-plan sweep (docs/ROBUSTNESS.md): every statement
# index × transient/permanent × all three strategies. The plans are
# seeded, so failures reproduce exactly. --quick samples every 7th
# statement index instead of all of them.
if [ "$QUICK" = 1 ]; then
    echo "== chaos: fault-plan sweep (--quick: stride 7)"
    SQLEM_CHAOS_STRIDE=7 cargo test -q --test chaos
else
    echo "== chaos: fault-plan sweep (full)"
    cargo test -q --test chaos
fi

# Crash-recovery sweep (docs/ROBUSTNESS.md "Durability & crash
# recovery"): child processes are killed at every WAL crash point
# inside a hybrid EM iteration, then the durable database is reopened
# and the resumed run must be bit-identical to the uninterrupted one.
if [ "$QUICK" = 1 ]; then
    echo "== crash: WAL crash-point sweep (--quick: stride 7)"
    SQLEM_CHAOS_STRIDE=7 cargo test -q --test crash_recovery
else
    echo "== crash: WAL crash-point sweep (full)"
    cargo test -q --test crash_recovery
fi

# Client/server gate (docs/SERVER.md): the same study through real
# sqlem-server / sqlem-cli processes. Two requirements:
#   1. a remote run is byte-identical to the in-process run (summary
#      and per-row assignments);
#   2. kill -9ing a --durable server mid-iteration leaves the client
#      able to reconnect to a restarted server and resume from its
#      in-database checkpoint to the uninterrupted final result.
if [ "$QUICK" = 1 ]; then
    echo "== server: client/server e2e (--quick: trimmed)"
    SRV_ROWS=300 SRV_CAP=120
else
    echo "== server: client/server e2e (remote parity + kill/resume)"
    SRV_ROWS=600 SRV_CAP=250
fi
SERVER_BIN=target/release/sqlem-server
CLI_BIN=target/release/sqlem-cli
PROXY_BIN=target/release/chaos-proxy
SRV_TMP=$(mktemp -d)
SERVER_PID=''
PROXY_PID=''
SHARD1_PID=''
SHARD2_PID=''
trap 'kill -9 $SERVER_PID $PROXY_PID $SHARD1_PID $SHARD2_PID 2>/dev/null || :; \
     rm -rf "$SRV_TMP"' EXIT

# Two *overlapping* irregular blobs: separated blobs saturate the
# posteriors to exact 0/1 and EM hits a fixed point in a couple of
# iterations; overlap keeps the log-likelihood moving for dozens of
# iterations, leaving a wide window to kill the server mid-study.
awk -v n="$SRV_ROWS" 'BEGIN {
    print "a,b"
    for (i = 0; i < n; i++) {
        t = (i % 97) * 0.013; u = (i % 53) * 0.021
        printf "%.6f,%.6f\n", t, 1 - u
        printf "%.6f,%.6f\n", 1.1 + u, 0.4 + t
    }
}' > "$SRV_TMP/data.csv"

# The server serves until its stdin yields "shutdown" or closes; hold a
# fifo open read-write so backgrounding does not slam stdin shut.
mkfifo "$SRV_TMP/ctl"
exec 9<>"$SRV_TMP/ctl"

# start_server [extra flags...] -> sets SERVER_PID and SRV_ADDR
start_server() {
    : > "$SRV_TMP/server.log"
    "$SERVER_BIN" --listen 127.0.0.1:0 "$@" \
        < "$SRV_TMP/ctl" > "$SRV_TMP/server.log" 2> "$SRV_TMP/server.err" &
    SERVER_PID=$!
    SRV_ADDR=''
    i=0
    while [ $i -lt 100 ]; do
        SRV_ADDR=$(sed -n 's/^listening on //p' "$SRV_TMP/server.log")
        [ -n "$SRV_ADDR" ] && break
        kill -0 "$SERVER_PID" 2>/dev/null || break
        sleep 0.1
        i=$((i + 1))
    done
    if [ -z "$SRV_ADDR" ]; then
        echo "ERROR: sqlem-server failed to start" >&2
        cat "$SRV_TMP/server.err" >&2
        exit 1
    fi
}

# 1. Remote parity: same seed, same config, opposite sides of the wire.
"$CLI_BIN" "$SRV_TMP/data.csv" --k 2 --seed 11 --max-iterations 12 \
    --scores "$SRV_TMP/local.csv" > "$SRV_TMP/local.out" 2> /dev/null
start_server
"$CLI_BIN" "$SRV_TMP/data.csv" --k 2 --seed 11 --max-iterations 12 \
    --scores "$SRV_TMP/remote.csv" --connect "$SRV_ADDR" --namespace ci_ \
    > "$SRV_TMP/remote.out" 2> "$SRV_TMP/remote.err"
cmp "$SRV_TMP/local.csv" "$SRV_TMP/remote.csv" || {
    echo "ERROR: remote assignments differ from in-process" >&2; exit 1; }
cmp "$SRV_TMP/local.out" "$SRV_TMP/remote.out" || {
    echo "ERROR: remote summary differs from in-process" >&2; exit 1; }
echo shutdown >&9
wait "$SERVER_PID" || { echo "ERROR: server drain failed" >&2; exit 1; }

# 2. Kill/resume: baseline first, then the interrupted remote study.
"$CLI_BIN" "$SRV_TMP/data.csv" --k 2 --seed 11 --epsilon 0 \
    --max-iterations "$SRV_CAP" --scores "$SRV_TMP/base.csv" \
    > "$SRV_TMP/base.out" 2> /dev/null
# A checkpoint write keeps the previous generation readable until the
# next one lands, so wherever the kill -9 falls after the first
# checkpoint, the restarted client must resume from a checkpoint and
# reproduce the baseline's stdout and scores byte for byte.
SRV_DB="$SRV_TMP/db"
start_server --durable --data-dir "$SRV_DB"
"$CLI_BIN" "$SRV_TMP/data.csv" --k 2 --seed 11 --epsilon 0 \
    --max-iterations "$SRV_CAP" --connect "$SRV_ADDR" --namespace ci_ \
    > /dev/null 2> "$SRV_TMP/interrupted.err" &
CLIENT_PID=$!
# The WAL mentions the ckpt table 4 times per checkpoint (the CREATE,
# two DELETEs and the bulk insert's frame). Wait until at least two
# checkpoints are durable, then yank the server out from under the
# client.
i=0
while [ $i -lt 400 ]; do
    kill -0 "$CLIENT_PID" 2>/dev/null || break
    marks=$(grep -ao ckpt "$SRV_DB/wal.log" 2>/dev/null | wc -l)
    [ "$marks" -ge 8 ] && break
    sleep 0.05
    i=$((i + 1))
done
kill -0 "$CLIENT_PID" 2>/dev/null || {
    echo "ERROR: client finished before the server could be killed" >&2
    exit 1
}
kill -9 "$SERVER_PID"
if wait "$CLIENT_PID"; then
    echo "ERROR: client should fail when its server is killed" >&2
    exit 1
fi
start_server --durable --data-dir "$SRV_DB"
"$CLI_BIN" "$SRV_TMP/data.csv" --k 2 --seed 11 --epsilon 0 \
    --max-iterations "$SRV_CAP" --connect "$SRV_ADDR" --namespace ci_ \
    --scores "$SRV_TMP/resumed.csv" \
    > "$SRV_TMP/resumed.out" 2> "$SRV_TMP/resumed.err"
grep -q "resumed from checkpoint" "$SRV_TMP/resumed.err" || {
    echo "ERROR: the restarted run did not resume from a checkpoint" >&2
    cat "$SRV_TMP/resumed.err" >&2
    exit 1
}
cmp "$SRV_TMP/base.csv" "$SRV_TMP/resumed.csv" || {
    echo "ERROR: resumed run's assignments differ from uninterrupted run" >&2
    cat "$SRV_TMP/resumed.err" >&2
    exit 1
}
cmp "$SRV_TMP/base.out" "$SRV_TMP/resumed.out" || {
    echo "ERROR: resumed run's summary differs from uninterrupted run" >&2
    cat "$SRV_TMP/resumed.err" >&2
    exit 1
}
echo shutdown >&9
wait "$SERVER_PID" || { echo "ERROR: server drain failed" >&2; exit 1; }
SERVER_PID=''

# Exactly-once wire protocol (docs/SERVER.md "Exactly-once execution"):
# first the in-process sweep — tests/chaos_net.rs cuts the stream at
# every frame index in both directions (before the frame and mid-frame)
# and requires a bit-identical model plus unchanged WAL mutation counts
# (zero double-applies). Then the same faults across *real* processes:
# a chaos-proxy between sqlem-cli and sqlem-server severs the TCP
# stream at swept frame positions; the client's sequence-keyed replay
# and the server's reply cache must absorb every cut, so each
# interrupted run's summary and per-row assignments must be
# byte-identical to the clean run's.
if [ "$QUICK" = 1 ]; then
    echo "== chaos-net: exactly-once wire sweep (--quick: strided)"
    cargo test -q --test chaos_net
    NET_FRAMES='2 14 40'
    NET_OFFSETS=''
else
    echo "== chaos-net: exactly-once wire sweep (full)"
    SQLEM_CHAOS_STRIDE=1 cargo test -q --test chaos_net
    NET_FRAMES='0 1 2 5 9 14 20 28 40 60'
    NET_OFFSETS='12'
fi

mkfifo "$SRV_TMP/proxyctl"
exec 8<>"$SRV_TMP/proxyctl"
awk 'BEGIN {
    print "a,b"
    for (i = 0; i < 40; i++) {
        t = (i % 23) * 0.041; u = (i % 13) * 0.067
        printf "%.6f,%.6f\n", t, 1 - u
        printf "%.6f,%.6f\n", 1.1 + u, 0.4 + t
    }
}' > "$SRV_TMP/net.csv"

start_server
"$CLI_BIN" "$SRV_TMP/net.csv" --k 2 --seed 7 --max-iterations 4 \
    --scores "$SRV_TMP/net_base.csv" --connect "$SRV_ADDR" --namespace cnb_ \
    > "$SRV_TMP/net_base.out" 2> /dev/null

# run_net_case LABEL [proxy rule flags...] — relay the same study
# through a freshly-armed chaos proxy and require byte parity.
# NET_EXTRA adds CLI flags (e.g. a --deadline budget). Each case gets
# its own namespace: the runs cap at --max-iterations, which keeps the
# in-DB checkpoint, and a later run reusing the namespace would resume
# from it instead of executing EM at all.
NET_CASE=0
run_net_case() {
    net_label=$1; shift
    NET_CASE=$((NET_CASE + 1))
    : > "$SRV_TMP/proxy.log"
    "$PROXY_BIN" --upstream "$SRV_ADDR" "$@" \
        < "$SRV_TMP/proxyctl" > "$SRV_TMP/proxy.log" 2> "$SRV_TMP/proxy.err" &
    PROXY_PID=$!
    PROXY_ADDR=''
    i=0
    while [ $i -lt 100 ]; do
        PROXY_ADDR=$(sed -n 's/^listening on //p' "$SRV_TMP/proxy.log")
        [ -n "$PROXY_ADDR" ] && break
        kill -0 "$PROXY_PID" 2>/dev/null || break
        sleep 0.05
        i=$((i + 1))
    done
    if [ -z "$PROXY_ADDR" ]; then
        echo "ERROR: chaos-proxy failed to start ($net_label)" >&2
        cat "$SRV_TMP/proxy.err" >&2
        exit 1
    fi
    "$CLI_BIN" "$SRV_TMP/net.csv" --k 2 --seed 7 --max-iterations 4 \
        --retries 8 ${NET_EXTRA:-} --scores "$SRV_TMP/net_case.csv" \
        --connect "$PROXY_ADDR" --namespace "cn${NET_CASE}_" \
        > "$SRV_TMP/net_case.out" 2> "$SRV_TMP/net_case.err" || {
        echo "ERROR: chaos-net $net_label: interrupted run failed" >&2
        cat "$SRV_TMP/net_case.err" >&2
        exit 1
    }
    cmp "$SRV_TMP/net_base.csv" "$SRV_TMP/net_case.csv" || {
        echo "ERROR: chaos-net $net_label: assignments diverged" >&2; exit 1; }
    cmp "$SRV_TMP/net_base.out" "$SRV_TMP/net_case.out" || {
        echo "ERROR: chaos-net $net_label: summary diverged" >&2; exit 1; }
    kill "$PROXY_PID" 2>/dev/null || :
    wait "$PROXY_PID" 2>/dev/null || :
    PROXY_PID=''
}

for net_dir in to-server to-client; do
    for net_frame in $NET_FRAMES; do
        run_net_case "cut-before $net_dir@$net_frame" \
            --cut-dir "$net_dir" --cut-frame "$net_frame"
        for net_off in $NET_OFFSETS; do
            run_net_case "cut-at-$net_off $net_dir@$net_frame" \
                --cut-dir "$net_dir" --cut-frame "$net_frame" \
                --cut-offset "$net_off"
        done
    done
done
# A delayed frame is pure latency; a generous --deadline must ride
# through the proxy headers without perturbing the result.
run_net_case "delay to-server@9" --delay-dir to-server --delay-frame 9
NET_EXTRA='--deadline 30' run_net_case "deadline-header passthrough"
echo shutdown >&9
wait "$SERVER_PID" || { echo "ERROR: server drain failed" >&2; exit 1; }
SERVER_PID=''

# Overload gate (docs/ROBUSTNESS.md "Resource governance"): the load
# generator drives an in-process server past its admission cap with
# global and per-session memory budgets armed. The bench exits nonzero
# if a shed dial is not absorbed by retry, an EM run fails under
# budget, or the cap never shed anything — so this stage asserts the
# whole degradation ladder end to end, not just that the binary ran.
if [ "$QUICK" = 1 ]; then
    echo "== overload: load-shed bench (--quick: short window)"
    target/release/overload --quick --out "$SRV_TMP/BENCH_overload.json"
else
    echo "== overload: load-shed bench"
    target/release/overload --out "$SRV_TMP/BENCH_overload.json"
fi
grep -q '"shed_count"' "$SRV_TMP/BENCH_overload.json" || {
    echo "ERROR: overload bench produced no shed telemetry" >&2; exit 1; }
cp "$SRV_TMP/BENCH_overload.json" BENCH_overload.json

# Regression gate: compare the fresh numbers against the checked-in
# baseline. Throughput may not drop, nor p99 latency rise, by more
# than SQLEM_BENCH_TOLERANCE (a fraction; the default 0.50 is wide
# because shared CI machines jitter — the gate exists to catch order-
# of-magnitude regressions, not single-digit noise). The baseline is
# NOT auto-refreshed on success: accept a deliberate perf change with
# SQLEM_BENCH_ACCEPT=1, and skip the gate (recording a first baseline)
# with SQLEM_BENCH_SKIP_GATE=1 on a brand-new machine.
BENCH_BASELINE=bench/BASELINE_overload.json
bench_field() { sed -n "s/.*\"$2\":\([0-9.]*\).*/\1/p" "$1"; }
if [ "${SQLEM_BENCH_SKIP_GATE:-0}" = 1 ] || [ ! -f "$BENCH_BASELINE" ]; then
    echo "overload gate: no baseline (or gate skipped); recording this run as it"
    mkdir -p bench
    cp "$SRV_TMP/BENCH_overload.json" "$BENCH_BASELINE"
elif [ "${SQLEM_BENCH_ACCEPT:-0}" = 1 ]; then
    echo "overload gate: SQLEM_BENCH_ACCEPT=1, re-recording the baseline"
    cp "$SRV_TMP/BENCH_overload.json" "$BENCH_BASELINE"
else
    awk -v tol="${SQLEM_BENCH_TOLERANCE:-0.50}" \
        -v qps="$(bench_field "$SRV_TMP/BENCH_overload.json" throughput_qps)" \
        -v p99="$(bench_field "$SRV_TMP/BENCH_overload.json" p99_us)" \
        -v base_qps="$(bench_field "$BENCH_BASELINE" throughput_qps)" \
        -v base_p99="$(bench_field "$BENCH_BASELINE" p99_us)" \
        'BEGIN {
            ok = 1
            if (qps + 0 < base_qps * (1 - tol)) {
                printf "ERROR: throughput regressed: %.0f qps vs baseline %.0f (tolerance %.0f%%)\n", \
                    qps, base_qps, tol * 100 > "/dev/stderr"
                ok = 0
            }
            if (p99 + 0 > base_p99 * (1 + tol)) {
                printf "ERROR: p99 latency regressed: %d us vs baseline %d (tolerance %.0f%%)\n", \
                    p99, base_p99, tol * 100 > "/dev/stderr"
                ok = 0
            }
            if (ok) {
                printf "overload gate: %.0f qps (baseline %.0f), p99 %d us (baseline %d) — within %.0f%%\n", \
                    qps, base_qps, p99, base_p99, tol * 100
            }
            exit ok ? 0 : 1
        }' || {
        echo "hint: a deliberate perf change? re-record with SQLEM_BENCH_ACCEPT=1 ./ci.sh" >&2
        exit 1
    }
fi

# Cluster gate (docs/CLUSTER.md): the same study hash-partitioned
# across two *real* shard server processes behind the scatter/gather
# coordinator must be byte-identical to the in-process run — summary
# and per-row assignments. Reuses the server stage's in-process
# artifacts (same data, seed and iteration budget).
echo "== cluster: sharded scale-out parity + scaling bench"
: > "$SRV_TMP/shard1.log"
"$SERVER_BIN" --listen 127.0.0.1:0 \
    < "$SRV_TMP/ctl" > "$SRV_TMP/shard1.log" 2> "$SRV_TMP/shard1.err" &
SHARD1_PID=$!
# The second shard gets a control fifo of its own: two servers reading
# one fifo race for the lines, and a single buffered read can swallow
# both "shutdown"s, leaving the other shard (and this script) waiting
# forever.
mkfifo "$SRV_TMP/ctl2"
exec 7<>"$SRV_TMP/ctl2"
: > "$SRV_TMP/shard2.log"
"$SERVER_BIN" --listen 127.0.0.1:0 \
    < "$SRV_TMP/ctl2" > "$SRV_TMP/shard2.log" 2> "$SRV_TMP/shard2.err" &
SHARD2_PID=$!
SHARD1_ADDR=''
SHARD2_ADDR=''
i=0
while [ $i -lt 100 ]; do
    SHARD1_ADDR=$(sed -n 's/^listening on //p' "$SRV_TMP/shard1.log")
    SHARD2_ADDR=$(sed -n 's/^listening on //p' "$SRV_TMP/shard2.log")
    [ -n "$SHARD1_ADDR" ] && [ -n "$SHARD2_ADDR" ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$SHARD1_ADDR" ] || [ -z "$SHARD2_ADDR" ]; then
    echo "ERROR: shard servers failed to start" >&2
    cat "$SRV_TMP/shard1.err" "$SRV_TMP/shard2.err" >&2
    exit 1
fi
"$CLI_BIN" "$SRV_TMP/data.csv" --k 2 --seed 11 --max-iterations 12 \
    --scores "$SRV_TMP/cluster.csv" --shards "$SHARD1_ADDR,$SHARD2_ADDR" \
    --namespace cic_ > "$SRV_TMP/cluster.out" 2> "$SRV_TMP/cluster.err"
grep -q "cluster coordinator over 2 shard(s)" "$SRV_TMP/cluster.err" || {
    echo "ERROR: the run did not go through the coordinator" >&2
    cat "$SRV_TMP/cluster.err" >&2
    exit 1
}
cmp "$SRV_TMP/local.csv" "$SRV_TMP/cluster.csv" || {
    echo "ERROR: sharded assignments differ from in-process" >&2; exit 1; }
cmp "$SRV_TMP/local.out" "$SRV_TMP/cluster.out" || {
    echo "ERROR: sharded summary differs from in-process" >&2; exit 1; }
echo shutdown >&9
echo shutdown >&7
wait "$SHARD1_PID" || { echo "ERROR: shard 1 drain failed" >&2; exit 1; }
wait "$SHARD2_PID" || { echo "ERROR: shard 2 drain failed" >&2; exit 1; }
SHARD1_PID=''
SHARD2_PID=''

# The scaling bench sweeps shard counts over the retail workload
# (embedded shards, real scatter/gather fragmentation) and fails
# itself on any model drift between shard counts.
if [ "$QUICK" = 1 ]; then
    target/release/cluster --quick --out "$SRV_TMP/BENCH_cluster.json"
else
    target/release/cluster --out "$SRV_TMP/BENCH_cluster.json"
fi
grep -q '"bench":"cluster"' "$SRV_TMP/BENCH_cluster.json" || {
    echo "ERROR: cluster bench produced no telemetry" >&2; exit 1; }
# Only a full run's numbers are the checked-in file's; a --quick run's
# smaller sweep stays in the scratch directory, leaving the tree clean.
if [ "$QUICK" = 0 ]; then
    cp "$SRV_TMP/BENCH_cluster.json" BENCH_cluster.json
fi

echo "== workspace: all crate tests"
cargo test --workspace -q

echo "== perfbench: benchmark package tests + --quick smoke run"
cargo test --release --offline --quiet --manifest-path perfbench/Cargo.toml
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml \
    --bin benchmark -- --workload sharded_retail --quick --trace 1 \
    --out-dir "$SRV_TMP/perfbench" > /dev/null

echo "CI OK"
