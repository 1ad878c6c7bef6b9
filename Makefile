# Mirrors .github/workflows/ci.yml — `make ci` is exactly the CI gate.
CARGO ?= cargo

.PHONY: ci lint fmt build test bench doc example specbench-check smoke gate quality snapshot clean

ci: lint build test bench doc example specbench-check

lint:
	$(CARGO) fmt --all --check
	$(CARGO) clippy --workspace --all-targets -- -D warnings

fmt:
	$(CARGO) fmt --all

build:
	$(CARGO) build --release --workspace

# The SPECQP_SPEC=fallback lap verifies every Spec-QP run and recovers
# mis-speculations by delta (tests/diff_speculation.rs: delta == restart up
# to summation order; the forced-final stage alone is byte-identical to
# TriniT; tests/diff_exec.rs stays byte-exact across block sizes and with
# the naive oracle).
test:
	$(CARGO) test -q --workspace
	SPECQP_SPEC=fallback $(CARGO) test -q --workspace
	SPECQP_MORSELS=4 $(CARGO) test -q --workspace
	SPECQP_CHURN=1 $(CARGO) test -q --workspace
	SPECQP_LEARNED=1 $(CARGO) test -q --workspace
	env -u RUST_TEST_THREADS $(CARGO) test -q --release --test integration_service
	env -u RUST_TEST_THREADS $(CARGO) test -q --release --test integration_server
	env -u RUST_TEST_THREADS $(CARGO) test -q --release -p specqp_service
	env -u RUST_TEST_THREADS $(CARGO) test -q --release -p specqp_server

bench:
	$(CARGO) bench --no-run --workspace

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --workspace

example:
	$(CARGO) run --release --example quickstart

# specbench is a package of its own (outside the workspace), so nothing above
# compiles it: its tests build specbench/src/adapter.rs against the crates'
# public API and run a toy pass of every workload — a change that breaks the
# benchmark's view of the crates fails here, not at benchmark time.
specbench-check:
	$(CARGO) test --release --offline --manifest-path specbench/Cargo.toml

# The weekly bench-smoke job in one command.
smoke:
	$(CARGO) run --release -p bench --bin probe -- xkg 2 10 --service 4 --block-size 128 --quality --server --morsels 4 --churn --learned --json BENCH_probe.json

# The CI bench-regression job: probe the current tree, gate against the
# committed baseline (3x noise tolerance), and check the snapshot speedup,
# the speculation quality floor, the wire front-end's overload behavior (shed with RetryAfter, p99 bounded), the
# morsel-parallel + snapshot v2 floors (answers bit-identical always; the 2x
# speedup floor applies only when cores >= workers), the live-writes
# churn floors (answers epoch-stable, post-compaction load >= 5x), and the
# learned-prediction floors (cold engine byte-identical to histograms,
# taught mis-speculation rate < 0.06 and <= static, overhead <= 1.25x).
gate:
	$(CARGO) run --release -p bench --bin probe -- xkg 2 10 --service 4 --block-size 128 --quality --server --morsels 4 --churn --learned --json target/BENCH_current.json
	$(CARGO) run --release -p bench --bin bench_gate -- regression BENCH_probe.json target/BENCH_current.json 3
	$(CARGO) run --release -p bench --bin bench_gate -- snapshot target/BENCH_current.json 3
	$(CARGO) run --release -p bench --bin bench_gate -- quality target/BENCH_current.json 0.95 1.25
	$(CARGO) run --release -p bench --bin bench_gate -- overload BENCH_probe.json target/BENCH_current.json 3
	$(CARGO) run --release -p bench --bin bench_gate -- parallel target/BENCH_current.json 2 5
	$(CARGO) run --release -p bench --bin bench_gate -- churn target/BENCH_current.json 5
	$(CARGO) run --release -p bench --bin bench_gate -- learned target/BENCH_current.json 0.06 1.25

# The speculation quality gate alone: precision@k vs TriniT must stay
# >= 0.95 with the fallback lifecycle enabled, at <= 1.25x runtime overhead.
quality:
	$(CARGO) run --release -p bench --bin probe -- xkg 2 10 --quality --json target/BENCH_quality.json
	$(CARGO) run --release -p bench --bin bench_gate -- quality target/BENCH_quality.json 0.95 1.25

# The CI snapshot-roundtrip job: datagen -> save snapshot -> reload ->
# results must be byte-identical to the builder/TSV path.
snapshot:
	$(CARGO) run --release -p bench --bin probe -- xkg 2 10 --save-snapshot target/xkg.snap --json target/BENCH_tsv.json
	$(CARGO) run --release -p bench --bin probe -- xkg 2 10 --snapshot target/xkg.snap --json target/BENCH_snapshot.json
	$(CARGO) run --release -p bench --bin bench_gate -- determinism target/BENCH_tsv.json target/BENCH_snapshot.json
	$(CARGO) run --release -p bench --bin bench_gate -- snapshot target/BENCH_snapshot.json 3

clean:
	$(CARGO) clean
