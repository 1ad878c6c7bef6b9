# The CI gate: each step of .github/workflows/ci.yml runs one of these
# targets, and `make ci` runs them all in the same order.
CARGO ?= cargo

.PHONY: ci lint fmt build test doc example specbench-check loc clean

ci: lint build test doc example specbench-check loc

# The grep guards keep out what the repository removed or forbids. The
# criterion guard matches the crate's names, not the English word. The last
# guard keeps the ground-truth evaluator off the serving path.
lint:
	$(CARGO) fmt --all --check
	$(CARGO) clippy --workspace --all-targets -- -D warnings
	! git grep -n 'env::var' -- 'crates/*/src/*' src
	! git grep -nE 'approx_eq|SUM_SLACK' -- crates src tests examples
	! git grep -nE 'QuotaConfig|QuotaRegistry|with_quota|with_client|DuplicatePolicy' -- crates src tests examples
	! git grep -nE 'PlanCache|DEFAULT_SHARDS|per_shard_capacity' -- crates src tests examples
	! git grep -nE 'criterion(::|_|\.workspace| *=)|Criterion|vendor/criterion' -- crates src tests examples Cargo.toml
	! git grep -nE 'record_speculations?\b' -- crates src tests examples
	! git grep -nE 'debug_text_order|decimal_order|WireWriteOp|MissingStatistics' -- crates src tests examples
	! git grep -n 'required_relaxations' -- crates/core/src/engine.rs crates/core/src/speculation.rs crates/service crates/server

fmt:
	$(CARGO) fmt --all

build:
	$(CARGO) build --release --workspace

# One workspace lap, then the concurrency suites again in release mode with
# libtest's own parallelism on top of the service pools.
test:
	$(CARGO) test -q --workspace
	env -u RUST_TEST_THREADS $(CARGO) test -q --release --test integration_service
	env -u RUST_TEST_THREADS $(CARGO) test -q --release --test integration_server
	env -u RUST_TEST_THREADS $(CARGO) test -q --release --test diff_live
	env -u RUST_TEST_THREADS $(CARGO) test -q --release -p specqp_service
	env -u RUST_TEST_THREADS $(CARGO) test -q --release -p specqp_server
	env -u RUST_TEST_THREADS $(CARGO) test -q --release -p kgstore
	env -u RUST_TEST_THREADS $(CARGO) test -q --release -p specqp_stats

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --workspace

# Every example runs; plan_explain also refuses an out-of-range query id
# with its usage line and exit status 2.
example:
	$(CARGO) run --release --example quickstart
	$(CARGO) run --release --example music_discovery
	$(CARGO) run --release --example twitter_trends
	$(CARGO) run --release --example plan_explain -- twitter 3 10
	$(CARGO) run --release --quiet --example plan_explain -- xkg 9999; test $$? -eq 2

# specbench is a package of its own (outside the workspace), so nothing above
# compiles it: its tests build specbench/src/adapter.rs against the crates'
# public API and run a toy pass of every workload — a change that breaks the
# benchmark's view of the crates fails here, not at benchmark time.
specbench-check:
	$(CARGO) test --release --offline --manifest-path specbench/Cargo.toml

# The Rust line count — a report, not a gate. Under CI it also goes to the
# job summary.
loc:
	@n=$$(find crates src tests examples -name '*.rs' | xargs wc -l | tail -1 | awk '{print $$1}'); \
	echo "Rust lines (crates src tests examples): $$n" | tee -a "$${GITHUB_STEP_SUMMARY:-/dev/null}"

clean:
	$(CARGO) clean
