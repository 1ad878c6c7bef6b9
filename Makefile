# Mirrors .github/workflows/ci.yml — `make ci` is exactly the CI gate.
CARGO ?= cargo

.PHONY: ci lint fmt build test bench doc example specbench-check clean

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

clean:
	$(CARGO) clean
