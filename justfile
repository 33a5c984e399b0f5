# Developer entry points (mirrors the Makefile; this container ships
# `make` but not `just` — keep both in sync).

build:
    cargo build --release

test:
    cargo test --workspace -q

clippy:
    cargo clippy --workspace --all-targets -q -- -D warnings

# Warning-free API docs (rustdoc lints are errors).
doc:
    make doc

# Engine equivalence matrix + window-successor differential suite.
matrix:
    make matrix

# Repository benchmark: its tests, then every workload for one second,
# failing unless each reports zero failed ops.
perfbench:
    make perfbench

# Build + test + clippy + doc + matrix + perfbench + bench-smoke (the
# merge gate).
ci:
    make ci

# Build release, run the hot-path bench at the committed paper shape,
# validate BENCH_sim.json against the committed file.
bench-smoke:
    make bench-smoke

# The paper-scale evidence run.
bench-paper:
    make bench-paper
