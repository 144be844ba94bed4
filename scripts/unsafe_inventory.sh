#!/usr/bin/env bash
# The workspace's `unsafe` inventory: the token may appear in code only in
# the three files listed below (DESIGN.md says what each island is for).
# Comment lines and `deny` / `forbid` / `allow` attribute lines are exempt.
# Exits 1 and prints the offending lines if it shows up anywhere else under
# crates/ or vendor/.
#
#   scripts/unsafe_inventory.sh
set -euo pipefail
cd "$(dirname "$0")/.."

allowed='^(crates/mpc/src/pool\.rs|crates/core/src/walk_simd\.rs|vendor/rand_chacha/src/lib\.rs):'
exempt='^[^:]+:[0-9]+:[[:space:]]*(//|#!?\[(deny|forbid|allow)\()'

hits=$(grep -rnw unsafe --include='*.rs' crates vendor | grep -Ev "$allowed" | grep -Ev "$exempt" || true)
if [ -n "$hits" ]; then
    echo "unsafe outside the inventory:" >&2
    echo "$hits" >&2
    exit 1
fi
echo "unsafe inventory: clean"
