#!/usr/bin/env bash
# Reach census: every non-generic inherent or free function of the
# library crates must be reachable from an entry point, or be listed in
# ci/reach_allowlist.txt with a reason.
#
# The library crates are the workspace crates under crates/ that define
# no entry point (no `src/bin`, `src/main.rs` or `benches`). The entry
# points are every binary, example and criterion bench the workspace and
# bench_e2e declare (`cargo metadata`): the `repro_*` binaries, `vnt`,
# `bench_e2e`, the examples and the benches. They are linked without
# optimisation and with `--gc-sections`, so an executable keeps exactly
# the functions its `main` can statically reach; the library rlibs hold
# every non-generic function. The census is the set difference of the two
# `nm` listings, with hashes, closures and trait-impl methods dropped.
#
# It fails on an unreached function that is not listed (unlisted), on a
# listed function that an entry point now reaches (stale), and on a
# listed function that no rlib defines any more (gone).
#
# Limits: a generic function is instantiated only where it is used, so an
# unused one is invisible here (the `pub fn` grep fence in CI covers it);
# reachability is static, and a trait-object method counts as reached
# once its vtable is.
#
# Usage: ci/reach_census.sh   (builds into target/census, apart from the
# release build).
set -euo pipefail
cd "$(dirname "$0")/.."

target=target/census
allowlist=ci/reach_allowlist.txt
export RUSTFLAGS="-C opt-level=0 -C debuginfo=0 -C codegen-units=256 -C link-arg=-Wl,--gc-sections"
libs=()
for manifest in crates/*/Cargo.toml; do
    dir="$(dirname "$manifest")"
    test -e "$dir/src/bin" -o -e "$dir/src/main.rs" -o -e "$dir/benches" && continue
    name="$(sed -nE 's/^name = "(.*)"$/\1/p' "$manifest" | head -n 1)"
    libs+=("${name//-/_}")
done
crates="$(IFS='|'; echo "${libs[*]}")"
entry_points() {
    cargo metadata --offline --no-deps --format-version 1 "$@" \
        | grep -oE '"kind":\["(bin|example|bench)"\]' | wc -l
}
expected_exes=$(($(entry_points) + $(entry_points --manifest-path bench_e2e/Cargo.toml)))

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Build the entry points; the artifact messages name the executables and
# the rlibs they were linked from.
cargo build --offline --quiet --message-format=json --target-dir "$target" \
    -p vnet-bench -p vnettracer-repro --bins --examples --bench '*' >"$work/ws.json"
cargo build --offline --quiet --message-format=json --target-dir "$target" \
    --manifest-path bench_e2e/Cargo.toml --bins >"$work/e2e.json"

grep -ohE '"executable":"[^"]+"' "$work/ws.json" "$work/e2e.json" \
    | sed -E 's/^"executable":"(.*)"$/\1/' | sort -u >"$work/exes"
grep -ohE '"[^"]+/lib('"$crates"')-[0-9a-f]+\.rlib"' "$work/ws.json" \
    | tr -d '"' | sort -u >"$work/rlibs"
test "$(wc -l <"$work/exes")" -eq "$expected_exes" \
    || { echo "reach census: expected $expected_exes entry points, found:"; cat "$work/exes"; exit 1; }
test "$(wc -l <"$work/rlibs")" -eq "${#libs[@]}" \
    || { echo "reach census: expected ${#libs[@]} library rlibs ($crates), found:"; cat "$work/rlibs"; exit 1; }

# Text symbols, demangled, hash dropped; only the library crates' own
# non-generic inherent and free functions (no `<T as Trait>::f`, no
# closures).
symbols() {
    nm -C --defined-only "$@" 2>/dev/null \
        | awk '$2 ~ /^[Tt]$/ { $1 = ""; $2 = ""; sub(/^  /, ""); print }' \
        | sed -E 's/::h[0-9a-f]{16}$//' \
        | grep -E "^($crates)::" | grep -v '{{closure}}' | sort -u
}
# shellcheck disable=SC2046
symbols $(cat "$work/exes") >"$work/reached"
# shellcheck disable=SC2046
symbols $(cat "$work/rlibs") >"$work/defined"
comm -23 "$work/defined" "$work/reached" >"$work/unreached"

# Allowlist: one function path per line, then `#` and the reason.
fail=0
sed -E 's/[[:space:]]*#.*$//; /^[[:space:]]*$/d' "$allowlist" | sort >"$work/listed"
if grep -vE '^[^#]+[[:space:]]#[[:space:]]*[^[:space:]]' "$allowlist" | grep -vE '^[[:space:]]*(#|$)'; then
    echo "reach census: the allowlist lines above give no reason"
    fail=1
fi
if test -n "$(uniq -d "$work/listed")"; then
    echo "reach census: listed twice:"; uniq -d "$work/listed"; fail=1
fi
unlisted="$(comm -23 "$work/unreached" <(sort -u "$work/listed"))"
stale="$(comm -12 "$work/reached" <(sort -u "$work/listed"))"
gone="$(comm -23 <(sort -u "$work/listed") "$work/defined")"

echo "reach census: $(wc -l <"$work/defined") library functions," \
     "$(wc -l <"$work/unreached") unreached, $(wc -l <"$work/listed") listed"
if test -n "$unlisted"; then
    echo "unlisted (no entry point reaches these; delete them or list them with a reason):"
    echo "$unlisted" | sed 's/^/  /'; fail=1
fi
if test -n "$stale"; then
    echo "stale (an entry point now reaches these; take them off the allowlist):"
    echo "$stale" | sed 's/^/  /'; fail=1
fi
if test -n "$gone"; then
    echo "gone (no library defines these any more; take them off the allowlist):"
    echo "$gone" | sed 's/^/  /'; fail=1
fi
exit "$fail"
