#!/usr/bin/env bash
# Knob census: every public field of a `*Config` struct or of
# `StoreOptions` must be turned by something a user runs, or be listed in
# ci/knob_allowlist.txt with a reason.
#
# A field counts as turned when one of these writes it:
#   * the source of an entry point (crates/bench/src, crates/bench/benches,
#     examples, bench_e2e/src) or of a testbed an entry point builds
#     (crates/testbed/src): a struct literal of its struct that names it,
#     an assignment `recv.field =` to a `recv` bound to the struct, or a call to a setter of it;
#   * the control-package JSON that `vnt --package` reads: a key the
#     struct's `FromJson` impl reads.
# A setter of a field is a `pub fn` of the struct's own `impl` that is
# named after the field, takes a parameter named after it, or writes
# `self.field`; a parameterless constructor other than `default` (a named
# preset such as `RackConfig::small`) sets every field its literal names.
# Test code (everything from a file's first `#[cfg(test)]` on), comment
# lines and the `impl Default` blocks are not writers.
#
# It fails on an unturned field that is not listed (unlisted), on a
# listed field that is now turned (stale), on a listed field that no
# struct has any more (gone) and on a list line with no reason.
#
# Limits: a setter call is matched by the setter's name, and so is an
# assignment through a receiver no `let` binds, so either counts for every
# struct with a field or setter of that name; a value equal to the
# default still counts as a write.
#
# Usage: ci/knob_census.sh [--list]   (`--list` prints every field with
# the first write that turns it).
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

allowlist=ci/knob_allowlist.txt
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Non-test text of one file, without comment lines.
nontest() {
    sed -e '/#\[cfg(test)\]/,$d' -e 's|^[[:space:]]*//.*$||' -e 's|[[:space:]]//.*$||' "$1"
}

# Every censused field, as `Struct::field<TAB>defining file`.
for f in $(find crates -path '*/src/*' -name '*.rs' | sort); do
    nontest "$f" | awk -v file="$f" '
        /^pub struct ([A-Za-z]*Config|StoreOptions) \{/ { s = $3; next }
        s != "" && /^\}/ { s = ""; next }
        s != "" && /^    pub [a-z_0-9]+:/ { fld = $2; sub(/:$/, "", fld); print s "::" fld "\t" file }
    '
done | sort >"$work/fields"
cut -f1 "$work/fields" | sed 's/::.*//' | sort -u >"$work/structs"
test -s "$work/fields" || { echo "knob census: no fields found"; exit 1; }

# Struct-literal scanner: prints `Struct::field<TAB>file:line` for every
# field a literal of a censused struct names (`field: value` or the
# shorthand `field`), at the literal's own depth only.
cat >"$work/literal.awk" <<'AWK'
BEGIN {
    while ((getline s < structs) > 0) known[s] = 1
    n = 0
}
function flush_token(   t) {
    t = tok; gsub(/^[[:space:]]+|[[:space:]]+$/, "", t)
    if (t ~ /^[a-z_][a-z_0-9]*$/) print lit[n] "::" t "\t" where
    tok = ""
}
{
    line = $0
    for (i = 1; i <= length(line); i++) {
        c = substr(line, i, 1)
        if (n > 0 && depth == base[n]) {
            if (c == ":" && substr(line, i + 1, 1) != ":" && substr(line, i - 1, 1) != ":") {
                flush_token(); skip = 1; continue
            }
            if (c == "," || c == "}") { if (!skip) flush_token(); tok = ""; skip = 0 }
            else if (!skip && c != "{" && c != "(" && c != "[") tok = tok c
        }
        if (c == "{" || c == "(" || c == "[") {
            depth++
            if (c == "{") {
                pre = substr(line, 1, i - 1)
                if (match(pre, /[A-Za-z_][A-Za-z_0-9]*[[:space:]]*$/)) {
                    name = substr(pre, RSTART, RLENGTH); sub(/[[:space:]]+$/, "", name)
                    before = substr(pre, 1, RSTART - 1)
                    if ((name in known) && before !~ /(struct|impl|for|enum)[[:space:]]+$/) {
                        n++; lit[n] = name; base[n] = depth; tok = ""; skip = 0
                        where = FILENAME ":" FNR
                    }
                }
            }
        } else if (c == "}" || c == ")" || c == "]") {
            if (n > 0 && depth == base[n] && c == "}") n--
            depth--
        }
    }
}
AWK

# The writers' non-test text, `impl Default` blocks blanked out.
writers="$(find crates/bench/src crates/bench/benches examples bench_e2e/src crates/testbed/src \
    -name '*.rs' | sort)"
for f in $writers; do
    mkdir -p "$work/w/$(dirname "$f")"
    nontest "$f" | awk '
        /^impl Default for / { skip = 1 }
        { print (skip ? "" : $0) }
        skip && /^\}/ { skip = 0 }
    ' >"$work/w/$f"
done
(cd "$work/w" && awk -v structs="$work/structs" -f "$work/literal.awk" $writers) \
    | sed 's/$/ (struct literal)/' >"$work/turned.raw"

# Assignments `recv.field = …`, as `file:line<TAB>field<TAB>structs`:
# the censused structs named by the `let` that binds `recv` (that line
# and the two after it), or `*` when `recv` is bound some other way (a
# parameter, a closure argument), which counts for every struct.
(cd "$work/w" && awk -v structs="$work/structs" '
    BEGIN { while ((getline s < structs) > 0) known[s] = 1 }
    FNR == 1 { nl = 0 }
    { text[++nl] = $0 }
    match($0, /[a-z_][a-z_0-9]*(\.[a-z_][a-z_0-9]*)*\.[a-z_][a-z_0-9]*[[:space:]]*([-+*]?=)[^=]/) {
        lhs = substr($0, RSTART, RLENGTH); sub(/[[:space:]]*[-+*]?=.*$/, "", lhs)
        recv = lhs; sub(/\..*/, "", recv); fld = lhs; sub(/.*\./, "", fld)
        found = "*"
        for (i = nl; i >= 1; i--) {
            if (text[i] ~ "let (mut )?" recv "[^a-z_0-9]") {
                win = text[i] " " text[i + 1] " " text[i + 2]; found = ""
                for (k in known) if (win ~ "(^|[^A-Za-z_0-9])" k "([^A-Za-z_0-9]|$)") found = found k ","
                break
            }
        }
        print FILENAME ":" FNR "\t" fld "\t" found
    }' $writers) >"$work/assignments"
(cd "$work/w" && grep -nE '[.:][a-z_][a-z_0-9]*\(' $writers || true) >"$work/calls"
while IFS=$'\t' read -r field file; do
    s="${field%%::*}"; fld="${field##*::}"
    hit="$(awk -F'\t' -v f="$fld" -v s="$s," '$2 == f && ($3 == "*" || index($3, s))' \
        "$work/assignments" | head -1 | cut -f1)"
    test -n "$hit" && printf '%s\t%s (assignment)\n' "$field" "$hit" >>"$work/turned.raw"
    # The struct's own `impl` block in its defining file: setters and
    # presets of this field.
    nontest "$file" | awk -v s="$s" -v fld="$fld" '
        $0 ~ "^impl " s " \\{" { inimpl = 1; next }
        inimpl && /^\}/ { inimpl = 0 }
        !inimpl { next }
        /^    pub fn [a-z_0-9]+\(/ {
            name = $3; sub(/\(.*/, "", name); sig = $0; body = ""; infn = 1
            setter = (name == fld)
            next
        }
        infn && /^    \}/ {
            params = sig; sub(/^[^(]*\(/, "", params); sub(/\).*/, "", params)
            gsub(/&?(mut )?self,?/, "", params); gsub(/[[:space:]]/, "", params)
            if (name != "default") {
                if (params ~ "(^|,)" fld ":") setter = 1
                if (body ~ "self\\." fld "[[:space:]]*(=[^=]|\\.push\\()") setter = 1
                if (params == "" && body ~ "(Self|" s ")[[:space:]]*\\{" && \
                    body ~ "[{,[:space:]]" fld "(:|,)") setter = 1
                if (setter) print name
            }
            infn = 0; next
        }
        infn { if (sig !~ /\{[[:space:]]*$/) sig = sig $0; else body = body "\n" $0 }
    ' | while read -r setter; do
        hit="$(grep -E "(\.|$s::)$setter\(" "$work/calls" | head -1 | cut -d: -f1,2 || true)"
        test -n "$hit" && printf '%s\t%s (setter %s)\n' "$field" "$hit" "$setter" >>"$work/turned.raw"
    done
    # Package JSON: keys the struct's `FromJson` impl reads. `grep
    # >/dev/null`, not `grep -q`: an early exit could kill `awk` with
    # SIGPIPE, which `pipefail` would read as no key.
    if nontest "$file" | awk -v s="$s" '
            $0 ~ "^impl FromJson for " s " \\{" { on = 1; next }
            on && /^\}/ { on = 0 }
            on { print }' | grep -F "\"$fld\"" >/dev/null; then
        printf '%s\t%s (package JSON key)\n' "$field" "$file" >>"$work/turned.raw"
    fi
done <"$work/fields"

# The first write found for each censused field.
sort -t$'\t' -k1,1 -s "$work/turned.raw" | awk -F'\t' '!seen[$1]++' >"$work/turned.first"
cut -f1 "$work/fields" | sort -u >"$work/all"
join -t$'\t' "$work/all" "$work/turned.first" >"$work/turned"
cut -f1 "$work/turned" | sort -u >"$work/turned.names"
comm -23 "$work/all" "$work/turned.names" >"$work/unturned"

if test "${1:-}" = "--list"; then
    join -t$'\t' -a1 -e 'unturned' -o '0,2.2' "$work/all" "$work/turned.first"
fi

# Allowlist: one `Struct::field` per line, then `#` and the reason.
fail=0
sed -E 's/[[:space:]]*#.*$//; /^[[:space:]]*$/d' "$allowlist" | sort >"$work/listed"
if grep -vE '^[^#]+[[:space:]]#[[:space:]]*[^[:space:]]' "$allowlist" | grep -vE '^[[:space:]]*(#|$)'; then
    echo "knob census: the allowlist lines above give no reason"
    fail=1
fi
if test -n "$(uniq -d "$work/listed")"; then
    echo "knob census: listed twice:"; uniq -d "$work/listed"; fail=1
fi
unlisted="$(comm -23 "$work/unturned" <(sort -u "$work/listed"))"
stale="$(comm -12 "$work/turned.names" <(sort -u "$work/listed"))"
gone="$(comm -23 <(sort -u "$work/listed") "$work/all")"

echo "knob census: $(wc -l <"$work/all") fields of $(wc -l <"$work/structs") structs," \
     "$(wc -l <"$work/unturned") unturned, $(wc -l <"$work/listed") listed"
if test -n "$unlisted"; then
    echo "unlisted (no entry point, testbed or package key turns these; make them constants or list them with a reason):"
    echo "$unlisted" | sed 's/^/  /'; fail=1
fi
if test -n "$stale"; then
    echo "stale (something a user runs now turns these; take them off the allowlist):"
    echo "$stale" | sed 's/^/  /'; fail=1
fi
if test -n "$gone"; then
    echo "gone (no struct has these any more; take them off the allowlist):"
    echo "$gone" | sed 's/^/  /'; fail=1
fi
exit "$fail"
