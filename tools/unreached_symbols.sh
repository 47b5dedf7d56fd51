#!/usr/bin/env bash
# Report library functions that no shipped binary keeps.
#
# Builds every example, every bench and perfbench with
# -ffunction-sections and -Wl,--gc-sections into a scratch build tree,
# then lists the global functions defined in the src/ libraries
# (libbd_*.a) that none of those binaries retains after the linker drops
# unreferenced sections. Tests are not built: a function only a unit test
# calls is exactly what this reports.
#
# Report-only, not a CI gate. A function that every caller inlines (for
# example a helper called only from its own .cpp file) leaves no symbol in
# any binary and shows up here too, so grep for callers before deleting
# anything it lists.
#
# Usage: tools/unreached_symbols.sh [build-dir]   (default: build-gc)
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

dir="${1:-build-gc}"
jobs="$(nproc)"
flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

mkdir -p "$dir"
log="$dir/unreached_symbols.log"
echo "unreached_symbols: building examples, benches and perfbench into $dir" \
  "(log: $log)" >&2
{
  cmake -S . -B "$dir" "${flags[@]}" -DCMAKE_DISABLE_FIND_PACKAGE_GTest=ON &&
    cmake --build "$dir" -j "$jobs" &&
    cmake -S perfbench -B "$dir/perfbench" "${flags[@]}" &&
    cmake --build "$dir/perfbench" -j "$jobs" --target perfbench
} > "$log" 2>&1 || { echo "unreached_symbols: build failed, see $log" >&2; exit 1; }

binaries=$(find "$dir/examples" "$dir/bench" -maxdepth 1 -type f -perm -u+x)
binaries="$binaries $dir/perfbench/perfbench"

kept=$(mktemp)
defined=$(mktemp)
trap 'rm -f "$kept" "$defined"' EXIT

# Every text symbol any binary kept (mangled names).
for bin in $binaries; do
  nm --defined-only "$bin" | awk '$2 ~ /^[TtWw]$/ {print $3}'
done | sort -u > "$kept"

# Global functions the libraries define, tagged with their library.
for lib in $(find "$dir/src" -name 'libbd_*.a' | sort); do
  name=$(basename "$lib" .a)
  nm --defined-only "$lib" 2>/dev/null |
    awk -v lib="${name#lib}" '$2 == "T" {print $3 "\t" lib}'
done | sort -u -k1,1 > "$defined"

count=0
while IFS=$'\t' read -r symbol lib; do
  printf '%-12s %s\n' "$lib" "$(c++filt "$symbol")"
  count=$((count + 1))
done < <(join -t $'\t' -v 1 "$defined" "$kept" | sort -t $'\t' -k2,2 -k1,1)
echo "unreached_symbols: $count library functions kept by no example, bench or perfbench" >&2
