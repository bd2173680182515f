#!/usr/bin/env bash
# Identical-behaviour oracle for refactors: runs the same fixed set of
# deterministic `debuglet` commands with two builds and byte-diffs their
# output and `chaos --trace-out` traces.
#
#   tools/behaviour_diff.sh OLD_DEBUGLET NEW_DEBUGLET [WORKDIR]
#
# OLD_DEBUGLET and NEW_DEBUGLET are paths to two `debuglet` binaries (for
# example the parent commit's build/tools/debuglet and this tree's).
# Exits 0 when every output is byte-identical, 1 otherwise.
set -u

if [ $# -lt 2 ]; then
  echo "usage: $0 OLD_DEBUGLET NEW_DEBUGLET [WORKDIR]" >&2
  exit 2
fi
old=$(realpath "$1")
new=$(realpath "$2")
work=${3:-$(mktemp -d)}
for bin in "$old" "$new"; do
  if [ ! -x "$bin" ]; then
    echo "not an executable: $bin" >&2
    exit 2
  fi
done

commands=(
  "measure --ases 8 --client 2#2 --server 5#1"
  "measure --ases 8 --client 2#2 --server 7#1 --proto icmp --probes 30"
  "localize --ases 8 --fault-link 4"
  "localize --ases 8 --fault-link 2 --strategy linear"
  "localize --ases 8 --fault-link 5 --strategy parallel"
  "localize --ases 8 --fault-link 3 --strategy inband"
  "traceroute --ases 8 --mute 3 --rate-limit 4"
  "motivation --city NewYork --hours 1"
  "chaos --seed 7 --trace-out trace"
  "chaos --seed 7 --link-corrupt 30 --link-dup 30 --link-reorder 50 --link-flap-ms 400 --trace-out trace"
  "chaos --seed 11 --ases 5 --fault-link 2 --link-corrupt 50 --link-dup 50 --link-reorder 80 --trace-out trace"
  "chaos --seed 7 --int --trace-out trace"
  "chaos --seed 7 --fault-ms 0 --middlebox 3:hide:25 --detect-discrimination --trace-out trace"
  "chaos --seed 7 --fault-ms 0 --middlebox 3:adaptive --detect-discrimination --trace-out trace"
  "chaos --mass-purchase 300 --pairs 4 --seed 7 --trace-out trace"
)

status=0
for i in "${!commands[@]}"; do
  for side in old new; do
    dir="$work/$side/$i"
    mkdir -p "$dir"
    bin=$old
    [ "$side" = new ] && bin=$new
    # shellcheck disable=SC2086  # the command strings are word lists
    (cd "$dir" && "$bin" ${commands[$i]} > stdout 2>&1; echo "exit $?" >> stdout)
  done
  if diff -r "$work/old/$i" "$work/new/$i" > /dev/null; then
    echo "same    ${commands[$i]}"
  else
    echo "DIFFERS ${commands[$i]}  (see $work/{old,new}/$i)"
    status=1
  fi
done
exit $status
