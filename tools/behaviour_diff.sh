#!/usr/bin/env bash
# Identical-behaviour oracle for refactors: runs the same fixed set of
# deterministic `debuglet` commands with two builds and byte-diffs their
# output and `chaos --trace-out` traces. It then runs every `example_*`
# found in each build's examples/ directory (beside tools/) and byte-diffs
# their output and exit codes; when one build has no examples built, it
# says so and skips them.
#
#   tools/behaviour_diff.sh OLD_DEBUGLET NEW_DEBUGLET [WORKDIR]
#
# OLD_DEBUGLET and NEW_DEBUGLET are paths to two `debuglet` binaries (for
# example the parent commit's build/tools/debuglet and this tree's).
# Under each DIFFERS line it prints the first 20 lines of `diff -r`, so a
# log shows what differed after WORKDIR is gone.
# Exits 0 when every output is byte-identical, 1 otherwise, and 2 with a
# usage message when an argument is missing or is not an executable file
# (a build directory, say).
set -u

usage() {
  echo "usage: $0 OLD_DEBUGLET NEW_DEBUGLET [WORKDIR]" >&2
  exit 2
}

if [ $# -lt 2 ]; then
  usage
fi
for bin in "$1" "$2"; do
  if [ ! -f "$bin" ] || [ ! -x "$bin" ]; then
    echo "not an executable file: $bin" >&2
    usage
  fi
done
old=$(realpath "$1")
new=$(realpath "$2")
work=${3:-$(mktemp -d)}

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
  "measure --ases 4 --client 1#2 --server 4#1 --seal"
  "measure --proto tcp --probes 5 --interval 50 --seed 3"
  "measure --proto raw --ases 6"
  "localize --ases 10 --fault-link 8 --strategy binary --fault-ms 40"
  "localize --ases 8 --fault-ms 0"
  "traceroute --ases 6 --mute 3 --rate-limit 5 --seed 2"
  "motivation --city Frankfurt --hours 2 --seed 9"
  "chaos --byzantine AS5#1 --trace-out trace"
  "chaos --crash AS7#1 --trace-out trace"
  "chaos --kill AS3#1 --attempts 2 --link-truncate 20 --trace-out trace"
  "chaos --middlebox 5:delay:20 --detect-discrimination --trace-out trace"
  "chaos --middlebox 3:drop --middlebox 7:mangle --middlebox 4:throttle:30 --trace-out trace"
  "chaos --mass-purchase 300 --pairs 4 --seed 7 --workers 1 --trace-out trace"
)

status=0

# Runs a command in WORK/SIDE/NAME, capturing its output and exit code.
run_in() {  # run_in SIDE NAME CMD...
  local dir="$work/$1/$2"
  shift 2
  mkdir -p "$dir"
  (cd "$dir" && "$@" > stdout 2>&1; echo "exit $?" >> stdout)
}

# Byte-diffs the old and new directories of one invocation; on a
# difference, prints the first 20 lines of the diff under the DIFFERS line.
compare() {  # compare NAME LABEL
  local out
  if out=$(diff -r "$work/old/$1" "$work/new/$1"); then
    echo "same    $2"
  else
    echo "DIFFERS $2  (see $work/{old,new}/$1)"
    printf '%s\n' "$out" | head -n 20
    status=1
  fi
}

for i in "${!commands[@]}"; do
  # shellcheck disable=SC2086  # the command strings are word lists
  run_in old "$i" "$old" ${commands[$i]}
  # shellcheck disable=SC2086
  run_in new "$i" "$new" ${commands[$i]}
  compare "$i" "${commands[$i]}"
done

# The examples of each build: BUILD/tools/debuglet -> BUILD/examples/.
old_examples=$(dirname "$(dirname "$old")")/examples
new_examples=$(dirname "$(dirname "$new")")/examples
if compgen -G "$old_examples/example_*" > /dev/null &&
   compgen -G "$new_examples/example_*" > /dev/null; then
  for example in "$new_examples"/example_*; do
    name=$(basename "$example")
    if [ ! -x "$old_examples/$name" ]; then
      echo "note    $name is not built in the old tree; skipped"
      continue
    fi
    run_in old "$name" "$old_examples/$name"
    run_in new "$name" "$example"
    compare "$name" "$name"
  done
else
  echo "note    examples are not built in both trees; skipped"
fi
exit $status
