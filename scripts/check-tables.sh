#!/bin/sh
# check-tables.sh — published-tables gate. Fails unless every table
# documented in EXPERIMENTS.md (each fenced block whose first line starts
# with "E<n> —" or "T<n> —") appears verbatim, as consecutive lines, in
# the given output of the full tahoe-bench suite:
#
#   go build -o /tmp/tahoe-bench ./cmd/tahoe-bench
#   /tmp/tahoe-bench -parallel 1 > /tmp/suite.txt
#   sh scripts/check-tables.sh /tmp/suite.txt
set -eu

if [ "$#" -ne 1 ]; then
  echo "usage: check-tables.sh SUITE_OUTPUT" >&2
  exit 2
fi
if [ ! -s "$1" ]; then
  echo "check-tables: suite output $1 is missing or empty" >&2
  exit 1
fi

awk '
  # First file: the suite output, joined into one newline-framed string.
  FNR == NR { out = out "\n" $0; next }
  /^```/ {
    if (!inblock) { inblock = 1; first = 1; blk = ""; next }
    inblock = 0
    if (keep) {
      n++
      if (index(out "\n", blk "\n") == 0) {
        print "check-tables: \"" title "\" differs from the suite output" > "/dev/stderr"
        bad++
      }
    }
    keep = 0
    next
  }
  inblock {
    if (first) { first = 0; title = $0; keep = ($0 ~ /^[ET][0-9]+ —/) }
    blk = blk "\n" $0
  }
  END {
    if (n == 0) { print "check-tables: no documented tables found" > "/dev/stderr"; exit 1 }
    if (bad) exit 1
    print "check-tables: all " n " documented tables match the suite output"
  }
' "$1" "$(dirname "$0")/../EXPERIMENTS.md"
