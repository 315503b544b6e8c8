#!/usr/bin/env bash
# Counts the production Go lines of the repository: every tracked .go
# file except tests and the perfbench module. Run it from the
# repository root:
#
#   bash scripts/loc.sh
#
# The first line is the plain `wc -l` total the ROADMAP and CHANGES.md
# quote; the second leaves out blank lines and comment-only lines
# (`//` lines and lines inside /* */ blocks).
set -euo pipefail

files=$(git ls-files '*.go' | grep -v _test.go | grep -v '^perfbench/')
echo "production Go lines: $(echo "$files" | xargs wc -l | tail -n 1 | awk '{print $1}')"
echo "non-blank, non-comment: $(echo "$files" | xargs awk '
	block { if (sub(/.*\*\//, "")) block = 0; else next }
	/^[ \t]*\/\*/ { if (!sub(/.*\*\//, "")) { block = 1; next } }
	/^[ \t]*(\/\/.*)?$/ { next }
	{ n++ }
	END { print n }')"
