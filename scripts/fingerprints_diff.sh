#!/usr/bin/env bash
# fingerprints-diff: the bit-identity check of a change against a commit.
#
#   bash scripts/fingerprints_diff.sh REF      (or: make fingerprints-diff REF=...)
#
# Checks REF out into a temporary git worktree, runs this tree's
# scripts/fingerprints.sh there and in the working tree, and prints
# both outputs. Exits 0 when they are equal and 1 on any difference,
# after printing the differing lines. The worktree (under $TMPDIR) is
# removed on exit, whatever the outcome.
set -euo pipefail

REF=${1:-}
if [ -z "$REF" ]; then
  echo "usage: $0 REF  (make fingerprints-diff REF=<commit>)" >&2
  exit 2
fi
ROOT=$(git rev-parse --show-toplevel)
SCRIPT="$ROOT/scripts/fingerprints.sh"
WORK=$(mktemp -d)
cleanup() {
  git -C "$ROOT" worktree remove --force "$WORK/ref" >/dev/null 2>&1 || true
  rm -rf "$WORK"
  git -C "$ROOT" worktree prune
}
trap cleanup EXIT

git -C "$ROOT" worktree add --quiet --detach "$WORK/ref" "$REF"
(cd "$WORK/ref" && bash "$SCRIPT") >"$WORK/ref.txt"
(cd "$ROOT" && bash "$SCRIPT") >"$WORK/tree.txt"

echo "== $REF"
cat "$WORK/ref.txt"
echo "== working tree"
cat "$WORK/tree.txt"
if diff "$WORK/ref.txt" "$WORK/tree.txt"; then
  echo "fingerprints equal"
else
  echo "fingerprints differ from $REF" >&2
  exit 1
fi
