#!/usr/bin/env bash
# Figure files equal on one CPU and on all.
#
# Usage: bash -e .github/scripts/figures_equal.sh   (from an empty directory
# or the repository root; it writes fig-one/ and fig-all/ there)
#
# The real CPU-affinity path: pinned to one CPU (taskset -c 0) the caller
# computes and writes every figure panel; unpinned, a forked child does panel
# c.  The files and printed paths must not differ.  At grid 33 the 2-D panels
# (1089 rows) are written in two blocks of rows, so the block edge is compared
# on both routes too.  Both figures are written in JSON and in CSV, so each
# serializer goes through the forked route, and figure2 --refine runs the
# maximizer on every panel.  A RuntimeWarning from any panel, in the caller or
# the child, fails the script.  Needs two or more CPUs and taskset.
set -e
test "$(nproc)" -ge 2
for cpus in one all; do
  pin=""
  if [ "$cpus" = one ]; then pin="taskset -c 0"; fi
  mkdir "fig-$cpus"
  cd "fig-$cpus"
  run="$pin python -W error::RuntimeWarning -m ringsfwm"
  $run figure2 --refine --grid 33 > paths.txt
  $run figure3 --grid 33 >> paths.txt
  $run figure2 --format csv --grid 33 >> paths.txt
  $run figure3 --format csv --grid 33 >> paths.txt
  cd ..
done
test "$(ls fig-one)" = "$(ls fig-all)"
for f in fig-one/*; do cmp "$f" "fig-all/${f#fig-one/}"; done
