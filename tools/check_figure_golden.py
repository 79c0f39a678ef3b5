#!/usr/bin/env python3
"""Diff a figure binary's stdout against its committed golden.

Usage:
    python3 tools/check_figure_golden.py --bin build/bench/fig5_boehm_tracker \
        --golden tests/goldens/fig5_boehm_tracker.txt [--update]

Virtual-time output must stay byte-identical. Host-time fields vary from
run to run and from host to host, so they are masked with "*" before the
comparison:
  - table columns whose header names "wall" or "speedup", and the SMP
    tables' "drained" column (entries popped by concurrent drainer
    threads, which depends on when those threads run);
  - lines that report a fleet's serial/parallel wall clock;
  - the host's core count and the worker-thread count.
Table rows are re-rendered as "| a | b |" because a masked column's width
follows its values. --update rewrites the golden from the binary's output.
Exit status: 0 on a match, 1 on a difference (a unified diff is printed).
"""
import argparse
import difflib
import re
import subprocess
import sys

HOST_COLUMN = re.compile(r"wall|speedup|drained", re.IGNORECASE)
NUMBER = re.compile(r"\d+(\.\d+)?")


def mask(text):
    out = []
    masked = None  # column indices to mask in the current table's body
    borders = 0    # '+---' lines seen in the current table
    for line in text.splitlines():
        if line.startswith("+"):
            borders += 1
            out.append("+")
            continue
        if line.startswith("|"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if borders == 1:
                masked = {i for i, c in enumerate(cells) if HOST_COLUMN.search(c)}
            else:
                cells = ["*" if i in (masked or ()) else c for i, c in enumerate(cells)]
            out.append("| " + " | ".join(cells) + " |")
            continue
        borders, masked = 0, None
        if "wall clock" in line:
            line = NUMBER.sub("*", line)
        line = re.sub(r"\(\d+ here\)", "(* here)", line)
        line = re.sub(r"up to \d+ worker threads", "up to * worker threads", line)
        out.append(line)
    return "\n".join(out) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bin", required=True, help="figure binary to run")
    ap.add_argument("--golden", required=True, help="masked golden stdout")
    ap.add_argument("--update", action="store_true", help="rewrite the golden")
    args = ap.parse_args()

    run = subprocess.run([args.bin], stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        print(f"{args.bin} exited with {run.returncode}", file=sys.stderr)
        return 1
    got = mask(run.stdout)
    if args.update:
        with open(args.golden, "w") as f:
            f.write(got)
        return 0
    with open(args.golden) as f:
        want = f.read()
    if got == want:
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        want.splitlines(keepends=True), got.splitlines(keepends=True),
        fromfile=args.golden, tofile=args.bin))
    return 1


if __name__ == "__main__":
    sys.exit(main())
