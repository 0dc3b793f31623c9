#!/usr/bin/env python3
"""Symbolizes the samples `sampler.c` wrote and prints where the time went.

    symbolize.py PROFILE [PROFILE ...] [--top N] [--lines FUNCTION]

Each PROFILE is a `$DTBL_PROF_OUT.<pid>` file with its `.maps` file
beside it; several are summed (say, a benchmark's child processes).
Prints each function's self share (the innermost frame) and inclusive
share (anywhere on the stack, once per sample). With `--lines`, also
the self samples whose function, or any function inlined at the
sampled address, has a name containing FUNCTION: by innermost inlined
function, then by source line, 25 rows each. Uses only `nm`, `readelf`
and `addr2line`.
"""

import argparse
import bisect
import collections
import re
import signal
import struct
import subprocess
import sys


def read_samples(path):
    with open(path, "rb") as f:
        data = f.read()
    words = struct.unpack("<%dQ" % (len(data) // 8), data[: len(data) // 8 * 8])
    i = 0
    while i < len(words):
        n = words[i]
        yield words[i + 1 : i + 1 + n]
        i += 1 + n


def read_maps(path):
    """Executable file mappings: (start, end, file offset, path)."""
    maps = []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) < 6 or "x" not in parts[1] or not parts[5].startswith("/"):
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            maps.append((start, end, int(parts[2], 16), parts[5]))
    maps.sort()
    return maps


class Symbols:
    """Function symbols of one object file, by address, via `nm`, and
    its loadable segments, via `readelf`, to turn file offsets into the
    addresses `nm` and `addr2line` use."""

    def __init__(self, path):
        self.path = path
        self.segments = []
        out = subprocess.run(
            ["readelf", "-lW", path], capture_output=True, text=True, check=False
        ).stdout
        for line in out.splitlines():
            parts = line.split()
            if parts and parts[0] == "LOAD":
                offset, vaddr, filesz = (int(x, 16) for x in (parts[1], parts[2], parts[4]))
                self.segments.append((offset, offset + filesz, vaddr))
        out = subprocess.run(
            ["nm", "-C", "--defined-only", "-n", path],
            capture_output=True,
            text=True,
            check=False,
        ).stdout
        self.addrs, self.names = [], []
        for line in out.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "tTwW":
                self.addrs.append(int(parts[0], 16))
                self.names.append(demangle_tail(parts[2]))

    def vaddr(self, offset):
        for start, end, vaddr in self.segments:
            if start <= offset < end:
                return vaddr + offset - start
        return offset

    def name(self, addr):
        i = bisect.bisect_right(self.addrs, addr) - 1
        return self.names[i] if i >= 0 else "?"


def demangle_tail(name):
    return re.sub(r"::h[0-9a-f]{16}$", "", name)


# Rows in each of the two `--lines` tables.
LINES_TOP = 25


def inline_chains(path, addrs):
    """For each address, its inline chain from `addr2line -a -i -f -C`:
    (function, file:line) pairs, innermost first."""
    out = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", path] + ["%x" % a for a in addrs],
        capture_output=True,
        text=True,
        check=False,
    ).stdout.splitlines()
    chains = []
    i = 0
    while i < len(out):
        if out[i].startswith("0x"):
            chains.append([])
            i += 1
            continue
        where = out[i + 1].split(" (discriminator")[0] if i + 1 < len(out) else "??:?"
        chains[-1].append((demangle_tail(out[i]), where))
        i += 2
    return chains


def main():
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # quiet under `| head`
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("profiles", nargs="+")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--lines", metavar="FUNCTION")
    args = ap.parse_args()

    symbols = {}
    self_count = collections.Counter()
    incl_count = collections.Counter()
    leaf_addrs = collections.Counter()
    total = 0
    for prof in args.profiles:
        maps = read_maps(prof + ".maps")
        starts = [m[0] for m in maps]

        def locate(pc):
            i = bisect.bisect_right(starts, pc) - 1
            if i < 0 or pc >= maps[i][1]:
                return None
            start, _, offset, path = maps[i]
            return path, pc - start + offset

        for frames in read_samples(prof):
            total += 1
            seen = set()
            for depth, pc in enumerate(frames):
                # A return address points after its call instruction.
                where = locate(pc if depth == 0 else pc - 1)
                if where is None:
                    name = "[unknown]"
                else:
                    path, offset = where
                    if path not in symbols:
                        symbols[path] = Symbols(path)
                    addr = symbols[path].vaddr(offset)
                    name = symbols[path].name(addr)
                    if depth == 0:
                        leaf_addrs[(path, addr, name)] += 1
                if depth == 0:
                    self_count[name] += 1
                if name not in seen:
                    seen.add(name)
                    incl_count[name] += 1

    if total == 0:
        sys.exit("no samples")
    print("%d samples" % total)
    print("\n  self %  incl %  function")
    for name, n in self_count.most_common(args.top):
        print("%7.1f %7.1f  %s" % (100 * n / total, 100 * incl_count[name] / total, name))
    print("\n  incl %  function (by inclusive share)")
    for name, n in incl_count.most_common(args.top):
        print("%7.1f  %s" % (100 * n / total, name))

    if args.lines:
        by_path = collections.defaultdict(list)
        for (path, addr, name), n in leaf_addrs.items():
            by_path[path].append((addr, name, n))
        inlined = collections.Counter()
        lines = collections.Counter()
        for path, hits in by_path.items():
            chains = inline_chains(path, [a for a, _, _ in hits])
            for (_, name, n), chain in zip(hits, chains):
                if not chain or not any(args.lines in f for f in [name] + [f for f, _ in chain]):
                    continue
                func, where = chain[0]
                inlined[func] += n
                lines["%s  %s" % (where, func)] += n
        print("\n  self %%  innermost function (samples matching %r)" % args.lines)
        for func, n in inlined.most_common(LINES_TOP):
            print("%7.1f  %s" % (100 * n / total, func))
        print("\n  self %%  line  innermost function (samples matching %r)" % args.lines)
        for where, n in lines.most_common(LINES_TOP):
            print("%7.1f  %s" % (100 * n / total, where))


if __name__ == "__main__":
    main()
