#!/usr/bin/env python3
"""Sums a pcsample.<pid>.txt profile by function and by source file.

    python3 tools/pcsample/symbolize.py pcsample.<pid>.txt [--top N]

Each sample's module is the executable mapping holding its PC; a
position-independent module's address is the PC minus its load base (the
start of its offset-0 mapping).  addr2line names the function and source
file of the symbol the PC lies in (an inlined callee counts toward its
caller).  A module without line tables (a stripped system library) gets
one "[module]" row, since addr2line would name whichever exported symbol
precedes the PC; samples outside any named module count as "?".
"""

import argparse
import collections
import os
import re
import subprocess


def read(path):
    maps, pcs = [], []
    with open(path) as f:
        for line in f:
            kind, _, rest = line.partition(" ")
            fields = rest.split(None, 5)
            if kind == "pc":
                pcs.append(int(rest, 16))
            elif len(fields) == 6 and fields[5].startswith("/"):
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                maps.append((lo, hi, fields[1], int(fields[2], 16), fields[5].strip()))
    return maps, pcs


def load_bases(maps):
    """Per module: 0 for a fixed-address executable, else its load base."""
    bases = {}
    for lo, _, _, offset, path in maps:
        if offset == 0 and path not in bases:
            with open(path, "rb") as f:
                e_type = int.from_bytes(f.read(18)[16:18], "little")
            bases[path] = lo if e_type == 3 else 0  # ET_DYN
    return bases


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("profile")
    p.add_argument("--top", type=int, default=25)
    args = p.parse_args()
    maps, pcs = read(args.profile)
    text = [m for m in maps if "x" in m[2]]
    bases = load_bases(maps)
    by_module = collections.defaultdict(collections.Counter)
    funcs, files = collections.Counter(), collections.Counter()
    for pc in pcs:
        m = next((m for m in text if m[0] <= pc < m[1]), None)
        if m is None or m[4] not in bases:
            funcs["?"] += 1
            files["?"] += 1
        else:
            by_module[m[4]][pc - bases[m[4]]] += 1
    for module, counts in by_module.items():
        addrs = sorted(counts)
        # -a heads each address's frames; -i lists its inline chain, the
        # outermost frame (the real symbol) last.
        out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", module],
                             input="".join(f"{a:x}\n" for a in addrs),
                             capture_output=True, text=True, check=True).stdout
        groups = re.split(r"^0x[0-9a-f]+\n", out, flags=re.M)[1:]
        for a, group in zip(addrs, groups):
            func, loc = group.splitlines()[-2:]
            loc = loc.rsplit(":", 1)[0]
            if loc == "??":
                func = loc = f"[{os.path.basename(module)}]"
            funcs[func] += counts[a]
            files[os.path.normpath(loc)] += counts[a]
    total = max(len(pcs), 1)
    print(f"{len(pcs)} samples")
    for title, counter in (("function", funcs), ("source file", files)):
        print(f"\n{'share':>7}  {'samples':>8}  {title}")
        for name, n in counter.most_common(args.top):
            print(f"{100.0 * n / total:6.2f}%  {n:8d}  {name}")


if __name__ == "__main__":
    main()
