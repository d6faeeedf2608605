#!/usr/bin/env python3
"""Symbolise a sampler.so dump: inclusive and self share per function.
usage: report.py BINARY prof.txt [pattern ...]"""
import subprocess, sys, collections, os
binary, dump, pats = sys.argv[1], sys.argv[2], sys.argv[3:]
real = os.path.realpath(binary)
base, samples = None, []
for line in open(dump):
    if line.startswith("M ") and base is None and line.rstrip().endswith(real):
        base = int(line.split()[1].split("-")[0], 16)
    elif line.startswith("S"):
        samples.append([int(a, 16) for a in line.split()[1:]])
lo, hi = base, base + os.path.getsize(real) * 4
# Return addresses point after the call: step back one byte, except the leaf.
addrs = sorted({(a - base - (1 if i else 0)) for s in samples for i, a in enumerate(s) if lo <= a < hi})
out = subprocess.run(["addr2line", "-i", "-f", "-C", "-a", "-e", real], input="\n".join(hex(a) for a in addrs),
                     capture_output=True, text=True).stdout.splitlines()
names, cur = {}, None
i = 0
while i < len(out):
    if out[i].startswith("0x") and " " not in out[i]:
        cur = int(out[i], 16); names[cur] = []; i += 1
    else:
        names[cur].append(out[i]); i += 2   # function line, then file:line
incl, self_ = collections.Counter(), collections.Counter()
for s in samples:
    seen, leaf = set(), None
    for i, a in enumerate(s):
        if not (lo <= a < hi): continue
        fns = names.get(a - base - (1 if i else 0), [])
        if leaf is None and fns: leaf = fns[0]
        seen.update(fns)
    for f in seen: incl[f] += 1
    if leaf: self_[leaf] += 1
n = len(samples)
print(f"{n} samples")
if pats:
    for p in pats:
        hit = sum(1 for s in samples if any(p in f for i, a in enumerate(s) if lo <= a < hi
                                          for f in names.get(a - base - (1 if i else 0), [])))
        print(f"{100*hit/n:6.2f}%  incl  {p}")
else:
    print("--- inclusive"); [print(f"{100*c/n:6.2f}%  {f}") for f, c in incl.most_common(70)]
    print("--- self");      [print(f"{100*c/n:6.2f}%  {f}") for f, c in self_.most_common(40)]
