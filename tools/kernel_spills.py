#!/usr/bin/env python3
"""Count stack stores inside the k loops of the SIMD microkernels.

Usage:
    tools/kernel_spills.py FILE.s [FILE.s ...] [--max-stores N]

Reads g++/clang AT&T assembly (e.g. `g++ -O3 -S src/blas/kernel_avx2.cpp`
with the project's flags) and finds every innermost loop: a backward
conditional jump to a label earlier in the same function. A loop counts as
a microkernel k loop when its body multiplies and accumulates packed
doubles (vfmadd*pd, or mulpd and addpd in either encoding). For each such
loop the script prints the function, the number of FMA / mul+add
instructions and the number of vector stores to the stack frame
(%rsp/%rbp-relative) — a register-resident kernel has none; a spilling
kernel writes its accumulators back on every k step.

Exit code: 0 when every file has at least one k loop and every k loop has
at most --max-stores (default 0) stack stores, 1 otherwise, 2 on usage
errors. The ctest `kernel_asm_no_spills` runs it on both SIMD TUs.
"""

from __future__ import annotations

import argparse
import re
import sys

LABEL = re.compile(r"^(\.L\w+|[A-Za-z_][\w.$]*):")
JUMP = re.compile(r"^\s+j(?!mp)\w+\s+(\.L\w+)")
FUNC = re.compile(r"^\s+\.type\s+([\w.$]+),\s*@function")
STACK_STORE = re.compile(
    r"^\s+v?mov(?:ap|up)[ds]\s+%[xyz]mm\d+,\s*-?\d*\(%r[sb]p\)")
FMA = re.compile(r"^\s+vfn?madd\d+pd\b")
MUL = re.compile(r"^\s+v?mulpd\b")
ADD = re.compile(r"^\s+v?addpd\b")


def k_loops(lines: list[str]):
    """Yields (function, body lines) for each innermost multiply loop."""
    func = "?"
    labels: dict[str, int] = {}
    for i, line in enumerate(lines):
        m = FUNC.match(line)
        if m:
            func = m.group(1)
            labels = {}
            continue
        m = LABEL.match(line)
        if m:
            labels[m.group(1)] = i
            continue
        m = JUMP.match(line)
        if m and m.group(1) in labels:
            body = lines[labels[m.group(1)] + 1:i]
            if any(LABEL.match(b) for b in body):
                continue  # not innermost
            yield func, body


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--max-stores", type=int, default=0)
    args = ap.parse_args()
    ok = True
    for path in args.files:
        found = 0
        try:
            with open(path, encoding="utf-8") as f:
                lines = f.read().splitlines()
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        for func, body in k_loops(lines):
            fma = sum(1 for b in body if FMA.match(b))
            mul = sum(1 for b in body if MUL.match(b))
            add = sum(1 for b in body if ADD.match(b))
            if fma == 0 and (mul == 0 or add == 0):
                continue
            stores = sum(1 for b in body if STACK_STORE.match(b))
            found += 1
            ok = ok and stores <= args.max_stores
            print(f"{path}: {func}: {fma} fma, {mul} mul, {add} add, "
                  f"{stores} stack stores per k step"
                  f"{'' if stores <= args.max_stores else '  <-- SPILLS'}")
        if found == 0:
            print(f"error: {path}: no microkernel k loop found",
                  file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
