"""The Lem3.1 kernel, localize.OreSweep, at n = 16, past the n <= 12 gate.

Three relabelled inputs of order 16.  Each is commutative (a*t = t*a puts
a*T in tS), so its right Ore sets are its closed sets:

- min_chain(14): a*b is a or b, so every subset, 2^16 = 65,536;
- delta(14): the 2^15 sets holding 0, plus the sets without 0 made of 1
  and at most one x_i, 2*15, so 2^15 + 30 = 32,798;
- null(16): every product of nonidentities is 0, so the 2^15 sets holding
  0, plus {} and {1}, 2^15 + 2 = 32,770.

No saturation may fail, and the three kernels must take under 0.5 s
together (5 ms measured on a 2-vCPU host, where the sweep that read each
subset in turn took 0.96 s).  It exits 1 otherwise.  Run from the
repository root:

    PYTHONPATH=src:tests python tests/lem31_wide.py
"""
import time

from oracles import null_monoid, shuffled
from sgideals.corpus import build_delta, build_min_chain
from sgideals.localize import OreSweep


def main() -> int:
    spent, bad = 0.0, []
    for name, s, want in [("min_chain(14)", build_min_chain(14), 2**16),
                          ("delta(14)", build_delta(14), 2**15 + 30),
                          ("null(16)", null_monoid(16), 2**15 + 2)]:
        s = shuffled(s, 16)
        start = time.perf_counter()
        sweep = OreSweep(s)
        found = sweep.first_non_ideal_saturation()
        spent += time.perf_counter() - start
        count = sum(1 for _ in sweep)
        print(name, count, "right Ore sets, first failure", found)
        if (count, found) != (want, None):
            bad.append(name)
    print(f"kernels {spent:.3f} s, wrong: {bad}")
    return int(bool(bad) or spent > 0.5)


if __name__ == "__main__":
    raise SystemExit(main())
