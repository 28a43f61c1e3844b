"""Reference child of the benchmark: a fixed miniature of the scheme's arithmetic.

    python3 perfbench/reference.py <degree> <bits> <reps>

Squares a random element of Z[x]/(x^degree + 1) reps times, reducing every
coefficient modulo a fixed odd number of the given bit length: the same mix
of interpreter work and big-integer products as a ringrsa decryption.  It
imports nothing from ringrsa and never changes with it, so its wall time
follows only the speed of the CPU it runs on.  bench.py runs it on the same
CPU right before and after each timed command and scales the command's time
by it.
"""

import random
import sys

degree, bits, reps = (int(a) for a in sys.argv[1:4])
rng = random.Random(bits)
q = rng.getrandbits(bits) | 1 << (bits - 1) | 1
f = [rng.randrange(q) for _ in range(degree)]
for _ in range(reps):
    raw = [0] * (2 * degree - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(f):
            raw[i + j] += a * b
    for k in range(2 * degree - 2, degree - 1, -1):
        raw[k - degree] -= raw[k]
    f = [c % q for c in raw[:degree]]
