"""The reference slice: a fixed piece of pure-Python work that measures the
host's speed at a moment.  It imports nothing from cubicff, so no change to
the program moves it."""

# Operands: fixed GF(3) coefficient lists.
REF_A = [(i * i + 1) % 3 for i in range(108)]
REF_B = [(5 * i + 2) % 3 for i in range(108)]
REF_MUL = [[(a * b) % 3 for b in range(3)] for a in range(3)]


def reference_slice():
    """About 1 ms: a schoolbook product of two 108-term GF(3) coefficient
    lists through a product table, the shape of the tabled field and
    polynomial kernels."""
    out = [0] * (len(REF_A) + len(REF_B) - 1)
    for i, x in enumerate(REF_A):
        row = REF_MUL[x]
        for j, y in enumerate(REF_B):
            out[i + j] = (out[i + j] + row[y]) % 3
    return out
