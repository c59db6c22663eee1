"""Pure-Python kernels for sparse term-dict arithmetic.

A term dict maps an exponent tuple (one slot per variable, fixed length)
to a nonzero coefficient.  These functions are the inner loop of every
polynomial operation and the only implementation of it;
qheun.symkernel binds this module as ``termops``.  ``BACKEND`` names
the kernel in benchmark run records.
"""

BACKEND = "pure"


def add_terms(a, b):
    """Sum of two term dicts over the same variable tuple."""
    out = dict(a)
    for exp, c in b.items():
        s = out.get(exp)
        if s is None:
            out[exp] = c
        else:
            s = s + c
            if s:
                out[exp] = s
            else:
                del out[exp]
    return out


def sub_terms(a, b):
    out = dict(a)
    for exp, c in b.items():
        s = out.get(exp)
        if s is None:
            out[exp] = -c
        else:
            s = s - c
            if s:
                out[exp] = s
            else:
                del out[exp]
    return out


def neg_terms(a):
    return {exp: -c for exp, c in a.items()}


def scale_terms(a, c):
    """Multiply every coefficient by a nonzero scalar c."""
    return {exp: c * v for exp, v in a.items()}


def mul_terms(a, b):
    """Product of two term dicts (exponent tuples add slotwise)."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            s = out.get(exp)
            if s is None:
                out[exp] = c
            else:
                s = s + c
                if s:
                    out[exp] = s
                else:
                    del out[exp]
    return out
