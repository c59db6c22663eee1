"""Truncated numeric gauge factors: the oracle the gauge tests check the
Pochhammer and Theta moves against at sample points."""


class DomainError(ValueError):
    """Numeric evaluation outside the convergence domain."""


def _poch_numeric(x, q, terms):
    acc = complex(1)
    qk = complex(1)
    x = complex(x)
    for _ in range(terms):
        acc *= (1 - x * qk)
        qk *= q
    return acc


def eval_special(kind, x, q, terms) -> complex:
    """Truncated numeric gauge factors.

    "Pochhammer" evaluates the product of (1 - x q^k) for k < terms.
    "Theta" evaluates the triple product (q;q)(−x;q)(−q/x;q) with the
    same truncation.  The truncation error is bounded by the deviation of
    the first omitted factors, which is O(|q|^terms) for fixed x.
    """
    q = complex(q)
    if abs(q) >= 1:
        raise DomainError("|q| must be < 1, got %r" % (q,))
    if terms < 1:
        raise ValueError("terms must be at least 1")
    if kind == "Pochhammer":
        return _poch_numeric(x, q, terms)
    if kind == "Theta":
        x = complex(x)
        if x == 0:
            raise DomainError("theta factor is undefined at x = 0")
        return (_poch_numeric(q, q, terms)
                * _poch_numeric(-x, q, terms)
                * _poch_numeric(-q / x, q, terms))
    raise ValueError("unknown factor kind %r" % (kind,))
