"""Tour of the special-function layer.

Evaluates the Gauss and confluent series with their truncation diagnostics,
classifies the behaviour of 2F1 at argument 1, checks a reflection identity
and a Wronskian, and compares the Hermite function against the classical
polynomial it collapses to at integer order.
"""

import math

from nu_spectral import (
    hermite_fn,
    hyp1f1,
    hyp2f1,
    hypU,
    limit_2f1_at_1,
    rodrigues_poly,
    wronskian_defect,
)


def series_with_diagnostics():
    r = hyp2f1(0.5, 1.25, 2.0, 0.7)
    print(f"2F1(1/2, 5/4; 2; 0.7) = {r.value:.12f}")
    print(f"  terms used = {r.terms_used}, truncation estimate = {r.truncation_estimate:.1e}")
    r = hyp1f1(0.8, 1.6, -3.0)
    print(f"1F1(4/5; 8/5; -3)   = {r.value:.12f}  ({r.terms_used} terms)")
    r = hypU(0.9, 1.4, 2.5)
    print(f"U(9/10, 7/5, 5/2)   = {r.value:.12f}  ({r.terms_used} integrand evaluations)")
    print()


def behaviour_at_one():
    for a, b, c in ((0.5, 0.5, 2.0), (0.5, 0.5, 1.0), (1.0, 1.5, 2.0)):
        lim = limit_2f1_at_1(a, b, c)
        print(f"2F1({a}, {b}; {c}; z->1) regime = {lim.regime:12s} constant = {lim.constant}")
    print()


def identities():
    a, c, z = 0.7, 1.4, 1.9
    lhs = hyp1f1(a, c, z).value
    rhs = math.exp(z) * hyp1f1(c - a, c, -z).value
    print(f"reflection gap  |M(a,c,z) - e^z M(c-a,c,-z)| = {abs(lhs - rhs):.2e}")
    print(f"wronskian defect, regular/singular pair at z = 1.5: "
          f"{wronskian_defect('mu', a, c, 1.5):.2e}")
    print()


def hermite_collapse():
    # at nonnegative integer order the function is the classical polynomial
    p3 = rodrigues_poly("hermite", 3)
    for z in (-1.0, 0.4, 2.0):
        fn = hermite_fn(3, z).value
        print(f"H_3({z:4.1f}) = {fn:14.8f}   polynomial = {p3.as_float()(z):14.8f}")


if __name__ == "__main__":
    series_with_diagnostics()
    behaviour_at_one()
    identities()
    hermite_collapse()
