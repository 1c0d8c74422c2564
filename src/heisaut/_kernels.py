"""Pure-Python arithmetic kernels, the package's only backend.

The value modules reach them through ``heisaut._backend``.  They operate
on plain Python integers (arbitrary precision, never truncated).

Conventions baked into the kernels:

* Heisenberg triples multiply as
  ``(a1,b1,c1)*(a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1*b2)``.
* Automorphism data is ``(m11,m12,m21,m22,r,u)``: the generators
  x=(1,0,0) and y=(0,1,0) map to ``(m11,m21,r)`` and ``(m12,m22,u)``,
  and the central generator (0,0,1) maps to ``(0,0,det)``.
"""


def heis_mul(a1, b1, c1, a2, b2, c2):
    return a1 + a2, b1 + b2, c1 + c2 + a1 * b2


def heis_inv(a, b, c):
    return -a, -b, a * b - c


def heis_pow(a, b, c, n):
    # n*(n-1) is a product of consecutive integers: even for every n.
    return n * a, n * b, n * c + (n * (n - 1) // 2) * a * b


def mat_mul(x11, x12, x21, x22, y11, y12, y21, y22):
    return (
        x11 * y11 + x12 * y21,
        x11 * y12 + x12 * y22,
        x21 * y11 + x22 * y21,
        x21 * y12 + x22 * y22,
    )


def aut_apply(m11, m12, m21, m22, r, u, a, b, c):
    # Image of (a,b,c) = z^c y^b x^a under the automorphism: expand the
    # generator images with heis_pow and multiply out.
    det = m11 * m22 - m12 * m21
    ca = a * (a - 1) // 2
    cb = b * (b - 1) // 2
    return (
        a * m11 + b * m12,
        a * m21 + b * m22,
        det * c + a * r + b * u + ca * m11 * m21 + cb * m12 * m22 + a * b * m12 * m21,
    )


def aut_compose(n11, n12, n21, n22, r2, u2, m11, m12, m21, m22, r1, u1):
    # Data of omega2 o omega1: push omega1's generator images through omega2.
    p11, p12, p21, p22 = mat_mul(n11, n12, n21, n22, m11, m12, m21, m22)
    r = aut_apply(n11, n12, n21, n22, r2, u2, m11, m21, r1)[2]
    u = aut_apply(n11, n12, n21, n22, r2, u2, m12, m22, u1)[2]
    return p11, p12, p21, p22, r, u
