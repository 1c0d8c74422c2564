"""Plain-int formulas with more than one caller in gl2 and aut.

A formula used in one place lives in its caller; only the shared ones
are here, so that each is written once.  The value modules reach them
through ``heisaut._backend``.  They operate on plain Python integers
(arbitrary precision, never truncated).

Automorphism data is ``(m11,m12,m21,m22,r,u)``: the generators x=(1,0,0)
and y=(0,1,0) map to ``(m11,m21,r)`` and ``(m12,m22,u)``, and the central
generator (0,0,1) maps to ``(0,0,det)``.
"""


def mat_mul(x11, x12, x21, x22, y11, y12, y21, y22):
    return (
        x11 * y11 + x12 * y21,
        x11 * y12 + x12 * y22,
        x21 * y11 + x22 * y21,
        x21 * y12 + x22 * y22,
    )


def aut_offset(m11, m12, m21, m22, r, u, a, b):
    # c-coordinate of the image of (a,b,0) = y^b x^a: expand the generator
    # images' powers by the power law of heis and multiply out
    return (a * r + b * u + a * (a - 1) // 2 * m11 * m21
            + b * (b - 1) // 2 * m12 * m22 + a * b * m12 * m21)
