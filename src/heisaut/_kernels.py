"""Plain-int formulas with more than one caller in gl2 and aut.

A formula used in one place lives in its caller; only the shared ones
are here, so that each is written once.  Today that is the 2x2 matrix
product, which gl2.mat_multiply and the run products of gl2.eval_letters
both use.  aut.compose multiplies the matrices inside its own plain-int
core (aut._compose_data), next to the center offsets that reuse the
product's entries; aut's offset formulas are specialized to each caller
(see aut.apply).
The value modules reach the kernels through ``heisaut._backend``.
They operate on plain Python integers (arbitrary precision, never
truncated).
"""


def mat_mul(x11, x12, x21, x22, y11, y12, y21, y22):
    return (
        x11 * y11 + x12 * y21,
        x11 * y12 + x12 * y22,
        x21 * y11 + x22 * y21,
        x21 * y12 + x22 * y22,
    )
