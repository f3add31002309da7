"""The bicubic spline interpolant of periodic grids, as a table of
monomial coefficients per cell.

Only a conformal torus reads it, so ``geometry`` imports this module when a
torus first interpolates, and no other command loads it.
"""

import numpy as np


def _not_a_knot_slopes(m):
    """(m, m) matrix D: D @ f is h times the node slopes of the not-a-knot
    cubic spline through f on m uniform nodes of spacing h."""
    A = np.zeros((m, m))
    B = np.zeros((m, m))
    i = np.arange(1, m - 1)
    A[i, i - 1] = A[i, i + 1] = 1.0
    A[i, i] = 4.0
    B[i, i + 1], B[i, i - 1] = 3.0, -3.0
    # the third derivative is continuous at nodes 1 and m - 2
    A[0, [0, 2]] = A[-1, [-3, -1]] = 1.0, -1.0
    B[0, :3] = B[-1, -3:] = -2.0, 4.0, -2.0
    return np.linalg.solve(A, B)


def _hermite_to_monomial(v0, v1, d0, d1, out=None):
    """Coefficients of t^0..t^3 (stacked on a new axis 0) of the cubic on
    [0, 1] with values v0, v1 and t-derivatives d0, d1 at its ends."""
    return np.stack([v0, d0, 3.0 * (v1 - v0) - 2.0 * d0 - d1,
                     2.0 * (v0 - v1) + d0 + d1], out=out)


class PeriodicBicubic:
    """The bicubic interpolant of periodic grids on [0, Lx) x [0, Ly).

    Each grid is padded by 4 cells on every side with wrap-around, and
    interpolated by the tensor-product cubic spline with not-a-knot ends
    (de Boor, A Practical Guide to Splines, ch. XVII): the spline FITPACK's
    RectBivariateSpline(kx=ky=3) fits to the padded grid.  It is stored as
    16 monomial coefficients of t^p u^q a cell and grid, for the (n+1)^2
    cells that cover [0, Lx] x [0, Ly], so a wrapped x equal to Lx needs no
    clamp; 128 B a grid point and grid.
    """

    PAD = 4

    def __init__(self, grids, Lx, Ly):
        nx, ny = grids[0].shape
        # columns, to broadcast against the stacked (x, y) of a call
        self.period = np.array([[Lx], [Ly]])
        self.n = np.array([[nx], [ny]])
        self.h = self.period / self.n
        Dx = _not_a_knot_slopes(nx + 2 * self.PAD)
        Dy = _not_a_knot_slopes(ny + 2 * self.PAD)
        # nodes 0 .. n+1 of each axis, the corners of the tabled cells
        ix = slice(self.PAD, self.PAD + nx + 2)
        iy = slice(self.PAD, self.PAD + ny + 2)
        # table[q, p, grid, cell] multiplies t^p u^q in cell i (ny + 1) + j
        self.table = np.empty((4, 4, len(grids), (nx + 1) * (ny + 1)))
        for k, g in enumerate(grids):
            f = np.pad(g, self.PAD, mode="wrap")
            fy = f @ Dy.T
            f, fx, fy, fxy = (a[ix, iy] for a in (f, Dx @ f, fy, Dx @ fy))
            # along x, then along y
            cv = _hermite_to_monomial(f[:-1], f[1:], fx[:-1], fx[1:])
            cd = _hermite_to_monomial(fy[:-1], fy[1:], fxy[:-1], fxy[1:])
            _hermite_to_monomial(
                cv[..., :-1], cv[..., 1:], cd[..., :-1], cd[..., 1:],
                out=self.table[:, :, k].reshape(4, 4, nx + 1, ny + 1))
        self._ny1 = ny + 1

    def __call__(self, x, y):
        """The interpolated grids at points (x, y) taken modulo (Lx, Ly),
        shape (grids,) + x.shape; a NaN or infinite position gives NaN.
        Only elementwise arithmetic: a point's value does not depend on the
        other points of the call."""
        shape = np.shape(x)
        q = np.array((x, y), dtype=float).reshape(2, -1)
        np.mod(q, self.period, out=q)
        q /= self.h
        # fmin sends NaN to the last cell, where t = NaN makes the value NaN
        ij = np.fmin(q, self.n).astype(np.intp)
        q -= ij
        t, u = q
        cell, j = ij
        cell *= self._ny1
        cell += j
        c0, c1, c2, r = self.table.take(cell, axis=-1)
        # Horner in u for each power of t, then in t
        r *= u
        r += c2
        r *= u
        r += c1
        r *= u
        r += c0
        r0, r1, r2, out = r
        out *= t
        out += r2
        out *= t
        out += r1
        out *= t
        out += r0
        return out.reshape((-1,) + shape)
