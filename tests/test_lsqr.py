import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, lsqr as scipy_lsqr

from anosovlab import smfourier as sf
from anosovlab.lsqr import lsqr


@pytest.fixture(scope="module")
def w0_half(octagon):
    """The k > 0 half of the w0 ladder on a 16^2 octagon patch at n_modes 4
    (free modes 2 and 4, out modes 1 and 3), preconditioned, with its
    whitened right-hand side -X f_0."""
    f = sf.octagon_mode0_field(octagon, rng=np.random.default_rng(0), n=16)
    ch, out_ks = f.chart, [1, 3]
    op = sf._LadderOperator(ch, [2, 4], out_ks, V_power=0)
    op._build_precond()
    ks = np.array(out_ks)
    rhs = -np.add(*sf._eta_sides(ch, f.data[[f.n_modes]],
                                 sf._ladder_nbr([0], out_ks),
                                 sf._eta_coef(ch, ks - 1, ks + 1)))
    return op, (rhs * ch.sqrt_w).ravel()


def _both(op, b, damp, iter_lim):
    """(x, istop, itn) from the package's lsqr and from SciPy's."""
    ours = lsqr(op.precond_matvec, op.precond_rmatvec, b, op.shape[1], damp,
                sf.LSQR_ATOL, 1e-14, iter_lim)
    A = LinearOperator(op.shape, matvec=op.precond_matvec,
                       rmatvec=op.precond_rmatvec, dtype=complex)
    theirs = scipy_lsqr(A, b, damp=damp, atol=sf.LSQR_ATOL, btol=1e-14,
                        iter_lim=iter_lim)
    return ours, theirs[:3]


class TestMatchesScipy:
    """The port keeps SciPy's operations in SciPy's order, so x, istop and
    itn agree bit for bit."""

    @pytest.mark.parametrize("damp, iter_lim, stops", [
        (1e-6, 400, (1, 2)),      # converged, damped as invariant's reg
        (1e-6, 5, (7,)),          # the iteration cap
        (0.0, 400, (1, 2))])      # undamped
    def test_same_iterates(self, w0_half, damp, iter_lim, stops):
        op, b = w0_half
        (x, istop, itn), (x_s, istop_s, itn_s) = _both(op, b, damp,
                                                       iter_lim)
        assert np.array_equal(x, x_s)
        assert (istop, itn) == (istop_s, itn_s)
        assert istop in stops and 0 < itn <= iter_lim

    def test_zero_rhs(self, w0_half):
        op, b = w0_half
        (x, istop, itn), (x_s, istop_s, itn_s) = _both(
            op, np.zeros_like(b), 1e-6, 400)
        assert (istop, itn) == (istop_s, itn_s) == (0, 0)
        assert np.array_equal(x, x_s) and not np.any(x)
        assert x.shape == (op.shape[1],)
