"""Forward signal models for photon-coincidence imaging.

Every model is a square law ``S_p = scale * Psi_p^2`` in some amplitude
function ``Psi``, and exposes ``dim``, ``labels``, ``box``, ``scale`` and
``psi_grad(a) -> (Psi (B, P), dPsi/dA (B, P, n))`` for a batch ``a`` of shape
``(B, n)``. From those, one ``signal``, one ``jacobian`` and, where ``Psi``
is quadratic in the amplitudes, one ``axis_profile`` serve every model. The
shared ``signal`` reads ``psi(a)``, ``Psi`` without the cost of the gradient.

* ``Uniform1Model`` -- uniform object, one transmission amplitude, n-photon
  coincidences: ``Psi = A**n``, ``scale = N * eta**n``. It keeps its own
  ``signal`` and ``axis_profile`` (``Psi`` is quadratic only for n = 2).
* ``TwoPixelModel`` -- two pixels observed through a symmetric 2x2 real
  kernel ``(h0, h1)``; two autocorrelation components.
* ``SlitArrayModel`` -- M slit-like pixels, ideally correlated photon pairs,
  diagonal second-order correlations sampled on a detector grid with step
  d/r (d/2 by default); kernel coefficients are sinc^2 integrals over pixels.
* ``BiphotonG2Model`` -- same geometry but the full correlation matrix
  G2(x_i, x_j) and a finite transverse correlation length ``sigma_c``:
  photon partners may cross different pixels, which couples pixel pairs.

``TwoPixelModel`` and ``SlitArrayModel`` share the form ``Psi = coeffs A^2``:
their ``coeffs`` table (P, n) makes ``Psi`` linear in the squared
amplitudes, which the least-squares and likelihood fits use for a start.

``signal``/``jacobian`` accept a single parameter vector ``(n,)`` or a batch
``(B, n)`` and return matching shapes. ``axis_profile(theta, V)``, given
the axes as the columns of ``V`` (n, K), returns the exact map from shifts
``delta`` (K, m) to ``v_k^T F(theta + delta v_k) v_k`` of the shot-noise
Fisher matrix. All models are pure and safe for concurrent use;
coefficient tables are computed once and never mutated.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .errors import ConfigError, DimensionMismatch, NonFiniteParameter
from .numerics import adaptive_simpson, gauss_legendre

__all__ = [
    "BoxDomain",
    "Uniform1Model",
    "TwoPixelModel",
    "SlitArrayModel",
    "BiphotonG2Model",
    "ModelSpec",
    "eval_signal",
    "eval_jacobian",
    "slit_kernel_coeff",
    "biphoton_g2_coeffs",
    "model_from_json",
    "model_to_json",
]

# Momentum cut-off of the optical system in units of the Rayleigh limit.
KMAX_FACTOR = 3.83
# Floats in one chunk of the biphoton axis products (about 1 MB).
_CHUNK_FLOATS = 1 << 17


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box ``lower <= theta <= upper``."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ConfigError("box bounds must be 1-D and congruent")
        # NaN fails every comparison, so it would pass the ordering check
        if np.any(np.isnan(lo) | np.isnan(hi)):
            raise ConfigError("box bounds must not be NaN")
        if np.any(lo > hi):
            raise ConfigError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, theta, atol: float = 0.0) -> bool:
        theta = np.asarray(theta, dtype=float)
        return bool(np.all(theta >= self.lower - atol)
                    and np.all(theta <= self.upper + atol))

    @property
    def extent(self) -> float:
        return float(np.max(self.upper - self.lower))

    def inflate(self, margin: float) -> "BoxDomain":
        """Box grown by ``margin`` times its extent on every side."""
        pad = margin * self.extent
        return BoxDomain(self.lower - pad, self.upper + pad)


def unit_box(dim: int) -> BoxDomain:
    """Physical domain 0 <= A_i <= 1 for transmission amplitudes."""
    return BoxDomain(np.zeros(dim), np.ones(dim))


def _sinc(x):
    """Unnormalized sinc: sin(x)/x with sinc(0) = 1."""
    x = np.asarray(x, dtype=float)
    return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)


def _row_products(a: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``a @ table.T`` for a batch of rows, one product per row.

    A single batched product may round a row differently depending on how
    many rows share the call; one product per row keeps every row's result
    independent of the rest of the batch.

    SlitArray's ``Psi`` (37 detectors by 10 pixels at M = 10) keeps one
    product per row: a component-major form like TwoPixel's ``psi`` needs a
    pass over the rows per table entry, 370 of them, and measured 2 to 13
    times slower at 4096 and at 240 rows. Only TwoPixel, with two two-term
    sums, gains from that layout.
    """
    return (a[:, None, :] @ table.T)[:, 0, :]


def _as_batch(theta, dim: int):
    arr = np.asarray(theta, dtype=float)
    if arr.ndim == 1:
        if arr.size != dim:
            raise DimensionMismatch(f"expected {dim} parameters, got {arr.size}")
        return arr[None, :], True
    if arr.ndim == 2:
        if arr.shape[1] != dim:
            raise DimensionMismatch(
                f"expected batch of {dim}-vectors, got shape {arr.shape}")
        return arr, False
    raise DimensionMismatch(f"parameter array must be 1-D or 2-D, got {arr.ndim}-D")


def _square_law_profile(scale: float, g: np.ndarray, h: np.ndarray):
    """Map shifts (K, m) to ``4 scale sum_p (g_kp + delta h_kp)^2`` along
    each of ``K`` axes, for ``g`` and ``h`` of shape (K, P).

    For ``S_p = scale * Psi_p^2`` the shot-noise term along a line is
    ``(dS_p/d delta)^2 / S_p = 4 scale (Psi_p')^2``: the ``Psi^2`` factor
    cancels, so dark components keep their exact limit. ``Psi`` quadratic
    in the amplitudes makes ``Psi_p' = g_p + delta h_p`` affine, so the
    map is the quadratic ``c0 + delta (c1 + delta c2)``, its coefficients
    summed over the components once, one dot product per axis.
    """
    def dots(x, y):
        return np.array([xk @ yk for xk, yk in zip(x, y)])[:, None]

    c0, c1, c2 = (4.0 * scale * dots(g, g), 8.0 * scale * dots(g, h),
                  4.0 * scale * dots(h, h))

    return lambda deltas: c0 + deltas * (c1 + deltas * c2)


def _signal(model, theta):
    """``S = scale Psi^2`` for one parameter vector or a batch."""
    a, single = _as_batch(theta, model.dim)
    s = model.scale * model.psi(a) ** 2
    return s[0] if single else s


def _jacobian(model, theta):
    """``dS/dA = 2 scale Psi grad Psi`` of :func:`_signal`."""
    a, single = _as_batch(theta, model.dim)
    psi, grad = model.psi_grad(a)
    j = 2.0 * model.scale * psi[:, :, None] * grad
    return j[0] if single else j


def _quadratic_profile(model, theta, v):
    """Exact profile along each column of ``v`` (n, K), as a map from shifts
    (K, m), of a model whose ``Psi`` is quadratic.

    ``grad Psi`` is then linear and symmetric, ``grad Psi(a) . b =
    grad Psi(b) . a``, so ``Psi_p' = g_p + delta h_p`` with ``g =
    grad Psi(v) . theta`` and ``h = grad Psi(v) . v``: one gradient per
    axis, all of them from one ``psi_grad`` call.
    """
    theta = np.asarray(theta, dtype=float)
    # C-ordered, so each axis's gradient is laid out, and its products
    # rounded, as those of a one-row call
    axes = np.ascontiguousarray(np.asarray(v, dtype=float).T)
    grads = model.psi_grad(axes)[1]                             # (K, P, n)
    g = np.array([grad @ theta for grad in grads])
    h = np.array([grad @ axis for grad, axis in zip(grads, axes)])
    return _square_law_profile(model.scale, g, h)


@dataclass
class Uniform1Model:
    """Uniform object, ``S(A) = N * eta**n * A**(2n)`` (single component)."""

    N: float
    eta: float
    n: int = 2

    def __post_init__(self):
        _finite_fields(self, skip=("n",))
        if self.N <= 0:
            raise ConfigError("N must be positive")
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError("eta must lie in (0, 1]")
        n, self.n = self.n, _whole(self.n, "n", 1)
        if not _finite_real(self.n * self.n):   # axis_profile takes 4 n^2
            raise ConfigError("n is too large for its square to be a float: "
                              f"{n!r}")

    dim = 1
    labels = ("A",)

    def box(self) -> BoxDomain:
        return unit_box(1)

    @property
    def scale(self) -> float:
        return self.N * self.eta ** self.n

    def psi_grad(self, a):
        """``Psi = A^n`` and ``dPsi/dA = n A^(n-1)``, (B, 1) and (B, 1, 1)."""
        return a ** self.n, (self.n * a ** (self.n - 1))[:, :, None]

    def signal(self, theta):
        # A^(2n) directly: (A^n)^2 may round a power differently by 1 ulp
        a, single = _as_batch(theta, 1)
        s = self.scale * a[:, 0] ** (2 * self.n)
        s = s[:, None]
        return s[0] if single else s

    # bound in the class body: the benchmark's tracer reads it from here
    jacobian = _jacobian

    def axis_profile(self, theta, v):
        """``delta -> 4 n^2 scale v^2 (theta + delta v)^(2n - 2)`` along
        each column of ``v`` (1, K), as a map from shifts (K, m)."""
        a = float(np.ravel(theta)[0])
        w = np.asarray(v, dtype=float).T                            # (K, 1)
        k = 4.0 * self.n ** 2 * self.scale * w * w
        return lambda deltas: k * (a + deltas * w) ** (2 * self.n - 2)


@dataclass
class TwoPixelModel:
    """Two pixels through a symmetric real kernel.

    ``S_1 = N eta^2 (h0 A1^2 + h1 A2^2)^2`` and ``S_2`` with h0/h1 swapped.
    """

    N: float
    eta: float
    h0: float
    h1: float

    def __post_init__(self):
        _finite_fields(self)
        if self.N <= 0:
            raise ConfigError("N must be positive")
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError("eta must lie in (0, 1]")

    dim = 2
    labels = ("A1", "A2")

    def box(self) -> BoxDomain:
        return unit_box(2)

    @property
    def coeffs(self) -> np.ndarray:
        """Kernel table ``[[h0, h1], [h1, h0]]``: ``Psi = coeffs @ A^2``."""
        return np.array([[self.h0, self.h1], [self.h1, self.h0]])

    @property
    def scale(self) -> float:
        return self.N * self.eta ** 2

    def psi(self, a):
        """``Psi`` of a batch ``(B, 2)``, laid out component-major: each
        ``Psi_p`` is one elementwise pass over the rows into a ``(2, B)``
        buffer, whose transpose is returned, so that the signal and the
        objective's sum over the two components loop over the rows too."""
        sq = np.square(a.T, out=np.empty(a.T.shape))
        out = np.empty(sq.shape)
        np.add(self.h0 * sq[0], self.h1 * sq[1], out=out[0])
        np.add(self.h1 * sq[0], self.h0 * sq[1], out=out[1])
        return out.T

    def psi_grad(self, a):
        return self.psi(a), 2.0 * self.coeffs * a[:, None, :]

    # bound in each class body: the benchmark's tracer reads them from here
    signal, jacobian, axis_profile = _signal, _jacobian, _quadratic_profile


class _PixelArray:
    """Geometry shared by the slit-array models.

    ``M`` pixels of width ``d`` cover ``[0, M d]``; detectors sit at
    ``x_j = j step`` with ``step = d / r`` for a whole number ``r``, over the
    support padded by ``pad_factor d_R`` on both sides. Pixel edges thus lie
    on the detector grid, so a kernel coefficient depends on a pixel and a
    detector only through their offset. ``scale`` makes the reference object
    produce ``N`` expected events in total.
    """

    _positive = ("N", "d", "d_R")
    _scale = None

    def __post_init__(self):
        _finite_fields(self, skip=("M", "reference"))
        if any(getattr(self, key) <= 0 for key in self._positive):
            *head, last = self._positive
            raise ConfigError(f"{', '.join(head)} and {last} must be positive")
        m, self.M = self.M, _whole(self.M, "M", 1)
        r = 1.0 / self.step_factor if self.step_factor > 0 else 0.0
        if not (0.5 < r < math.inf and abs(r - round(r)) <= 1e-9 * r):
            raise ConfigError("step_factor must be 1/r for a whole number "
                              f"r >= 1, not {self.step_factor!r}")
        if self.pad_factor < 0:
            raise ConfigError("pad_factor must be a finite number >= 0, "
                              f"not {self.pad_factor!r}")
        ref = self.reference
        if isinstance(ref, np.ndarray) and ref.ndim == 1:
            ref = ref.tolist()
        if ref is None:
            try:
                self.reference = np.ones(self.M)
            except ValueError as exc:   # NumPy rejects the length outright
                raise ConfigError(f"M is too large for an array length: {m!r}"
                                  ) from exc
        elif (not isinstance(ref, (list, tuple))
              or not all(map(_finite_real, ref))):
            raise ConfigError("model parameter reference must be a flat list "
                              "of finite numbers")
        self.reference = np.asarray(self.reference, dtype=float)
        if self.reference.shape != (self.M,):
            raise ConfigError("reference amplitudes must have length M")
        try:
            self.detectors
        except (ValueError, OverflowError) as exc:
            raise ConfigError("detector grid is too large for an array "
                              f"length: pad_factor {self.pad_factor!r}, "
                              f"step_factor {self.step_factor!r}") from exc

    @property
    def dim(self) -> int:
        return self.M

    @property
    def labels(self):
        return tuple(f"A{m}" for m in range(1, self.M + 1))

    def box(self) -> BoxDomain:
        return unit_box(self.M)

    @property
    def step(self) -> float:
        return self.step_factor * self.d

    @property
    def pixel_steps(self) -> int:
        """Detector steps per pixel, ``r = d / step = 1 / step_factor``."""
        return round(1.0 / self.step_factor)

    @property
    def detectors(self) -> np.ndarray:
        pad = self.pad_factor * self.d_R
        j_min = math.ceil(-pad / self.step - 1e-12)
        j_max = math.floor((self.M * self.d + pad) / self.step + 1e-12)
        return np.arange(j_min, j_max + 1) * self.step

    @property
    def scale(self) -> float:
        if self._scale is None:
            total = float(np.sum(self.psi(self.reference[None, :]) ** 2))
            if total <= 0.0:
                raise ConfigError("reference object produces no signal")
            self._scale = self.N / total
        return self._scale


def slit_kernel_coeff(m: int, j: int, spec: "SlitArrayModel") -> float:
    """Sinc^2 kernel coefficient of pixel ``m`` seen by detector ``j``.

    ``m`` is the 1-based pixel index covering ``[(m-1) d, m d]`` and ``j``
    indexes the detector position ``x_j = j * step`` (step defaults to d/2).
    Evaluated by adaptive Simpson quadrature at 1e-10 relative tolerance.
    """
    return float(_slit_integrals(spec, np.array([j]), (m - 1) * spec.d,
                                 m * spec.d)[0])


def _slit_integrals(spec: "SlitArrayModel", j: np.ndarray, lo: float,
                    hi: float) -> np.ndarray:
    """Kernel coefficients over ``[lo, hi]`` of the detectors ``j``, in one
    batched quadrature."""
    k = KMAX_FACTOR / spec.d_R
    x_j = j * spec.step

    def integrand(s, i):
        return _sinc(k * (s - x_j[i])) ** 2

    return 4.0 * k * k * adaptive_simpson(integrand, lo, hi, j.size,
                                          rel_tol=1e-10)


@dataclass
class SlitArrayModel(_PixelArray):
    """Slit-array object under ideally correlated photon pairs.

    Only the diagonal of the correlation matrix is recorded:
    ``S_j = scale * (sum_m D_jm A_m^2)^2``.
    """

    N: float
    M: int
    d: float
    d_R: float = 1.0
    reference: np.ndarray | None = None
    pad_factor: float = 2.0      # detector grid padding in units of d_R
    step_factor: float = 0.5     # detector step in units of d

    _coeffs = None

    @property
    def coeffs(self) -> np.ndarray:
        """Kernel table ``D[j, m]``, detectors x pixels.

        ``D[j, m]`` depends only on the offset ``r (m - 1) - j``, so one
        batched quadrature over pixel 1, one integral per distinct offset,
        fills the table.
        """
        if self._coeffs is None:
            j = np.round(self.detectors / self.step).astype(int)
            offsets = self.pixel_steps * np.arange(self.M) - j[:, None]
            distinct, where = np.unique(offsets, return_inverse=True)
            values = _slit_integrals(self, -distinct, 0.0, self.d)
            self._coeffs = values[where.reshape(offsets.shape)]
        return self._coeffs

    def psi(self, a):
        return _row_products(a ** 2, self.coeffs)

    def psi_grad(self, a):
        return self.psi(a), 2.0 * self.coeffs * a[:, None, :]

    # bound in each class body: the benchmark's tracer reads them from here
    signal, jacobian, axis_profile = _signal, _jacobian, _quadratic_profile


def biphoton_g2_coeffs(spec: "BiphotonG2Model") -> np.ndarray:
    """Pair coupling table ``Dsym[p, m, l]`` of the biphoton model.

    ``p`` runs over the ``P = n_det (n_det + 1) / 2`` detector pairs
    ``i <= j`` in ``np.triu_indices`` order; the shape is ``(P, M, M)``.
    ``D^(ij)_ml`` integrates the product of the two sinc-kernel point-spread
    amplitudes against a normalized Gaussian pump-correlation factor of width
    ``sigma_c`` in the coordinate difference of the photon pair:

        D^(ij)_ml = int_{pix m} ds1 int_{pix l} ds2
                      g(s1 - s2; sigma_c) h(s1 - x_i) h(s2 - x_j)

    with ``h(u) = 2 k_max sinc(k_max u)``. The pump factor is even, so
    ``D^(ji)_ml = D^(ij)_lm``, and the table holds the exactly
    (m, l)-symmetric ``D^(ij)_ml + D^(ij)_lm``, so
    ``dPsi_ij/dA_m = sum_l Dsym[p, m, l] A_l``. In the ideal-correlation
    limit (sigma_c -> 0) the Gaussian acts as a delta function and the table
    becomes diagonal in (m, l), with the (j, j) pair's ``Dsym[p, m, m]``
    twice the slit-array coefficient for the same geometry.

    The double integral is a Gauss-Legendre product rule in the
    pixel-relative pair offset ``v = s1 - s2 - (m - l) d`` and in ``s1``.
    Measured from the pixel edges, its nodes then depend on the pixel
    offset ``o = m - l`` only where the cut-off ``|s1 - s2| <= 8 sigma_c``
    clips it. With ``d = r step`` the point-spread values depend only on
    ``r m - i`` and ``r l - j``, so the products of point-spread values,
    summed over ``s1`` at each ``v`` node, are computed once for every
    unclipped offset, and each offset weights them with its own Gaussian;
    a clipped offset gets its own nodes. Offset ``-o`` is offset ``o`` with
    the detectors swapped, so only ``o >= 0`` is computed. The products are
    a stack of small ones, one per ``v`` node (the rule ``psi_grad``
    follows), which an offset sums over the nodes in a fixed order: one
    product over all nodes would be split over BLAS threads that have to
    wake up for it.
    """
    xs = spec.detectors
    n_det = xs.size
    mm = spec.M
    d = spec.d
    step = spec.step
    r = spec.pixel_steps
    sig = spec.sigma_c
    k = KMAX_FACTOR / spec.d_R
    u_cut = 8.0 * sig
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * sig)
    gl_u, gw_u = gauss_legendre(16)
    gl_s, gw_s = gauss_legendre(24)

    def node_products(pieces, q1, q2, n_grid):
        """The ``v`` nodes and, per node, the ``(n_grid, n_grid)`` matrix
        ``sum_s w_s h(t1_s + (q1 + a) step) h(t2_s + (q2 + b) step)`` over the
        ``s1`` nodes, ``t1 = s1 - m d`` and ``t2 = s2 - l d``."""
        v = np.concatenate([0.5 * (pb - pa) * gl_u + 0.5 * (pa + pb)
                            for pa, pb in pieces])
        wu = np.concatenate([0.5 * (pb - pa) * gw_u for pa, pb in pieces])
        # s1 - m d runs over [a, b], the part of pixel m whose partner
        # s2 = s1 - v - o d falls inside pixel l (never empty: |v| < d)
        a = np.maximum(0.0, v)
        b = np.minimum(d, v + d)
        half = 0.5 * (b - a)
        t1 = half[:, None] * gl_s + (0.5 * (a + b))[:, None]   # (v, s1)
        t2 = t1 - v[:, None]                                    # s2 - l d
        w = (wu * half)[:, None] * gw_s

        def psf(t, q):
            return 2.0 * k * _sinc(k * (t[:, :, None]
                                        + np.arange(q, q + n_grid) * step))
        h1, h2 = psf(t1, q1), psf(t2, q2)
        return v, (h1 * w[:, :, None]).transpose(0, 2, 1) @ h2

    # Detector i sits at x_i = (j0 + i) step and pixel m's left edge at
    # r m step, so h(s1 - x_i) depends only on r m - j0 - i. Those indices
    # span q0 .. q0 + size - 1 over every pixel and detector.
    j0 = round(xs[0] / step)
    q0 = 1 - n_det - j0
    size = r * (mm - 1) + n_det
    # Offset o's matrix g holds D^(ij)_{m, m-o} at row r (m - o) + last_i
    # and column r (m - o) + last_j, last_i = n_det - 1 - i, and g.T holds
    # D^(ji)_{m, m-o} = D^(ij)_{m-o, m}: slab o, g + g.T, serves both
    # Dsym[p, m, m - o] and Dsym[p, m - o, m].
    slabs = np.zeros((mm, size, size))
    shared = None
    for o in range(mm):
        c = o * d
        v_lo, v_hi = max(-d, -u_cut - c), min(d, u_cut - c)
        if v_lo >= v_hi:            # and at every larger offset
            break
        n = size - r * o            # grid indices per side at this offset
        if (v_lo, v_hi) == (-d, d):
            if shared is None:
                shared = node_products([(-d, 0.0), (0.0, d)], q0, q0, size)
            v, prods = shared[0], shared[1][:, r * o:, :n]
        else:
            # the overlap length is piecewise linear in v with a kink at 0
            pieces = ([(v_lo, 0.0), (0.0, v_hi)] if v_lo < 0.0 < v_hi
                      else [(v_lo, v_hi)])
            v, prods = node_products(pieces, q0 + r * o, q0, n)
        gauss = norm * np.exp(-0.5 * ((v + c) / sig) ** 2)
        g = sum(gn * pn for gn, pn in zip(gauss, prods))
        np.add(g, g.T, out=slabs[o, :n, :n])
    # Dsym[p, m, l] = slabs.flat[at_pair[p] + at_pixels[m, l]]; the pairs
    # (i, j >= i) of one detector i are consecutive rows of the table
    m = np.arange(mm)
    at_pixels = (abs(m[:, None] - m) * size * size
                 + r * np.minimum.outer(m, m) * (size + 1))
    out = np.empty((n_det * (n_det + 1) // 2, mm, mm))
    first = 0
    for i in range(n_det):
        last = n_det - 1 - i
        at_pair = last * size + np.arange(last, -1, -1)
        slabs.take(at_pair[:, None, None] + at_pixels,   # all in range
                   out=out[first:first + last + 1], mode="clip")
        first += last + 1
    return out


@dataclass
class BiphotonG2Model(_PixelArray):
    """Slit-array object with the full correlation matrix recorded.

    Signal components are unordered detector pairs (i <= j):
    ``S_ij = scale * Psi_ij^2`` with ``Psi_ij = sum_ml D^(ij)_ml A_m A_l``.
    A finite pump correlation length couples distinct pixels (m != l),
    which keeps the Fisher matrix regular for partially dark objects.
    """

    N: float
    M: int
    d: float
    d_R: float = 1.0
    sigma_c: float = 0.15
    reference: np.ndarray | None = None
    pad_factor: float = 2.0
    step_factor: float = 0.5

    _positive = ("N", "d", "d_R", "sigma_c")
    _dsym = None

    def _ensure_tables(self):
        if self._dsym is None:
            self._dsym = biphoton_g2_coeffs(self)
        return self._dsym

    def psi_grad(self, a):
        """``Psi`` and ``dPsi/dA`` for a batch: shapes (B, P) and (B, P, M)."""
        # a @ Dsym[p] is Dsym[p] @ a, Dsym being symmetric in (m, l). One
        # small product per row and pair: a single large one is split over
        # BLAS threads, which the scan's pool threads would contend for.
        grad = (a[:, None, None, :] @ self._ensure_tables())[:, :, 0, :]
        psi = 0.5 * np.einsum("bpm,bm->bp", grad, a)
        return psi, grad

    def psi(self, a):
        return self.psi_grad(a)[0]

    def axis_profile(self, theta, v):
        """:func:`_quadratic_profile` without the axes' gradients, which take
        ``K P M`` floats: per chunk of pairs, ``Dsym[chunk] @ V`` (one small
        product per pair, as in ``psi_grad``) is contracted with ``theta``
        into ``g`` and with ``V`` into ``h``, in one buffer of about 1 MB.
        """
        theta = np.asarray(theta, dtype=float)
        axes = np.asarray(v, dtype=float)                           # (M, K)
        table = self._ensure_tables()
        g, h = np.empty((2, axes.shape[1], len(table)))
        chunk = min(len(table), max(1, _CHUNK_FLOATS // axes.size))
        buffer = np.empty((chunk,) + axes.shape)
        for lo in range(0, len(table), chunk):
            pairs = table[lo:lo + chunk]
            part = np.matmul(pairs, axes, out=buffer[:len(pairs)])  # (p, M, K)
            g[:, lo:lo + chunk] = (theta @ part).T
            h[:, lo:lo + chunk] = np.einsum("pmk,mk->kp", part, axes)
        return _square_law_profile(self.scale, g, h)

    # bound in each class body: the benchmark's tracer reads them from here
    signal, jacobian = _signal, _jacobian


ModelSpec = Union[Uniform1Model, TwoPixelModel, SlitArrayModel, BiphotonG2Model]


def _validated(model: ModelSpec, theta) -> np.ndarray:
    arr = np.asarray(theta, dtype=float)
    if arr.ndim != 1 or arr.size != model.dim:
        raise DimensionMismatch(
            f"model expects {model.dim} parameters, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteParameter(f"non-finite parameter entries: {arr}")
    return arr


def eval_signal(model: ModelSpec, theta) -> np.ndarray:
    """Mean signal vector S(theta) of a model; exact per-variant evaluation."""
    return model.signal(_validated(model, theta))


def eval_jacobian(model: ModelSpec, theta) -> np.ndarray:
    """Jacobian dS_i/dtheta_mu, shape (signal components, parameters)."""
    return model.jacobian(_validated(model, theta))


_VARIANTS = {
    "Uniform1": Uniform1Model,
    "TwoPixel": TwoPixelModel,
    "SlitArray": SlitArrayModel,
    "BiphotonG2": BiphotonG2Model,
}

def _finite_real(value) -> bool:
    """Whether ``value`` is a finite real number and not a boolean."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:               # an int beyond the float range
        return False


def _whole(value, name: str, minimum: int) -> int:
    """``value`` as an ``int``, or a :class:`ConfigError` naming it unless
    it is a whole number ``>= minimum``."""
    if not _finite_real(value) or value < minimum or value != math.floor(value):
        raise ConfigError(
            f"{name} must be a whole number >= {minimum}, not {value!r}")
    return int(value)


def _finite_fields(model, skip=()):
    """A :class:`ConfigError` unless each field outside ``skip`` is finite."""
    for key in (f.name for f in fields(model) if f.name not in skip):
        if not _finite_real(getattr(model, key)):
            raise ConfigError(f"model parameter {key} must be a finite "
                              f"number, not {getattr(model, key)!r}")


def _known_keys(doc: dict, keys: set, where: str = "config"):
    """Reject a key of ``doc`` outside ``keys``: it would be ignored."""
    unknown = sorted(set(doc) - keys)
    if unknown:
        raise ConfigError(f"{where} has unknown key {unknown[0]!r}")


def model_from_json(doc: dict) -> ModelSpec:
    """Build a model from a JSON object {"variant": ..., "params": {...}}.

    Lengths are unitless; express them in units of d_R (and set
    ``d_R = 1``) or in any one consistent unit. The model class checks
    the values, as it does when built directly: every parameter but
    ``reference`` must be a finite real number (not a boolean), and
    ``reference`` a flat list of them. Anything else, or a key besides
    ``variant`` and ``params``, is a :class:`ConfigError` naming the key.
    """
    if not isinstance(doc, dict) or "variant" not in doc:
        raise ConfigError("model document must carry 'variant' and 'params'")
    _known_keys(doc, {"variant", "params"}, "model document")
    variant = doc["variant"]
    if not isinstance(variant, str) or variant not in _VARIANTS:
        raise ConfigError(f"unknown model variant {variant!r}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("model params must be an object")
    allowed = {f.name for f in fields(_VARIANTS[variant])}
    unknown = set(params) - allowed
    if unknown:
        raise ConfigError(f"unknown parameters for {variant}: {sorted(unknown)}")
    try:
        return _VARIANTS[variant](**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {variant}: {exc}") from exc


def model_to_json(model: ModelSpec) -> dict:
    """Inverse of :func:`model_from_json` (coefficient caches excluded)."""
    for name, cls in _VARIANTS.items():
        if isinstance(model, cls):
            values = ((f.name, getattr(model, f.name)) for f in fields(cls))
            return {"variant": name, "params": {
                key: val.tolist() if isinstance(val, np.ndarray) else val
                for key, val in values}}
    raise ConfigError(f"not a known model: {model!r}")
